import numpy as np
import pytest

from photonloc import Grid, fields


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid1():
    """Standard 1D test grid (box 16, moderate resolution)."""
    return Grid(1, 16.0, 2048)


@pytest.fixture
def grid1_small():
    return Grid(1, 16.0, 256)


@pytest.fixture
def grid3():
    """Small 3D grid for operator tests."""
    return Grid(3, 8.0, 16)


@pytest.fixture
def grid_2pi():
    """1D grid whose wavevector lattice is the integers."""
    return Grid(1, 2.0 * np.pi, 128)


@pytest.fixture
def transform_counts(monkeypatch):
    """Calls of fields.forward_transform and inverse_transform, through
    which every to_frequency and to_position goes, as {"forward": n,
    "inverse": n}; a test zeroes the counts before the call it counts."""
    counts = {"forward": 0, "inverse": 0}
    for kind in counts:
        def counted(field, kind=kind, original=getattr(fields, f"{kind}_transform")):
            counts[kind] += 1
            return original(field)

        monkeypatch.setattr(fields, f"{kind}_transform", counted)
    return counts
