"""Property tests of the transform pair over dimension, even n and box length.

The examples are derandomized and bounded, so the run is repeatable and
short.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from photonloc import (FREQUENCY, Grid, SpectralField, forward_transform,
                       inverse_transform)

# n per axis: up to 256 points in 1d, up to 16**3 in 3d.
MAX_HALF_N = {1: 128, 3: 8}


@st.composite
def fields(draw):
    dim = draw(st.sampled_from([1, 3]))
    n = 2 * draw(st.integers(1, MAX_HALF_N[dim]))
    length = draw(st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    g = Grid(dim, length, n)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(g.field_shape) + 1j * rng.standard_normal(g.field_shape)
    return g, data


PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None,
                             database=None)


@PROPERTY_SETTINGS
@given(fields())
def test_round_trip_is_the_identity(case):
    g, data = case
    v = SpectralField(g, data)
    w = inverse_transform(forward_transform(v))
    assert np.max(np.abs(w.data - data)) < 1e-12 * np.max(np.abs(data))
    vt = SpectralField(g, data, FREQUENCY)
    wt = forward_transform(inverse_transform(vt))
    assert np.max(np.abs(wt.data - data)) < 1e-12 * np.max(np.abs(data))


@PROPERTY_SETTINGS
@given(fields())
def test_parseval_holds_in_both_directions(case):
    g, data = case
    energy_x = g.cell_volume * np.sum(np.abs(data) ** 2)
    energy_k = g.k_cell_volume * np.sum(np.abs(forward_transform(SpectralField(g, data)).data) ** 2)
    assert energy_k == pytest.approx(energy_x, rel=1e-12)
    energy_k = g.k_cell_volume * np.sum(np.abs(data) ** 2)
    energy_x = g.cell_volume * np.sum(
        np.abs(inverse_transform(SpectralField(g, data, FREQUENCY)).data) ** 2)
    assert energy_x == pytest.approx(energy_k, rel=1e-12)
