import numpy as np
import pytest

from photonloc import DimensionError, Grid


def test_axis_and_spacing():
    g = Grid(1, 16.0, 64)
    assert g.spacing == pytest.approx(0.25)
    assert g.axis[0] == pytest.approx(-8.0)
    assert g.axis[-1] == pytest.approx(8.0 - 0.25)
    assert g.k_spacing == pytest.approx(2.0 * np.pi / 16.0)


def test_mode_numbers_fft_order():
    g = Grid(1, 4.0, 8)
    assert list(g.mode_numbers) == [0, 1, 2, 3, -4, -3, -2, -1]
    assert g.k_axis[1] == pytest.approx(g.k_spacing)
    assert g.zero_mode_index() == (0,)
    assert g.field_shape == (8,)


def test_3d_shapes_broadcast():
    g = Grid(3, 8.0, 16)
    assert g.spatial_shape == (16, 16, 16)
    kx, ky, kz = g.k_vectors
    assert kx.shape == (16, 1, 1)
    assert ky.shape == (1, 16, 1)
    assert kz.shape == (1, 1, 16)
    assert g.k_magnitude.shape == (16, 16, 16)
    assert g.k_magnitude[0, 0, 0] == 0.0
    assert g.zero_mode_index() == (slice(None), 0, 0, 0)
    assert g.field_shape == (3, 16, 16, 16)


def test_polarization_table_cached_on_the_grid():
    g = Grid(3, 8.0, 8)
    table = g.polarization_table
    assert table.shape == (2, 3, 8, 8, 8)
    assert table is g.polarization_table
    assert not table.flags.writeable
    assert np.all(table[:, :, 0, 0, 0] == 0.0)
    with pytest.raises(DimensionError):
        Grid(1, 8.0, 8).polarization_table


def test_radius_centered():
    g = Grid(1, 16.0, 64)
    assert g.radius[0] == pytest.approx(8.0)
    assert g.radius[32] == pytest.approx(0.0)
    g3 = Grid(3, 8.0, 8)
    assert g3.radius[0, 0, 0] == pytest.approx(np.sqrt(3.0) * 4.0)


def test_alternating_phase_values():
    g = Grid(1, 4.0, 8)
    assert list(g.alternating_phase[:4]) == [1.0, -1.0, 1.0, -1.0]


def test_validation():
    with pytest.raises(ValueError):
        Grid(2, 8.0, 16)
    for length in (-1.0, 0.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            Grid(1, length, 16)
        with pytest.raises(ValueError, match="finite and positive"):
            Grid(3, length, 8)
    with pytest.raises(ValueError):
        Grid(1, 8.0, 17)
    with pytest.raises(ValueError):
        Grid(1, 8.0, 0)


def test_hashable_and_frozen():
    a = Grid(1, 8.0, 16)
    b = Grid(1, 8.0, 16)
    assert a == b and hash(a) == hash(b)
    with pytest.raises(Exception):
        a.n = 32
    assert not a.axis.flags.writeable

