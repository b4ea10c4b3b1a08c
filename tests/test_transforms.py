import numpy as np
import pytest

from photonloc import (FREQUENCY, POSITION, Grid, SpectralField,
                       forward_transform, inverse_transform, l2_inner,
                       l2_norm, strip_zero_mode, to_frequency, to_position,
                       zero_mode_amplitude)
from photonloc.errors import DomainError, GridMismatchError


def test_constant_field_concentrates_in_zero_mode(grid1_small):
    f = SpectralField(grid1_small, np.ones(grid1_small.n))
    ft = forward_transform(f)
    expected = grid1_small.length / np.sqrt(2.0 * np.pi)
    assert ft.data[0] == pytest.approx(expected, rel=1e-13)
    assert np.max(np.abs(ft.data[1:])) < 1e-12 * expected


def test_single_mode_purity(grid1_small):
    k5 = 5 * grid1_small.k_spacing
    f = SpectralField(grid1_small, np.exp(1j * k5 * grid1_small.axis))
    ft = forward_transform(f)
    mags = np.abs(ft.data)
    assert np.argmax(mags) == 5
    others = np.delete(mags, 5)
    assert np.max(others) < 1e-12 * mags[5]


def test_single_mode_inverse(grid1_small):
    g = grid1_small
    data = np.zeros(g.n, dtype=np.complex128)
    amp = 2.5 - 0.5j
    data[5] = amp
    back = inverse_transform(SpectralField(g, data, FREQUENCY))
    expected = (amp * g.k_cell_volume / np.sqrt(2.0 * np.pi)
                * np.exp(1j * 5 * g.k_spacing * g.axis))
    assert np.max(np.abs(back.data - expected)) < 1e-13 * np.abs(amp)


def test_round_trip_1d(grid1, rng):
    v = SpectralField(grid1, rng.standard_normal(grid1.n)
                      + 1j * rng.standard_normal(grid1.n))
    w = inverse_transform(forward_transform(v))
    assert np.max(np.abs(w.data - v.data)) < 1e-12 * np.max(np.abs(v.data))


def test_round_trip_3d(grid3, rng):
    shape = (3,) + grid3.spatial_shape
    v = SpectralField(grid3, rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape))
    w = inverse_transform(forward_transform(v))
    assert np.max(np.abs(w.data - v.data)) < 1e-12 * np.max(np.abs(v.data))


def test_zero_field_round_trip(grid1_small):
    z = SpectralField(grid1_small, np.zeros(grid1_small.n))
    assert np.all(forward_transform(z).data == 0.0)


def test_parseval(grid1, grid3, rng):
    for g in (grid1, grid3):
        shape = g.spatial_shape if g.dim == 1 else (3,) + g.spatial_shape
        v = SpectralField(g, rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))
        ft = forward_transform(v)
        a = g.cell_volume * np.sum(np.abs(v.data) ** 2)
        b = g.k_cell_volume * np.sum(np.abs(ft.data) ** 2)
        assert a == pytest.approx(b, rel=1e-12)
        assert l2_norm(v) == pytest.approx(l2_norm(ft), rel=1e-12)


def test_inner_product_conjugate_linear(grid1_small, rng):
    g = grid1_small
    a = SpectralField(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    b = SpectralField(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    ip = l2_inner(a, b)
    assert l2_inner(b, a) == pytest.approx(np.conj(ip), rel=1e-12)
    assert l2_inner(2j * a, b) == pytest.approx(-2j * ip, rel=1e-12)
    assert l2_inner(a, a).real >= 0.0


def test_domain_guards(grid1_small):
    f = SpectralField(grid1_small, np.ones(grid1_small.n))
    with pytest.raises(DomainError):
        inverse_transform(f)
    ft = forward_transform(f)
    with pytest.raises(DomainError):
        forward_transform(ft)
    assert to_frequency(ft) is ft
    assert to_position(f) is f
    with pytest.raises(DomainError):
        zero_mode_amplitude(f)


def test_strip_zero_mode(grid1_small):
    f = SpectralField(grid1_small, np.ones(grid1_small.n) + 0.3)
    stripped = strip_zero_mode(f)
    assert zero_mode_amplitude(stripped) == 0.0
    pos = to_position(stripped)
    assert np.max(np.abs(pos.data)) < 1e-12


def test_grid_mismatch_arithmetic():
    a = SpectralField(Grid(1, 16.0, 64), np.ones(64))
    b = SpectralField(Grid(1, 16.0, 128), np.ones(128))
    with pytest.raises(GridMismatchError):
        _ = a + b
    c = forward_transform(SpectralField(Grid(1, 16.0, 64), np.ones(64)))
    with pytest.raises(DomainError):
        _ = a + c


def test_shape_validation():
    g = Grid(1, 16.0, 64)
    with pytest.raises(ValueError):
        SpectralField(g, np.ones((3, 64)))
    g3 = Grid(3, 8.0, 8)
    with pytest.raises(ValueError):
        SpectralField(g3, np.ones((8, 8, 8, 3)))


# --- transform contract: one fresh array, the input untouched ---------------

CONTRACT_GRIDS = [Grid(1, 16.0, 256), Grid(1, 3.7, 64), Grid(3, 8.0, 16),
                  Grid(3, 2.5, 8)]


def _random_field_data(g, rng):
    shape = g.field_shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _reference_forward(g, data):
    """The transform written out of place: every factor a fresh array."""
    scale = g.cell_volume * (2.0 * np.pi) ** (-0.5 * g.dim)
    axes = tuple(range(-g.dim, 0))
    return scale * g.alternating_phase * np.fft.fftn(data, axes=axes)


def _reference_inverse(g, data):
    scale = g.k_cell_volume * (2.0 * np.pi) ** (-0.5 * g.dim) * float(g.n) ** g.dim
    axes = tuple(range(-g.dim, 0))
    return scale * np.fft.ifftn(g.alternating_phase * data, axes=axes)


@pytest.mark.parametrize("g", CONTRACT_GRIDS, ids=repr)
def test_transforms_match_the_out_of_place_expressions_bitwise(g, rng):
    data = _random_field_data(g, rng)
    ft = forward_transform(SpectralField(g, data))
    assert np.array_equal(ft.data, _reference_forward(g, data))
    back = inverse_transform(SpectralField(g, data, FREQUENCY))
    assert np.array_equal(back.data, _reference_inverse(g, data))


@pytest.mark.parametrize("g", CONTRACT_GRIDS, ids=repr)
def test_transforms_leave_their_input_unchanged(g, rng):
    data = _random_field_data(g, rng)
    before = data.tobytes()
    for writeable in (True, False):     # a read-only input works as well
        data.setflags(write=writeable)
        f = SpectralField(g, data)
        assert f.data is data
        forward_transform(f)
        inverse_transform(SpectralField(g, data, FREQUENCY))
        assert data.tobytes() == before


@pytest.mark.parametrize("g", CONTRACT_GRIDS, ids=repr)
def test_transform_output_is_a_fresh_writable_array(g, rng):
    data = _random_field_data(g, rng)
    for out, domain in ((forward_transform(SpectralField(g, data)), FREQUENCY),
                        (inverse_transform(SpectralField(g, data, FREQUENCY)), POSITION)):
        assert out.domain == domain
        assert out.data.flags.writeable
        assert out.data.dtype == np.complex128
        assert out.data.shape == g.field_shape
        assert not np.shares_memory(out.data, data)
        assert not np.shares_memory(out.data, g.alternating_phase)


# --- direct O(n^2) DFT oracle ------------------------------------------------

def _direct_sums(g):
    """The trapezoidal sums of the continuum pair written out term by term.

    Returns (positions, wavevectors), each of shape (n**dim, dim), with the
    positions x_j = -L/2 + j*dx and the wavevectors k_m = 2*pi*m/L in FFT
    order, both flattened in the C order of the field's spatial axes.  They
    are built here from L and n alone, not from the grid's own tables.
    """
    dx = g.length / g.n
    x = -0.5 * g.length + dx * np.arange(g.n)
    m = np.concatenate([np.arange(0, g.n // 2), np.arange(-g.n // 2, 0)])
    k = 2.0 * np.pi / g.length * m
    xs = np.stack(np.meshgrid(*([x] * g.dim), indexing="ij"), axis=-1)
    ks = np.stack(np.meshgrid(*([k] * g.dim), indexing="ij"), axis=-1)
    return xs.reshape(-1, g.dim), ks.reshape(-1, g.dim)


def _direct_transform(g, data, sign):
    """sign = -1: v~(k_m) = (2 pi)^(-d/2) dx^d sum_j v(x_j) exp(-i k_m.x_j);
    sign = +1: v(x_j) = (2 pi)^(-d/2) dk^d sum_m v~(k_m) exp(+i k_m.x_j)."""
    xs, ks = _direct_sums(g)
    if sign < 0:
        kernel = np.exp(-1j * (ks @ xs.T))           # rows k_m, columns x_j
        weight = (g.length / g.n) ** g.dim
    else:
        kernel = np.exp(1j * (xs @ ks.T))            # rows x_j, columns k_m
        weight = (2.0 * np.pi / g.length) ** g.dim
    weight *= (2.0 * np.pi) ** (-0.5 * g.dim)
    flat = data.reshape(-1, g.n ** g.dim)            # one row per component
    out = weight * (flat @ kernel.T)
    return out.reshape(data.shape)


ORACLE_GRIDS = [Grid(dim, length, n)
                for dim, n in ((1, 8), (1, 64), (3, 8))
                for length in (16.0, 2.0 * np.pi / 3.0)]


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("g", ORACLE_GRIDS, ids=repr)
def test_forward_transform_matches_the_direct_sum(g, rng):
    data = _random_field_data(g, rng)
    ft = forward_transform(SpectralField(g, data))
    assert _rel_err(ft.data, _direct_transform(g, data, -1)) < 1e-12


@pytest.mark.parametrize("g", ORACLE_GRIDS, ids=repr)
def test_inverse_transform_matches_the_direct_sum(g, rng):
    data = _random_field_data(g, rng)
    back = inverse_transform(SpectralField(g, data, FREQUENCY))
    assert _rel_err(back.data, _direct_transform(g, data, +1)) < 1e-12
