import numpy as np
import pytest

from photonloc import (FREQUENCY, POSITION, Grid, SpectralField,
                       apply_frequency_power, curl, helicity_apply,
                       helicity_parts, helicity_project, l2_inner,
                       l2_norm, momentum_amplitudes, plane_wave,
                       strip_zero_mode, synthesize_from_amplitudes,
                       to_frequency, to_position, transversality_residual,
                       transverse_project)
from photonloc.errors import (DimensionError, TransversalityError,
                              ZeroModeError, ZeroWaveVectorError)
from photonloc.checks import random_band_limited
from photonloc.fields import TRANSVERSE_TOL
from photonloc.grid import _polarization
from photonloc.operators import _unit_k
from photonloc.units import UnitsConfig


def _rel(a, b):
    return np.max(np.abs(a.data - b.data)) / np.max(np.abs(b.data))


def _random_transverse(grid, rng):
    shape = (3,) + grid.spatial_shape
    f = SpectralField(grid, rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape), FREQUENCY)
    return transverse_project(f)


# ------------------------------------------------------- frequency powers

def test_plane_wave_frequency_eigenvalue(grid_2pi):
    f = SpectralField(grid_2pi, np.exp(2j * grid_2pi.axis))
    out = apply_frequency_power(f, 1.0)
    assert _rel(out, 2.0 * f) < 1e-12


def test_power_zero_is_identity(grid1, rng):
    f = SpectralField(grid1, rng.standard_normal(grid1.n)
                      + 1j * rng.standard_normal(grid1.n))
    assert np.array_equal(apply_frequency_power(f, 0.0).data, f.data)


def test_gaussian_half_power_round_trip():
    g = Grid(1, 32.0, 2048)
    x = g.axis
    f = SpectralField(g, np.exp(1j * 10.0 * x) * np.exp(-0.5 * x ** 2))
    up = apply_frequency_power(f, 0.5)
    back = to_position(apply_frequency_power(up, -0.5))
    assert _rel(back, f) < 1e-10


def test_negative_power_zero_mode_guard(grid1):
    f = SpectralField(grid1, np.exp(-0.5 * grid1.axis ** 2))
    with pytest.raises(ZeroModeError):
        apply_frequency_power(f, -0.5)
    dropped = apply_frequency_power(f, -0.5, zero_mode="drop")
    stripped = strip_zero_mode(f)
    recovered = apply_frequency_power(dropped, 0.5)
    assert _rel(to_frequency(recovered), stripped) < 1e-10


def test_speed_of_light_scaling(grid_2pi):
    f = SpectralField(grid_2pi, np.exp(2j * grid_2pi.axis))
    out = apply_frequency_power(f, 1.0, UnitsConfig(c=3.0))
    assert _rel(out, 6.0 * f) < 1e-12


def test_half_power_asymptote_derived_oracle():
    """|W^(1/2) p|(x) -> (p~(0)/2)|x|^(-3/2) far from a unit sin^2 pulse.

    Oracle: stationary low-k expansion of the continuum Fourier integral,
    validated by high-resolution quadrature; 5% at x = 5 needs a box large
    enough to suppress periodic images.
    """
    from photonloc import sin2_profile
    g = Grid(1, 256.0, 65536)
    p = sin2_profile(g, 1.0)
    ft0 = np.abs(to_frequency(p).data[0])
    assert ft0 == pytest.approx(0.32573500793528, rel=1e-4)
    half = to_position(apply_frequency_power(p, 0.5))
    j = int(round((5.0 + 128.0) / g.spacing))
    predicted = 0.5 * ft0 * 5.0 ** -1.5
    assert np.abs(half.data[j]) == pytest.approx(predicted, rel=0.05)
    full = to_position(apply_frequency_power(p, 1.0))
    predicted_full = ft0 * np.sqrt(2.0 / np.pi) * 5.0 ** -2.0
    assert np.abs(full.data[j]) == pytest.approx(predicted_full, rel=0.05)


# ------------------------------------------------------------ curl & helicity

def test_curl_eigenrelation_on_plane_waves(grid3):
    for mode, sigma in (((1, 2, 0), 1), ((0, -3, 1), -1)):
        phi = plane_wave(grid3, mode, sigma)
        kmag = grid3.k_spacing * np.sqrt(sum(m * m for m in mode))
        assert _rel(curl(phi), sigma * kmag * phi) < 1e-10
        assert _rel(helicity_apply(phi), float(sigma) * phi) < 1e-10
        assert _rel(apply_frequency_power(phi, 1.0), kmag * phi) < 1e-12


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("domain", [POSITION, FREQUENCY])
def test_curl_and_helicity_keep_the_bytes_of_the_component_expressions(n, domain, rng):
    grid = Grid(3, 8.0, n)
    f = random_band_limited(grid, rng, transverse=True)
    if domain == POSITION:
        f = to_position(f)
    vx, vy, vz = to_frequency(f).data
    for apply, (ax, ay, az) in ((curl, grid.k_vectors), (helicity_apply, _unit_k(grid))):
        expected = np.stack([1j * (ay * vz - az * vy),
                             1j * (az * vx - ax * vz),
                             1j * (ax * vy - ay * vx)])
        if apply is helicity_apply:
            expected[grid.zero_mode_index()] = 0.0
        expected = SpectralField(grid, expected, FREQUENCY)
        if domain == POSITION:
            expected = to_position(expected)
        out = apply(f)
        assert out.domain == domain
        assert out.data.tobytes() == expected.data.tobytes()


def test_curl_of_constant_and_gradient(grid3):
    const = SpectralField(grid3, np.ones((3,) + grid3.spatial_shape))
    assert np.max(np.abs(curl(const).data)) < 1e-12
    kx, ky, kz = (np.broadcast_to(c, grid3.spatial_shape) for c in grid3.k_vectors)
    grad = SpectralField(grid3, np.stack([kx, ky, kz]).astype(complex), FREQUENCY)
    assert np.max(np.abs(curl(grad).data)) < 1e-12 * np.max(np.abs(grad.data))


def test_curl_rejects_1d(grid1_small):
    f = SpectralField(grid1_small, np.ones(grid1_small.n))
    with pytest.raises(DimensionError):
        curl(f)
    with pytest.raises(DimensionError):
        transverse_project(f)
    with pytest.raises(DimensionError):
        transversality_residual(f)


def test_helicity_squared_and_projectors_3d(grid3, rng):
    f = _random_transverse(grid3, rng)
    f = SpectralField(f.grid, f.data * (grid3.k_magnitude > 0), FREQUENCY, True)
    assert _rel(helicity_apply(helicity_apply(f)), f) < 1e-10
    pp = helicity_project(f, +1)
    pm = helicity_project(f, -1)
    assert _rel(helicity_project(pp, +1), pp) < 1e-12
    assert np.max(np.abs(helicity_project(pp, -1).data)) < 1e-12 * np.max(np.abs(f.data))
    assert _rel(pp + pm, f) < 1e-12
    assert _rel(helicity_apply(pp), pp) < 1e-10


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("domain", [POSITION, FREQUENCY])
def test_helicity_parts_equal_two_projections(grid1_small, grid3, rng, dim, domain):
    f = random_band_limited(grid1_small if dim == 1 else grid3, rng,
                            transverse=True)
    if domain == POSITION:
        f = to_position(f)
    parts = helicity_parts(f)
    assert len(parts) == 2
    for part, sign in zip(parts, (+1, -1)):
        ref = helicity_project(f, sign)
        assert part.domain == ref.domain == domain
        assert part.transverse == ref.transverse
        assert np.array_equal(part.data, ref.data)


@pytest.mark.parametrize("dim", [1, 3])
def test_helicity_parts_keep_the_values_of_the_three_temporary_expression(
        grid1_small, grid3, rng, dim):
    # v + L.v and v - L.v replace v + (+-1)*L.v: every nonzero entry keeps
    # its bytes; an exact zero (a masked mode) may carry the other sign.
    f = random_band_limited(grid1_small if dim == 1 else grid3, rng, transverse=True)
    lam = helicity_apply(f)
    for part, sign in zip(helicity_parts(f), (+1, -1)):
        old = 0.5 * (f.data + sign * lam.data)
        assert np.array_equal(part.data, old)
        nonzero = old != 0.0
        assert nonzero.any()
        assert part.data[nonzero].tobytes() == old[nonzero].tobytes()


def test_transverse_flag_is_checked_where_set_and_kept_by_operators(grid3, rng):
    f = _random_transverse(grid3, rng)
    assert f.transverse
    for out in (f.copy(), to_position(f), -f, 2.0 * f, f / 3.0, f + f, f - f,
                strip_zero_mode(f), curl(f), helicity_apply(f),
                apply_frequency_power(f, 0.5), *helicity_parts(f)):
        assert out.transverse
    gradient = np.stack(np.broadcast_arrays(*grid3.k_vectors)).astype(complex)
    assert not (f + SpectralField(grid3, gradient, FREQUENCY)).transverse


def test_helicity_requires_transversality(grid3, rng):
    shape = (3,) + grid3.spatial_shape
    f = SpectralField(grid3, rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape), FREQUENCY)
    with pytest.raises(TransversalityError):
        helicity_apply(f)


def test_helicity_1d_sign_convention(grid_2pi):
    f = SpectralField(grid_2pi, np.exp(-3j * grid_2pi.axis))
    assert _rel(helicity_apply(f), -1.0 * f) < 1e-12
    g = SpectralField(grid_2pi, np.exp(3j * grid_2pi.axis))
    assert _rel(helicity_apply(g), 1.0 * g) < 1e-12


def test_transverse_project_examples(grid3, rng):
    kx, ky, kz = (np.broadcast_to(c, grid3.spatial_shape) for c in grid3.k_vectors)
    grad = SpectralField(grid3, np.stack([kx, ky, kz]).astype(complex), FREQUENCY)
    assert np.max(np.abs(transverse_project(grad).data)) < 1e-12
    f = _random_transverse(grid3, rng)
    assert transversality_residual(f) < 1e-12
    assert _rel(transverse_project(f), f) < 1e-12


# ------------------------------------------------------------- polarization

def test_polarization_hand_values():
    eps = _polarization(1.0, 0.0, 0.0)
    assert isinstance(eps, np.ndarray)
    assert eps.shape == (3,) and eps.dtype == np.complex128
    expected = np.array([0.0, -1.0j, 1.0]) / np.sqrt(2.0)
    assert np.max(np.abs(eps - expected)) < 1e-14

    eps_z = _polarization(0.0, 0.0, 1.0)
    expected_z = np.array([-1.0, -1.0j, 0.0]) / np.sqrt(2.0)
    assert np.max(np.abs(eps_z - expected_z)) < 1e-14


def test_polarization_conjugation_and_eigenrelation(grid3, rng):
    """At random k: unit norm, k^ . eps(+) = 0, i k^ x eps(+) = eps(+), and
    the table's second row is the conjugate of its first."""
    k = rng.standard_normal((3, 20)) * 3.0
    plus = _polarization(*k)
    assert plus.shape == (3, 20)
    khat = k / np.linalg.norm(k, axis=0)
    assert np.max(np.abs(np.sum(np.abs(plus) ** 2, axis=0) - 1.0)) < 1e-13
    assert np.max(np.abs(np.sum(khat * plus, axis=0))) < 1e-13
    assert np.max(np.abs(1j * np.cross(khat, plus, axis=0) - plus)) < 1e-12
    table = grid3.polarization_table
    assert np.array_equal(table[1], np.conj(table[0]))


def test_polarization_zero_wavevector(grid3):
    """No direction at k = 0: the formula and the table give the zero
    vector there."""
    assert np.array_equal(_polarization(0.0, 0.0, 0.0), np.zeros(3))
    assert np.array_equal(grid3.polarization_table[:, :, 0, 0, 0], np.zeros((2, 3)))


def test_plane_wave_polarization_is_the_table_column_bit_for_bit():
    """At x = 0 the phase is exactly 1, so the sample there is
    (2 pi)**-1.5 eps_sigma(k): it must equal the table's column at every
    nonzero mode, for both sigma."""
    g = Grid(3, 2.0 * np.pi, 16)
    c = g.n // 2
    assert g.axis[c] == 0.0
    table = g.polarization_table
    for mode in np.ndindex(g.spatial_shape):
        if mode == (0, 0, 0):
            continue
        modes = tuple(int(m) for m in g.mode_numbers[list(mode)])
        for row, sigma in ((0, 1), (1, -1)):
            sample = plane_wave(g, modes, sigma).data[:, c, c, c]
            expected = (2.0 * np.pi) ** -1.5 * table[(row, slice(None)) + mode]
            assert np.array_equal(sample, expected), (modes, sigma)


@pytest.mark.parametrize("dim, mode, sigma", [
    (1, 4, None), (1, 5, None), (1, -5, None),
    (3, (4, 1, 0), 1), (3, (1, -5, 0), 1), (3, (0, 0, 5), -1),
    (3, (1, 0, 0), 0),
    (1, 1.5, None), (1, np.float64(1.0), None), (3, (1.5, 0, 0), 1),
    (3, (1, 0, np.float64(2.0)), -1)])
def test_plane_wave_rejects_an_off_lattice_mode_or_a_bad_sigma(dim, mode, sigma):
    """On an n = 8 grid mode numbers lie in [-4, 4): +n/2 and beyond would
    alias to the opposite helicity, and a 3d wave there is not transverse
    on the grid.  A mode number must be an integer: int() would truncate
    1.5 to the neighbouring lattice mode 1."""
    with pytest.raises(ValueError):
        plane_wave(Grid(dim, 2.0 * np.pi, 8), mode, sigma)


def test_plane_wave_takes_numpy_integer_mode_numbers():
    g1, g3 = Grid(1, 2.0 * np.pi, 8), Grid(3, 2.0 * np.pi, 8)
    assert np.array_equal(plane_wave(g1, np.int64(-3)).data, plane_wave(g1, -3).data)
    assert np.array_equal(plane_wave(g3, np.array([1, -2, 3]), 1).data,
                          plane_wave(g3, (1, -2, 3), 1).data)


def test_every_lattice_plane_wave_is_measured_transverse_and_a_helicity_eigenfield():
    """The transverse flag plane_wave sets is honest at every nonzero mode
    of an 8**3 grid, the Nyquist planes included."""
    g = Grid(3, 2.0 * np.pi, 8)
    for mode in np.ndindex(g.spatial_shape):
        if mode == (0, 0, 0):
            continue
        modes = tuple(int(m) for m in g.mode_numbers[list(mode)])
        for sigma in (1, -1):
            phi = plane_wave(g, modes, sigma)
            assert transversality_residual(SpectralField(g, phi.data)) <= TRANSVERSE_TOL
            assert _rel(helicity_apply(phi), sigma * phi) < 1e-12, (modes, sigma)


def test_plane_wave_zero_mode_rejected(grid3, grid1_small):
    with pytest.raises(ZeroWaveVectorError):
        plane_wave(grid3, (0, 0, 0), 1)
    with pytest.raises(ZeroWaveVectorError):
        plane_wave(grid1_small, 0)


def test_plane_wave_orthogonality(grid3):
    a = plane_wave(grid3, (1, 0, 0), 1)
    b = plane_wave(grid3, (1, 2, 0), 1)
    c = plane_wave(grid3, (1, 0, 0), -1)
    na, nb = l2_norm(a), l2_norm(b)
    assert abs(l2_inner(a, b)) < 1e-12 * na * nb
    assert abs(l2_inner(a, c)) < 1e-12 * na * l2_norm(c)


# ------------------------------------------------------ momentum amplitudes

def test_amplitudes_delta_concentrated(grid3):
    phi = plane_wave(grid3, (2, 1, 0), 1)
    amps = momentum_amplitudes(to_frequency(phi))
    peak_idx = np.unravel_index(np.argmax(np.abs(amps.plus)), amps.plus.shape)
    assert peak_idx == (2, 1, 0)
    others = np.abs(amps.plus).copy()
    others[peak_idx] = 0.0
    assert np.max(others) < 1e-12 * np.abs(amps.plus[peak_idx])
    assert np.max(np.abs(amps.minus)) < 1e-12 * np.abs(amps.plus[peak_idx])


def test_amplitudes_round_trip_and_parseval(grid3, rng):
    f = _random_transverse(grid3, rng)
    f = SpectralField(f.grid, strip_zero_mode(f).data, FREQUENCY, True)
    amps = momentum_amplitudes(f)
    back = to_frequency(synthesize_from_amplitudes(amps))
    assert _rel(back, f) < 1e-12
    assert amps.norm_squared() == pytest.approx(l2_norm(f) ** 2, rel=1e-10)


def test_amplitudes_1d_sign_split(grid1, rng):
    data = rng.standard_normal(grid1.n) + 1j * rng.standard_normal(grid1.n)
    data[0] = 0.0
    f = SpectralField(grid1, data, FREQUENCY)
    amps = momentum_amplitudes(f)
    back = to_frequency(synthesize_from_amplitudes(amps))
    assert _rel(back, f) < 1e-12
    assert amps.norm_squared() == pytest.approx(l2_norm(f) ** 2, rel=1e-10)
