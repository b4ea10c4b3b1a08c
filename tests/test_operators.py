import numpy as np
import pytest

from photonloc import (FREQUENCY, POSITION, Grid, SpectralField,
                       apply_frequency_power, curl, helicity_apply,
                       helicity_parts, helicity_project, l2_inner,
                       l2_norm, momentum_amplitudes, plane_wave,
                       polarization_vector, strip_zero_mode,
                       synthesize_from_amplitudes, to_frequency, to_position,
                       transversality_residual, transverse_project)
from photonloc.errors import (DimensionError, TransversalityError,
                              ZeroModeError, ZeroWaveVectorError)
from photonloc.checks import random_band_limited
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
    eps = polarization_vector((1.0, 0.0, 0.0), +1)
    assert isinstance(eps, np.ndarray)
    assert eps.shape == (3,) and eps.dtype == np.complex128
    expected = np.array([0.0, -1.0j, 1.0]) / np.sqrt(2.0)
    assert np.max(np.abs(eps - expected)) < 1e-14

    eps_z = polarization_vector((0.0, 0.0, 1.0), +1)
    expected_z = np.array([-1.0, -1.0j, 0.0]) / np.sqrt(2.0)
    assert np.max(np.abs(eps_z - expected_z)) < 1e-14


def test_polarization_conjugation_and_eigenrelation(rng):
    for _ in range(20):
        k = rng.standard_normal(3) * 3.0
        plus = polarization_vector(tuple(k), +1)
        minus = polarization_vector(tuple(k), -1)
        assert np.max(np.abs(minus - np.conj(plus))) < 1e-13
        khat = k / np.linalg.norm(k)
        assert np.abs(np.vdot(plus, plus) - 1.0) < 1e-13
        assert np.abs(np.dot(khat, plus)) < 1e-13
        assert np.max(np.abs(1j * np.cross(khat, plus) - plus)) < 1e-12


def test_polarization_zero_wavevector():
    with pytest.raises(ZeroWaveVectorError):
        polarization_vector((0.0, 0.0, 0.0), +1)


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
