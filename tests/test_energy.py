import numpy as np
import pytest

import tracemalloc

from photonloc import (FREQUENCY, BBState, DetectorVolume, EnergyDensityMap, Grid,
                       LPState, SpectralField, apply_frequency_power,
                       detector_energy, energy_density, helicity_apply, helicity_parts,
                       knight_locality_test, magnitude, make_bb_compact,
                       make_lp_compact, plane_wave, strip_zero_mode, to_frequency,
                       to_position, total_energy, volume_weights)
from photonloc.errors import VolumeOutOfDomainError
from photonloc.units import UnitsConfig

from test_golden import _state_3d  # noqa: E402
from test_states import _random_em, _real_zero_mean  # noqa: E402
from photonloc import lp_from_potentials


# ------------------------------------------------------------- density map

def test_zero_state_zero_map(grid1_small):
    zero = SpectralField(grid1_small, np.zeros(grid1_small.n, dtype=complex))
    emap = energy_density(LPState(zero))
    assert np.max(emap.values) == 0.0
    assert total_energy(emap) == 0.0
    assert emap.two_path_discrepancy == 0.0
    report = knight_locality_test(emap, DetectorVolume.interval(-1.0, 1.0))
    assert report.verdict == "indistinguishable-at-floor"
    assert not report.distinguishable


def test_energy_density_rejects_other_types(grid1_small):
    with pytest.raises(TypeError):
        energy_density(np.zeros(grid1_small.n))


def test_scale_covariance(grid1, rng):
    state = lp_from_potentials(_random_em(grid1, rng))
    base = energy_density(state)
    scaled = energy_density(LPState(3j * state.psi))
    assert np.max(np.abs(scaled.values - 9.0 * base.values)) \
        < 1e-10 * np.max(base.values)


def _states_in_both_domains():
    grid = Grid(1, 16.0, 1024)
    for name, state in (("lp-1d", make_lp_compact(grid, 1.0)),
                        ("bb-1d", make_bb_compact(grid, 1.0)),
                        ("lp-3d", _state_3d("lp")), ("bb-3d", _state_3d("bb"))):
        yield pytest.param(state, id=f"{name}-position")
        yield pytest.param(type(state)(to_frequency(state.field), state.units),
                           id=f"{name}-frequency")


@pytest.mark.parametrize("state", list(_states_in_both_domains()))
def test_values_keep_the_bits_of_the_position_round_trip(state):
    # The values as they were computed before energy_density worked from
    # one frequency image: the BB image F = i sqrt(hbar) W**(1/2) psi in the
    # state's own domain, split, and each part taken to position.
    u = state.units
    if state.representation == "lp":
        f_full = 1j * np.sqrt(u.hbar) * apply_frequency_power(state.field, 0.5, u)
    else:
        f_full = state.field
    plus, minus = (magnitude(to_position(p)) for p in helicity_parts(f_full))
    expected = plus ** 2 + minus ** 2
    assert energy_density(state).values.tobytes() == expected.tobytes()


def _mean_carrying_bb_3d():
    """The 16^3 BB state with a constant vector added at the zero mode."""
    f = to_frequency(_state_3d("bb").field).copy()
    f.data[f.grid.zero_mode_index()] = (0.3 - 0.1j, -0.2j, 0.25)
    return BBState(to_position(f))


def _whole_field_formula(state):
    """energy_density's values and two-path discrepancy as computed before
    its kernels worked in place: every step a fresh array, both helicity
    parts held at once, the magnitude from the whole |v|**2 array."""
    u = state.units

    def parts(field):
        lam = helicity_apply(field)
        return [SpectralField(field.grid, op(field.data, lam.data) * 0.5, FREQUENCY)
                for op in (np.add, np.subtract)]

    def quadrance(pair):
        plus, minus = (np.abs(d) if d.ndim == 1 else np.sqrt(np.sum(np.abs(d) ** 2, axis=0))
                       for d in (to_position(p).data for p in pair))
        return plus ** 2 + minus ** 2

    own = to_frequency(state.field)
    if state.representation == "lp":
        half = apply_frequency_power(own, 0.5, u)
        f_full = 1j * np.sqrt(u.hbar) * (to_position(half) if state.field.is_position else half)
        psi_hat, f_hat = own, to_frequency(f_full)
    else:
        psi_hat = (-1j / np.sqrt(u.hbar)) * apply_frequency_power(own, -0.5, u, zero_mode="drop")
        f_hat = own
    f_parts = parts(f_hat)
    values = quadrance(f_parts)
    ref = values if state.representation == "lp" else quadrance(
        strip_zero_mode(p) for p in f_parts)
    lp_vals = u.hbar * quadrance(apply_frequency_power(p, 0.5, u) for p in parts(psi_hat))
    scale = float(np.max(ref))
    disc = 0.0 if scale == 0.0 else float(np.max(np.abs(lp_vals - ref))) / scale
    return values, disc


def _states_for_bit_identity():
    yield from _states_in_both_domains()
    state = _mean_carrying_bb_3d()
    yield pytest.param(state, id="bb-3d-mean-position")
    yield pytest.param(BBState(to_frequency(state.field)), id="bb-3d-mean-frequency")


@pytest.mark.parametrize("state", list(_states_for_bit_identity()))
def test_energy_density_keeps_the_bits_of_the_whole_field_formula(state):
    values, disc = _whole_field_formula(state)
    emap = energy_density(state)
    assert emap.values.tobytes() == values.tobytes()
    assert emap.two_path_discrepancy == disc


def test_the_mean_carrying_3d_state_takes_the_stripped_reference():
    # Its unstripped parts would be compared with an LP image that has no
    # mean: the discrepancy is rounding-level only through strip_zero_mode.
    state = _mean_carrying_bb_3d()
    assert np.abs(to_frequency(state.field).data[:, 0, 0, 0]).min() > 0.1
    assert energy_density(state).two_path_discrepancy < 1e-12


def _traced_peak(call) -> int:
    """Bytes that call() allocates at its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("representation", ["lp", "bb"])
def test_energy_density_at_64_cubed_peaks_below_4_7_fields(representation):
    state = _state_3d(representation, n=64)
    energy_density(state)  # fills the grid's k-space caches, which outlive the call
    peak = _traced_peak(lambda: energy_density(state))
    assert peak <= 4.7 * state.field.data.nbytes


@pytest.mark.parametrize("representation", ["lp", "bb"])
def test_energy_density_of_a_3d_position_state_makes_seven_transforms(
        representation, transform_counts):
    state = _state_3d(representation)
    assert state.field.is_position
    transform_counts.update(forward=0, inverse=0)
    energy_density(state)
    assert transform_counts["forward"] + transform_counts["inverse"] <= 7


def test_two_path_agreement_random_states(grid1, grid3, rng):
    for grid in (grid1, grid3):
        state = lp_from_potentials(_random_em(grid, rng))
        emap = energy_density(state)
        assert emap.two_path_discrepancy < 1e-10
        bb_map = energy_density(LPState(state.psi))
        assert np.max(np.abs(bb_map.values - emap.values)) \
            <= 1e-12 * np.max(emap.values)


def test_two_path_agreement_mean_carrying_bb():
    state = make_bb_compact(Grid(1, 16.0, 2048), 1.0)
    emap = energy_density(state)
    assert emap.two_path_discrepancy < 1e-8
    assert np.all(np.isfinite(emap.values))


def test_plane_wave_dominated_total(grid1):
    phi = plane_wave(grid1, 7)
    state = LPState(phi)
    k = 7 * grid1.k_spacing
    emap = energy_density(state)
    assert emap.two_path_discrepancy < 1e-10
    assert total_energy(emap) == pytest.approx(k * state.norm ** 2, rel=1e-10)
    # the density of a single mode is uniform
    assert np.max(emap.values) == pytest.approx(np.min(emap.values), rel=1e-10)


def test_plane_wave_total_with_units(grid1):
    units = UnitsConfig(hbar=2.0, c=3.0)
    state = LPState(plane_wave(grid1, 7), units)
    omega = 3.0 * 7 * grid1.k_spacing
    total = total_energy(energy_density(state))
    assert total == pytest.approx(2.0 * omega * state.norm ** 2, rel=1e-10)


def test_plane_wave_dominated_total_3d(grid3):
    phi = plane_wave(grid3, (2, 1, 0), -1)
    state = LPState(phi)
    k = grid3.k_spacing * np.sqrt(5.0)
    total = total_energy(energy_density(state))
    assert total == pytest.approx(k * state.norm ** 2, rel=1e-10)


# ---------------------------------------------------------------- detectors

def test_interval_weights_and_additivity(grid1, rng):
    emap = energy_density(lp_from_potentials(_random_em(grid1, rng)))
    left = detector_energy(emap, DetectorVolume.interval(-3.0, 0.5))
    right = detector_energy(emap, DetectorVolume.interval(0.5, 4.0))
    both = detector_energy(emap, DetectorVolume.interval(-3.0, 4.0))
    assert left + right == pytest.approx(both, rel=1e-12)
    # cells are sample-centered: the closed interval [-L/2, L/2] covers the
    # boundary node's cell only up to its center, the other half wraps
    whole = detector_energy(emap, DetectorVolume.interval(-8.0, 8.0))
    sliver = 0.5 * grid1.spacing * emap.values[0]
    assert whole + sliver == pytest.approx(total_energy(emap), rel=1e-10)
    assert whole == pytest.approx(total_energy(emap), rel=1e-3)
    degenerate = detector_energy(emap, DetectorVolume.interval(1.0, 1.0))
    assert degenerate == 0.0


def test_interval_weights_values(grid1_small):
    g = grid1_small
    dx = g.spacing
    lo = g.axis[10] - 0.5 * dx
    hi = g.axis[20] + 0.5 * dx
    w = volume_weights(DetectorVolume.interval(lo, hi), g)
    assert np.all(w[11:20] == 1.0)
    assert w[10] == pytest.approx(1.0)
    assert w[9] == 0.0
    half = volume_weights(DetectorVolume.interval(lo, g.axis[20]), g)
    assert half[20] == pytest.approx(0.5)


def test_box_weights_exact_volume(grid3):
    emap = EnergyDensityMap(grid3, np.ones(grid3.spatial_shape), 0.0)
    box = DetectorVolume.box((-1.0, -0.5, 0.25), (1.0, 1.5, 2.0))
    assert detector_energy(emap, box) == pytest.approx(2.0 * 2.0 * 1.75, rel=1e-12)


def test_ball_weights_volume_and_monotonicity(grid3):
    emap = EnergyDensityMap(grid3, np.ones(grid3.spatial_shape), 0.0)
    energies = [detector_energy(emap, DetectorVolume.ball((0.0, 0.0, 0.0), r))
                for r in (0.5, 1.0, 2.0, 3.0)]
    assert all(b > a for a, b in zip(energies, energies[1:]))
    assert energies[2] == pytest.approx(4.0 / 3.0 * np.pi * 8.0, rel=0.05)


def test_volume_validation(grid1, grid3):
    with pytest.raises(ValueError):
        DetectorVolume.interval(2.0, 1.0)
    with pytest.raises(ValueError):
        DetectorVolume.box((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        DetectorVolume.ball((0.0, 0.0, 0.0), -1.0)
    with pytest.raises(VolumeOutOfDomainError):
        DetectorVolume.interval(-1.0, 9.0).check_in_domain(grid1)
    with pytest.raises(VolumeOutOfDomainError):
        DetectorVolume.ball((3.5, 0.0, 0.0), 1.0).check_in_domain(grid3)
    with pytest.raises(ValueError):
        DetectorVolume.interval(-1.0, 1.0).check_in_domain(grid3)
    with pytest.raises(ValueError):
        DetectorVolume.box((-1.0,) * 3, (1.0,) * 3).check_in_domain(grid1)


@pytest.mark.parametrize("volume", [
    DetectorVolume("ball", center=(0.0, 0.0, 0.0), radius=np.nan),
    DetectorVolume("box", lo=(-1.0, np.nan, -1.0), hi=(1.0, 1.0, 1.0)),
], ids=["ball", "box"])
def test_unchecked_nan_volume_is_out_of_domain(volume):
    # Built without the checked constructors: the domain check still fails closed.
    with pytest.raises(VolumeOutOfDomainError):
        volume.check_in_domain(Grid(3, 16.0, 16))


@pytest.mark.parametrize("make", [
    lambda: DetectorVolume.interval(np.nan, 0.5),
    lambda: DetectorVolume.interval(-1.0, np.nan),
    lambda: DetectorVolume.box((-1.0, np.nan, -1.0), (1.0, 1.0, 1.0)),
    lambda: DetectorVolume.ball((0.0, 0.0, np.nan), 1.0),
    lambda: DetectorVolume.ball((0.0, 0.0, 0.0), np.nan),
], ids=["interval-lo", "interval-hi", "box", "ball-center", "ball-radius"])
def test_nan_volume_rejected(make):
    with pytest.raises(ValueError):
        make()


# -------------------------------------------------------------- knight test

def test_knight_distinguishable_compact_pulse():
    grid = Grid(1, 16.0, 2048)
    state = make_lp_compact(grid, 1.0)
    emap = energy_density(state)
    source = DetectorVolume.interval(-0.75, 0.75)
    report = knight_locality_test(emap, source)
    assert report.distinguishable
    assert report.verdict == "distinguishable"
    assert report.detector_energy > report.floor > 0.0
    assert report.n_cells > 0
    det_lo, det_hi = report.detector.lo[0], report.detector.hi[0]
    assert det_hi <= -0.75 or det_lo >= 0.75


def test_knight_explicit_floor_flips_verdict():
    grid = Grid(1, 16.0, 2048)
    emap = energy_density(make_lp_compact(grid, 1.0))
    source = DetectorVolume.interval(-0.75, 0.75)
    strict = knight_locality_test(emap, source, floor=1e-300)
    assert strict.distinguishable
    generous = knight_locality_test(emap, source, floor=1e6)
    assert not generous.distinguishable
    assert generous.verdict == "indistinguishable-at-floor"


def test_knight_3d_ball_source(grid3, rng):
    emap = energy_density(lp_from_potentials(_random_em(grid3, rng)))
    report = knight_locality_test(
        emap, DetectorVolume.ball((0.0, 0.0, 0.0), 1.0), probe_cells=27)
    assert report.distinguishable
    assert report.detector.kind == "box"


def test_knight_cell_touching_the_source_counts_as_disjoint():
    # 32 probe cells of width 1/2: the source's ends lie on cell faces.
    emap = EnergyDensityMap(Grid(1, 16.0, 256), np.ones(256), 0.0)
    touching = knight_locality_test(emap, DetectorVolume.interval(-1.0, 1.0))
    assert touching.n_cells == 28
    overlapping = knight_locality_test(emap, DetectorVolume.interval(-1.0, 1.25))
    assert overlapping.n_cells == 27


def test_knight_3d_box_source_meets_only_the_centre_cell():
    # 27 probe cells, three per axis with faces at +-8/3.
    emap = EnergyDensityMap(Grid(3, 16.0, 16), np.ones((16,) * 3), 0.0)
    report = knight_locality_test(
        emap, DetectorVolume.box((-2.0,) * 3, (2.0,) * 3), probe_cells=27)
    assert report.n_cells == 26
    assert report.detector.kind == "box"


@pytest.mark.parametrize("dim, probe_cells, cells", [
    (1, 32, 32), (3, 32, 64), (3, 27, 27), (3, 64, 64)])
def test_knight_tiling_is_the_fewest_cells_per_axis(dim, probe_cells, cells):
    # A source in the corner of the box meets exactly one probe cell.
    grid = Grid(dim, 16.0, 16)
    emap = EnergyDensityMap(grid, np.ones(grid.spatial_shape), 0.0)
    corner = DetectorVolume.aligned((-8.0,) * dim, (-7.9,) * dim)
    report = knight_locality_test(emap, corner, probe_cells=probe_cells)
    assert report.n_cells + 1 == cells


def test_aligned_volume_kind_follows_the_number_of_axes():
    assert DetectorVolume.aligned([-1.0], [2.0]) == DetectorVolume.interval(-1.0, 2.0)
    lo, hi = (-1.0, -2.0, 0.0), (1.0, 2.0, 0.5)
    assert DetectorVolume.aligned(lo, hi) == DetectorVolume.box(lo, hi)
    for bad_lo, bad_hi in (((0.0, 0.0), (1.0, 1.0)), ((0.0,), (1.0, 1.0, 1.0))):
        with pytest.raises(ValueError):
            DetectorVolume.aligned(bad_lo, bad_hi)


def test_volume_meets_and_contains_boxes():
    ball = DetectorVolume.ball((0.0, 0.0, 0.0), 1.0)
    assert ball.contains(DetectorVolume.box((0.0,) * 3, (0.5,) * 3))
    assert not ball.contains(DetectorVolume.box((0.0,) * 3, (0.6,) * 3))
    assert not ball.meets(DetectorVolume.box((1.0, 0.0, 0.0), (2.0, 1.0, 1.0)))
    assert ball.meets(DetectorVolume.box((0.9, 0.0, 0.0), (2.0, 1.0, 1.0)))
    assert not ball.meets(DetectorVolume.box((0.8, 0.8, 0.0), (2.0, 2.0, 1.0)))
    box = DetectorVolume.box((-1.0,) * 3, (1.0,) * 3)
    assert box.contains(box)
    assert not box.meets(DetectorVolume.box((1.0, 0.0, 0.0), (2.0, 1.0, 1.0)))
    assert box.meets(DetectorVolume.box((0.9, 0.0, 0.0), (2.0, 1.0, 1.0)))


def test_knight_validation(grid1, rng):
    emap = energy_density(lp_from_potentials(_random_em(grid1, rng)))
    with pytest.raises(ValueError):
        knight_locality_test(emap, DetectorVolume.interval(-8.0, 8.0))
    with pytest.raises(ValueError):
        knight_locality_test(emap, DetectorVolume.interval(-1.0, 1.0),
                             probe_cells=1)
    for floor in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            knight_locality_test(emap, DetectorVolume.interval(-1.0, 1.0),
                                 floor=floor)
    with pytest.raises(VolumeOutOfDomainError):
        knight_locality_test(emap, DetectorVolume.interval(-9.0, 1.0))
