import dataclasses

import numpy as np
import pytest

from photonloc import (FREQUENCY, DetectorVolume, EnergyDensityMap, Grid, LPState,
                       SpectralField, antilocality_witness, detector_energy,
                       energy_density, figure2_report, helicity_parts,
                       helicity_project, helicity_scans, helicity_vanishing_scan,
                       make_lp_compact, odd_pulse_profile, peak_magnitude,
                       plane_wave, sin2_profile, strip_zero_mode,
                       support_estimate, tail_exponent_fit, to_frequency,
                       to_position, vector_potential_localized_state)
from photonloc import locality
from photonloc.checks import random_band_limited
from photonloc.errors import (InsufficientWindowError, NotEigenfieldError,
                              SupportError, VolumeOutOfDomainError,
                              ZeroStateError)
from photonloc.fields import require_transverse
from photonloc.locality import SUPPORT_THRESHOLD, TailFit

from test_energy import _traced_peak  # noqa: E402
from test_golden import _state_3d  # noqa: E402


# ----------------------------------------------------------------- support

def test_support_of_compact_profile(grid1):
    est = support_estimate(sin2_profile(grid1, 1.0), SUPPORT_THRESHOLD)
    assert abs(est.radii[0] - 0.5) <= grid1.spacing
    assert est.outside_max <= est.threshold * est.peak
    assert est.region == ((-est.radii[0], est.radii[0]),)


def test_support_threshold_monotonicity(grid1):
    g = SpectralField(grid1, np.exp(-grid1.axis ** 2).astype(complex))
    loose = support_estimate(g, threshold=1e-3)
    tight = support_estimate(g, threshold=1e-12)
    assert loose.radii[0] < tight.radii[0]


def test_support_of_plane_wave_fills_domain(grid1):
    est = support_estimate(plane_wave(grid1, 3), SUPPORT_THRESHOLD)
    assert est.radii[0] == 0.5 * grid1.length


def test_support_3d_and_energy_map_input(grid3):
    est = support_estimate(plane_wave(grid3, (1, 0, 0), +1), SUPPORT_THRESHOLD)
    assert est.radii == (4.0, 4.0, 4.0)
    emap = energy_density(make_lp_compact(Grid(1, 16.0, 2048), 1.0))
    est2 = support_estimate(emap, threshold=1e-3)
    assert est2.radii[0] < 8.0


def test_support_volume_is_an_interval_in_1d_and_a_box_in_3d(grid1, grid3):
    est1 = support_estimate(sin2_profile(grid1, 1.0), SUPPORT_THRESHOLD)
    x, y, z = grid3.position_mesh()
    blob = np.exp(-(x ** 2 + y ** 2 / 4.0 + z ** 2 / 0.25))
    est3 = support_estimate(SpectralField(grid3, np.stack([blob] * 3)), threshold=1e-3)
    assert est3.radii == (2.5, 4.0, 1.0)
    for est, kind in ((est1, "interval"), (est3, "box")):
        vol = est.volume()
        assert vol.kind == kind
        assert vol.hi == est.radii
        assert vol.lo == tuple(-r for r in est.radii)


def test_support_guards(grid1_small):
    zero = SpectralField(grid1_small, np.zeros(grid1_small.n, dtype=complex))
    with pytest.raises(ZeroStateError):
        support_estimate(zero, SUPPORT_THRESHOLD)
    with pytest.raises(TypeError):
        support_estimate(np.ones(grid1_small.n), SUPPORT_THRESHOLD)


def test_support_rejects_a_map_whose_peak_is_negative(grid1_small):
    """A peak below zero would leave no sample above threshold * peak, so no
    radius; it is rejected with the non-finite peaks."""
    emap = EnergyDensityMap(grid1_small, -np.ones(grid1_small.n), 0.0)
    with pytest.raises(ValueError, match="peak is -1.0"):
        support_estimate(emap, SUPPORT_THRESHOLD)


@pytest.mark.parametrize("threshold", [np.nan, -1.0, 1.0, 2.0, np.inf])
def test_support_rejects_a_threshold_outside_zero_to_one(grid1_small, threshold):
    with pytest.raises(ValueError, match="threshold"):
        support_estimate(sin2_profile(grid1_small, 1.0), threshold)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["field", "map"])
def test_support_rejects_samples_whose_peak_is_not_finite(grid1_small, kind, bad):
    values = np.abs(sin2_profile(grid1_small, 1.0).data)
    values[3] = bad
    obj = (SpectralField(grid1_small, values) if kind == "field"
           else EnergyDensityMap(grid1_small, values, 0.0))
    with pytest.raises(ValueError, match="peak"):
        support_estimate(obj, SUPPORT_THRESHOLD)


# --------------------------------------------------------------- tail fits

def _synthetic_map(grid, values):
    return EnergyDensityMap(grid, values, 0.0)


def _power_map(grid):
    return _synthetic_map(grid, np.maximum(grid.radius, 1e-9) ** -3.0)


def _stretched_map(grid, gamma):
    return _synthetic_map(grid, np.exp(-2.0 * grid.radius ** gamma))


# In 3d each radius holds many samples; in 1d it holds two.
SYNTHETIC_GRIDS = [Grid(1, 64.0, 4096), Grid(3, 64.0, 32)]


@pytest.mark.parametrize("g", SYNTHETIC_GRIDS, ids=["1d", "3d"])
def test_tail_fit_recovers_power_law(g):
    fit = tail_exponent_fit(_power_map(g), (1.0, 25.0))
    assert fit.model == "power"
    assert fit.params["exponent"] == pytest.approx(-3.0, abs=0.02)
    assert fit.r_squared > 0.999
    assert fit.n_points >= 8


@pytest.mark.parametrize("g", SYNTHETIC_GRIDS, ids=["1d", "3d"])
def test_tail_fit_recovers_stretched_exponential(g):
    emap = _stretched_map(g, 0.7)
    fit = tail_exponent_fit(emap, (1.0, 25.0))
    assert fit.model == "stretched"
    assert fit.params["gamma"] == pytest.approx(0.7, abs=0.05)
    assert fit.params["decay_rate"] == pytest.approx(2.0, abs=0.1)
    forced = tail_exponent_fit(emap, (1.0, 25.0), model="stretched")
    assert forced.params["gamma"] == pytest.approx(0.7, abs=0.05)


def test_tail_fit_compact_pulse_energy():
    grid = Grid(1, 64.0, 8192)
    emap = energy_density(make_lp_compact(grid, 1.0))
    fit = tail_exponent_fit(emap, (2.0, 6.0), model="power")
    assert fit.params["exponent"] == pytest.approx(-3.0, abs=0.3)
    assert fit.r_squared > 0.99


@pytest.mark.parametrize("model", ["auto", "power", "stretched"])
def test_tail_fit_reports_the_window_it_fitted(model):
    g = Grid(1, 64.0, 4096)
    vals = np.maximum(g.radius, 1e-9) ** -3.0
    fit = tail_exponent_fit(_synthetic_map(g, vals), (1.0, 25.0), model=model)
    assert fit.window == (1.0, 25.0)


def test_tail_fit_window_guards():
    g = Grid(1, 16.0, 2048)
    vals = np.maximum(g.radius, 1e-9) ** -2.0
    emap = _synthetic_map(g, vals)
    with pytest.raises(InsufficientWindowError):
        tail_exponent_fit(emap, (3.0, 2.0))
    with pytest.raises(InsufficientWindowError):
        tail_exponent_fit(emap, (0.0, 5.0))
    with pytest.raises(InsufficientWindowError):
        tail_exponent_fit(emap, (2.0, 7.9))  # wrap zone starts at 7.2
    with pytest.raises(InsufficientWindowError):
        tail_exponent_fit(emap, (2.0, 2.001))
    with pytest.raises(ValueError):
        tail_exponent_fit(emap, (2.0, 6.0), model="exp")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tail_fit_rejects_a_non_finite_sample_in_the_window(bad):
    g = Grid(1, 64.0, 4096)
    vals = np.maximum(g.radius, 1e-9) ** -3.0
    vals[np.argmin(np.abs(g.axis - 5.0))] = bad
    for model in ("auto", "power", "stretched"):
        with pytest.raises(ValueError, match="NaN or infinite"):
            tail_exponent_fit(_synthetic_map(g, vals), (1.0, 25.0), model=model)


def _per_sample_tail_fit(emap, window, model):
    """The reference search: every trial gamma is fitted on every sample in
    the window, and the winning trial's coefficients are reported."""
    r1, r2 = window
    rad = emap.grid.radius
    mask = (rad >= r1) & (rad <= r2) & (emap.values > 0.0)
    r = rad[mask]
    logy = np.log(emap.values[mask])
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    fits = {}
    if model in ("auto", "power"):
        fits["power"] = locality._fit_power(r, logy, ss_tot)
    if model in ("auto", "stretched"):
        design = np.ones((r.size, 2))
        lo, hi, step = 0.1, 3.0, 0.05
        best = None
        for _ in range(3):
            for g in np.arange(lo, hi + 0.5 * step, step):
                design[:, 0] = r ** g
                coef, r_squared, ss = locality._linear_fit(design, logy, ss_tot)
                if best is None or ss < best[3]:
                    best = (float(g), coef, r_squared, ss)
            lo, hi, step = max(0.01, best[0] - step), best[0] + step, step / 10.0
        gamma, coef, r_squared, _ = best
        fits["stretched"] = ({"decay_rate": float(-coef[0]), "gamma": gamma,
                              "amplitude": float(np.exp(coef[1]))}, r_squared)
    name = max(fits, key=lambda m: fits[m][1])
    params, r_squared = fits[name]
    return TailFit(name, params, float(r_squared), (r1, r2), int(r.size))


def _residual_maps():
    """Maps whose best fits leave a nonzero residual, with their windows."""
    maps = {f"pulse-{length:g}-{n}": (energy_density(make_lp_compact(Grid(1, length, n), 1.0)),
                                      (2.0, 6.0))
            for length, n in ((16.0, 4096), (128.0, 4096), (128.0, 32768))}
    for kind in ("lp", "bb"):
        maps[f"{kind}-32"] = (energy_density(_state_3d(kind, 32)), (2.0, 6.0))
    return maps


@pytest.fixture(scope="module")
def residual_maps():
    return _residual_maps()


@pytest.mark.parametrize("name", ["pulse-16-4096", "pulse-128-4096", "pulse-128-32768",
                                  "lp-32", "bb-32"])
@pytest.mark.parametrize("model", ["auto", "stretched"])
def test_grouped_search_matches_the_per_sample_search_bit_for_bit(residual_maps, name, model):
    emap, window = residual_maps[name]
    fit = tail_exponent_fit(emap, window, model=model)
    assert fit.r_squared < 1.0
    assert dataclasses.astuple(fit) == dataclasses.astuple(
        _per_sample_tail_fit(emap, window, model))


@pytest.mark.parametrize("emap, window", [
    (_stretched_map(Grid(1, 16.0, 4096), 0.5), (2.0, 6.0)),
    (_stretched_map(SYNTHETIC_GRIDS[0], 0.7), (1.0, 25.0)),
    (_stretched_map(SYNTHETIC_GRIDS[1], 0.7), (1.0, 25.0)),
], ids=["1d-sqrt", "1d-0.7", "3d-0.7"])
def test_grouped_search_matches_the_per_sample_search_on_exact_fits(emap, window):
    # Every trial near the true gamma fits to round-off, so the two searches
    # may pick neighbouring trials of the final round.
    fit = tail_exponent_fit(emap, window)
    ref = _per_sample_tail_fit(emap, window, "auto")
    assert fit.model == ref.model == "stretched"
    assert fit.n_points == ref.n_points
    assert abs(fit.params["gamma"] - ref.params["gamma"]) <= 5e-4
    for key, value in ref.params.items():
        assert fit.params[key] == pytest.approx(value, rel=0.0, abs=1e-12)


def test_an_auto_fit_solves_on_every_sample_at_most_twice(residual_maps, monkeypatch):
    rows = []
    original = np.linalg.lstsq

    def lstsq(a, b, *args, **kwargs):
        rows.append(a.shape[0])
        return original(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    cases = list(residual_maps.values()) + [
        (_power_map(SYNTHETIC_GRIDS[1]), (1.0, 25.0)),
        (_stretched_map(SYNTHETIC_GRIDS[1], 0.7), (1.0, 25.0))]
    for emap, (r1, r2) in cases:
        rows.clear()
        fit = tail_exponent_fit(emap, (r1, r2))
        rad = emap.grid.radius
        distinct = np.unique(rad[(rad >= r1) & (rad <= r2) & (emap.values > 0.0)]).size
        assert distinct < fit.n_points
        assert rows.count(fit.n_points) <= 2
        assert max(n for n in rows if n != fit.n_points) <= distinct


# ----------------------------------------------------------------- witness

def test_witness_on_profile_zero_zone(grid1):
    p = sin2_profile(grid1, 1.0)
    region = DetectorVolume.interval(2.4, 2.6)
    w = antilocality_witness(p, region)
    assert w.rel_v < 1e-14
    assert w.rel_omega_v > 1e-4
    assert w.passed
    assert w.max_omega_v > 0.0


def test_witness_on_plane_wave(grid1):
    w = antilocality_witness(plane_wave(grid1, 3),
                             DetectorVolume.interval(1.0, 1.5))
    assert w.rel_v == pytest.approx(1.0, rel=1e-10)
    assert w.passed


def test_witness_guards(grid1, grid1_small):
    zero = SpectralField(grid1_small, np.zeros(grid1_small.n, dtype=complex))
    with pytest.raises(ZeroStateError):
        antilocality_witness(zero, DetectorVolume.interval(-1.0, 1.0))
    p = sin2_profile(grid1, 1.0)
    with pytest.raises(VolumeOutOfDomainError):
        antilocality_witness(p, DetectorVolume.interval(-9.0, 1.0))


# -------------------------------------------------------------------- scan

def test_scan_plane_wave_nowhere_vanishing(grid1):
    for mode, eig in ((3, 1), (-5, -1)):
        rep = helicity_vanishing_scan(plane_wave(grid1, mode), 1.0)
        assert rep.eigenvalue == eig
        assert rep.verdict == "nowhere-vanishing"
        assert rep.passed
        assert rep.min_window_max == pytest.approx(rep.peak, rel=1e-10)
        assert rep.n_windows > 1


def test_scan_3d_plane_wave(grid3):
    rep = helicity_vanishing_scan(plane_wave(grid3, (1, 0, 0), +1), 2.0)
    assert rep.eigenvalue == +1
    assert rep.verdict == "nowhere-vanishing"


def test_scan_identically_zero_branch(grid1):
    zero = SpectralField(grid1, np.zeros(grid1.n, dtype=complex))
    rep = helicity_vanishing_scan(zero, 1.0)
    assert rep.identically_zero and rep.passed
    assert rep.verdict == "identically-zero"
    dust = 1e-20 * plane_wave(grid1, 3)
    rep2 = helicity_vanishing_scan(dust, 1.0, reference_peak=1.0)
    assert rep2.verdict == "identically-zero"
    # on its own scale the same field is a fine eigenfield
    rep3 = helicity_vanishing_scan(dust, 1.0)
    assert rep3.verdict == "nowhere-vanishing"


def test_scan_guards(grid1):
    mixed = SpectralField(grid1, np.cos(3.0 * 2.0 * np.pi / 16.0 * grid1.axis)
                          .astype(complex))
    with pytest.raises(NotEigenfieldError):
        helicity_vanishing_scan(mixed, 1.0)
    wave = plane_wave(grid1, 3)
    with pytest.raises(InsufficientWindowError):
        helicity_vanishing_scan(wave, 2.0 * grid1.spacing)
    with pytest.raises(InsufficientWindowError):
        helicity_vanishing_scan(wave, 17.0)


@pytest.mark.parametrize("domain", ["position", "frequency"])
def test_scan_eigenfield_test_in_either_domain(domain, grid3, rng):
    as_domain = to_position if domain == "position" else to_frequency
    field = random_band_limited(grid3, rng, transverse=True)
    window = 5.0 * grid3.spacing
    with pytest.raises(NotEigenfieldError):
        helicity_vanishing_scan(as_domain(field), window)
    for part, sign in zip(helicity_parts(field), (1, -1)):
        assert helicity_vanishing_scan(as_domain(part), window).eigenvalue == sign


def test_scan_of_a_frequency_domain_part_makes_one_inverse_transform(
        grid3, rng, transform_counts):
    field = random_band_limited(grid3, rng, transverse=True)
    peak = peak_magnitude(field)
    for part in helicity_parts(field):
        assert part.is_frequency
        transform_counts.update(forward=0, inverse=0)
        helicity_vanishing_scan(part, 5.0 * grid3.spacing, reference_peak=peak)
        assert transform_counts == {"forward": 0, "inverse": 1}


def _every_window_maxima(mag, w):
    """The window maxima as they were computed before the separable scan:
    every window's samples gathered at once, then reduced."""
    view = np.lib.stride_tricks.sliding_window_view(mag, (w,) * mag.ndim)
    starts = np.arange(0, mag.shape[0] - w + 1, max(1, w // 2))
    if starts[-1] != mag.shape[0] - w:
        starts = np.append(starts, mag.shape[0] - w)
    reduced = view[np.ix_(*(starts,) * mag.ndim)]
    return reduced.max(axis=tuple(range(-mag.ndim, 0)))


# (n, w): w = 4 and w = n; even and odd w, with the last start on the
# stride (16, 4), (16, 7) or appended off it (16, 5), (16, 6), (15, 4).
WINDOW_CASES = [(16, 4), (16, 5), (16, 6), (16, 7), (15, 4), (16, 16)]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("n, w", WINDOW_CASES)
def test_window_maxima_equal_the_every_window_reduction(dim, n, w, rng):
    mag = rng.random((n,) * dim)
    assert np.array_equal(locality._window_maxima(mag, w), _every_window_maxima(mag, w))


@pytest.mark.parametrize("dim", [1, 3])
def test_a_nan_sample_reaches_every_window_maximum_that_holds_it(dim, rng):
    mag = rng.random((16,) * dim)
    mag[(5,) * dim] = np.nan
    assert np.array_equal(locality._window_maxima(mag, 5), _every_window_maxima(mag, 5),
                          equal_nan=True)


def test_the_scan_of_a_64_cubed_part_peaks_below_1_25_fields():
    # As the field3d benchmark scans: a claimed frequency-domain part of the
    # zero-mean field, against the whole field's peak.  Its position copy is
    # dropped once the magnitude exists: 1.18 fields, bounded with a margin
    # of 0.07.
    field = _state_3d("bb", n=64).field
    part = helicity_project(strip_zero_mode(field), 1)
    peak = peak_magnitude(field)
    window = 5.0 * field.grid.spacing
    helicity_vanishing_scan(part, window, reference_peak=peak)  # fills the grid's caches
    used = _traced_peak(lambda: helicity_vanishing_scan(part, window, reference_peak=peak))
    assert used <= 1.25 * field.data.nbytes


def test_the_scan_of_an_unclaimed_64_cubed_part_peaks_below_3_75_fields():
    # A part that claims nothing is measured: its transform, L applied to
    # it and one buffer that holds Lv - v, then Lv + v (3.67 fields, bounded
    # with a margin of 0.08).
    field = _state_3d("bb", n=64).field
    part = to_position(helicity_project(strip_zero_mode(field), 1))
    assert part.helicity == 0
    peak = peak_magnitude(field)
    window = 5.0 * field.grid.spacing
    helicity_vanishing_scan(part, window, reference_peak=peak)  # fills the grid's caches
    used = _traced_peak(lambda: helicity_vanishing_scan(part, window, reference_peak=peak))
    assert used <= 3.75 * field.data.nbytes


# The helicity claim: parts built by the projection are trusted, any other
# field is measured.
CLAIM_GRIDS = {1: Grid(1, 16.0, 256), 3: Grid(3, 8.0, 16)}


def flagged_draw(grid, rng):
    """A zero-mean band-limited draw, flagged transverse (every 1d field
    passes the measurement)."""
    field = random_band_limited(grid, rng, transverse=True)
    require_transverse(field, "")
    return field


def spy_on_scan_measurements(monkeypatch) -> list:
    """The fields the scan passes to helicity_apply."""
    calls = []
    original = locality.helicity_apply

    def helicity_apply(field):
        calls.append(field)
        return original(field)
    monkeypatch.setattr(locality, "helicity_apply", helicity_apply)
    return calls


@pytest.mark.parametrize("dim", [1, 3])
def test_a_claimed_part_is_trusted_and_an_unclaimed_copy_measured(dim, rng, monkeypatch):
    grid = CLAIM_GRIDS[dim]
    field = flagged_draw(grid, rng)
    window = 5.0 * grid.spacing
    calls = spy_on_scan_measurements(monkeypatch)
    for part, sign in zip(helicity_parts(field), (1, -1)):
        assert part.helicity == helicity_project(field, sign).helicity == sign
        assert helicity_vanishing_scan(part, window).eigenvalue == sign
        assert calls == []
        unclaimed = part.copy()
        assert unclaimed.helicity == 0
        assert helicity_vanishing_scan(unclaimed, window).eigenvalue == sign
        assert calls == [unclaimed]
        calls.clear()


@pytest.mark.parametrize("dim", [1, 3])
def test_a_part_of_a_mean_carrying_field_is_not_claimed_and_is_measured(
        dim, rng, monkeypatch):
    """L maps the mean to zero, so (1 + L)/2 halves it: such a part is no
    eigenfield, and the measurement says so."""
    grid = CLAIM_GRIDS[dim]
    data = flagged_draw(grid, rng).data.copy()
    data[grid.zero_mode_index()] = 1.0
    field = SpectralField(grid, data, FREQUENCY, transverse=True)
    calls = spy_on_scan_measurements(monkeypatch)
    for part in helicity_parts(field):
        assert part.helicity == 0
        with pytest.raises(NotEigenfieldError):
            helicity_vanishing_scan(part, 5.0 * grid.spacing)
    assert len(calls) == 2
    assert [p.helicity for p in helicity_parts(strip_zero_mode(field))] == [1, -1]


@pytest.mark.parametrize("dim", [1, 3])
def test_sums_and_differences_of_parts_claim_nothing(dim, rng):
    """Not even plus + plus, which is an eigenfield."""
    plus, minus = helicity_parts(flagged_draw(CLAIM_GRIDS[dim], rng))
    for combined in (plus + plus, plus + minus, plus - minus, minus - minus):
        assert combined.helicity == 0


def _hand_built_scans(field, window):
    peak = peak_magnitude(to_position(field))
    return [helicity_vanishing_scan(part, window, reference_peak=peak)
            for part in helicity_parts(strip_zero_mode(field))]


def _assert_same_reports(got, expected):
    assert len(got) == len(expected) == 2
    for a, b in zip(got, expected):
        assert dataclasses.astuple(a) == dataclasses.astuple(b)


def test_helicity_scans_match_the_hand_built_pair_on_the_figure_states():
    figset = figure2_report(Grid(1, 16.0, 1024), 1.0)
    for state in figset.states.values():
        _assert_same_reports(helicity_scans(state.field, 0.1),
                             _hand_built_scans(state.field, 0.1))


def test_helicity_scans_match_the_hand_built_pair_in_3d(grid3, rng):
    field = random_band_limited(grid3, rng, transverse=True)
    window = 5.0 * grid3.spacing
    _assert_same_reports(helicity_scans(field, window),
                         _hand_built_scans(field, window))


# -------------------------------------------------------- vector potential

def test_vector_potential_construction(grid1):
    region = DetectorVolume.interval(-0.6, 0.6)
    c = vector_potential_localized_state(odd_pulse_profile(grid1, 1.0), region)
    assert c.recovery_deviation < 1e-10
    assert c.state.norm == pytest.approx(1.0, rel=1e-12)
    assert abs(c.support.radii[0] - 0.5) <= 2.0 * grid1.spacing
    emap = energy_density(c.state)
    outside = detector_energy(emap, DetectorVolume.interval(2.0, 2.5))
    assert outside > 0.0


def test_vector_potential_mean_loss_is_reported(grid1):
    region = DetectorVolume.interval(-0.6, 0.6)
    c = vector_potential_localized_state(sin2_profile(grid1, 1.0), region)
    assert c.recovery_deviation > 1e-3


def test_vector_potential_guards(grid1):
    xi = odd_pulse_profile(grid1, 1.0)
    with pytest.raises(SupportError):
        vector_potential_localized_state(xi, DetectorVolume.interval(-0.3, 0.3))
    zero = SpectralField(grid1, np.zeros(grid1.n, dtype=complex))
    with pytest.raises(ZeroStateError):
        vector_potential_localized_state(zero, DetectorVolume.interval(-1.0, 1.0))
    cplx = SpectralField(grid1, 1j * to_position(xi).data + to_position(xi).data)
    with pytest.raises(ValueError):
        vector_potential_localized_state(cplx, DetectorVolume.interval(-0.6, 0.6))
    with pytest.raises(VolumeOutOfDomainError):
        vector_potential_localized_state(xi, DetectorVolume.interval(-9.0, 9.0))


def test_vector_potential_of_a_constant_profile_cannot_be_normalized(grid1):
    """W**(1/2) annihilates a constant, so a constant profile over the whole
    box passes the support check and normalize rejects its vanishing image:
    the recovery never sees a zero state."""
    half = 0.5 * grid1.length
    with pytest.raises(ZeroStateError, match="cannot normalize"):
        vector_potential_localized_state(SpectralField(grid1, np.ones(grid1.n)),
                                         DetectorVolume.interval(-half, half))
