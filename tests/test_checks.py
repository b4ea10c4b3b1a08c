import inspect

import numpy as np
import pytest

from photonloc import (FREQUENCY, CheckResult, Grid, SpectralField, SuiteResult,
                       checks, fields, to_frequency, to_position)
from photonloc.checks import (band_limit, narrowband_state,
                              random_band_limited, random_compact_bump,
                              random_real_white, run_all_checks)
from photonloc.fields import zero_mode_amplitude
from photonloc.operators import momentum_amplitudes, transversality_residual

from test_seeded_defects import GRID1, GRID3, plant, spy_on_measurements  # noqa: E402


def test_suite_result_semantics():
    good = CheckResult("a", 1e-13, 1e-12, "<", True)
    bad = CheckResult("b", 5.0, 1e-12, "<", False)
    suite = SuiteResult("demo", [good, bad])
    assert not suite.passed
    assert suite.failures() == [bad]
    assert SuiteResult("empty", []).passed
    assert SuiteResult("ok", [good]).passed


def _fields(result):
    return (result.name, result.value, result.bound, result.comparator, result.ok)


@pytest.mark.parametrize("row, bound", [(checks._below, 1.0), (checks._at_most, 1.0),
                                        (checks._above, 0.0)],
                         ids=["below", "at_most", "above"])
def test_a_nan_sample_fails_its_row_wherever_it_sits(row, bound):
    assert row("r", [1e-13, 2e-13], bound).ok
    for samples in ([np.nan, 1e-13, 2e-13], [1e-13, 2e-13, np.nan]):
        result = row("r", samples, bound)
        assert not result.ok and np.isnan(result.value)


def test_a_row_reports_the_sample_closest_to_failing():
    samples = list(np.random.default_rng(3).uniform(0.0, 1.0, 50))
    running_max, running_min = 0.0, np.inf
    for sample in samples:
        running_max = max(running_max, sample)
        running_min = min(running_min, sample)
    assert checks._below("r", samples, 2.0).value == running_max
    assert checks._at_most("r", samples, 2.0).value == running_max
    assert checks._above("r", samples, -1.0).value == running_min
    assert not checks._below("r", samples, running_max).ok
    assert checks._at_most("r", samples, running_max).ok
    assert not checks._above("r", samples, running_min).ok


def test_a_scalar_row_is_unchanged():
    value = np.float64(0.25)
    assert _fields(checks._below("r", value, 1)) == ("r", 0.25, 1.0, "<", True)
    assert _fields(checks._at_most("r", value, 0.25)) == ("r", 0.25, 0.25, "<=", True)
    assert _fields(checks._above("r", value, 0.25)) == ("r", 0.25, 0.25, ">", False)
    assert _fields(checks._below("r", 0.25, 0.25)) == ("r", 0.25, 0.25, "<", False)
    assert type(checks._below("r", value, 1).value) is float
    assert not checks._below("r", np.nan, 1.0).ok


def _rel_pairs():
    """(a, b) pairs of one shape: 1d and 3d, real and complex, one block
    and several, the last block short."""
    rng = np.random.default_rng(5)
    for shape in [(64,), (3, 32, 32, 32), (fields._BLOCK_SAMPLES * 2 + 7,)]:
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        yield b + 1e-9 * rng.standard_normal(shape), b
    yield rng.standard_normal(100_000), rng.standard_normal(100_000)


@pytest.mark.parametrize("a, b", list(_rel_pairs()))
def test_the_blocked_reductions_return_the_whole_array_floats(a, b):
    peak = float(np.max(np.abs(b)))
    assert checks._peak(b) == peak
    assert checks._rel(a, b) == float(np.max(np.abs(a - b))) / peak
    assert checks._rel(a, b, peak=2.0) == float(np.max(np.abs(a - b))) / 2.0


def test_the_blocked_reductions_read_fields(rng):
    a, b = (random_band_limited(GRID3, rng, transverse=True) for _ in range(2))
    assert checks._peak(b) == float(np.max(np.abs(b.data)))
    assert checks._rel(a, b) == float(np.max(np.abs(a.data - b.data))) / checks._peak(b)


@pytest.mark.parametrize("where", [0, fields._BLOCK_SAMPLES + 3, -1],
                         ids=["first-block", "middle-block", "last-sample"])
def test_a_nan_anywhere_makes_the_blocked_reductions_nan(where):
    b = np.ones(3 * fields._BLOCK_SAMPLES, dtype=complex)
    a = b.copy()
    a[where] = np.nan
    assert np.isnan(checks._rel(a, b))
    assert np.isnan(checks._rel(b, a))
    assert np.isnan(checks._peak(a))
    assert not checks._below("r", [checks._rel(a, b)], 1.0).ok


def test_band_limit_below_nyquist(grid1):
    kmax = float(np.max(np.abs(grid1.k_axis)))
    assert 0.0 < band_limit(grid1) < kmax


def test_random_band_limited_properties(grid1, grid3, rng):
    f = random_band_limited(grid1, rng)
    ff = to_frequency(f)
    assert zero_mode_amplitude(ff) == 0.0
    kb = band_limit(grid1)
    outside = np.abs(grid1.k_axis) > kb
    assert np.max(np.abs(ff.data[outside])) == 0.0
    g = random_band_limited(grid3, rng, transverse=True)
    assert transversality_residual(g) < 1e-12
    assert zero_mode_amplitude(to_frequency(g)) == 0.0


def _band_modes(g, limit=None) -> list:
    """The band written out: every spatial index, in C order, of a nonzero
    mode with |k| <= limit (band_limit by default) and no mode number -n/2."""
    half = g.n // 2
    limit = band_limit(g) if limit is None else limit
    return [m for m in np.ndindex(g.spatial_shape)
            if any(m) and half not in m and g.k_magnitude[m] <= limit]


def _reference_draw(g, seed, transverse=False, limit=None) -> np.ndarray:
    """random_band_limited, one mode at a time: every real part, then every
    imaginary part, one row per component (or per helicity amplitude)."""
    rng = np.random.default_rng(seed)
    modes = _band_modes(g, limit)
    helical = transverse and g.dim == 3
    rows = 2 if helical else (3 if g.dim == 3 else 1)
    re = rng.standard_normal((rows, len(modes)))
    im = rng.standard_normal((rows, len(modes)))
    out = np.zeros(g.field_shape, complex)
    for j, m in enumerate(modes):
        z = [complex(re[r, j], im[r, j]) for r in range(rows)]
        if g.dim == 1:
            out[m] = z[0]
        elif helical:
            eps = g.polarization_table
            for c in range(3):
                out[(c,) + m] = eps[(0, c) + m] * z[0] + eps[(1, c) + m] * z[1]
        else:
            for c in range(3):
                out[(c,) + m] = z[c]
    return out


DRAW_GRIDS = [Grid(1, 16.0, 2048), Grid(3, 8.0, 16), Grid(3, 5.0, 6)]


@pytest.mark.parametrize("g", DRAW_GRIDS, ids=repr)
def test_random_band_limited_matches_a_mode_by_mode_reference(g):
    for seed in range(3):
        new = random_band_limited(g, np.random.default_rng(seed)).data
        assert new.tobytes() == _reference_draw(g, seed).tobytes()
        if g.dim == 3:
            # numpy's vector complex product may fuse multiply-adds, so the
            # helicity sum is compared to round-off, not bit for bit.
            new = random_band_limited(g, np.random.default_rng(seed), transverse=True).data
            ref = _reference_draw(g, seed, transverse=True)
            assert np.max(np.abs(new - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_momentum_amplitudes_of_a_transverse_draw_are_the_drawn_pair(grid3):
    f = random_band_limited(grid3, np.random.default_rng(5), transverse=True)
    amps = momentum_amplitudes(f)
    rng = np.random.default_rng(5)
    modes = tuple(np.array(_band_modes(grid3)).T)
    re, im = rng.standard_normal((2, 2, len(modes[0])))
    inside = np.zeros(grid3.spatial_shape, bool)
    inside[modes] = True
    for z, drawn in zip((amps.plus, amps.minus), re + 1j * im):
        assert np.max(np.abs(z[modes] - drawn)) <= 1e-14 * np.max(np.abs(drawn))
        assert np.max(np.abs(z[~inside])) == 0.0


def _k0_and_nyquist_planes(g) -> np.ndarray:
    empty = g.k_magnitude == 0.0
    for axis in range(g.dim):
        empty[(slice(None),) * axis + (g.n // 2,)] = True
    return empty


@pytest.mark.parametrize("limit", ["default", "infinite"])
@pytest.mark.parametrize("g", DRAW_GRIDS, ids=repr)
@pytest.mark.parametrize("transverse", [False, True])
def test_random_fields_are_empty_at_k0_above_the_band_and_on_every_nyquist_plane(
        transverse, g, limit, monkeypatch):
    if limit == "infinite":
        monkeypatch.setattr(checks, "band_limit", lambda grid: np.inf)
    data = random_band_limited(g, np.random.default_rng(2), transverse).data
    outside = _k0_and_nyquist_planes(g) | (g.k_magnitude > checks.band_limit(g))
    assert np.max(np.abs(data[..., outside])) == 0.0
    assert np.max(np.abs(data[..., ~outside])) > 0.0


@pytest.mark.parametrize("g", DRAW_GRIDS, ids=repr)
def test_a_white_real_draw_is_real_with_zero_mean(g):
    f = random_real_white(g, np.random.default_rng(2))
    assert f.is_position and np.max(np.abs(f.data.imag)) == 0.0
    mean = np.mean(f.data.real.reshape(-1, g.n ** g.dim), axis=1)
    assert np.max(np.abs(mean)) < 1e-13 * np.max(np.abs(f.data.real))


@pytest.mark.parametrize("g", DRAW_GRIDS, ids=repr)
def test_a_white_real_draw_fills_every_mode_but_k0_and_the_nyquist_planes(g):
    data = to_frequency(random_real_white(g, np.random.default_rng(2))).data
    per_mode = np.sqrt(np.sum(np.abs(data.reshape(-1, *g.spatial_shape)) ** 2, axis=0))
    empty = _k0_and_nyquist_planes(g)
    peak = np.max(per_mode)
    # The empty modes carry the forward transform's round-off.
    assert np.max(per_mode[empty]) <= 1e-14 * peak
    assert np.min(per_mode[~empty]) > 1e-6 * peak


@pytest.mark.parametrize("g", DRAW_GRIDS, ids=repr)
def test_a_white_real_draw_is_the_real_part_of_a_mode_by_mode_reference(g):
    ref = SpectralField(g, _reference_draw(g, 4, transverse=True, limit=np.inf), FREQUENCY)
    ref = to_position(ref).data.real
    new = random_real_white(g, np.random.default_rng(4)).data.real
    assert np.max(np.abs(new - ref)) <= 1e-14 * np.max(np.abs(ref))


DRAWS = {"band-limited": lambda g, rng: random_band_limited(g, rng),
         "band-limited-transverse": lambda g, rng: random_band_limited(g, rng, True),
         "real-white": random_real_white}


@pytest.mark.parametrize("kind", ["band-limited-transverse", "real-white"])
def test_a_transverse_draw_is_flagged_without_measuring(kind, grid3, rng, monkeypatch):
    calls = spy_on_measurements(monkeypatch)
    f = DRAWS[kind](grid3, rng)
    assert f.transverse and calls == []
    assert transversality_residual(f) <= 1e-12


@pytest.mark.parametrize("kind", DRAWS)
def test_random_fields_transform_and_project_only_what_they_must(kind, grid1_small, grid3,
                                                                 transform_counts, monkeypatch):
    """A band-limited draw is built in k-space with no transform; a white
    real draw makes one inverse transform.  Neither projects."""
    projections = []

    def spy(original):
        def transverse_project(field):
            projections.append(field)
            return original(field)
        return transverse_project
    plant(monkeypatch, "transverse_project", spy)
    for g in (grid1_small, grid3):
        transform_counts.update(forward=0, inverse=0)
        DRAWS[kind](g, np.random.default_rng(0))
        assert transform_counts == {"forward": 0, "inverse": int(kind == "real-white")}
    assert projections == []


def count_3d_transforms(monkeypatch) -> dict:
    """Calls of fields.forward_transform and inverse_transform on 3d fields,
    as {"forward": n, "inverse": n}."""
    counts = {"forward": 0, "inverse": 0}
    for kind in counts:
        def counted(field, kind=kind, original=getattr(fields, f"{kind}_transform")):
            counts[kind] += field.grid.dim == 3
            return original(field)
        monkeypatch.setattr(fields, f"{kind}_transform", counted)
    return counts


def test_the_isomorphism_suite_makes_21_3d_transforms(monkeypatch):
    """8 forward and 13 inverse: the complex-linear 3d
    rows run on the basis fields in the frequency domain and make none, and
    the real-linear rows make all of them, three inverse for the draws.  The
    helicity pair of the real F is split and checked in the frequency domain.
    A state computes its norm only when a row reads it."""
    counts = count_3d_transforms(monkeypatch)
    assert checks.suite_isomorphism(GRID1, GRID3).passed
    assert counts == {"forward": 8, "inverse": 13}


def test_the_operator_algebra_suite_makes_13_3d_transforms(monkeypatch):
    """8 forward and 5 inverse: one forward per plane wave, one round trip
    each for the white draw, eps_+ and eps_-, and one synthesis and its
    forward transform per basis field.  Every other row runs in the
    frequency domain."""
    counts = count_3d_transforms(monkeypatch)
    assert checks.suite_operator_algebra(GRID1, GRID3).passed
    assert counts == {"forward": 8, "inverse": 5}


def test_random_compact_bump_is_compact(grid1, rng):
    for _ in range(5):
        f = to_position(random_compact_bump(grid1, rng))
        vals = np.abs(f.data)
        edge = np.abs(grid1.axis) > 0.45 * grid1.length
        assert np.max(vals[edge]) == 0.0
        assert np.max(vals) > 0.0
        assert np.max(np.abs(f.data.imag)) == 0.0


def test_narrowband_state_centered(grid1):
    state = narrowband_state(grid1, 10.0, 0.02)
    assert state.norm == pytest.approx(1.0, rel=1e-12)
    ff = to_frequency(state.psi)
    weights = np.abs(ff.data) ** 2
    k_mean = float(np.sum(grid1.k_axis * weights) / np.sum(weights))
    assert k_mean == pytest.approx(10.0, rel=0.01)
    assert zero_mode_amplitude(ff) == 0.0


@pytest.mark.parametrize("floor", [np.inf, np.nan, 0.0, -1e-8])
def test_run_all_checks_rejects_a_floor_that_is_not_finite_and_positive(floor):
    with pytest.raises(ValueError, match="floor must be finite and positive"):
        run_all_checks(grid_n=256, floor=floor)


@pytest.mark.parametrize("entry", [run_all_checks, checks.suite_operator_algebra,
                                   checks.suite_isomorphism, checks.suite_two_path],
                         ids=lambda entry: entry.__name__)
def test_no_entry_point_takes_a_corpus_size(entry):
    assert [name for name in inspect.signature(entry).parameters
            if name.startswith("n_")] == []


def test_operator_algebra_draws_one_white_field_per_grid(monkeypatch):
    """One draw at every nonzero mode off the Nyquist planes on the 1d grid,
    then one of three components on the 3d grid, which the suite projects
    itself; no band-limited corpus."""
    draws = []

    def counting(grid, limit, rng, transverse):
        draws.append((grid, limit, transverse))
        return draw(grid, limit, rng, transverse)
    draw = checks._draw
    monkeypatch.setattr(checks, "_draw", counting)
    monkeypatch.setattr(checks, "random_band_limited", None)
    checks.suite_operator_algebra(GRID1, GRID3)
    assert draws == [(GRID1, np.inf, False), (GRID3, np.inf, False)]


@pytest.mark.parametrize("grid_n, n3", [(4096, 64), (16384, 64), (1024, 32),
                                        (400, 20), (256, 16), (64, 16)])
def test_grid_n_sizes_the_3d_corpus(monkeypatch, grid_n, n3):
    """The 3d corpus takes the even part of sqrt(grid_n) per axis, within
    [16, 64]; the grids are read off the first suite's arguments."""
    class Seen(Exception):
        pass

    def spy(grid1, grid3, *args):
        raise Seen(grid1, grid3)

    monkeypatch.setattr(checks, "figure2_report", lambda *args: None)
    monkeypatch.setattr(checks, "suite_operator_algebra", spy)
    with pytest.raises(Seen) as seen:
        run_all_checks(grid_n=grid_n, domain=8.0)
    assert seen.value.args == (Grid(1, 8.0, grid_n), Grid(3, 8.0, n3))
