import numpy as np
import pytest

from photonloc import (CheckResult, Grid, SuiteResult, checks, l2_norm,
                       to_frequency, to_position)
from photonloc.checks import (band_limit, narrowband_state,
                              random_band_limited, random_compact_bump,
                              random_real_smooth, run_all_checks)
from photonloc.fields import zero_mode_amplitude
from photonloc.operators import transversality_residual


def test_suite_result_semantics():
    good = CheckResult("a", 1e-13, 1e-12, "<", True)
    bad = CheckResult("b", 5.0, 1e-12, "<", False)
    suite = SuiteResult("demo", [good, bad])
    assert not suite.passed
    assert suite.failures() == [bad]
    assert SuiteResult("empty", []).passed
    assert SuiteResult("ok", [good]).passed


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


@pytest.mark.parametrize("g", [Grid(1, 16.0, 2048), Grid(3, 8.0, 16), Grid(3, 5.0, 6)],
                         ids=repr)
def test_random_band_limited_keeps_the_bytes_of_the_three_temporary_draw(g):
    # The masked modes hold zeros of both signs; they must keep them.
    for seed in range(3):
        draw = np.random.default_rng(seed)
        old = draw.standard_normal(g.field_shape) + 1j * draw.standard_normal(g.field_shape)
        old = old * ((g.k_magnitude > 0.0) & (g.k_magnitude <= band_limit(g)))
        new = random_band_limited(g, np.random.default_rng(seed)).data
        assert new.tobytes() == old.tobytes()


def test_random_real_smooth_is_real_zero_mean(grid1, rng):
    f = to_position(random_real_smooth(grid1, rng))
    assert np.max(np.abs(f.data.imag)) == 0.0
    assert abs(np.mean(f.data.real)) < 1e-13 * np.max(np.abs(f.data.real))
    assert l2_norm(f) > 0.0


def test_random_real_smooth_keeps_a_measured_transverse_flag(grid3, rng, monkeypatch):
    # A flat envelope leaves the Nyquist planes fully populated; the real
    # part is transverse only because the builder empties them.
    monkeypatch.setattr(checks, "band_limit", lambda grid: np.inf)
    f = random_real_smooth(grid3, rng, transverse=True)
    assert f.transverse
    assert transversality_residual(f) <= 1e-12


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
        run_all_checks(grid_n=256, n_fields=4, floor=floor)


@pytest.mark.parametrize("n_fields", [0, -3])
def test_run_all_checks_rejects_an_empty_random_corpus(n_fields):
    with pytest.raises(ValueError, match="n_fields must be at least 1"):
        run_all_checks(grid_n=256, n_fields=n_fields)


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
