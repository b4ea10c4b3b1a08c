import numpy as np
import pytest

from photonloc import (BBState, Grid, LPState, bb_from_lp, figure2_report,
                       l2_norm, lp_from_bb, magnitude, make_bb_compact,
                       make_lp_compact, make_lp_extended, odd_pulse_profile,
                       sin2_profile, state_curves, to_position, total_energy)
from photonloc.errors import ProfileTooWideError
from photonloc.units import NATURAL, UnitsConfig

from test_golden import _state_3d  # noqa: E402

GRID = Grid(1, 16.0, 2048)


# ----------------------------------------------------------------- profile

def test_profile_shape(grid1):
    p = to_position(sin2_profile(grid1, 1.0))
    vals = p.data.real
    center = np.argmin(np.abs(grid1.axis))
    assert np.argmax(vals) == center
    assert l2_norm(p) == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(p.data.imag)) == 0.0
    outside = np.abs(grid1.axis) > 0.5
    assert np.max(np.abs(vals[outside])) == 0.0
    # the edge is continuous: the last nonzero sample is O(dx**2) small
    edge = np.abs(grid1.axis - 0.5).argmin()
    assert vals[edge] < (np.pi * grid1.spacing) ** 2


def test_profile_scales_with_pulse_length(grid1):
    p1 = to_position(sin2_profile(grid1, 1.0))
    p2 = to_position(sin2_profile(grid1, 2.0))
    assert l2_norm(p2) == pytest.approx(1.0, rel=1e-12)
    supp2 = np.abs(grid1.axis)[np.abs(p2.data) > 0]
    assert np.max(supp2) <= 1.0
    assert np.max(supp2) > 0.9
    assert np.max(np.abs(p1.data)) > np.max(np.abs(p2.data))


def test_odd_pulse_profile_keeps_the_bytes_of_its_former_copies():
    grid = Grid(1, 16.0, 4096)
    x = grid.axis
    # the vector-potential suite's expression, at l = 1
    suite = np.where(np.abs(x) <= 0.5,
                     np.sin(2.0 * np.pi * x) * np.cos(np.pi * x) ** 2, 0.0)
    # the locality command's expression, at l = 0.8
    pulse, half = 0.8, 0.5 * 0.8
    command = np.where(np.abs(x) <= half,
                       np.sin(2.0 * np.pi * x / pulse)
                       * np.cos(np.pi * x / pulse) ** 2, 0.0)
    for length, expected in ((1.0, suite), (pulse, command)):
        got = odd_pulse_profile(grid, length).data
        assert got.tobytes() == expected.astype(np.complex128).tobytes()


def test_profile_validation(grid1):
    with pytest.raises(ProfileTooWideError):
        sin2_profile(grid1, 16.0)
    with pytest.raises(ProfileTooWideError):
        sin2_profile(grid1, 17.0)
    with pytest.raises(ValueError):
        sin2_profile(grid1, 0.0)
    with pytest.raises(ValueError):
        sin2_profile(grid1, -1.0)
    with pytest.raises(ValueError):
        sin2_profile(Grid(3, 16.0, 16), 1.0)


# ------------------------------------------------------------------ states

def test_states_are_normalized():
    assert make_lp_compact(GRID, 1.0).norm == pytest.approx(1.0, rel=1e-12)
    assert make_lp_extended(GRID, 1.0).norm == pytest.approx(1.0, rel=1e-12)
    assert make_bb_compact(GRID, 1.0).norm == pytest.approx(1.0, rel=1e-12)


def test_compact_states_share_the_profile_shape():
    """lp-compact psi and bb-compact F are the same curve up to scale."""
    a = make_lp_compact(GRID, 1.0)
    c = make_bb_compact(GRID, 1.0)
    pa = np.abs(to_position(a.psi).data)
    pc = np.abs(to_position(c.f).data)
    ratio = np.max(pa) / np.max(pc)
    assert np.max(np.abs(pa - ratio * pc)) < 1e-12 * np.max(pa)


def test_pulse_shape_invariant_under_units():
    from photonloc.units import UnitsConfig
    natural = make_lp_compact(GRID, 1.0)
    other = make_lp_compact(GRID, 1.0, UnitsConfig(hbar=3.0, eps0=2.0))
    pa = np.abs(to_position(natural.psi).data)
    pb = np.abs(to_position(other.psi).data)
    # normalized states: the curves coincide, not just up to scale
    assert np.max(np.abs(pa - pb)) < 1e-12 * np.max(pa)


def test_extended_state_spreads_beyond_pulse():
    state = make_lp_extended(GRID, 1.0)
    mag = np.abs(to_position(state.psi).data)
    outside = np.abs(GRID.axis) > 2.0
    assert np.max(mag[outside]) > 1e-6 * np.max(mag)


# ------------------------------------------------------------ state curves

def test_state_curves_for_both_representations():
    a = make_lp_compact(GRID, 1.0)
    lp_abs, bb_abs, emap = state_curves(a)
    assert lp_abs.shape == bb_abs.shape == emap.values.shape == (GRID.n,)
    assert np.max(lp_abs) > 0 and np.max(bb_abs) > 0
    c = make_bb_compact(GRID, 1.0)
    lp_c, bb_c, emap_c = state_curves(c)
    assert isinstance(c, BBState) and isinstance(a, LPState)
    assert np.min(emap_c.values) > 0.0
    assert np.min(emap.values) > 0.0


def _curve_states():
    grid = Grid(1, 16.0, 1024)
    for units_id, units in (("natural", NATURAL),
                            ("si-like", UnitsConfig(hbar=2.7, c=3.1, eps0=0.7))):
        for make in (make_lp_compact, make_lp_extended, make_bb_compact):
            yield pytest.param(make(grid, 1.0, units),
                               id=f"{make.__name__}-{units_id}")
    for representation in ("lp", "bb"):
        yield pytest.param(_state_3d(representation), id=f"{representation}-3d")


@pytest.mark.parametrize("state", list(_curve_states()))
def test_state_curves_keep_the_bytes_of_the_state_images(state):
    # The curves as they were taken from a whole state of the other
    # representation, built by the isomorphism.
    if state.representation == "lp":
        psi, f = state.psi, bb_from_lp(state).field
    else:
        psi, f = lp_from_bb(state, zero_mode="drop").field, state.f
    lp_abs, bb_abs, _ = state_curves(state)
    assert lp_abs.tobytes() == magnitude(to_position(psi)).tobytes()
    assert bb_abs.tobytes() == magnitude(to_position(f)).tobytes()


@pytest.mark.parametrize("make, forward, inverse", [
    (make_lp_compact, 3, 6), (make_bb_compact, 2, 7)])
def test_state_curves_transform_counts(make, forward, inverse, transform_counts):
    state = make(GRID, 1.0)
    transform_counts.update(forward=0, inverse=0)
    state_curves(state)
    assert transform_counts == {"forward": forward, "inverse": inverse}


# ----------------------------------------------------------------- figures

@pytest.fixture(scope="module")
def figset():
    return figure2_report(GRID, 1.0)


def test_figure_panel_layout(figset):
    assert sorted(figset.panels) == ["a", "b", "c", "d", "e", "f"]
    kinds = {label: figset.panels[label].kind for label in "abc"}
    assert kinds == {"a": "lp-compact", "b": "lp-extended", "c": "bb-compact"}
    for lin, log in (("a", "d"), ("b", "e"), ("c", "f")):
        assert figset.panels[lin].scale == "linear"
        assert figset.panels[log].scale == "log"
        assert np.array_equal(figset.panels[lin].energy,
                              figset.panels[log].energy)
        assert figset.panels[log].kind == figset.panels[lin].kind


def test_figure_energy_positive_and_consistent(figset):
    for label in "abc":
        panel = figset.panels[label]
        assert np.min(panel.energy) > 0.0
        assert panel.two_path_discrepancy < 1e-8
        assert panel.total_energy == pytest.approx(
            float(GRID.cell_volume * np.sum(panel.energy)), rel=1e-12)


def test_figure_validation():
    with pytest.raises(ValueError):
        figure2_report(Grid(3, 16.0, 16), 1.0)
    with pytest.raises(ValueError):
        figure2_report(Grid(1, 16.0, 512), 1.0)
    with pytest.raises(ValueError):
        figure2_report(Grid(1, 8.0, 2048), 1.0)


def test_figure_frozen_total_at_reference_resolution():
    ref = figure2_report(Grid(1, 16.0, 4096), 1.0)
    assert ref.panels["a"].total_energy == pytest.approx(
        2.9227125407630408, rel=1e-12)
    assert ref.panels["b"].total_energy == pytest.approx(
        3.988337344991387, rel=1e-12)
    assert ref.panels["c"].total_energy == pytest.approx(
        1.5868275302472201, rel=1e-12)
