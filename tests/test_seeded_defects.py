"""Seeded-defect tests: a defect planted in an operator must make the
verification suite that covers it fail.

Each test plants one known defect with monkeypatch, in every photonloc
module that binds the patched name (or, for a grid table, on the Grid
class), and runs the suites on small grids (1d n = 256 and 3d 16**3,
box 16).  The same suites pass on the same grids without the defect, so
each failure is the defect's doing.

The ``transverse`` flag is checked only where a caller sets it and trusted
after that, so a field flagged transverse that is not must fail at that
boundary, or in the transversality-residual row, which measures its fields
explicitly.  A spy planted the same way counts the measurements.  The
helicity claim of a projected part is trusted by the vanishing scan, so a
projector that builds the wrong part under the right claim must fail the
operator suites.
"""

import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from photonloc import (FREQUENCY, BBState, Grid, LPState, SpectralField, checks,
                       cli, fields, helicity_vanishing_scan, operators)
from photonloc import states as state_module
from photonloc.errors import TransversalityError
from photonloc.energy import energy_density
from photonloc.scenarios import make_bb_compact, make_lp_compact, make_lp_extended

from test_golden import _state_3d  # noqa: E402

GRID1 = Grid(1, 16.0, 256)
GRID3 = Grid(3, 16.0, 16)


def plant(monkeypatch, name, make_defect, source=operators):
    """Replace source.<name> by make_defect(original) in every photonloc
    module that binds it, the package namespace included."""
    original = getattr(source, name)
    planted = make_defect(original)
    for key, module in list(sys.modules.items()):
        if ((key == "photonloc" or key.startswith("photonloc."))
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, planted)


def small_figset():
    """What suite_two_path and suite_parseval_energy read of a figure
    dataset, for the three canonical states on GRID1 (figure2_report itself
    needs n >= 1024)."""
    states = {"a": make_lp_compact(GRID1, 1.0),
              "b": make_lp_extended(GRID1, 1.0),
              "c": make_bb_compact(GRID1, 1.0)}
    panels = {label: SimpleNamespace(
        two_path_discrepancy=energy_density(state).two_path_discrepancy)
        for label, state in states.items()}
    return SimpleNamespace(states=states, panels=panels)


def operator_suites():
    return (checks.suite_operator_algebra(GRID1, GRID3),
            checks.suite_isomorphism(GRID1, GRID3))


def energy_suites():
    figset = small_figset()
    return (checks.suite_two_path(figset, GRID1, GRID3),
            checks.suite_parseval_energy(figset, GRID1))


def failed(suite) -> set:
    return {check.name for check in suite.failures()}


def test_unplanted_suites_pass():
    for suite in operator_suites() + energy_suites():
        assert suite.passed, (suite.name, failed(suite))


def test_helicity_sign_flip_fails_operator_suites(monkeypatch):
    plant(monkeypatch, "helicity_apply",
          lambda original: lambda field: -original(field))
    algebra, isomorphism = operator_suites()
    assert {"curl-frequency-helicity-commutation",
            "plane-wave-helicity-eigenvalue",
            "sign-multiplier-1d"} <= failed(algebra)
    assert {"em-cross-path-3d", "em-cross-path-1d"} <= failed(isomorphism)


def test_doubled_plus_part_fails_parseval_but_not_two_path(monkeypatch):
    """helicity_parts returning (P(+) v, P(+) v) breaks the energy accounting
    against the spectral side.  two-path-energy cannot see it: the LP and BB
    paths of energy_density share the split, so both count the plus part
    twice and still agree pointwise."""
    plant(monkeypatch, "helicity_parts",
          lambda original: lambda field: (original(field)[0],) * 2)
    two_path, parseval = energy_suites()
    assert "lp-total-vs-spectral" in failed(parseval)
    assert two_path.passed, failed(two_path)


def test_kept_zero_mode_fails_two_path(monkeypatch):
    """strip_zero_mode as a no-op: the BB path of the mean-carrying
    bb-compact state is compared with an LP image that has no mean."""
    plant(monkeypatch, "strip_zero_mode",
          lambda original: fields.to_frequency, source=fields)
    two_path, _ = energy_suites()
    assert "figure-states-discrepancy" in failed(two_path)


def test_omega_power_one_at_zero_mode_fails_energy_suites(monkeypatch):
    def make_defect(original):
        def omega_power(grid, s, *args, **kwargs):
            mult = original(grid, s, *args, **kwargs)
            mult[(0,) * grid.dim] = 1.0
            return mult
        return omega_power
    plant(monkeypatch, "omega_power", make_defect)
    two_path, parseval = energy_suites()
    assert "figure-states-discrepancy" in failed(two_path)
    assert {"bb-regularized-total-vs-spectral",
            "lp-total-vs-spectral"} <= failed(parseval)


def test_mis_scaled_half_power_fails_every_suite_that_uses_it(monkeypatch):
    def make_defect(original):
        def omega_power(grid, s, *args, **kwargs):
            mult = original(grid, s, *args, **kwargs)
            return mult * (1.0 + 1e-6) if s == 0.5 else mult
        return omega_power
    plant(monkeypatch, "omega_power", make_defect)
    algebra, isomorphism = operator_suites()
    two_path, parseval = energy_suites()
    assert "half-power-composition" in failed(algebra)
    assert {"lp-bb-round-trip", "em-cross-path-3d"} <= failed(isomorphism)
    assert "random-states-discrepancy" in failed(two_path)
    assert "narrowband-vs-quadrature-oracle" in failed(parseval)


def test_minus_polarization_set_to_plus_fails_operator_algebra(monkeypatch):
    original = Grid.polarization_table.func
    monkeypatch.setattr(Grid, "polarization_table", property(
        lambda grid: np.stack([original(grid)[0]] * 2)))
    algebra, _ = operator_suites()
    assert {"polarization-conjugation", "momentum-amplitude-round-trip",
            "momentum-amplitude-parseval"} <= failed(algebra)


def nan_in_synthesis(original):
    """synthesize_from_amplitudes with one NaN sample."""
    def synthesize_from_amplitudes(amps):
        out = original(amps)
        data = out.data.copy()
        data.flat[1] = np.nan
        return fields._trusted(out.grid, data, out.domain, out.transverse)
    return synthesize_from_amplitudes


def test_nan_in_synthesis_fails_the_momentum_round_trip(monkeypatch):
    plant(monkeypatch, "synthesize_from_amplitudes", nan_in_synthesis)
    algebra = checks.suite_operator_algebra(GRID1, GRID3)
    row, = (c for c in algebra.checks if c.name == "momentum-amplitude-round-trip")
    assert not row.ok and np.isnan(row.value)


def test_nan_in_synthesis_makes_check_exit_2(monkeypatch, capsys):
    plant(monkeypatch, "synthesize_from_amplitudes", nan_in_synthesis)
    assert cli.main(["check", "--grid-n", "256"]) == 2
    assert "failed: momentum-amplitude-round-trip: nan" in capsys.readouterr().out


def nan_at_one_3d_helicity_mode(original):
    """helicity_apply with a NaN at one mode of every 3d output."""
    def helicity_apply(field):
        out = original(field)
        if field.grid.dim != 3:
            return out
        data = fields.to_frequency(out).data.copy()
        data[0, 1, 0, 0] = np.nan
        planted = fields._trusted(out.grid, data, FREQUENCY, True)
        return planted if out.domain == FREQUENCY else fields.to_position(planted)
    return helicity_apply


def test_nan_at_one_3d_helicity_mode_fails_operator_algebra(monkeypatch):
    """Each row the NaN reaches must read NaN and fail."""
    plant(monkeypatch, "helicity_apply", nan_at_one_3d_helicity_mode)
    algebra = checks.suite_operator_algebra(GRID1, GRID3)
    assert {"helicity-squared-3d", "curl-frequency-helicity-commutation",
            "projector-idempotence", "projector-annihilation",
            "projector-completeness-3d",
            "plane-wave-helicity-eigenvalue"} <= failed(algebra)
    assert all(np.isnan(c.value) for c in algebra.failures())


def test_a_suite_that_raises_fails_and_check_still_prints_every_suite(monkeypatch, capsys):
    """The NaN turns a state norm in the isomorphism suite NaN, and the
    state rejects it with ValueError: that suite fails with one NaN row
    naming the exception, the other suites still run, and check exits 2."""
    plant(monkeypatch, "helicity_apply", nan_at_one_3d_helicity_mode)
    assert cli.main(["check", "--grid-n", "256"]) == 2
    out = capsys.readouterr().out
    assert re.search(r"^isomorphism +1 +FAIL$", out, re.M)
    assert "  failed: raised ValueError: state norm must be finite, got nan: nan" in out
    assert len(re.findall(r"  (?:pass|FAIL)$", out, re.M)) == 10
    assert "NUMERICAL VERIFICATION FAILED" in out


def parts_for_signs(choose):
    """_helicity_parts building its parts for the signs choose(signs), each
    part claiming the sign it was asked for, as the projection would."""
    def make_defect(original):
        def _helicity_parts(field, signs):
            parts = original(field, choose(signs))
            for part, sign in zip(parts, signs):
                part.helicity = sign if part.helicity else 0
            return parts
        return _helicity_parts
    return make_defect


# (choose, failed operator-algebra rows, failed isomorphism rows).  Swapped
# projectors are still idempotent and annihilate each other, so only the
# rows that apply L to a part, or compare two parts' signs, see the swap.
PROJECTOR_DEFECTS = {
    "swapped-signs": (lambda signs: tuple(-s for s in signs), set(),
                      {"helicity-pair-eigenfield", "riemann-silberstein-identity-3d"}),
    "first-sign-twice": (lambda signs: (signs[0],) * len(signs),
                         {"projector-annihilation", "projector-completeness-3d",
                          "projector-completeness-1d"},
                         {"helicity-pair-reconstruction",
                          "riemann-silberstein-identity-3d"}),
}


@pytest.mark.parametrize("defect", PROJECTOR_DEFECTS)
def test_a_projector_defect_under_the_right_claim_fails_the_operator_suites(
        monkeypatch, defect):
    """The scan reports the claimed signs; only measuring an unclaimed copy
    of each part would show the defect."""
    choose, algebra_rows, isomorphism_rows = PROJECTOR_DEFECTS[defect]
    plant(monkeypatch, "_helicity_parts", parts_for_signs(choose))
    field = checks.random_band_limited(GRID3, np.random.default_rng(0), transverse=True)
    parts = operators.helicity_parts(field)
    window = 5.0 * GRID3.spacing
    assert [helicity_vanishing_scan(p, window).eigenvalue for p in parts] == [1, -1]
    assert [helicity_vanishing_scan(p.copy(), window).eigenvalue for p in parts] != [1, -1]
    algebra, isomorphism = operator_suites()
    assert failed(algebra) == algebra_rows
    assert failed(isomorphism) == isomorphism_rows


@pytest.mark.parametrize("defect", PROJECTOR_DEFECTS)
def test_a_projector_defect_under_the_right_claim_makes_check_exit_2(
        monkeypatch, capsys, defect):
    choose, algebra_rows, isomorphism_rows = PROJECTOR_DEFECTS[defect]
    plant(monkeypatch, "_helicity_parts", parts_for_signs(choose))
    assert cli.main(["check"]) == 2
    out = capsys.readouterr().out
    assert algebra_rows | isomorphism_rows <= set(re.findall(r"^  failed: ([\w-]+):", out, re.M))


def test_longitudinal_field_flagged_transverse_is_rejected():
    gradient = np.stack(np.broadcast_arrays(*GRID3.k_vectors)).astype(complex)
    with pytest.raises(TransversalityError):
        SpectralField(GRID3, gradient, FREQUENCY, transverse=True)


def test_leaky_transverse_project_fails_the_residual_row(monkeypatch):
    """A projection that keeps 1e-6 of the longitudinal part but still
    flags its output transverse: no consumer measures the flagged field
    again, so the transversality-residual row has to catch it, and the
    projection of eps_+ + eps_- + k^ keeps 1e-6 of k^.  No other suite
    projects a field."""
    def make_defect(original):
        def transverse_project(field):
            out = original(field)
            leaky = out.data + 1e-6 * (field.data - out.data)
            return fields._trusted(out.grid, leaky, out.domain, True)
        return transverse_project
    plant(monkeypatch, "transverse_project", make_defect)
    algebra = checks.suite_operator_algebra(GRID1, GRID3)
    assert {"transversality-residual", "transverse-projector-basis"} <= failed(algebra)


def above_half_nyquist(grid: Grid) -> np.ndarray:
    """The modes above the band of the random corpus, where every
    random_band_limited field is empty."""
    return grid.k_magnitude > checks.band_limit(grid)


def bb_field_scaled(dim: int, modes):
    """states._bb_field with the F of every ``dim``-dimensional state
    scaled by 1.01 at the modes ``modes(grid)`` indexes (after the
    component axis)."""
    def make_defect(original):
        def _bb_field(psi_hat, units, domain):
            if psi_hat.grid.dim != dim:
                return original(psi_hat, units, domain)
            out = original(psi_hat, units, FREQUENCY)
            data = out.data.copy()
            data[(Ellipsis,) + modes(out.grid)] *= 1.01
            planted = fields._trusted(out.grid, data, FREQUENCY, out.transverse)
            return planted if domain == FREQUENCY else fields.to_position(planted)
        return _bb_field
    return make_defect


def bb_field_scaled_above_half_nyquist(dim: int):
    return bb_field_scaled(dim, lambda grid: (above_half_nyquist(grid),))


BB_FIELD_ROWS = {3: {"lp-bb-round-trip", "inner-product-correspondence",
                     "norm-correspondence", "em-cross-path-3d"},
                 1: {"em-cross-path-1d"}}


@pytest.mark.parametrize("dim", [3, 1])
def test_bb_field_off_above_half_nyquist_fails_the_isomorphism_rows(monkeypatch, dim):
    """The 3d rows see the defect through the basis fields and the white
    real draws, the 1d cross path through its white draws; the 1d random
    pairs are in-band, and evolution commutes with the defective map."""
    plant(monkeypatch, "_bb_field", bb_field_scaled_above_half_nyquist(dim),
          source=state_module)
    isomorphism = checks.suite_isomorphism(GRID1, GRID3)
    assert failed(isomorphism) == BB_FIELD_ROWS[dim]


@pytest.mark.parametrize("mode", [(1, 0, 0), (7, 7, 7), (7, 13, 2)])
def test_bb_field_off_at_one_3d_mode_fails_the_round_trip_and_the_cross_path(
        monkeypatch, mode):
    """A 1% error at one mode, the lowest, the highest off the Nyquist
    planes, or one in between: the basis fields and the white real draws
    fill every mode, so one draw per slot is enough to see it."""
    plant(monkeypatch, "_bb_field", bb_field_scaled(3, lambda grid: mode),
          source=state_module)
    isomorphism = checks.suite_isomorphism(GRID1, GRID3)
    assert {"lp-bb-round-trip", "em-cross-path-3d"} <= failed(isomorphism)


def test_bb_field_off_above_half_nyquist_in_3d_makes_check_exit_2(monkeypatch, capsys):
    plant(monkeypatch, "_bb_field", bb_field_scaled_above_half_nyquist(3),
          source=state_module)
    assert cli.main(["check", "--grid-n", "256"]) == 2
    out = capsys.readouterr().out
    assert re.search(r"^isomorphism +9 +FAIL$", out, re.M)
    assert set(re.findall(r"^  failed: ([\w-]+):", out, re.M)) == BB_FIELD_ROWS[3]


def test_helicity_halved_above_half_nyquist_fails_the_basis_rows(monkeypatch):
    """The random corpus is empty above half the Nyquist wavevector, so only
    the basis fields, which fill every mode, can see this defect."""
    def make_defect(original):
        def helicity_apply(field):
            out = original(field)
            if field.grid.dim != 3:
                return out
            data = fields.to_frequency(out).data.copy()
            data[:, above_half_nyquist(field.grid)] *= 0.5
            planted = fields._trusted(out.grid, data, FREQUENCY, True)
            return planted if out.domain == FREQUENCY else fields.to_position(planted)
        return helicity_apply
    plant(monkeypatch, "helicity_apply", make_defect)
    algebra = checks.suite_operator_algebra(GRID1, GRID3)
    assert {"helicity-squared-3d", "curl-frequency-helicity-commutation",
            "projector-idempotence", "projector-annihilation",
            "basis-helicity-eigenvalue"} <= failed(algebra)


def test_transverse_project_skipping_high_modes_fails_the_basis_row(monkeypatch):
    """A projection that returns every mode above half the Nyquist
    wavevector untouched, longitudinal part included."""
    def make_defect(original):
        def transverse_project(field):
            out = fields.to_frequency(original(field))
            data = out.data.copy()
            high = above_half_nyquist(field.grid)
            data[:, high] = fields.to_frequency(field).data[:, high]
            planted = fields._trusted(out.grid, data, FREQUENCY, True)
            return planted if field.is_frequency else fields.to_position(planted)
        return transverse_project
    plant(monkeypatch, "transverse_project", make_defect)
    algebra = checks.suite_operator_algebra(GRID1, GRID3)
    assert "transverse-projector-basis" in failed(algebra)


def test_swapped_polarization_table_fails_the_basis_eigenvalue_row(monkeypatch):
    """eps_+ and eps_- swapped: analysis and synthesis still invert each
    other, but L eps_+ = -eps_+."""
    original = Grid.polarization_table.func
    monkeypatch.setattr(Grid, "polarization_table", property(
        lambda grid: original(grid)[::-1]))
    algebra = checks.suite_operator_algebra(GRID1, GRID3)
    assert "basis-helicity-eigenvalue" in failed(algebra)


def spy_on_measurements(monkeypatch) -> list:
    """Plant a spy on transversality_residual.  The returned list records,
    per measurement, whether the measured field was flagged transverse."""
    calls = []

    def make_spy(original):
        def transversality_residual(field):
            calls.append(field.transverse)
            return original(field)
        return transversality_residual
    plant(monkeypatch, "transversality_residual", make_spy)
    return calls


def unflagged_curl_field() -> SpectralField:
    """The golden 16^3 LP state's field (the curl of a Gaussian vector
    potential), rebuilt from its samples so its flag is unset."""
    return SpectralField(GRID3, _state_3d("lp").field.data)


def test_operator_suites_measure_transversality_only_in_the_residual_row(monkeypatch):
    calls = spy_on_measurements(monkeypatch)
    checks.suite_operator_algebra(GRID1, GRID3)
    assert calls == [True] * 8
    calls.clear()
    checks.suite_isomorphism(GRID1, GRID3)
    assert calls == []


@pytest.mark.parametrize("cls", [LPState, BBState])
def test_an_unflagged_state_field_is_measured_once(monkeypatch, cls):
    """The state's check flags the field it keeps, so the energy density and
    the helicity split of the zero-mean field trust it."""
    field = unflagged_curl_field()
    calls = spy_on_measurements(monkeypatch)
    state = cls(field)
    assert state.field is field and field.transverse
    energy_density(state)
    operators.helicity_parts(fields.strip_zero_mode(field))
    assert calls == [False]


def test_a_longitudinal_field_is_measured_and_rejected_on_every_call(monkeypatch):
    calls = spy_on_measurements(monkeypatch)
    gradient = SpectralField(GRID3, np.stack(np.broadcast_arrays(*GRID3.k_vectors)),
                             FREQUENCY)
    for consumer in (LPState, BBState, operators.helicity_apply,
                     operators.momentum_amplitudes):
        with pytest.raises(TransversalityError):
            consumer(gradient)
        assert not gradient.transverse
    assert calls == [False] * 4
