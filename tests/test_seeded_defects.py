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
explicitly.  A spy planted the same way counts the measurements.
"""

import sys
from types import SimpleNamespace

import numpy as np
import pytest

from photonloc import FREQUENCY, Grid, SpectralField, checks, fields, operators
from photonloc.errors import TransversalityError
from photonloc.energy import energy_density
from photonloc.scenarios import make_bb_compact, make_lp_compact, make_lp_extended

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
    return (checks.suite_operator_algebra(GRID1, GRID3, n_fields=8),
            checks.suite_isomorphism(GRID1, GRID3, n_pairs=5))


def energy_suites():
    figset = small_figset()
    return (checks.suite_two_path(figset, GRID1, GRID3, n_random=8),
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


def test_longitudinal_field_flagged_transverse_is_rejected():
    gradient = np.stack(np.broadcast_arrays(*GRID3.k_vectors)).astype(complex)
    with pytest.raises(TransversalityError):
        SpectralField(GRID3, gradient, FREQUENCY, transverse=True)


def test_leaky_transverse_project_fails_the_residual_row(monkeypatch):
    """A projection that keeps 1e-6 of the longitudinal part but still
    flags its output transverse: no consumer measures the flagged field
    again, so the transversality-residual row has to catch it."""
    def make_defect(original):
        def transverse_project(field):
            out = original(field)
            leaky = out.data + 1e-6 * (field.data - out.data)
            return fields._trusted(out.grid, leaky, out.domain, True)
        return transverse_project
    plant(monkeypatch, "transverse_project", make_defect)
    algebra, isomorphism = operator_suites()
    assert {"transversality-residual", "projector-idempotence",
            "helicity-squared-3d"} <= failed(algebra)
    assert "em-cross-path-3d" in failed(isomorphism)


def test_operator_suites_measure_transversality_only_in_the_residual_row(monkeypatch):
    calls = []

    def make_spy(original):
        def transversality_residual(field):
            calls.append(field.transverse)
            return original(field)
        return transversality_residual
    plant(monkeypatch, "transversality_residual", make_spy)
    checks.suite_operator_algebra(GRID1, GRID3, n_fields=8)
    assert calls == [True] * 8
    calls.clear()
    checks.suite_isomorphism(GRID1, GRID3, n_pairs=5)
    assert calls == []
