"""Seeded-defect tests: a defect planted in an operator must make the
verification suite that covers it fail.

Each test plants one known defect with monkeypatch, in every photonloc
module that binds the patched name, and runs the suites on small grids
(1d n = 256 and 3d 16**3, box 16).  The same suites pass on the same grids
without the defect, so each failure is the defect's doing.
"""

import sys
from types import SimpleNamespace

from photonloc import Grid, checks, operators
from photonloc.energy import energy_density
from photonloc.scenarios import make_bb_compact, make_lp_compact, make_lp_extended

GRID1 = Grid(1, 16.0, 256)
GRID3 = Grid(3, 16.0, 16)


def plant(monkeypatch, name, make_defect):
    """Replace operators.<name> by make_defect(original) in every photonloc
    module that binds it, the package namespace included."""
    original = getattr(operators, name)
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
