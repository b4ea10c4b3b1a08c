"""The defect matrix of the physics core: plants and the rows that catch them.

Each plant replaces one target only in the module that uses it, as in
tests/test_seeded_defects.py (a method on its class), and runs every suite
at grid_n = 256.  A
plant that no row catches is a known gap: it is listed in KNOWN_GAPS, and
its test asserts that every suite still passes, so the gap stays visible
until a row closes it.
"""

import pytest

from photonloc import checks
from photonloc import energy as energy_module
from photonloc import states as state_module


def scaled_omega(original):
    return lambda grid, *args, **kwargs: 1.01 * original(grid, *args, **kwargs)


def negated_omega(original):
    """Evolution runs backwards: exp(+i w t) in place of exp(-i w t)."""
    return lambda grid, *args, **kwargs: -original(grid, *args, **kwargs)


def raised_support_threshold(original):
    return lambda obj, threshold: original(obj, 100.0 * threshold)


def half_cell_shift(original):
    """Every sample's dx-wide cell moved by half a cell along each axis."""
    return lambda x, lo, hi, dx: original(x + 0.5 * dx, lo, hi, dx)


def raised_floor(original):
    return lambda peak: 1e6 * original(peak)


def touching_meets(original):
    """A cell that only touches the source counts as meeting it."""
    def meets(volume, cell):
        if volume.kind == "ball":
            gaps = (max(l - c, c - h, 0.0) for l, h, c in zip(cell.lo, cell.hi, volume.center))
            return sum(d * d for d in gaps) <= volume.radius ** 2
        return all(h >= vl and l <= vh
                   for l, h, vl, vh in zip(cell.lo, cell.hi, volume.lo, volume.hi))
    return meets


# (id, module planted, name planted, mutation of the original)
KNOWN_GAPS = (
    ("omega-times-1.01", state_module, "omega", scaled_omega),
    ("omega-negated", state_module, "omega", negated_omega),
    ("support-threshold-times-100", checks, "support_estimate", raised_support_threshold),
    ("cell-overlaps-half-cell-shift", energy_module, "_overlaps", half_cell_shift),
    ("knight-floor-times-1e6", energy_module, "_default_floor", raised_floor),
    ("knight-touching-cells-meet", energy_module.DetectorVolume, "meets", touching_meets),
)


@pytest.mark.parametrize("module, name, mutate", [gap[1:] for gap in KNOWN_GAPS],
                         ids=[gap[0] for gap in KNOWN_GAPS])
def test_a_known_gap_passes_every_suite(monkeypatch, module, name, mutate):
    planted, calls = mutate(getattr(module, name)), []

    def counted(*args, **kwargs):
        calls.append(name)
        return planted(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    caught = {suite.name: sorted(c.name for c in suite.failures())
              for suite in checks.run_all_checks(grid_n=256) if not suite.passed}
    assert calls, "the plant is never reached"
    assert not caught, (f"rows now catch this plant: {caught}; move it out of "
                        "KNOWN_GAPS into an entry that names those rows")
