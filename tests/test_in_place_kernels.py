"""The energy and helicity kernels write into arrays of their own in place;
none of them may write into its input."""

import pytest

from photonloc import (LPState, bb_from_lp, energy_density, helicity_parts,
                       helicity_project, lp_from_bb, magnitude, make_bb_compact,
                       make_lp_compact, strip_zero_mode, to_frequency)

from test_energy import _mean_carrying_bb_3d  # noqa: E402
from test_golden import _state_3d  # noqa: E402
from test_seeded_defects import GRID1  # noqa: E402


def _states():
    for name, state in (("lp-1d", make_lp_compact(GRID1, 1.0)),
                        ("bb-1d", make_bb_compact(GRID1, 1.0)),
                        ("lp-3d", _state_3d("lp")), ("bb-3d", _state_3d("bb")),
                        ("bb-3d-mean", _mean_carrying_bb_3d())):
        yield pytest.param(state, id=f"{name}-position")
        # to_frequency of a frequency-domain field is the field itself, so
        # here the kernels' own frequency image is state.field.
        yield pytest.param(type(state)(to_frequency(state.field), state.units),
                           id=f"{name}-frequency")


def _unchanged(call, field):
    before = field.data.copy()
    call(field)
    assert field.data.tobytes() == before.tobytes()


@pytest.mark.parametrize("state", list(_states()))
def test_energy_density_leaves_the_state_field_unchanged(state):
    _unchanged(lambda f: energy_density(state), state.field)


@pytest.mark.parametrize("state", list(_states()))
@pytest.mark.parametrize("kernel", [
    helicity_parts,
    lambda f: helicity_project(f, 1),
    lambda f: helicity_project(f, -1),
    strip_zero_mode,
    magnitude,
], ids=["helicity_parts", "helicity_project+", "helicity_project-", "strip_zero_mode",
        "magnitude"])
def test_field_kernels_leave_their_input_unchanged(state, kernel):
    _unchanged(kernel, state.field)


@pytest.mark.parametrize("state", list(_states()))
def test_the_isomorphisms_leave_their_input_unchanged(state):
    convert = (bb_from_lp if isinstance(state, LPState)
               else lambda s: lp_from_bb(s, zero_mode="drop"))
    _unchanged(lambda f: convert(state), state.field)
