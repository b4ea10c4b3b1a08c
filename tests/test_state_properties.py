"""Property tests of LP and BB states over grids and unit systems.

Over dimension, even n, box length and UnitsConfig, for states built from
zero-mean fields (transverse in three dimensions):

  - normalize gives unit norm in the state's own inner product (L2 for
    LP, the 1/w-weighted one for BB);
  - the LP -> BB isomorphism is an isometry up to hbar,
    bb_inner(bb_from_lp psi, bb_from_lp psi') = hbar lp_inner(psi, psi');
  - free evolution by t and then by -t returns the state.

The zero mode is excluded because the BB weight 1/w has no value there.
The examples are derandomized and bounded, so the run is repeatable and
short.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from photonloc import (FREQUENCY, BBState, Grid, LPState, SpectralField,
                       UnitsConfig, bb_from_lp, bb_inner, evolve, l2_norm,
                       lp_inner, normalize, to_position, transverse_project)

# n per axis: up to 256 points in 1d, up to 16**3 in 3d.
MAX_HALF_N = {1: 128, 3: 8}

positive = st.floats(1e-2, 1e2, allow_nan=False, allow_infinity=False)
units_configs = st.builds(UnitsConfig, hbar=positive, c=positive, eps0=positive)


@st.composite
def grids(draw):
    dim = draw(st.sampled_from([1, 3]))
    n = 2 * draw(st.integers(1, MAX_HALF_N[dim]))
    return Grid(dim, draw(st.floats(1e-2, 1e3)), n)


def _zero_mean_field(grid: Grid, seed: int, position: bool) -> SpectralField:
    rng = np.random.default_rng(seed)
    shape = grid.field_shape
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    data[grid.zero_mode_index()] = 0.0
    field = SpectralField(grid, data, FREQUENCY)
    if grid.dim == 3:
        field = transverse_project(field)
    return to_position(field) if position else field


@st.composite
def field_pairs(draw):
    """Two zero-mean fields on one grid, each in either domain."""
    g = draw(grids())
    seeds = st.integers(0, 2 ** 32 - 1)
    return tuple(_zero_mean_field(g, draw(seeds), draw(st.booleans()))
                 for _ in range(2))


PROPERTY_SETTINGS = settings(max_examples=30, derandomize=True, deadline=None,
                             database=None)


@PROPERTY_SETTINGS
@given(field_pairs(), units_configs)
def test_normalized_states_have_unit_norm(fields, units):
    field = fields[0]
    lp = normalize(LPState(field, units))
    assert abs(l2_norm(lp.psi) - 1.0) < 1e-12
    bb = normalize(BBState(field, units))
    assert abs(bb_inner(bb, bb) - 1.0) < 1e-12


@PROPERTY_SETTINGS
@given(field_pairs(), units_configs)
def test_lp_to_bb_is_an_isometry_up_to_hbar(fields, units):
    a, b = (normalize(LPState(f, units)) for f in fields)
    bb = bb_inner(bb_from_lp(a), bb_from_lp(b))
    lp = lp_inner(a, b)
    assert abs(bb - units.hbar * lp) < 1e-12 * units.hbar


@PROPERTY_SETTINGS
@given(field_pairs(), units_configs, st.floats(-100.0, 100.0),
       st.sampled_from([LPState, BBState]))
def test_evolution_by_t_then_minus_t_is_the_identity(fields, units, t, cls):
    state = normalize(cls(fields[0], units))
    back = evolve(evolve(state, t), -t)
    assert back.field.domain == state.field.domain
    error = np.max(np.abs(back.field.data - state.field.data))
    assert error < 1e-12 * np.max(np.abs(state.field.data))
