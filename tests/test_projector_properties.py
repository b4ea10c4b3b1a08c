"""Property tests of the helicity projector algebra on flagged fields.

Over dimension, even n and box length, the projectors P(+-) = (1 +- L)/2
of a zero-mean field (transverse in three dimensions, and flagged so by
transverse_project) satisfy P(+) + P(-) = I, P(+-)**2 = P(+-) and
P(-+) P(+-) = 0.  The zero mode is excluded because L maps it to zero,
which makes P(+-) halve it.  The parts of such a field claim their
helicity, and the vanishing scan's report on a claimed part is the one it
measures on an unclaimed copy.  The examples are derandomized and bounded,
so the run is repeatable and short.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from photonloc import (FREQUENCY, Grid, SpectralField, helicity_parts,
                       helicity_vanishing_scan, peak_magnitude, strip_zero_mode,
                       to_position, transverse_project)
from photonloc.checks import random_band_limited
from photonloc.fields import require_transverse

# n per axis: up to 256 points in 1d, up to 16**3 in 3d.
MAX_HALF_N = {1: 128, 3: 8}


@st.composite
def flagged_fields(draw):
    dim = draw(st.sampled_from([1, 3]))
    n = 2 * draw(st.integers(1, MAX_HALF_N[dim]))
    length = draw(st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    g = Grid(dim, length, n)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(g.field_shape) + 1j * rng.standard_normal(g.field_shape)
    data[g.zero_mode_index()] = 0.0
    field = SpectralField(g, data, FREQUENCY)
    if dim == 3:
        field = transverse_project(field)
        assert field.transverse
    return to_position(field) if draw(st.booleans()) else field


PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None,
                             database=None)


def _error(a, b, field) -> float:
    """max |a - b| relative to the peak of the projected field (a part
    can vanish, e.g. on a 1d grid of two points)."""
    return float(np.max(np.abs(a.data - b.data)) / np.max(np.abs(field.data)))


@PROPERTY_SETTINGS
@given(flagged_fields())
def test_projectors_sum_to_the_identity(field):
    plus, minus = helicity_parts(field)
    assert _error(plus + minus, field, field) < 1e-12


@PROPERTY_SETTINGS
@given(flagged_fields())
def test_projectors_are_idempotent(field):
    plus, minus = helicity_parts(field)
    assert _error(helicity_parts(plus)[0], plus, field) < 1e-12
    assert _error(helicity_parts(minus)[1], minus, field) < 1e-12


@PROPERTY_SETTINGS
@given(flagged_fields())
def test_projectors_annihilate_each_other(field):
    plus, minus = helicity_parts(field)
    zero = 0.0 * field
    assert _error(helicity_parts(plus)[1], zero, field) < 1e-12
    assert _error(helicity_parts(minus)[0], zero, field) < 1e-12


@PROPERTY_SETTINGS
@given(st.sampled_from([Grid(1, 16.0, 256), Grid(3, 8.0, 16)]),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_a_claimed_part_scans_as_its_unclaimed_copy_measures(grid, seed, via_position):
    """A position-domain field's mean is exactly 0 again after
    strip_zero_mode, as in helicity_scans."""
    field = random_band_limited(grid, np.random.default_rng(seed), transverse=True)
    require_transverse(field, "")  # flags a 1d draw; a 3d draw is flagged
    field = strip_zero_mode(to_position(field)) if via_position else field
    peak = peak_magnitude(field)
    window = 5.0 * grid.spacing
    for part, sign in zip(helicity_parts(field), (1, -1)):
        assert part.helicity == sign
        claimed = helicity_vanishing_scan(part, window, reference_peak=peak)
        measured = helicity_vanishing_scan(part.copy(), window, reference_peak=peak)
        assert dataclasses.astuple(claimed) == dataclasses.astuple(measured)
