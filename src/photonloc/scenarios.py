"""Canonical one-dimensional pulse scenarios.

Three unit-norm states built from the same compactly supported profile

    p(x) = cos(pi x / l)**2   for |x| <= l/2,   0 otherwise

(unit L2 norm), chosen so that exactly one natural quantity is compact:

  lp-compact   psi ~ (1 - i) p            the LP wave function is compact
  lp-extended  psi ~ W^(1/2) p - i W^(-1/2) p   the potential and electric
               field are compact, the wave function is not
  bb-compact   F ~ (1 - i) p              the RS field is compact

Each construction fills a standard six-panel figure: panels a-c show the
three states on a linear scale, panels d-f repeat them on a log scale where
the power-law tails and the everywhere-positive energy density are visible.
The mean-carrying profile forces the zero mode of every W**(-1/2) to be
dropped; the induced offset scales like the square root of the wavevector
spacing and dies out as the box grows.

One periodization artifact deserves a note: for the bb-compact state the
energy density at the single node antipodal to the pulse center
(x = -box/2) is parity-suppressed.  Both |F| (compact support) and the
conjugate-function part (odd about the center, hence zero at the antipode
up to the unpaired Nyquist term) vanish there, so the sampled value drops
to roundoff scale instead of the free-space 1/x**2 tail.  It remains
strictly positive, and every other node carries the genuine tail; growing
the box pushes the artifact node arbitrarily far out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import energy_density, total_energy
from .errors import ProfileTooWideError
from .fields import SpectralField, l2_norm, magnitude, to_frequency, to_position
from .grid import Grid
from .states import (BBState, EMFields, LPState, _bb_field, _lp_field,
                     lp_from_potentials, normalize)
from .units import NATURAL, UnitsConfig


def sin2_profile(grid: Grid, pulse_length: float) -> SpectralField:
    """Unit-norm raised-cosine pulse centered at the origin."""
    if grid.dim != 1:
        raise ValueError("pulse profiles are defined on one-dimensional grids")
    if not (pulse_length > 0.0):
        raise ValueError(f"pulse_length must be positive, got {pulse_length}")
    if pulse_length >= grid.length:
        raise ProfileTooWideError(
            f"pulse of length {pulse_length} does not fit compactly in a "
            f"box of length {grid.length}")
    x = grid.axis
    p = np.where(np.abs(x) <= 0.5 * pulse_length,
                 np.cos(np.pi * x / pulse_length) ** 2, 0.0)
    field = SpectralField(grid, p)
    return field / l2_norm(field)


def odd_pulse_profile(grid: Grid, pulse_length: float) -> SpectralField:
    """sin(2 pi x/l) cos(pi x/l)**2 on |x| <= l/2: real, zero-mean, compact."""
    x = grid.axis
    return SpectralField(grid, np.where(np.abs(x) <= 0.5 * pulse_length,
                                        np.sin(2.0 * np.pi * x / pulse_length)
                                        * np.cos(np.pi * x / pulse_length) ** 2, 0.0))


def make_lp_compact(grid: Grid, pulse_length: float,
                    units: UnitsConfig = NATURAL) -> LPState:
    """State whose LP wave function is the compact profile itself."""
    p = sin2_profile(grid, pulse_length)
    scale = np.sqrt(units.eps0 / (2.0 * units.hbar))
    return normalize(LPState(scale * (1.0 - 1.0j) * p, units))


def make_lp_extended(grid: Grid, pulse_length: float,
                     units: UnitsConfig = NATURAL) -> LPState:
    """State built from a compact vector potential and electric field.

    The LP state of A = E = p, psi = sqrt(eps0/(2 hbar)) (W^(1/2) p -
    i W^(-1/2) p); the profile's mean is dropped by the inverse half power.
    """
    p = sin2_profile(grid, pulse_length)
    return normalize(lp_from_potentials(EMFields(p, p), units, zero_mode="drop"))


def make_bb_compact(grid: Grid, pulse_length: float,
                    units: UnitsConfig = NATURAL) -> BBState:
    """State whose RS field is the compact profile itself (~ A - iE)."""
    p = sin2_profile(grid, pulse_length)
    scale = np.sqrt(units.eps0 / 2.0)
    return normalize(BBState(scale * (1.0 - 1.0j) * p, units))


@dataclass(eq=False)
class PanelData:
    """Curves for one figure panel."""

    label: str
    kind: str
    scale: str
    x: np.ndarray
    lp_abs: np.ndarray
    bb_abs: np.ndarray
    energy: np.ndarray
    total_energy: float
    two_path_discrepancy: float


@dataclass(eq=False)
class FigureDataset:
    """The full six-panel dataset with the three underlying states."""

    grid: Grid
    pulse_length: float
    units: UnitsConfig
    states: dict
    panels: dict


_KINDS = {"a": "lp-compact", "b": "lp-extended", "c": "bb-compact"}


def state_curves(state):
    """Position-domain |psi|, |F|, and energy map of a state.

    The other representation's image comes from the isomorphism formula
    alone, with no state built around it.  A BB state's psi drops the mean
    (W**(-1/2) has no value at k = 0), matching the panel construction.
    """
    if state.representation == "lp":
        psi = state.field
        f = _bb_field(to_frequency(psi), state.units, psi.domain)
    else:
        f = state.field
        psi = _lp_field(f, state.units, zero_mode="drop")
    return (magnitude(to_position(psi)), magnitude(to_position(f)),
            energy_density(state))


def figure2_report(grid: Grid, pulse_length: float = 1.0,
                   units: UnitsConfig = NATURAL) -> FigureDataset:
    """Compute the six-panel comparison of the three canonical states.

    Resolution below 2**10 points or a box shorter than 16 pulse lengths
    leaves the tails unresolved, so both are rejected.
    """
    if grid.dim != 1:
        raise ValueError("the panel scenarios are one-dimensional")
    if grid.n < 1024:
        raise ValueError(f"need at least 1024 grid points, got {grid.n}")
    if grid.length < 16.0 * pulse_length:
        raise ValueError(
            f"box of length {grid.length} is shorter than 16 pulse lengths")

    states = {
        "a": make_lp_compact(grid, pulse_length, units),
        "b": make_lp_extended(grid, pulse_length, units),
        "c": make_bb_compact(grid, pulse_length, units),
    }
    panels = {}
    for label, state in states.items():
        lp_abs, bb_abs, emap = state_curves(state)
        base = dict(kind=_KINDS[label], x=grid.axis.copy(), lp_abs=lp_abs,
                    bb_abs=bb_abs, energy=emap.values,
                    total_energy=total_energy(emap),
                    two_path_discrepancy=emap.two_path_discrepancy)
        panels[label] = PanelData(label=label, scale="linear", **base)
        log_label = chr(ord(label) + 3)
        panels[log_label] = PanelData(label=log_label, scale="log", **base)
    return FigureDataset(grid, float(pulse_length), units, states, panels)
