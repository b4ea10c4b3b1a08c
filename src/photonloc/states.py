"""Single-photon pulse states in two position representations.

The Landau-Peierls (LP) representation stores the photon wave function

    psi = sqrt(eps0 / (2 hbar)) * (W**(1/2) A - i W**(-1/2) E),

built from the transverse vector potential A and electric field E, where W
is the frequency operator c|k| applied as a Fourier multiplier.  Its inner
product is the plain L2 one, so |psi|**2 integrates to the photon number.

The Bialynicki-Birula (BB) representation stores the positive-frequency
Riemann-Silberstein field

    F = sqrt(eps0 / 2) * (E + i c L B),

with L the helicity operator.  Its inner product carries the 1/w weight,
<F, F'> = integral dk conj(F~) . F~' / w(k).  The two representations are
unitarily equivalent through F = i sqrt(hbar) W**(1/2) psi, and both evolve
by the diagonal phase exp(-i w(k) t).

Everything works on one- and three-dimensional grids alike; in the reduced
one-dimensional model fields are scalars and the helicity operator is
sign(k).  The zero (mean) mode needs care throughout: W**(-1/2) and the BB
weight 1/w blow up there, so mean-carrying fields either raise
ZeroModeError or, on request, have the mode discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, ZeroStateError
from .fields import (FREQUENCY, SpectralField, _by_planes, _consumable, _max_abs, l2_inner,
                     l2_norm, require_transverse, to_frequency, to_position)
from .operators import (_same_domain, apply_frequency_power, curl, helicity_apply,
                        omega, omega_power, zero_mode_guard)
from .units import NATURAL, UnitsConfig

REAL_TOL = 1e-12


def _check_physical_field(field: SpectralField, name: str, require_real: bool = True):
    pos = to_position(field)
    peak = _max_abs(pos.data)
    if require_real and peak > 0.0:
        im = _max_abs(pos.data.imag)
        if im > REAL_TOL * peak:
            raise ValueError(f"{name} must be a real field (max |Im| = {im:.3e})")
    require_transverse(field, f"{name} must be divergence-free")


def _finite(field: SpectralField) -> bool:
    """Whether every sample is finite, tested per block and component."""
    bad = []

    def kernel(part, ok):
        for v in part(field.data).reshape((-1,) + ok.shape):
            if not np.isfinite(v, out=ok).all():
                bad.append(True)

    _by_planes(field.grid, kernel, np.bool_)
    return not bad


def _check_state_field(field: SpectralField):
    require_transverse(field, "state fields must be divergence-free")


@dataclass(eq=False)
class EMFields:
    """A transverse vector potential with its electric field, and optionally
    the magnetic field.  In the one-dimensional model the magnetic partner
    of a real potential is in general complex in position space; realness
    is a three-dimensional property."""

    e: SpectralField
    a: SpectralField
    b: SpectralField = None

    def __post_init__(self):
        if self.e.grid != self.a.grid:
            raise GridMismatchError("E and A live on different grids")
        if self.b is not None and self.b.grid != self.e.grid:
            raise GridMismatchError("B lives on a different grid")
        _check_physical_field(self.e, "E")
        _check_physical_field(self.a, "A")
        if self.b is not None:
            _check_physical_field(self.b, "B", require_real=(self.e.grid.dim == 3))

    @classmethod
    def from_potentials(cls, e: SpectralField, a: SpectralField) -> "EMFields":
        """Derive B from A: the curl in three dimensions, and in one the
        multiplier k (so that c L B = W A holds identically)."""
        if e.grid.dim == 3:
            return cls(e, a, curl(a))
        fa = to_frequency(a)
        b = SpectralField(fa.grid, fa.grid.k_axis * fa.data, FREQUENCY)
        return cls(e, a, to_position(b))


@dataclass(eq=False)
class PhotonState:
    """Base of LPState and BBState: a single-photon state's field, its unit
    system and its norm in the representation's own inner product.

    Each subclass names its ``representation`` ("lp" or "bb") and defines
    the norm, which is computed on its first read and kept.  A norm that
    is not finite raises ValueError: when the state is built if a sample
    is NaN or Inf, on that read if the norm overflows.
    """

    field: SpectralField
    units: UnitsConfig = NATURAL

    def __post_init__(self):
        if not isinstance(self.units, UnitsConfig):
            raise TypeError(f"units must be a UnitsConfig, got {type(self.units).__name__}")
        _check_state_field(self.field)
        if not _finite(self.field):         # then the norm is not finite
            raise ValueError(f"state norm must be finite, got {self._norm()}")

    @cached_property
    def norm(self) -> float:
        norm = self._norm()
        if not np.isfinite(norm):
            raise ValueError(f"state norm must be finite, got {norm}")
        return norm

    @property
    def grid(self):
        return self.field.grid


class LPState(PhotonState):
    """Landau-Peierls wave function psi; its norm is the plain L2 one."""

    representation = "lp"

    @property
    def psi(self) -> SpectralField:
        return self.field

    def _norm(self) -> float:
        return l2_norm(self.field)


class BBState(PhotonState):
    """Riemann-Silberstein field F with the weighted norm.

    The norm uses the 1/w(k) weight with the zero mode excluded; for
    zero-mean fields that is the exact norm, for mean-carrying fields it is
    the natural regularization (the excluded weight is infinite).
    """

    representation = "bb"

    @property
    def f(self) -> SpectralField:
        return self.field

    def _norm(self) -> float:
        ff = to_frequency(self.field)
        weight = omega_power(ff.grid, -1.0, self.units)
        norm_sq = float(ff.grid.k_cell_volume * np.sum(np.abs(ff.data) ** 2 * weight))
        return float(np.sqrt(max(norm_sq, 0.0)))


def lp_from_potentials(em: EMFields, units: UnitsConfig = NATURAL,
                       zero_mode: str = "raise") -> LPState:
    """psi = sqrt(eps0/(2 hbar)) (W**(1/2) A - i W**(-1/2) E).

    A and E must be real (and divergence-free in three dimensions; EMFields
    already guarantees both).  E must have zero mean for W**(-1/2) to
    exist; zero_mode="drop" discards a mean instead of raising.
    """
    half_a = apply_frequency_power(em.a, 0.5, units)
    half_e = apply_frequency_power(em.e, -0.5, units, zero_mode=zero_mode)
    scale = np.sqrt(units.eps0 / (2.0 * units.hbar))
    psi = to_position(scale * (half_a - 1j * half_e))
    return LPState(psi, units)


def _bb_field(psi_hat: SpectralField, units: UnitsConfig, domain: str) -> SpectralField:
    """F = i sqrt(hbar) W**(1/2) psi from psi's frequency image, returned in
    ``domain``; W**(1/2) psi goes to that domain in place, and the factor
    i sqrt(hbar) is applied last, in place."""
    half = apply_frequency_power(psi_hat, 0.5, units)
    if domain != FREQUENCY:
        half = to_position(_consumable(half))
    c = 1j * np.sqrt(units.hbar)
    _by_planes(half.grid, lambda part: np.multiply(part(half.data), c, out=part(half.data)))
    return half


def _lp_field(f: SpectralField, units: UnitsConfig, zero_mode: str) -> SpectralField:
    """psi = -i hbar**(-1/2) W**(-1/2) F, in F's domain; the factor is
    applied in place."""
    psi = apply_frequency_power(f, -0.5, units, zero_mode=zero_mode)
    c = -1j / np.sqrt(units.hbar)
    _by_planes(psi.grid, lambda part: np.multiply(part(psi.data), c, out=part(psi.data)))
    return psi


def bb_from_lp(state: LPState) -> BBState:
    """F = i sqrt(hbar) W**(1/2) psi."""
    psi = state.psi
    return BBState(_bb_field(to_frequency(psi), state.units, psi.domain), state.units)


def lp_from_bb(state: BBState, zero_mode: str = "raise") -> LPState:
    """psi = -i hbar**(-1/2) W**(-1/2) F, inverse of the isomorphism."""
    return LPState(_lp_field(state.f, state.units, zero_mode), state.units)


def riemann_silberstein_vector(e: SpectralField, b: SpectralField,
                               units: UnitsConfig = NATURAL) -> SpectralField:
    """F = sqrt(eps0/2) (E + i c L B), returned in the position domain."""
    _check_physical_field(e, "E")
    _check_physical_field(b, "B", require_real=(e.grid.dim == 3))
    return _rs_field(e, b, units)


def _rs_field(e: SpectralField, b: SpectralField, units: UnitsConfig) -> SpectralField:
    """The RS formula on fields already checked to be physical."""
    f = np.sqrt(units.eps0 / 2.0) * (e + 1j * units.c * helicity_apply(b))
    return to_position(f)


def bb_from_em(em: EMFields, units: UnitsConfig = NATURAL) -> BBState:
    """Build the BB state directly from the electromagnetic fields, which
    EMFields has already checked."""
    if em.b is None:
        em = EMFields.from_potentials(em.e, em.a)
    return BBState(_rs_field(em.e, em.b, units), units)


def lp_inner(a: LPState, b: LPState) -> complex:
    """Plain L2 inner product of the wave functions."""
    return l2_inner(to_frequency(a.psi), to_frequency(b.psi))


def bb_inner(a: BBState, b: BBState, zero_mode: str = "raise") -> complex:
    """Frequency-weighted inner product integral conj(F~).F~'/w dk.

    Requires zero-mean fields; the 1/w weight has no value at k = 0.
    zero_mode="drop" excludes that mode instead of raising.
    """
    if a.grid != b.grid:
        raise GridMismatchError("states live on different grids")
    if a.units != b.units:
        raise ValueError("states use different unit systems")
    fa, fb = to_frequency(a.f), to_frequency(b.f)
    zero_mode_guard(zero_mode, [fa, fb],
                    "BB inner product requires zero-mean fields "
                    "(use zero_mode='drop' to exclude the mode)")
    weight = omega_power(a.grid, -1.0, a.units)
    return complex(a.grid.k_cell_volume * np.sum(np.conj(fa.data) * fb.data * weight))


def normalize(state):
    """Rescale to unit norm in the state's own inner product."""
    n = state.norm
    if not (n > 1e-150):
        raise ZeroStateError("cannot normalize an identically vanishing state")
    return type(state)(state.field / n, state.units)


def evolve(state, t: float):
    """Free evolution by the diagonal phase exp(-i w(k) t)."""
    ff = to_frequency(state.field)
    phase = np.exp(-1j * omega(ff.grid, state.units) * float(t))
    return type(state)(_same_domain(state.field, ff.data * phase, ff.transverse),
                       state.units)
