"""Fourier-multiplier operators and the helicity decomposition.

Every operator here acts diagonally in the frequency domain.  Fields may be
passed in either domain; the result comes back in the domain the input was
in.  The dispersion multiplier is w(k) = c|k|, and fractional powers
w(k)**s are the workhorse for moving between the vector-potential,
electric-field and photon wave-function layers.

For vector fields on a three-dimensional grid the helicity operator is
i k^ x (cross product with the unit wavevector); its eigenvalue +-1 splits a
divergence-free field into circularly polarized parts.  On a one-dimensional
grid the reduced model keeps a single scalar component and the helicity
operator degenerates to the multiplier sign(k), so positive and negative
wavevectors play the role of the two polarizations.

Plane waves exist only at lattice modes, integer mode numbers in
[-n/2, n/2), and take eps_sigma(k) from the grid's formula, bit for bit its
table's column.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ZeroModeError, ZeroWaveVectorError
from .fields import (FREQUENCY, POSITION, SpectralField, _by_planes, _consumable, _dot,
                     _into, _max_abs, _trusted, require_transverse, to_frequency,
                     to_position, zero_mode_amplitude)
# Re-exported: the residual is measured where a field is built (fields.py).
from .fields import TRANSVERSE_TOL, transversality_residual  # noqa: F401
from .grid import Grid, _polarization
from .units import NATURAL, UnitsConfig

ZERO_MODE_TOL = 1e-10


def omega(grid: Grid, units: UnitsConfig = NATURAL) -> np.ndarray:
    """Angular frequency w(k) = c|k| on the spectral lattice."""
    return units.c * grid.k_magnitude


def omega_power(grid: Grid, s: float, units: UnitsConfig = NATURAL) -> np.ndarray:
    """The multiplier (c|k|)**s, set to zero at k = 0 for every s; the power
    is taken in place, at every mode, and then zeroed where w(k) is 0."""
    mult = omega(grid, units)
    zero = mult <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        mult **= s
    mult[zero] = 0.0
    return mult


def zero_mode_guard(zero_mode: str, fields=(), message: str = ""):
    """Validate a ``zero_mode`` policy and enforce it on frequency fields.

    With "raise", a ZeroModeError (carrying ``message``) is raised for any
    field whose zero-mode amplitude is not negligible, i.e. above
    ZERO_MODE_TOL relative to its spectral peak.  With "drop" the caller
    discards the mode, so nothing is checked.
    """
    if zero_mode not in ("raise", "drop"):
        raise ValueError(f"zero_mode must be 'raise' or 'drop', got {zero_mode!r}")
    if zero_mode == "raise":
        for f in fields:
            peak = _max_abs(f.data)
            if peak > 0.0 and zero_mode_amplitude(f) > ZERO_MODE_TOL * peak:
                raise ZeroModeError(message)


def _same_domain(field: SpectralField, freq_data: np.ndarray,
                 transverse: bool) -> SpectralField:
    """A kernel's frequency-domain result in the input's domain; the result
    is the kernel's own, so it goes to position in place."""
    out = _trusted(field.grid, freq_data, FREQUENCY, transverse)
    return out if field.is_frequency else to_position(_consumable(out))


def apply_frequency_power(field: SpectralField, s: float,
                          units: UnitsConfig = NATURAL,
                          zero_mode: str = "raise") -> SpectralField:
    """Apply the multiplier (c|k|)**s.

    For s < 0 the zero mode is not invertible; unless the field's amplitude
    there is negligible (below ZERO_MODE_TOL relative to its spectral peak)
    a ZeroModeError is raised.  Passing zero_mode="drop" instead discards
    the zero mode, which regularizes mean-carrying profiles at the price of
    an O(sqrt(dk)) offset that vanishes as the box grows.  For every s != 0
    the output zero mode is exactly zero, so round trips w**-s . w**s
    restore zero-mean fields exactly; s = 0 is the identity and returns an
    unchanged copy, zero mode included.
    """
    if s == 0:
        zero_mode_guard(zero_mode)
        return field.copy()
    f = to_frequency(field)
    zero_mode_guard(zero_mode, [f] if s < 0 else [],
                    "field carries a significant zero-frequency component; "
                    "a negative frequency power cannot represent it "
                    "(use zero_mode='drop' to discard it)")
    mult = omega_power(f.grid, s, units)
    out = _into(field)          # f's buffer, when that is the consumable field's
    _by_planes(f.grid, lambda part: np.multiply(part(f.data), part(mult), out=part(out)))
    return _same_domain(field, out, field.transverse)


def curl(field: SpectralField) -> SpectralField:
    """Curl of a vector field, i k x v~ in the frequency domain."""
    if field.grid.dim != 3:
        raise DimensionError("curl requires a three-dimensional vector field")
    f = to_frequency(field)
    return _same_domain(field, _i_cross(f.grid, f.data), True)


def _i_cross(grid: Grid, v: np.ndarray, unit=None) -> np.ndarray:
    """i a x v for complex components v, with a = k, or k^ formed per block
    by ``unit`` (what _unit_k returns): each component of the cross product
    is formed in its slice of one fresh array through one block buffer, and
    multiplied by i in place."""
    out = np.empty_like(v)

    def kernel(part, tmp, *u):
        ax, ay, az = tuple(map(part, grid.k_vectors)) if unit is None else unit(part, *u)
        vx, vy, vz = part(v)
        o = part(out)
        for oi, p, q, r, t in ((o[0], ay, vz, az, vy), (o[1], az, vx, ax, vz),
                               (o[2], ax, vy, ay, vx)):
            np.multiply(p, q, out=oi)
            np.subtract(oi, np.multiply(r, t, out=tmp), out=oi)
        np.multiply(o, 1j, out=o)

    _by_planes(grid, kernel, np.complex128, *(() if unit is None else _UNIT_SCRATCH))
    return out


_UNIT_SCRATCH = (np.float64, np.float64, np.float64, np.bool_)


def _unit_k(grid: Grid):
    """k^ = k/|k| (k itself where |k| = 0) as a block kernel unit(part, ux,
    uy, uz, zero), which writes the share ``part`` of each component into
    the real block buffers ux, uy, uz and returns them.  It divides by |k|
    held in uz, set to 1 where the bool buffer zero marks |k| = 0; the
    buffers have the dtypes _UNIT_SCRATCH."""
    kmag = grid.k_magnitude

    def unit(part, ux, uy, uz, zero):
        np.copyto(uz, part(kmag))
        np.copyto(uz, 1.0, where=np.equal(uz, 0.0, out=zero))   # |k| >= 0
        for k, u in zip(grid.k_vectors, (ux, uy, uz)):
            np.divide(part(k), uz, out=u)
        return ux, uy, uz

    return unit


def transverse_project(field: SpectralField) -> SpectralField:
    """Remove the longitudinal part: v~ - k^ (k^ . v~).

    The zero mode (where no direction is defined) is left untouched; a
    constant field is divergence-free already.
    """
    if field.grid.dim != 3:
        raise DimensionError("transverse projection requires a three-dimensional field")
    f = to_frequency(field)
    unit = _unit_k(f.grid)
    out = np.empty_like(f.data)

    def kernel(part, longdot, tmp, *u):
        u, v, o = unit(part, *u), part(f.data), part(out)
        _dot(u, v, longdot, tmp)
        for ui, vi, oi in zip(u, v, o):
            np.subtract(vi, np.multiply(ui, longdot, out=oi), out=oi)

    _by_planes(f.grid, kernel, np.complex128, np.complex128, *_UNIT_SCRATCH)
    idx = f.grid.zero_mode_index()
    out[idx] = f.data[idx]
    return _same_domain(field, out, True)


def helicity_apply(field: SpectralField) -> SpectralField:
    """Helicity operator: i k^ x v~ in three dimensions, sign(k) in one.

    The zero mode maps to zero.  Three-dimensional input must be
    divergence-free, otherwise the operator mixes in unphysical content;
    only input not flagged transverse is measured.
    """
    f = to_frequency(field)
    g = f.grid
    if g.dim == 1:
        out = np.sign(g.k_axis) * f.data
        return _same_domain(field, out, field.transverse)
    require_transverse(f, "helicity is defined on divergence-free fields; "
                          "apply transverse_project first")
    out = _i_cross(g, f.data, _unit_k(g))
    out[g.zero_mode_index()] = 0.0
    return _same_domain(field, out, True)


def _helicity_parts(field: SpectralField, signs) -> tuple:
    """(1 + sign*L)/2 applied to the field for each of one or two signs, from
    one L.v, in one sweep: the sum or difference of v and L.v, halved.  The
    last part is written over L.v; the first of two goes through a block
    buffer into a fresh array, or into v's own buffer when the field is
    consumable.  L**2 = 1 on a transverse field with a zero mode exactly 0,
    whose parts claim their sign."""
    f = to_frequency(field)
    lam = helicity_apply(f)
    transverse = lam.transverse or field.transverse
    claim = transverse and not f.data[f.grid.zero_mode_index()].any()
    *first, last = [np.add if sign > 0 else np.subtract for sign in signs]
    outs = [_into(field) for _ in first] + [lam.data]

    def kernel(part, tmp):
        shares = (part(a).reshape((-1,) + tmp.shape) for a in (f.data, lam.data, *outs[:-1]))
        v, lv, *o = shares                  # components of v, L.v and a first part
        for c in range(len(v)):             # per component
            if first:
                np.multiply(first[0](v[c], lv[c], out=tmp), 0.5, out=tmp)
            np.multiply(last(v[c], lv[c], out=lv[c]), 0.5, out=lv[c])
            if first:                       # stored once L.v's part is formed
                np.copyto(o[0][c], tmp)

    _by_planes(f.grid, kernel, np.complex128)
    parts = []
    for sign, out in zip(signs, outs):
        parts.append(_same_domain(field, out, transverse))
        parts[-1].helicity = sign if claim else 0
    return tuple(parts)


def helicity_project(field: SpectralField, sign: int) -> SpectralField:
    """Projector onto the helicity-(+1) or (-1) subspace, (1 + sign*L)/2.

    The part claims its helicity (``helicity = sign``, trusted by the
    vanishing scan) only if the input is transverse (flagged, or measured
    in 3d) and its frequency-domain mean is exactly 0.  Precondition: a
    position-domain field claims its helicity only after strip_zero_mode.
    Even a zero-mean one has its transformed zero mode at rounding level,
    not 0, so its part claims nothing and the scan measures it.
    """
    if sign not in (1, -1):
        raise ValueError(f"helicity sign must be +1 or -1, got {sign}")
    return _helicity_parts(field, (sign,))[0]


def helicity_parts(field: SpectralField) -> tuple:
    """Both helicity parts (P(+) v, P(-) v), in the input's domain.

    They equal two helicity_project calls exactly, claims included, at the
    cost of one forward transform and one application of L; the minus part
    reuses L.v's buffer, so the pair costs two field-sized arrays.  As there, a
    position-domain field claims its helicity only after strip_zero_mode:
    its transformed zero mode sits at rounding level, so without it both
    parts claim 0.
    """
    return _helicity_parts(field, (1, -1))


def plane_wave(grid: Grid, mode_index, sigma: int = None) -> SpectralField:
    """Transverse plane wave (2 pi)**(-d/2) eps_sigma(k) e^(i k.x).

    In three dimensions ``mode_index`` is an integer triple and ``sigma``
    (+1 or -1) selects the circular polarization, evaluated at this one mode
    without building the grid's table.  In one dimension ``mode_index`` is a
    single integer and ``sigma`` is ignored.  A mode number that is not an
    integer or lies outside [-n/2, n/2), or a bad ``sigma``, raises
    ValueError; the zero mode carries no propagation direction and raises
    ZeroWaveVectorError.
    """
    try:
        modes = tuple(map(operator.index, (mode_index,) if grid.dim == 1 else mode_index))
    except TypeError:
        raise ValueError(f"mode numbers must be integers, got {mode_index!r}") from None
    half = grid.n // 2
    if not all(-half <= m < half for m in modes):
        raise ValueError(f"mode numbers must lie in [-{half}, {half}), got {modes}")
    if not any(modes):
        raise ZeroWaveVectorError("plane waves need a nonzero mode index")
    kvec = grid.k_axis[list(modes)]
    if grid.dim == 1:
        data = (2.0 * np.pi) ** -0.5 * np.exp(1j * kvec[0] * grid.axis)
        return SpectralField(grid, data, POSITION)
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma}")
    eps = _polarization(*kvec[:, None])[:, 0]  # 1-element arrays: the table's ufunc loops
    eps = eps if sigma == 1 else np.conj(eps)
    coef = ((2.0 * np.pi) ** -1.5 * eps)[:, None, None, None]
    kx, ky, kz = (k * x for k, x in zip(kvec, grid.position_mesh()))
    data = np.empty(grid.field_shape, np.complex128)

    def kernel(part, angle, phase):     # coef e^(i ((kx x + ky y) + kz z)), per block
        np.add(np.add(part(kx), ky, out=angle), kz, out=angle)
        np.exp(np.multiply(1j, angle, out=phase), out=phase)
        np.multiply(coef, phase, out=part(data))

    _by_planes(grid, kernel, np.float64, np.complex128)
    return _trusted(grid, data, POSITION, True)


@dataclass(eq=False)
class MomentumAmplitudes:
    """Helicity-resolved momentum amplitudes z_sigma(k), FFT mode order.

    Only the zero mode carries no amplitude: in three dimensions no
    polarization basis exists there, in one dimension sign(k) assigns it to
    neither branch.  Fields must therefore have zero mean to round-trip
    exactly through analysis and synthesis.
    """

    grid: Grid
    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self):
        shape = self.grid.spatial_shape
        self.plus = np.asarray(self.plus, dtype=np.complex128)
        self.minus = np.asarray(self.minus, dtype=np.complex128)
        if self.plus.shape != shape or self.minus.shape != shape:
            raise ValueError("amplitude arrays must match the grid's spatial shape")

    def norm_squared(self) -> float:
        """dk**d * sum_sigma sum_k |z_sigma|**2."""
        return float(self.grid.k_cell_volume
                     * (np.sum(np.abs(self.plus) ** 2) + np.sum(np.abs(self.minus) ** 2)))


def momentum_amplitudes(field: SpectralField) -> MomentumAmplitudes:
    """Project a field onto the helicity basis, z_sigma = eps_sigma* . v~."""
    f = to_frequency(field)
    g = f.grid
    if g.dim == 1:
        sign = np.sign(g.k_axis)
        return MomentumAmplitudes(g, f.data * (sign > 0), f.data * (sign < 0))
    require_transverse(f, "momentum amplitudes require a divergence-free field")
    table = g.polarization_table
    zp, zm = (np.zeros(g.spatial_shape, np.complex128) for _ in range(2))

    def kernel(part, tmp):      # ((0 + eps0* v0) + eps1* v1) + eps2* v2, np.sum's order
        v = part(f.data)
        for eps, z in ((part(table[0]), part(zp)), (part(table[1]), part(zm))):
            for ei, vi in zip(eps, v):
                np.add(z, np.multiply(np.conj(ei, out=tmp), vi, out=tmp), out=z)

    _by_planes(g, kernel, np.complex128)
    return MomentumAmplitudes(g, zp, zm)


def synthesize_from_amplitudes(amps: MomentumAmplitudes) -> SpectralField:
    """Rebuild the position-domain field sum_sigma z_sigma eps_sigma e^(ik.x)."""
    g = amps.grid
    if g.dim == 1:
        sign = np.sign(g.k_axis)
        data = amps.plus * (sign > 0) + amps.minus * (sign < 0)
        return to_position(SpectralField(g, data, FREQUENCY))
    table = g.polarization_table
    data = np.empty(g.field_shape, np.complex128)

    def kernel(part, tmp):              # eps_plus z_plus + eps_minus z_minus per block
        plus, minus = part(amps.plus), part(amps.minus)
        for out, e0, e1 in zip(part(data), part(table[0]), part(table[1])):
            np.add(np.multiply(e0, plus, out=out), np.multiply(e1, minus, out=tmp), out=out)

    _by_planes(g, kernel, np.complex128)
    return to_position(_consumable(_trusted(g, data, FREQUENCY, True)))
