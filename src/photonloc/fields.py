"""Sampled fields and the continuum-normalized Fourier transform.

A field is a complex array sampled either at the position nodes x_j or at
the wavevector nodes k_m of a :class:`~photonloc.grid.Grid`.  The transform
pair approximates the unitary continuum convention

    v~(k) = (2*pi)**(-d/2) * integral v(x) exp(-i k.x) dx,
    v(x)  = (2*pi)**(-d/2) * integral v~(k) exp(+i k.x) dk,

by trapezoidal sums over the periodic box.  With the alternating phase
factor (-1)**(sum m) absorbing the x_j = -L/2 + j*dx offset, the discrete
pair is exactly unitary: round trips are identities to machine precision and

    dx**d * sum |v|**2  ==  dk**d * sum |v~|**2.

Scalar (one-dimensional) fields have data shape (n,), vector fields on a
three-dimensional grid have shape (3, n, n, n).  Frequency data is stored
in FFT order, zero mode first.

Each transform allocates one complex array of the field's shape, never
writes its input, and applies its phase and scale factors in place (the
forward weight, scale times phase, is one real temporary).

A 3d transform runs as two axis passes: pass A, a 2d FFT over the last two
axes of every (component, x) plane, split at x = n/2, and pass B, a 1d FFT
along x of every line, split at y = n/2.  One helper thread, started and
joined inside the pass, runs the first half while the caller runs the
second.  The inverse applies its phase inside the pass-A halves and its
scale inside the pass-B halves; the forward applies scale times phase inside
its pass-B halves.  Every line meets the same 1d kernel and the same
elementwise products as one ``fftn`` over all three axes, which also runs
the last axis first, so the output is the same to the bit.  With one usable
CPU, or n below _SPLIT_MIN_N, the caller runs each pass whole, as it does
every 1d transform.  The helper runs numpy calls only.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, GridMismatchError, TransversalityError
from .grid import Grid

POSITION = "position"
FREQUENCY = "frequency"
TRANSVERSE_TOL = 1e-10


@dataclass(eq=False)
class SpectralField:
    """A sampled field together with the grid and domain it lives on.

    ``transverse`` claims that a three-dimensional field is divergence-free,
    k . v~(k) = 0.  The claim is checked once, where a caller sets it: a 3d
    field built with ``transverse=True`` whose transversality_residual is
    not at most TRANSVERSE_TOL raises TransversalityError.  A consumer that
    needs an unflagged field to be transverse measures it through
    require_transverse, and a passing measurement sets the flag.  Operators
    that preserve or enforce transversality set the flag on their outputs
    without measuring, and every consumer trusts it afterwards.  Writing
    into ``.data`` in place after construction voids the claim.
    """

    grid: Grid
    data: np.ndarray
    domain: str = POSITION
    transverse: bool = False

    def __post_init__(self):
        if self.domain not in (POSITION, FREQUENCY):
            raise ValueError(f"domain must be position or frequency, got {self.domain!r}")
        data = np.asarray(self.data, dtype=np.complex128)
        expected = self.grid.field_shape
        if data.shape != expected:
            raise ValueError(f"data shape {data.shape} does not match grid shape {expected}")
        self.data = data
        if self.transverse:
            self.transverse = False
            require_transverse(self, "a field flagged transverse must be divergence-free")

    @property
    def is_position(self) -> bool:
        return self.domain == POSITION

    @property
    def is_frequency(self) -> bool:
        return self.domain == FREQUENCY

    def copy(self) -> "SpectralField":
        """A copy of the data that keeps the flag without measuring it."""
        return _trusted(self.grid, self.data.copy(), self.domain, self.transverse)

    def _check_compatible(self, other: "SpectralField"):
        if self.grid != other.grid:
            raise GridMismatchError("fields live on different grids")
        if self.domain != other.domain:
            raise DomainError(f"cannot combine {self.domain} field with {other.domain} field")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return _trusted(self.grid, self.data + other.data, self.domain,
                        self.transverse and other.transverse)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return _trusted(self.grid, self.data - other.data, self.domain,
                        self.transverse and other.transverse)

    def __mul__(self, scalar) -> "SpectralField":
        return _trusted(self.grid, self.data * complex(scalar), self.domain, self.transverse)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "SpectralField":
        return _trusted(self.grid, self.data / complex(scalar), self.domain, self.transverse)

    def __neg__(self) -> "SpectralField":
        return _trusted(self.grid, -self.data, self.domain, self.transverse)


def magnitude(field: SpectralField) -> np.ndarray:
    """Pointwise Euclidean magnitude over components, a real array."""
    if field.grid.dim == 1:
        return np.abs(field.data)
    return np.sqrt(np.sum(np.abs(field.data) ** 2, axis=0))


def peak_magnitude(field: SpectralField) -> float:
    return float(np.max(magnitude(field)))


def zero_mode_amplitude(field: SpectralField) -> float:
    """Largest component magnitude at the zero mode of a frequency field."""
    if not field.is_frequency:
        raise DomainError("zero-mode amplitude is defined for frequency fields")
    return float(np.max(np.abs(field.data[field.grid.zero_mode_index()])))


def strip_zero_mode(field: SpectralField) -> SpectralField:
    """The field with its spatial mean removed (returned in frequency domain)."""
    f = to_frequency(field)
    data = f.data.copy()
    data[f.grid.zero_mode_index()] = 0.0
    return _trusted(f.grid, data, FREQUENCY, f.transverse)


def _trusted(grid: Grid, data, domain: str, transverse: bool) -> SpectralField:
    """A field whose ``transverse`` flag is set without measuring, for the
    outputs of operations that preserve or enforce transversality."""
    field = SpectralField(grid, data, domain)
    field.transverse = transverse
    return field


def transversality_residual(field: SpectralField) -> float:
    """max |k . v~| relative to the spectral peak of |k| |v~|."""
    if field.grid.dim != 3:
        raise DimensionError("transversality is defined for three-dimensional fields")
    f = to_frequency(field)
    kx, ky, kz = f.grid.k_vectors
    vx, vy, vz = f.data
    div = np.abs(kx * vx + ky * vy + kz * vz)
    scale = float(np.max(f.grid.k_magnitude * np.sqrt(
        np.abs(vx) ** 2 + np.abs(vy) ** 2 + np.abs(vz) ** 2)))
    if scale == 0.0:
        return 0.0
    return float(np.max(div)) / scale


def require_transverse(field: SpectralField, message: str):
    """Raise TransversalityError(message) unless the field is transverse.

    A field flagged transverse is trusted.  Otherwise a 3d field is
    measured, and a residual above TRANSVERSE_TOL, or NaN, raises and leaves
    the flag unset; a field that passes (every 1d field does) is flagged,
    so no later consumer measures it again.
    """
    if field.transverse:
        return
    if field.grid.dim == 3 and not (transversality_residual(field) <= TRANSVERSE_TOL):
        raise TransversalityError(message)
    field.transverse = True


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):      # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_SPLIT_MIN_N = 32      # below it, starting a thread costs more than it saves


def _on_both_cores(half, count: int):
    """Run half(lo, hi) over [0, count//2) on a helper thread and over
    [count//2, count) on the caller; raise here what the helper's half raised.
    With one usable CPU or count < _SPLIT_MIN_N, run half(0, count) alone."""
    if count < _SPLIT_MIN_N or _usable_cpus() < 2:
        half(0, count)
        return
    failed = []

    def first():
        try:
            half(0, count // 2)
        except BaseException as exc:      # raised again on the caller
            failed.append(exc)

    helper = threading.Thread(target=first, name="photonloc-fft")
    helper.start()
    try:
        half(count // 2, count)
    finally:
        helper.join()
    if failed:
        raise failed[0]


def forward_transform(field: SpectralField) -> SpectralField:
    """Position to frequency, continuum normalization."""
    if not field.is_position:
        raise DomainError("forward_transform expects a position-domain field")
    g = field.grid
    scale = g.cell_volume * (2.0 * np.pi) ** (-0.5 * g.dim)
    src, data = field.data, np.empty(field.data.shape, np.complex128)
    weight = scale * g.alternating_phase
    if g.dim == 1:
        np.fft.fft(src, out=data)
        data *= weight
        return _trusted(g, data, FREQUENCY, field.transverse)

    def pass_a(lo, hi):
        np.fft.fftn(src[:, lo:hi], axes=(-2, -1), out=data[:, lo:hi])

    def pass_b(lo, hi):
        lines = data[:, :, lo:hi]
        np.fft.fft(lines, axis=-3, out=lines)
        lines *= weight[:, lo:hi]

    _on_both_cores(pass_a, g.n)
    _on_both_cores(pass_b, g.n)
    return _trusted(g, data, FREQUENCY, field.transverse)


def inverse_transform(field: SpectralField) -> SpectralField:
    """Frequency to position, continuum normalization."""
    if not field.is_frequency:
        raise DomainError("inverse_transform expects a frequency-domain field")
    g = field.grid
    scale = g.k_cell_volume * (2.0 * np.pi) ** (-0.5 * g.dim) * float(g.n) ** g.dim
    if g.dim == 1:
        data = g.alternating_phase * field.data
        np.fft.ifft(data, out=data)
        data *= scale
        return _trusted(g, data, POSITION, field.transverse)
    src, data = field.data, np.empty(field.data.shape, np.complex128)
    phase = g.alternating_phase

    def pass_a(lo, hi):
        planes = data[:, lo:hi]
        np.multiply(phase[lo:hi], src[:, lo:hi], out=planes)
        np.fft.ifftn(planes, axes=(-2, -1), out=planes)

    def pass_b(lo, hi):
        lines = data[:, :, lo:hi]
        np.fft.ifft(lines, axis=-3, out=lines)
        lines *= scale

    _on_both_cores(pass_a, g.n)
    _on_both_cores(pass_b, g.n)
    return _trusted(g, data, POSITION, field.transverse)


def to_frequency(field: SpectralField) -> SpectralField:
    return field if field.is_frequency else forward_transform(field)


def to_position(field: SpectralField) -> SpectralField:
    return field if field.is_position else inverse_transform(field)


def l2_norm(field: SpectralField) -> float:
    """Continuum L2 norm, sum over components included."""
    w = field.grid.cell_volume if field.is_position else field.grid.k_cell_volume
    return float(np.sqrt(w * np.sum(np.abs(field.data) ** 2)))


def l2_inner(a: SpectralField, b: SpectralField) -> complex:
    """Continuum L2 inner product <a, b>, conjugate-linear in ``a``."""
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")
    if a.domain != b.domain:
        raise DomainError("inner product requires fields in the same domain")
    w = a.grid.cell_volume if a.is_position else a.grid.k_cell_volume
    return complex(w * np.sum(np.conj(a.data) * b.data))
