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

Each transform writes one complex array of the field's shape, a fresh one
or, for a consumable field, the field's own buffer, and never writes any
other input.  It applies its phase and scale factors in place.

Field-sized 3d work runs in two halves of independent lines through one
primitive, _on_both_cores: it reads the split once, makes each half's
buffers on the caller from that reading, and then one helper thread,
started and joined inside the call, runs the first half while the caller
runs the second.  A 3d transform runs as two axis passes: pass A, a 2d FFT
over the last two axes of every (component, x) plane, split at x = n/2,
and pass B, a 1d FFT along x of every line, split at y = n/2.  Every line
meets the same 1d kernel and the same elementwise products as one ``fftn``
over all three axes, which also runs the last axis first, so the output is
the same to the bit.

Each half is swept in blocks of whole planes, at most _BLOCK_SAMPLES samples
of a spatial array and at least one plane (_blocks): every elementwise chain
with temporaries runs over one block before the next, so its temporaries
are block buffers that stay in cache, and the field-sized arrays are read
and written once.  A kernel with no temporary runs each half whole, as a
block would only add calls.  The inverse applies its phase block by block
in pass A and its scale to each pass-B half; the forward forms scale times
phase for each pass-B block in a block buffer, not in a field-sized
weight.  The rule for a kernel (_by_planes):

- the caller allocates every buffer, field-sized outputs and the block
  buffers of each half, before the sweep; a half allocates none of the
  package's arrays, since an array made on the helper thread lands
  elsewhere in glibc's heap and raises peak RSS (numpy's own cast buffers
  are the exception);
- each element meets the ufunc loop it meets in the whole array, and a
  maximum is taken per block, which is exact;
- a sum whose float depends on its order stays whole on the caller.

With one usable CPU, or n below _SPLIT_MIN_N, the caller runs the halves as
one, and 1d work runs whole on the caller.  The helper runs numpy calls only.

Every max |a - b| the package compares is reduced here (_max_abs, _peak,
_rel, all through _maxima), in one sweep that reads each array once and
copies no .real or .imag view: complex field data or a complex spatial
array of a 3d grid by blocks of x-planes on both cores, a real array or any
other per run of _BLOCK_SAMPLES samples on the caller.  _rel(a, b) is max
|a - b| over max |b|, both from that one sweep, or absolute where b is
identically zero.  The integrands of l2_norm, l2_inner and the BB norm and
inner product are formed on both cores into one array the caller allocates
(_integrand) and then summed whole on the caller.  _contract(values, rows),
the weighted sums of values over one row per axis for every choice of rows,
runs on the caller: each line is summed whole by np.sum, so a line's float
does not depend on the blocks.  Only _consumable(field, *held) marks a
buffer a chain made as spendable, unless an array ``held``, which the chain
still reads, may share it.
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
    without measuring, and every consumer trusts it afterwards.  A nonzero
    ``helicity`` (+1 or -1, not a constructor argument) claims a helicity
    eigenfield; only the helicity projection sets it, unmeasured, and every
    other field, copies and arithmetic results included, claims 0.  Writing
    into ``.data`` in place after construction voids both claims.

    ``consumable`` (not a constructor argument, False on every field a
    public function returns) marks a field whose buffer nothing else can
    reach: a kernel given it may write its result there, which spends the
    field.  Only the package's own chains set it (_consumable), on buffers
    they made.
    """

    grid: Grid
    data: np.ndarray
    domain: str = POSITION
    transverse: bool = False
    helicity = 0
    consumable = False

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
        """A copy that keeps the transverse flag unmeasured and claims no helicity."""
        return _trusted(self.grid, self.data.copy(), self.domain, self.transverse)

    def _check_compatible(self, other: "SpectralField"):
        if self.grid != other.grid:
            raise GridMismatchError("fields live on different grids")
        if self.domain != other.domain:
            raise DomainError(f"cannot combine {self.domain} field with {other.domain} field")

    def _map(self, formula, transverse: bool) -> "SpectralField":
        """formula(part, out) over every share ``part`` of the data, writing
        the share ``out`` of one fresh array, swept by _by_planes."""
        out = np.empty(self.data.shape, np.complex128)
        _by_planes(self.grid, lambda part: formula(part, part(out)))
        return _trusted(self.grid, out, self.domain, transverse)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return self._map(lambda part, out: np.add(part(self.data), part(other.data), out=out),
                         self.transverse and other.transverse)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return self._map(lambda part, out: np.subtract(part(self.data), part(other.data),
                                                       out=out),
                         self.transverse and other.transverse)

    def __mul__(self, scalar) -> "SpectralField":
        c = complex(scalar)
        return self._map(lambda part, out: np.multiply(part(self.data), c, out=out),
                         self.transverse)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "SpectralField":
        c = complex(scalar)
        return self._map(lambda part, out: np.divide(part(self.data), c, out=out),
                         self.transverse)

    def __neg__(self) -> "SpectralField":
        return self._map(lambda part, out: np.negative(part(self.data), out=out),
                         self.transverse)


def magnitude(field: SpectralField) -> np.ndarray:
    """Pointwise Euclidean magnitude over components, a real array.  A 3d
    field's squared component moduli are summed per block, in the order of
    a sum over the component axis, so it costs one real array of its shape."""
    if field.grid.dim == 1:
        return np.abs(field.data)
    total = np.empty(field.grid.spatial_shape)
    _by_planes(field.grid, lambda part, square: _magnitude(part(field.data), part(total), square),
               np.float64)
    return total


def _magnitude(v, out, square):
    """sqrt((|v0|**2 + |v1|**2) + |v2|**2) into out, through the buffer square."""
    np.square(np.abs(v[0], out=out), out=out)
    for vi in v[1:]:
        np.add(out, np.square(np.abs(vi, out=square), out=square), out=out)
    return np.sqrt(out, out=out)


def peak_magnitude(field: SpectralField) -> float:
    return float(np.max(magnitude(field)))


def zero_mode_amplitude(field: SpectralField) -> float:
    """Largest component magnitude at the zero mode of a frequency field."""
    if not field.is_frequency:
        raise DomainError("zero-mode amplitude is defined for frequency fields")
    return float(np.max(np.abs(field.data[field.grid.zero_mode_index()])))


def strip_zero_mode(field: SpectralField) -> SpectralField:
    """The field with its spatial mean removed (returned in frequency domain).

    A position-domain field's frequency image is made here, so its mode is
    zeroed in place; a frequency-domain field is copied first."""
    f = to_frequency(field)
    data = f.data
    if f is field and not field.consumable:
        data = np.empty(f.data.shape, np.complex128)
        _by_planes(f.grid, lambda part: np.copyto(part(data), part(f.data)))
    data[f.grid.zero_mode_index()] = 0.0
    return _trusted(f.grid, data, FREQUENCY, f.transverse)


def _trusted(grid: Grid, data, domain: str, transverse: bool) -> SpectralField:
    """A field whose ``transverse`` flag is set without measuring, for the
    outputs of operations that preserve or enforce transversality."""
    field = SpectralField(grid, data, domain)
    field.transverse = transverse
    return field


def transversality_residual(field: SpectralField) -> float:
    """max |k . v~| relative to the spectral peak of |k| |v~|, both maxima
    taken per block and kept for each of the block's x-planes."""
    if field.grid.dim != 3:
        raise DimensionError("transversality is defined for three-dimensional fields")
    f = to_frequency(field)
    g = f.grid
    div, scale = np.empty(g.n), np.empty(g.n)

    def kernel(part, dot, tmp):
        v = part(f.data)
        _dot(tuple(map(part, g.k_vectors)), v, dot, tmp)
        mag, square = tmp.view(np.float64).reshape((2,) + tmp.shape)  # tmp's bytes, now free
        part(div)[:] = np.max(np.abs(dot, out=mag))
        part(scale)[:] = np.max(np.multiply(part(g.k_magnitude), _magnitude(v, mag, square),
                                            out=mag))

    _by_planes(g, kernel, np.complex128, np.complex128)
    peak = float(np.max(scale))
    if peak == 0.0:
        return 0.0
    return float(np.max(div)) / peak


def _dot(a, v, out, tmp):
    """(a0 v0 + a1 v1) + a2 v2 into out, for a real multiplier triple a and
    complex components v, through the buffer tmp."""
    np.multiply(a[0], v[0], out=out)
    for ai, vi in zip(a[1:], v[1:]):
        np.add(out, np.multiply(ai, vi, out=tmp), out=out)
    return out


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
_BLOCK_SAMPLES = 1 << 14   # samples in a block of planes: one 128**3 plane, four 64**3


def _on_both_cores(half, count: int, make=lambda lo, hi: ()):
    """Run half(lo, hi, *make(lo, hi)) over [0, count//2) on a helper thread
    and over [count//2, count) on the caller; raise here what the helper's
    half raised.  The split is read once, and make(lo, hi), the half's
    buffers, runs for both halves on the caller before the helper starts.
    With one usable CPU or count < _SPLIT_MIN_N, run the range [0, count)
    alone on the caller."""
    if count < _SPLIT_MIN_N or _usable_cpus() < 2:
        half(0, count, *make(0, count))
        return
    mid = count // 2
    first, second = make(0, mid), make(mid, count)
    failed = []

    def run_first():
        try:
            half(0, mid, *first)
        except BaseException as exc:      # raised again on the caller
            failed.append(exc)

    helper = threading.Thread(target=run_first, name="photonloc-half")
    helper.start()
    try:
        half(mid, count, *second)
    finally:
        helper.join()
    if failed:
        raise failed[0]


def _planes(n: int) -> int:
    """Planes in a block of an n-point axis: _BLOCK_SAMPLES // n**2, at least one."""
    return max(1, _BLOCK_SAMPLES // (n * n))


def _blocks(lo: int, hi: int, planes: int):
    """The runs [start, stop) of ``planes`` planes (or samples) each, the
    last possibly shorter, that tile [lo, hi)."""
    return ((start, min(start + planes, hi)) for start in range(lo, hi, planes))


def _contract(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """S[k0, .., kd] = sum of values[a0, .., ad] * rows[k0, a0] * .. * rows[kd, ad]
    over the samples, for every choice of rows: the last axis is contracted
    with each row by np.sum of the row products, _BLOCK_SAMPLES values at a
    time, then the result, with the rows' index first, likewise, once per
    axis.  With one axis S[k] is np.sum(rows[k] * values), bit for bit."""
    t = values
    for _ in range(values.ndim):
        n = t.shape[-1]
        lines, sums = t.reshape(-1, n), np.empty((len(rows), t.size // n))
        for lo, hi in _blocks(0, len(lines), max(1, _BLOCK_SAMPLES // n)):
            for row, out in zip(rows, sums):
                np.sum(lines[lo:hi] * row, axis=-1, out=out[lo:hi])
        t = sums.reshape((len(rows),) + t.shape[:-1])
    return t


def _data(v) -> np.ndarray:
    return v.data if isinstance(v, SpectralField) else np.asarray(v)


def _maxima(a: np.ndarray, b: np.ndarray = None, peak: bool = False) -> tuple:
    """(max |a - b|, max |b|) over every sample of two arrays of one shape,
    max |a| in place of the first without b, and the second only if ``peak``,
    in one sweep that reads each array once.  Complex field data or a complex
    spatial array of a grid (three or four axes, the last three of one
    length n) is swept by x-planes on both cores, one component of a block
    at a time through real and complex block buffers.  Any other array runs
    _BLOCK_SAMPLES samples at a time on the caller: a real block's abs is
    too cheap to repay the threads' hand-offs of the interpreter lock, and
    split, a 128**3 real _rel took nearly twice its time on the caller.
    The .real and .imag views of a contiguous array are read in place.  A
    maximum is kept per block and component, which is exact, and a NaN
    anywhere gives NaN."""
    arrays = (a,) if b is None else (a, b)
    dtype = np.result_type(*arrays)
    scratch = (np.float64,) + (() if b is None else (dtype,))

    def kernel(shares, rows, mag, *diff):
        for c, v in enumerate(zip(*(x.reshape((-1,) + mag.shape) for x in shares))):
            d = v[0] if b is None else np.subtract(v[0], v[1], out=diff[0])
            rows[..., c, 0] = np.maximum.reduce(np.abs(d, out=mag), axis=None)
            if peak:
                rows[..., c, 1] = np.maximum.reduce(np.abs(v[1], out=mag), axis=None)

    if dtype.kind == "c" and a.ndim in (3, 4) and len(set(a.shape[-3:])) == 1:
        n = a.shape[-1]
        found = np.empty((n, a.size // n ** 3, 2))
        _x_planes(n, lambda part, *bufs: kernel(map(part, arrays), part(found), *bufs),
                  *scratch)
    else:
        flat = [x.reshape(-1) for x in arrays]
        blocks = list(_blocks(0, a.size, _BLOCK_SAMPLES))
        found = np.empty((len(blocks), 1, 2))
        bufs = [np.empty(min(a.size, _BLOCK_SAMPLES), t) for t in scratch]
        for (lo, hi), rows in zip(blocks, found):
            kernel([x[lo:hi] for x in flat], rows, *(buf[:hi - lo] for buf in bufs))
    return float(np.max(found[..., 0])), float(np.max(found[..., 1])) if peak else None


def _max_abs(a: np.ndarray, b: np.ndarray = None) -> float:
    """max |a - b| (max |a| without b) over every sample of two arrays of one
    shape; a NaN anywhere gives NaN."""
    return _maxima(a, b)[0]


def _peak(b) -> float:
    """max |b| over every sample of an array or field."""
    return _max_abs(_data(b))


def _rel(a, b, peak=None) -> float:
    """max |a - b| relative to the peak of b (arrays or fields of one
    shape), or absolute where that peak is 0; both maxima come from one
    sweep.  A caller that compares several fields with one b measures
    ``peak = _peak(b)`` once and passes it."""
    diff, scale = _maxima(_data(a), _data(b), peak is None)
    scale = scale if peak is None else peak
    return diff / scale if scale > 0.0 else diff


def _by_planes(grid: Grid, kernel, *scratch):
    """Run kernel(part, *bufs), where part(a) is the share of a field-data or
    spatial array a and bufs are block buffers of the dtypes ``scratch``,
    each of the share's spatial shape.  On a 3d grid a share is a block of
    x-planes [lo, hi) of a half (_x_planes).  On a 1d grid the share is a
    itself, in one call on the caller."""
    if grid.dim == 1:
        kernel(lambda a: a, *(np.empty(grid.spatial_shape, t) for t in scratch))
    else:
        _x_planes(grid.n, kernel, *scratch)


def _x_planes(n: int, kernel, *scratch):
    """_by_planes on an n**3 grid: a share is a block of x-planes [lo, hi)
    of a half (an array of one x-plane broadcasts along x and is passed
    whole, and one with a value per x-plane gives its [lo, hi)); a kernel
    that takes no block buffer keeps nothing in cache from one ufunc to the
    next, so its share is the whole half."""
    planes = _planes(n) if scratch else n

    def half(lo, hi, *bufs):
        for start, stop in _blocks(lo, hi, planes):
            kernel(lambda a: (a[:, start:stop] if a.ndim == 4 else a if len(a) == 1
                              else a[start:stop]),
                   *(b[:stop - start] for b in bufs))

    _on_both_cores(half, n, lambda lo, hi: [np.empty((min(planes, hi - lo), n, n), t)
                                            for t in scratch])


def _into(field: SpectralField) -> np.ndarray:
    """The array a kernel writes its field-shaped result into: the field's
    own buffer if the field is consumable, otherwise a fresh one."""
    return field.data if field.consumable else np.empty(field.data.shape, np.complex128)


def _consumable(field: SpectralField, *held) -> SpectralField:
    """The field, marked consumable, so that the next kernel it is passed to
    may write its result in its buffer, unless one of the arrays ``held``,
    which the caller still reads, may share that buffer."""
    field.consumable = not any(np.may_share_memory(field.data, a) for a in held)
    return field


def forward_transform(field: SpectralField) -> SpectralField:
    """Position to frequency, continuum normalization."""
    if not field.is_position:
        raise DomainError("forward_transform expects a position-domain field")
    g = field.grid
    scale = g.cell_volume * (2.0 * np.pi) ** (-0.5 * g.dim)
    if g.dim == 1:
        data = np.empty(field.data.shape, np.complex128)
        np.fft.fft(field.data, out=data)
        data *= scale * g.alternating_phase
        return _trusted(g, data, FREQUENCY, field.transverse)
    src, data, phase = field.data, _into(field), g.alternating_phase
    planes = _planes(g.n)

    def pass_a(lo, hi):
        np.fft.fftn(src[:, lo:hi], axes=(-2, -1), out=data[:, lo:hi])

    def pass_b(lo, hi, buf):
        np.fft.fft(data[:, :, lo:hi], axis=-3, out=data[:, :, lo:hi])
        for start, stop in _blocks(lo, hi, planes):    # scale times phase
            weight = np.multiply(scale, phase[:, start:stop], out=buf[:, :stop - start])
            data[:, :, start:stop] *= weight

    _on_both_cores(pass_a, g.n)
    _on_both_cores(pass_b, g.n, lambda lo, hi: (np.empty((g.n, min(planes, hi - lo), g.n)),))
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
    src, data, phase = field.data, _into(field), g.alternating_phase

    def pass_a(lo, hi):
        for start, stop in _blocks(lo, hi, _planes(g.n)):
            np.multiply(phase[start:stop], src[:, start:stop], out=data[:, start:stop])
        np.fft.ifftn(data[:, lo:hi], axes=(-2, -1), out=data[:, lo:hi])

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


def _integrand(grid: Grid, dtype, formula, *arrays) -> np.ndarray:
    """formula(out, *shares) over every share of the field-data or spatial
    ``arrays``, into the share ``out`` of one fresh array of the first's
    shape and ``dtype``, swept by _by_planes.  The caller sums the array
    whole, so the sum's float does not depend on the split."""
    out = np.empty(arrays[0].shape, dtype)
    _by_planes(grid, lambda part: formula(part(out), *map(part, arrays)))
    return out


def l2_norm(field: SpectralField) -> float:
    """Continuum L2 norm, sum over components included."""
    w = field.grid.cell_volume if field.is_position else field.grid.k_cell_volume
    square = _integrand(field.grid, np.float64,
                        lambda out, v: np.square(np.abs(v, out=out), out=out), field.data)
    return float(np.sqrt(w * np.sum(square)))


def l2_inner(a: SpectralField, b: SpectralField) -> complex:
    """Continuum L2 inner product <a, b>, conjugate-linear in ``a``."""
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")
    if a.domain != b.domain:
        raise DomainError("inner product requires fields in the same domain")
    w = a.grid.cell_volume if a.is_position else a.grid.k_cell_volume
    products = _integrand(a.grid, np.complex128,
                          lambda out, u, v: np.multiply(np.conj(u, out=out), v, out=out),
                          a.data, b.data)
    return complex(w * np.sum(products))
