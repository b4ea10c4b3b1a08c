"""Periodic collocation grids in one and three dimensions.

A grid samples the centered box [-L/2, L/2)^d at n points per axis,
x_j = -L/2 + j*dx, and carries the dual wavevector lattice k_m = 2*pi*m/L
with integer mode numbers m in {-n/2, ..., n/2 - 1}.  Frequency-domain
arrays throughout the package are stored in FFT order (mode 0 first), so
index 0 along each spectral axis is always the zero mode.  The grid also
owns the layout of a field's data (``field_shape``, ``zero_mode_index``)
and caches every k-space table, the circular polarization vectors included.
Those come from the package's one formula for eps_sigma(k), ``_polarization``,
which alone fixes their phase convention and their limit on the z-axis; the
table evaluates it on the lattice and ``plane_wave`` at its single mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _euclidean_norm(components) -> np.ndarray:
    """sqrt(sum of c**2) over broadcastable components.  A single axis takes
    |c|, which stays exact where c**2 overflows or underflows."""
    if len(components) == 1:
        return np.abs(components[0])
    return np.sqrt(sum(c ** 2 for c in components))


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the centered box [-L/2, L/2)^dim."""

    dim: int
    length: float
    n: int

    def __post_init__(self):
        if self.dim not in (1, 3):
            raise ValueError(f"dim must be 1 or 3, got {self.dim}")
        if not (0.0 < self.length < np.inf):
            raise ValueError(f"length must be finite and positive, got {self.length}")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"n must be a positive even integer, got {self.n}")

    @property
    def spacing(self) -> float:
        """Position-space sample spacing dx."""
        return self.length / self.n

    @property
    def k_spacing(self) -> float:
        """Wavevector lattice spacing dk = 2*pi/L."""
        return 2.0 * np.pi / self.length

    @property
    def spatial_shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def field_shape(self) -> tuple:
        """Data shape of a field: (n,) in 1d, (3, n, n, n) in 3d."""
        return self.spatial_shape if self.dim == 1 else (3,) + self.spatial_shape

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    @property
    def k_cell_volume(self) -> float:
        return self.k_spacing ** self.dim

    @cached_property
    def axis(self) -> np.ndarray:
        """Position samples along one axis, ascending."""
        return _readonly(-0.5 * self.length + self.spacing * np.arange(self.n))

    @cached_property
    def mode_numbers(self) -> np.ndarray:
        """Integer mode numbers along one spectral axis, FFT order."""
        return _readonly(np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64))

    @cached_property
    def k_axis(self) -> np.ndarray:
        """Wavevector samples along one spectral axis, FFT order."""
        return _readonly(self.k_spacing * self.mode_numbers.astype(np.float64))

    def _per_axis(self, v: np.ndarray) -> tuple:
        """One view of the axis array v per axis, shaped to broadcast along
        that axis: (v,) in 1d, (n, 1, 1), (1, n, 1), (1, 1, n) views in 3d."""
        return tuple(v.reshape([-1 if a == axis else 1 for a in range(self.dim)])
                     for axis in range(self.dim))

    @cached_property
    def k_vectors(self) -> tuple:
        """Broadcastable wavevector component arrays (kx, ky, kz) or (k,)."""
        return self._per_axis(self.k_axis)

    @cached_property
    def k_magnitude(self) -> np.ndarray:
        """|k| on the full spectral lattice, FFT order."""
        return _readonly(_euclidean_norm(self.k_vectors))

    @cached_property
    def alternating_phase(self) -> np.ndarray:
        """(-1)**(sum of mode numbers); converts FFT sums over j to sums over
        the centered positions x_j = -L/2 + j*dx."""
        s = 1.0 - 2.0 * (np.abs(self.mode_numbers) % 2).astype(np.float64)
        return _readonly(math.prod(self._per_axis(s)))

    @cached_property
    def radius(self) -> np.ndarray:
        """Distance from the origin at each position sample."""
        return _readonly(_euclidean_norm(self.position_mesh()))

    def position_mesh(self) -> tuple:
        """Broadcastable position component arrays, one per axis."""
        return self._per_axis(self.axis)

    def zero_mode_index(self) -> tuple:
        """Index of the zero mode in a frequency field's data, every vector
        component included: (0,) in 1d, (:, 0, 0, 0) in 3d."""
        return (0,) if self.dim == 1 else (slice(None), 0, 0, 0)

    @cached_property
    def polarization_table(self) -> np.ndarray:
        """eps_sigma(k) for every lattice mode, shape (2, 3, n, n, n).

        Index 0 holds sigma = +1.  The k = 0 entry is identically zero, so any
        amplitude attached to it is discarded by both analysis and synthesis.
        """
        if self.dim != 3:
            raise DimensionError("polarization vectors need a three-dimensional grid")
        plus = _polarization(*self.k_vectors)
        return _readonly(np.stack([plus, np.conj(plus)]))


def _polarization(kx, ky, kz) -> np.ndarray:
    """eps_+(k), the eigenvector of i k^ x with eigenvalue +1 (eps_- is its
    conjugate), shape (3,) + the broadcast shape of the components.  On the
    z-axis it takes the continuous limit along +x; at k = 0 it is zero."""
    kperp2 = kx ** 2 + ky ** 2
    kmag = _euclidean_norm((kx, ky, kz))
    generic = kperp2 > 0.0
    axis = (kperp2 == 0.0) & (np.abs(kz) > 0.0)
    denom = np.where(generic, np.sqrt(2.0) * kmag * np.sqrt(kperp2), 1.0)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    plus = np.zeros((3,) + kmag.shape, dtype=np.complex128)
    plus[0] = np.where(generic, (-kx * kz + 1j * kmag * ky) / denom,
                       np.where(axis, -np.sign(kz) * inv_sqrt2, 0.0))
    plus[1] = np.where(generic, (-ky * kz - 1j * kmag * kx) / denom,
                       np.where(axis, -1j * inv_sqrt2, 0.0))
    plus[2] = np.where(generic, kperp2 / denom, 0.0)
    return plus
