"""Energy-density expectation values and local detector energies.

For a normalized single-photon state the normally ordered electromagnetic
energy density has the expectation value

    u(x) = hbar ( |W**(1/2) psi(+)(x)|**2 + |W**(1/2) psi(-)(x)|**2 )
         = |F(+)(x)|**2 + |F(-)(x)|**2,

where (+-) are the helicity parts.  The two lines are the same quantity
computed through the LP and BB layers; both are evaluated, and the
diagnostic two_path_discrepancy is fields._rel of the LP line against the
BB reference, max |u_LP - u_BB| / max u_BB (absolute if u_BB is all zero).

Both lines are Fourier multipliers up to the final |.|**2, so both are
computed from one frequency image of the state's field: the other
representation's image, the helicity parts and W**(1/2) all act there, and
each part goes to position once.  An LP state's F is formed in the state's
own domain before it is split, so for a position-domain state the values
are, bit for bit, those of the position-domain field F.  When a BB field
carries a zero-frequency (mean) component, the LP image is only defined
with that mode dropped; the diagnostic then compares the two paths on the
common zero-mean content (each helicity part of F with its zero mode
stripped), while the returned values use the full field (the BB expression
is pointwise exact for it).

The LP path runs first and the BB path second.  Every image and part the
chain made is its own and is consumed in place: an image it made is split
over its own buffer and the buffer of L applied to it, and each part gets
W**(1/2) (LP path) and goes to position in its own buffer, freed after its
magnitude, before the next part.  A buffer that the state, or a part still
to come, may share is never written.  A 128**3 call therefore holds at its
peak 3.19 (LP state) or 3.50 (BB state) times one field's bytes besides its
input (tracemalloc; tests/test_cache_blocked_kernels.py bounds it by 3.6 at
64**3).

A detector weights each sample by the fraction of its dx-wide cell inside
the volume, an n**dim weight array (detector_energy).  Knight's test takes
every cell of an axis-aligned tiling at once: the map is contracted with one
(cells per axis) x n matrix per axis, about 15 ms for 64 cells of 128**3.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ProbeCellError, VolumeOutOfDomainError
from .fields import (_by_planes, _consumable, _contract, _rel, magnitude, strip_zero_mode,
                     to_frequency, to_position)
from .grid import Grid
from .operators import apply_frequency_power, helicity_parts
from .states import PhotonState, _bb_field, _lp_field


@dataclass(eq=False)
class EnergyDensityMap:
    """Energy density sampled at the position nodes."""

    grid: Grid
    values: np.ndarray
    two_path_discrepancy: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.spatial_shape:
            raise ValueError("values must match the grid's spatial shape")


def _quadrance(parts: list, *held, through=None) -> np.ndarray:
    """|v(+)|**2 + |v(-)|**2 at the position nodes, for the pair of helicity
    parts on the list ``parts``, each first passed ``through`` a map if one
    is given.  Each part is taken off the list; it goes through the map, and
    what the map returns goes to position, in place, unless a later part or
    an array ``held`` may share its buffer.  The magnitudes are squared and
    summed in place."""
    grid, squares = parts[0].grid, []
    while parts:
        part = parts.pop(0)
        others = (*held, *(p.data for p in parts))
        if through is not None:
            part = through(_consumable(part, *others))
        part = to_position(_consumable(part, *others))
        squares.append(magnitude(part))
        del part
    plus, minus = squares
    _by_planes(grid, lambda part: np.add(np.square(part(plus), out=part(plus)),
                                         np.square(part(minus), out=part(minus)), out=part(plus)))
    return plus


def energy_density(state) -> EnergyDensityMap:
    """Expectation value of the energy density, computed along both paths
    from one frequency image of the state's field."""
    if not isinstance(state, PhotonState):
        raise TypeError(f"expected LPState or BBState, got {type(state).__name__}")
    u = state.units
    kept = state.field.data             # the chain never writes here
    own = to_frequency(state.field)
    if state.representation == "lp":
        psi_hat = own
        f_hat = to_frequency(_consumable(_bb_field(own, u, state.field.domain), own.data, kept))
    else:
        psi_hat, f_hat = _lp_field(own, u, zero_mode="drop"), own
    del own
    psi_parts = list(helicity_parts(_consumable(psi_hat, f_hat.data, kept)))
    del psi_hat         # the parts hold psi's frequency image, split in place when it is ours
    lp_vals = _quadrance(psi_parts, f_hat.data, kept,
                         through=lambda p: apply_frequency_power(p, 0.5, u))
    lp_vals *= u.hbar
    f_parts = list(helicity_parts(_consumable(f_hat, kept)))
    del f_hat
    if state.representation == "lp":
        values = ref = _quadrance(f_parts, kept)
    else:
        ref = _quadrance(f_parts[:], kept, *(p.data for p in f_parts), through=strip_zero_mode)
        values = _quadrance(f_parts, kept)
    return EnergyDensityMap(state.grid, values, _rel(lp_vals, ref))


def total_energy(emap: EnergyDensityMap) -> float:
    """Trapezoidal integral of the map over the periodic box."""
    return float(emap.grid.cell_volume * np.sum(emap.values))


@dataclass(frozen=True)
class DetectorVolume:
    """An axis-aligned interval, box, or ball inside the grid domain."""

    kind: str
    lo: tuple = None
    hi: tuple = None
    center: tuple = None
    radius: float = None

    @classmethod
    def aligned(cls, lo, hi) -> "DetectorVolume":
        """The interval (one axis) or box (three axes) spanning lo to hi."""
        lo = tuple(float(v) for v in lo)
        hi = tuple(float(v) for v in hi)
        if len(lo) not in (1, 3) or len(hi) != len(lo):
            raise ValueError("corners need one or three matching axes")
        kind, axes = ("interval", "") if len(lo) == 1 else ("box", " on every axis")
        if not all(l <= h for l, h in zip(lo, hi)):
            raise ValueError(f"{kind} needs lo <= hi{axes}")
        return cls(kind, lo=lo, hi=hi)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "DetectorVolume":
        return cls.aligned((lo,), (hi,))

    @classmethod
    def box(cls, lo, hi) -> "DetectorVolume":
        lo, hi = tuple(lo), tuple(hi)
        if len(lo) != 3 or len(hi) != 3:
            raise ValueError("box corners must be 3-vectors")
        return cls.aligned(lo, hi)

    @classmethod
    def ball(cls, center, radius: float) -> "DetectorVolume":
        center = tuple(float(v) for v in center)
        if len(center) != 3:
            raise ValueError("ball center must be a 3-vector")
        if any(math.isnan(c) for c in center):
            raise ValueError("ball center must not be NaN")
        if not (radius >= 0.0):
            raise ValueError("ball radius must be nonnegative")
        return cls("ball", center=center, radius=float(radius))

    def bounding_box(self) -> tuple:
        if self.kind == "ball":
            return (tuple(c - self.radius for c in self.center),
                    tuple(c + self.radius for c in self.center))
        return self.lo, self.hi

    def meets(self, cell: "DetectorVolume") -> bool:
        """Whether the interiors of the volume and an interval or box cell
        intersect; a cell that only touches the volume's boundary does not
        meet it."""
        if self.kind == "ball":
            gaps = (max(l - c, c - h, 0.0)
                    for l, h, c in zip(cell.lo, cell.hi, self.center))
            return sum(d * d for d in gaps) < self.radius ** 2
        return all(h > vl and l < vh
                   for l, h, vl, vh in zip(cell.lo, cell.hi, self.lo, self.hi))

    def contains(self, box: "DetectorVolume") -> bool:
        """Whether the volume contains an interval or box, boundary included."""
        if self.kind == "ball":
            farthest = (max((l - c) ** 2, (h - c) ** 2)
                        for l, h, c in zip(box.lo, box.hi, self.center))
            return sum(farthest) <= self.radius ** 2
        return all(vl <= l and h <= vh
                   for l, h, vl, vh in zip(box.lo, box.hi, self.lo, self.hi))

    def check_in_domain(self, grid: Grid):
        expected_dim = 1 if self.kind == "interval" else 3
        if grid.dim != expected_dim:
            raise ValueError(f"a {self.kind} volume needs a {expected_dim}-dimensional grid")
        half = 0.5 * grid.length
        lo, hi = self.bounding_box()
        if not (all(-half <= l for l in lo) and all(h <= half for h in hi)):
            raise VolumeOutOfDomainError(
                f"volume {self} extends beyond the box [-{half}, {half}]")


def volume_weights(volume: DetectorVolume, grid: Grid) -> np.ndarray:
    """Fraction of each grid cell covered by the volume, in [0, 1].

    Cells are the dx-wide intervals centered on the samples; partial
    overlaps are resolved linearly, which keeps detector energies continuous
    in the volume's boundaries.  A box's weight is the product of its
    per-axis _overlaps.
    """
    volume.check_in_domain(grid)
    dx, mesh = grid.spacing, grid.position_mesh()
    if volume.kind == "ball":
        dist = np.sqrt(sum((x - c) ** 2 for x, c in zip(mesh, volume.center)))
        return np.clip((volume.radius - dist) / dx + 0.5, 0.0, 1.0)
    return math.prod(_overlaps(x, l, h, dx) for x, l, h in zip(mesh, volume.lo, volume.hi))


def _overlaps(x, lo, hi, dx: float) -> np.ndarray:
    """Fraction of the dx-wide cell centered on each sample x that [lo, hi] covers."""
    return np.clip((np.minimum(hi, x + 0.5 * dx) - np.maximum(lo, x - 0.5 * dx)) / dx, 0.0, 1.0)


def detector_energy(emap: EnergyDensityMap, volume: DetectorVolume) -> float:
    """Energy captured by a detector occupying the volume."""
    w = volume_weights(volume, emap.grid)
    w *= emap.values
    return float(emap.grid.cell_volume * np.sum(w))


def _probe_cells(emap: EnergyDensityMap, probe_cells: int) -> tuple:
    """Knight's probe cells, in itertools.product order over the axes, and the
    energy of each: fields._contract of the map with one matrix of _overlaps,
    a row per cell of an axis, the same on every axis of the cubic grid."""
    g = emap.grid
    per_axis = next(m for m in itertools.count(2) if m ** g.dim >= probe_cells)
    edges = np.linspace(-0.5 * g.length, 0.5 * g.length, per_axis + 1)
    rows = _overlaps(g.axis, edges[:-1, None], edges[1:, None], g.spacing)
    spans = list(zip(edges[:-1].tolist(), edges[1:].tolist()))
    cells = [DetectorVolume.aligned(*zip(*s)) for s in itertools.product(spans, repeat=g.dim)]
    return cells, (g.cell_volume * _contract(emap.values, rows)).ravel().tolist()


def _default_floor(peak: float) -> float:
    """1e-12 of the peak density, far below any physical signal, or the
    smallest normal double if the peak is not positive."""
    return 1e-12 * peak if peak > 0.0 else float(np.finfo(np.float64).tiny)


@dataclass(eq=False)
class KnightReport:
    """Outcome of the local-distinguishability probe."""

    source: DetectorVolume
    detector: DetectorVolume
    detector_energy: float
    floor: float
    distinguishable: bool
    verdict: str
    n_cells: int


def knight_locality_test(emap: EnergyDensityMap, source: DetectorVolume,
                         floor: float = None, probe_cells: int = 32) -> KnightReport:
    """Probe whether any detector disjoint from the source region can tell
    the state from vacuum through its captured energy.

    The domain is tiled with the fewest cells per axis, at least two, that
    give at least probe_cells cells; cells meeting the source are discarded
    and the best remaining cell, the first of equals, is reported.  All cell
    energies come from one contraction of the map per axis (_probe_cells),
    about 15 ms for 64 cells of a 128**3 map.  The verdict is
    "distinguishable" when the best energy exceeds the floor (default 1e-12
    of the peak density, _default_floor).
    """
    source.check_in_domain(emap.grid)
    if probe_cells < 2:
        raise ValueError("need at least two probe cells")
    if floor is None:
        floor = _default_floor(float(np.max(emap.values)))
    if not (0.0 < floor < np.inf):
        raise ValueError(f"floor must be finite and positive, got {floor}")

    kept = [(energy, cell) for cell, energy in zip(*_probe_cells(emap, probe_cells))
            if not source.meets(cell)]
    if not kept:
        raise ProbeCellError("source volume leaves no disjoint probe cell")
    best_energy, best = max(kept, key=lambda pair: pair[0])

    distinguishable = best_energy > floor
    verdict = "distinguishable" if distinguishable else "indistinguishable-at-floor"
    return KnightReport(source, best, best_energy, floor,
                        distinguishable, verdict, len(kept))
