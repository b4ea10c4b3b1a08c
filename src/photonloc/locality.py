"""Quantitative localization diagnostics.

These routines turn the qualitative statement "a photon's energy density
has no compact support" into measured numbers: the effective support of a
field at a threshold, the power-law or stretched-exponential character of
an energy tail, a witness that a field and its frequency-weighted partner
cannot both vanish on a region, and a scan showing that a helicity
eigenfield has no vanishing window.  The scan trusts a projected part's
helicity claim, tests any other field on its frequency image, where the
helicity operator acts, and takes only |field| to position.

All position-space tails on a periodic grid are eventually contaminated by
periodic images, so every fit window is required to stay inside the inner
90% of the half-domain and callers are expected to enlarge the box, not
the window, when they need cleaner asymptotics.

The tail fit groups the window's samples by exact radius once.  Its search
for a stretched exponent fits the per-radius means of log y, weighted by
the square roots of the counts, which has the same minimizer as a search
on every sample; only the chosen exponent and the power law are fitted on
every sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import DetectorVolume, EnergyDensityMap, volume_weights
from .errors import (InsufficientWindowError, NotEigenfieldError, SupportError,
                     ZeroStateError)
from .fields import (SpectralField, l2_norm, magnitude, peak_magnitude,
                     strip_zero_mode, to_frequency, to_position)
from .operators import apply_frequency_power, helicity_apply, helicity_parts
from .states import LPState, _check_physical_field, normalize
from .units import NATURAL, UnitsConfig

WRAP_FRACTION = 0.9
SUPPORT_THRESHOLD = 1e-10
PHYSICAL_FLOOR = 1e-8
HARD_FLOOR = 1e-14


def _samples_of(obj):
    """(grid, nonnegative sample array) for a field or an energy map."""
    if isinstance(obj, EnergyDensityMap):
        return obj.grid, obj.values
    if isinstance(obj, SpectralField):
        return obj.grid, magnitude(to_position(obj))
    raise TypeError(f"expected SpectralField or EnergyDensityMap, got {type(obj).__name__}")


@dataclass(eq=False)
class SupportEstimate:
    """Smallest centered box outside which the samples stay below
    threshold * peak."""

    region: tuple
    threshold: float
    peak: float
    outside_max: float

    @property
    def radii(self) -> tuple:
        return tuple(hi for _, hi in self.region)

    def volume(self) -> DetectorVolume:
        """The region as a detector volume: an interval in 1d, a box in 3d."""
        return DetectorVolume.aligned(*zip(*self.region))


def support_estimate(obj, threshold: float) -> SupportEstimate:
    """Support of a field or energy map at ``threshold`` of its peak; a
    threshold outside [0, 1) or a peak that is negative or not finite
    raises ValueError."""
    if not (0.0 <= threshold < 1.0):
        raise ValueError(f"threshold must lie in [0, 1), got {threshold!r}")
    grid, vals = _samples_of(obj)
    peak = float(np.max(vals))
    if not (0.0 <= peak < np.inf):
        raise ValueError(f"support of samples whose peak is {peak}")
    if peak == 0.0:
        raise ZeroStateError("support of an identically vanishing field is empty")
    above = vals > threshold * peak
    radii = []
    for ax in range(grid.dim):
        collapsed = above.any(axis=tuple(a for a in range(grid.dim) if a != ax))
        radii.append(float(np.max(np.abs(grid.axis[collapsed]))))
    radii = tuple(radii)
    region = tuple((-r, r) for r in radii)

    outside = np.zeros(grid.spatial_shape, dtype=bool)
    mesh = grid.position_mesh()
    for r, comp in zip(radii, mesh):
        outside |= np.broadcast_to(np.abs(comp) > r, grid.spatial_shape)
    outside_max = float(np.max(vals[outside])) if outside.any() else 0.0
    return SupportEstimate(region, float(threshold), peak, outside_max)


@dataclass(eq=False)
class TailFit:
    """Best-fitting radial decay model over a window."""

    model: str
    params: dict
    r_squared: float
    window: tuple
    n_points: int


def _linear_fit(design: np.ndarray, target: np.ndarray, ss_tot: float):
    """Least squares of target on the design's columns; ss_tot is the
    target's sum of squared deviations from its mean."""
    coef, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    ss_res = float(np.sum(resid ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return coef, r2, ss_res


def _fit_power(r: np.ndarray, logy: np.ndarray, ss_tot: float):
    design = np.column_stack([np.log(r), np.ones_like(r)])
    coef, r2, _ = _linear_fit(design, logy, ss_tot)
    return {"exponent": float(coef[0]), "amplitude": float(np.exp(coef[1]))}, r2


def _fit_stretched(r: np.ndarray, logy: np.ndarray, ss_tot: float,
                   radii: np.ndarray, inverse: np.ndarray, counts: np.ndarray):
    """log y = log B - A r**gamma, gamma found by nested grid refinement.

    The search fits the per-radius means of log y, each row weighted by the
    square root of its radius's sample count.  The samples' residual sum of
    squares is that fit's plus the spread of log y within each radius,
    which no gamma changes, so both have the same minimizer.  Every trial
    overwrites the first column of one small design matrix; the chosen
    gamma is then fitted once on all samples."""
    weight = np.sqrt(counts)
    design = np.empty((radii.size, 2))
    design[:, 1] = weight
    target = weight * np.bincount(inverse, weights=logy) / counts

    def trial_ss(gamma):
        design[:, 0] = weight * radii ** gamma
        return _linear_fit(design, target, ss_tot)[2]

    lo, hi, step = 0.1, 3.0, 0.05
    best = None
    for _ in range(3):
        gammas = np.arange(lo, hi + 0.5 * step, step)
        for g in gammas:
            ss = trial_ss(g)
            if best is None or ss < best[1]:
                best = (float(g), ss)
        lo, hi, step = max(0.01, best[0] - step), best[0] + step, step / 10.0
    gamma = best[0]
    coef, r2, _ = _linear_fit(np.column_stack([r ** gamma, np.ones_like(r)]),
                              logy, ss_tot)
    return {"decay_rate": float(-coef[0]), "gamma": gamma,
            "amplitude": float(np.exp(coef[1]))}, r2


def tail_exponent_fit(emap: EnergyDensityMap, window: tuple,
                      model: str = "auto") -> TailFit:
    """Fit the radial decay of an energy map over r in [window].

    The window must stay out of the wrap-around zone (the outer 10% of the
    half-domain) where periodic images dominate; widen the box rather than
    the window if the fit needs more reach.  A NaN or infinite sample in
    the window raises ValueError.
    """
    if model not in ("auto", "power", "stretched"):
        raise ValueError(f"unknown tail model {model!r}")
    r1, r2 = float(window[0]), float(window[1])
    half = 0.5 * emap.grid.length
    if not (0.0 < r1 < r2):
        raise InsufficientWindowError("window must satisfy 0 < r1 < r2")
    if r2 > WRAP_FRACTION * half:
        raise InsufficientWindowError(
            f"window reaches {r2}, inside the wrap-around zone beyond "
            f"{WRAP_FRACTION * half:.4g}; enlarge the domain instead")

    rad = emap.grid.radius
    inside = (rad >= r1) & (rad <= r2)
    vals = emap.values[inside]
    if not np.isfinite(vals).all():
        raise ValueError(f"energy map has a NaN or infinite sample in [{r1}, {r2}]")
    positive = vals > 0.0
    r = rad[inside][positive]
    y = vals[positive]
    radii, inverse, counts = np.unique(r, return_inverse=True, return_counts=True)
    if r.size < 8 or radii.size < 4:
        raise InsufficientWindowError(
            f"only {r.size} usable samples in [{r1}, {r2}]")
    logy = np.log(y)
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))

    fits = {}
    if model in ("auto", "power"):
        fits["power"] = _fit_power(r, logy, ss_tot)
    if model in ("auto", "stretched"):
        fits["stretched"] = _fit_stretched(r, logy, ss_tot, radii, inverse, counts)
    name = max(fits, key=lambda m: fits[m][1])
    params, r_squared = fits[name]
    return TailFit(name, params, float(r_squared), (r1, r2), int(r.size))


@dataclass(eq=False)
class AntilocalityWitness:
    """Maxima of |v| and |Wv| over a region, against a joint floor.

    ``passed`` records that at least one of the two relative maxima exceeds
    the floor, witnessing that v and Wv do not both vanish there.
    """

    region: DetectorVolume
    max_v: float
    max_omega_v: float
    rel_v: float
    rel_omega_v: float
    joint_floor: float
    passed: bool


def antilocality_witness(field: SpectralField, region: DetectorVolume,
                         units: UnitsConfig = NATURAL) -> AntilocalityWitness:
    v = to_position(field)
    mag_v = magnitude(v)
    peak_v = float(np.max(mag_v))
    if peak_v == 0.0:
        raise ZeroStateError("witness requires a nonzero field")
    wv = to_position(apply_frequency_power(field, 1.0, units))
    mag_wv = magnitude(wv)
    peak_wv = float(np.max(mag_wv))

    mask = volume_weights(region, v.grid) > 0.0
    if not mask.any():
        raise InsufficientWindowError("region covers no grid cell")
    max_v = float(np.max(mag_v[mask]))
    max_wv = float(np.max(mag_wv[mask]))
    rel_v = max_v / peak_v
    rel_wv = max_wv / peak_wv if peak_wv > 0.0 else 0.0
    passed = max(rel_v, rel_wv) > PHYSICAL_FLOOR
    return AntilocalityWitness(region, max_v, max_wv, rel_v, rel_wv,
                               PHYSICAL_FLOOR, passed)


@dataclass(eq=False)
class HelicityScanReport:
    """Minimum over sliding windows of the in-window maximum of |field|."""

    eigenvalue: int
    window_size: float
    n_windows: int
    min_window_max: float
    peak: float
    floor: float
    identically_zero: bool
    passed: bool
    verdict: str


def _window_maxima(mag: np.ndarray, w: int) -> np.ndarray:
    """The maximum of mag over each window of w samples per axis, for window
    starts w // 2 (at least 1) apart with the last start at n - w.

    The maximum over a box is the maximum along each axis in turn.  Along
    one axis, maxima over 2, 4, ... samples come from pairs of maxima over
    half as many, and a window of w is covered by two overlapping runs of
    the largest such width.  Max is exact, so the array is the one a
    reduction over every window's samples gives, without gathering them."""
    n = mag.shape[0]
    starts = np.arange(0, n - w + 1, max(1, w // 2))
    if starts[-1] != n - w:
        starts = np.append(starts, n - w)
    maxima = mag
    for axis in range(mag.ndim):
        run, width = np.moveaxis(maxima, axis, 0), 1
        while 2 * width <= w:
            run = np.maximum(run[:-width], run[width:])
            width *= 2
        maxima = np.moveaxis(np.maximum(run[starts], run[starts + (w - width)]), 0, axis)
    return maxima


def helicity_vanishing_scan(field: SpectralField, window_size: float,
                            reference_peak: float = None) -> HelicityScanReport:
    """Scan a helicity eigenfield for windows on which it vanishes.

    A nonzero eigenfield of the helicity operator cannot vanish on any open
    set, so the minimum over windows of the in-window maximum must stay
    above the physical floor.  Fields whose peak is negligible relative to
    ``reference_peak`` (defaulting to their own peak) are classified as
    identically zero, for which the scan is vacuous.  The helicity that a
    part built by helicity_project or helicity_parts claims is trusted; any
    other field is measured, and unless |Lv - sv| <= 1e-8 |v| for s = +1 or
    -1 it raises NotEigenfieldError.
    """
    g = field.grid
    mag = magnitude(to_position(field))    # the position copy is dropped here
    peak = float(np.max(mag))
    reference = peak if reference_peak is None else float(reference_peak)

    if peak <= HARD_FLOOR * reference or peak == 0.0:
        return HelicityScanReport(0, float(window_size), 0, peak, peak,
                                  0.0, True, True, "identically-zero")

    w = int(round(window_size / g.spacing))
    if w < 4:
        raise InsufficientWindowError(
            f"window of {window_size} spans {w} samples; need at least 4")
    if w > g.n:
        raise InsufficientWindowError("window exceeds the domain")

    # Apply L, not helicity_parts, so a projector defect cannot vouch for its own parts.
    eigenvalue = field.helicity
    if not eigenvalue:
        f = to_frequency(field)
        lam = helicity_apply(f)
        norm_v = l2_norm(f)
        gap = SpectralField(f.grid, np.empty_like(f.data), f.domain)  # Lv - sv, one buffer
        for s, op in ((1, np.subtract), (-1, np.add)):
            op(lam.data, f.data, out=gap.data)
            if l2_norm(gap) <= 1e-8 * norm_v:
                eigenvalue = s
                break
    if eigenvalue == 0:
        raise NotEigenfieldError("field is not a helicity eigenfield")

    maxima = _window_maxima(mag, w)
    min_window_max = float(np.min(maxima))
    floor = PHYSICAL_FLOOR * peak
    passed = min_window_max > floor
    verdict = "nowhere-vanishing" if passed else "vanishing-window-found"
    return HelicityScanReport(eigenvalue, float(window_size), int(maxima.size),
                              min_window_max, peak, floor, False, passed, verdict)


def helicity_scans(field: SpectralField, window_size: float) -> tuple:
    """Scan both helicity parts of a field's zero-mean part, as (plus,
    minus), each against the whole field's position peak."""
    peak = peak_magnitude(to_position(field))
    return tuple(helicity_vanishing_scan(part, window_size, reference_peak=peak)
                 for part in helicity_parts(strip_zero_mode(field)))


@dataclass(eq=False)
class LocalizedStateConstruction:
    """A photon state built from a compactly supported vector-potential
    profile, with the recovery check that certifies the construction."""

    state: LPState
    support: SupportEstimate
    recovery_deviation: float


def vector_potential_localized_state(xi: SpectralField, region: DetectorVolume,
                                     units: UnitsConfig = NATURAL) -> LocalizedStateConstruction:
    """Build the state psi = W**(1/2) xi from a real, zero-mean profile xi
    supported in ``region``.

    Such a state has <A(x)> proportional to xi inside the region and zero
    outside, yet its energy density cannot share that support.  The profile
    is recovered from the state by W**(-1/2) and the relative deviation is
    reported.  The recovery is exact (rounding level) only for zero-mean
    profiles: W**(1/2) annihilates a mean, so a mean-carrying profile comes
    back with its mean removed and the deviation reports that honestly.
    """
    region.check_in_domain(xi.grid)
    _check_physical_field(xi, "xi")
    pos = to_position(xi)
    est = support_estimate(pos, SUPPORT_THRESHOLD)
    if not region.contains(est.volume()):
        raise SupportError(
            f"profile support {est.region} leaks outside the region")

    psi = apply_frequency_power(xi, 0.5, units)
    state = normalize(LPState(to_position(psi), units))

    recovered = to_position(apply_frequency_power(state.psi, -0.5, units))
    xi_unit = pos / l2_norm(pos)
    rec_unit = recovered / l2_norm(recovered)
    num = float(np.max(np.abs(rec_unit.data - xi_unit.data)))
    deviation = num / float(np.max(np.abs(xi_unit.data)))
    return LocalizedStateConstruction(state, est, deviation)
