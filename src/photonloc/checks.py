"""Self-verification suites.

Each suite bundles the invariants of one layer into named numerical checks
with explicit bounds, so that `photonloc check` can print a table and the
test suite can assert every row.  All randomness is seeded; two runs of a
suite produce identical numbers.  A row measured on a corpus reports the
sample closest to failing (the largest against an upper bound, the
smallest against a lower one), and a NaN sample fails its row.  A suite
that raises fails with one NaN row naming the exception.

The suites mirror the package's analysis pipeline: operator algebra on the
two helicity basis fields, plane waves and white draws, the LP/BB
isomorphism on the basis fields, random 1d pairs and white real fields,
the two-path energy density, Parseval energy accounting, the six-panel
truth table, the everywhere-positive energy floor, tail quantification, the
vector-potential localized state, the antilocality and
helicity-continuation witnesses, and determinism under repeated evaluation
and time evolution.

A row whose maps are linear and diagonal in k runs on fields that fill
every mode, so it holds for every field of the grid, not only for a band:
the complex-linear rows on eps_+ and eps_-, the transform rows also on one
white draw per grid, the real-linear rows of the isomorphism suite on one
white real draw per input.  A plane wave is compared with its closed form,
the one-hot column of its polarization vector, which pins the phase that a
round trip cannot see.

The random corpora are drawn in k-space, at the modes they keep, read off
the grid's cached |k| table: a band-limited draw takes the nonzero modes up
to half the Nyquist wavevector, a white draw every nonzero mode, both off
every Nyquist plane.  A transverse random field is drawn as two helicity
amplitudes on the grid's polarization table and flagged without a
projection or a measurement.  A white real field is the transverse white
draw, real after one inverse transform.  The operator-algebra suite projects
its 3d white draw itself, so its transversality-residual row measures
transverse_project on random input at every mode off the Nyquist planes.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .energy import DetectorVolume, EnergyDensityMap, energy_density, knight_locality_test, total_energy
from .errors import PhotonlocError
from .fields import (FREQUENCY, POSITION, SpectralField, _trusted, l2_inner, l2_norm,
                     magnitude, strip_zero_mode, to_frequency, to_position)
from .grid import Grid
from .locality import (PHYSICAL_FLOOR, _window_maxima, antilocality_witness,
                       helicity_scans, support_estimate, tail_exponent_fit,
                       vector_potential_localized_state)
from .operators import (_unit_k, apply_frequency_power, curl, helicity_apply,
                        helicity_parts, momentum_amplitudes, omega,
                        plane_wave, synthesize_from_amplitudes,
                        transversality_residual, transverse_project)
from .scenarios import (figure2_report, make_lp_compact, odd_pulse_profile,
                        sin2_profile)
from .serialization import jsonable, write_csv
from .states import (BBState, EMFields, LPState, bb_from_em, bb_from_lp,
                     bb_inner, evolve, lp_from_bb, lp_from_potentials,
                     lp_inner, normalize)
from .units import NATURAL, UnitsConfig


@dataclass(eq=False)
class CheckResult:
    """One named measurement against a bound."""

    name: str
    value: float
    bound: float
    comparator: str  # "<" or ">"
    ok: bool


@dataclass(eq=False)
class SuiteResult:
    name: str
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]


def _worst(samples, lowest=False) -> float:
    """The sample closest to failing; a NaN sample propagates."""
    return float(np.min(samples) if lowest else np.max(samples))


def _below(name, samples, bound) -> CheckResult:
    value = _worst(samples)
    return CheckResult(name, value, float(bound), "<", value < bound)


def _above(name, samples, bound) -> CheckResult:
    value = _worst(samples, lowest=True)
    return CheckResult(name, value, float(bound), ">", value > bound)


def _at_most(name, samples, bound) -> CheckResult:
    value = _worst(samples)
    return CheckResult(name, value, float(bound), "<=", value <= bound)


def _data(v) -> np.ndarray:
    return v.data if isinstance(v, SpectralField) else np.asarray(v)


REDUCE_BLOCK = 1 << 14  # samples per block of a max |a - b| reduction


def _max_abs(a: np.ndarray, b: np.ndarray = None) -> float:
    """max |a - b| (max |a| without b) over every sample of two arrays of one
    shape, reduced block by block, so no temporary of the arrays' size is
    made.  Max is exact, so the value is that of the whole-array expression;
    a NaN anywhere gives NaN."""
    a = a.reshape(-1)
    b = None if b is None else b.reshape(-1)
    maxima = []
    for lo in range(0, a.size, REDUCE_BLOCK):
        block = a[lo:lo + REDUCE_BLOCK]
        if b is not None:
            block = block - b[lo:lo + REDUCE_BLOCK]
        maxima.append(np.max(np.abs(block)))
    return float(np.max(maxima))


def _peak(b) -> float:
    """max |b| over every sample of an array or field."""
    return _max_abs(_data(b))


def _rel(a, b, peak=None) -> float:
    """max |a - b| relative to the peak of b (arrays or fields of one
    shape).  A caller that compares several fields with one b measures
    ``peak = _peak(b)`` once and passes it."""
    db = _data(b)
    scale = _max_abs(db) if peak is None else peak
    diff = _max_abs(_data(a), db)
    return diff / scale if scale > 0.0 else diff


# ---------------------------------------------------------------- builders

def band_limit(grid: Grid) -> float:
    """Aliasing-safe band: half the Nyquist wavevector."""
    return 0.5 * np.pi * grid.n / grid.length


def _complex_normals(rng, shape) -> np.ndarray:
    """Complex normals, E|z|^2 = 2: every real part first, then every
    imaginary part."""
    z = np.empty(shape, np.complex128)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


def _draw(grid: Grid, limit: float, rng, transverse: bool) -> SpectralField:
    """Frequency-domain field holding complex normals, one row per component,
    at the nonzero modes with |k| <= limit off every Nyquist plane (whose
    modes have no -k partner), in ascending flat order, and zero elsewhere.
    A transverse 3d draw is z_+ eps_+(k) + z_- eps_-(k) on the grid's
    polarization table, z_+ then z_- drawn like two components, flagged
    transverse without measuring."""
    keep = (grid.k_magnitude > 0.0) & (grid.k_magnitude <= limit)
    for axis in range(grid.dim):
        keep[(slice(None),) * axis + (grid.n // 2,)] = False
    band = np.flatnonzero(keep)
    helical = transverse and grid.dim == 3
    if helical:
        z = _complex_normals(rng, (2, band.size))
        eps = grid.polarization_table.reshape(2, 3, -1)[:, :, band]
        values = eps[0] * z[0] + eps[1] * z[1]
    else:
        values = _complex_normals(rng, (3 if grid.dim == 3 else 1, band.size))
    data = np.zeros(grid.field_shape, np.complex128)
    data.reshape(-1, grid.n ** grid.dim)[:, band] = values
    return _trusted(grid, data, FREQUENCY, helical)


def random_band_limited(grid: Grid, rng, transverse: bool = False) -> SpectralField:
    """Zero-mean complex field with white spectrum in the band.

    Each component holds independent complex normals at the band's modes
    and zero elsewhere.  A transverse 3d field is z_+ eps_+(k) + z_- eps_-(k):
    the isotropic transverse complex Gaussian (E|v|^2 = 4 per mode) that
    projecting three drawn components would give, from two thirds of the
    normals.  It is flagged transverse without measuring.
    """
    return _draw(grid, band_limit(grid), rng, transverse)


def random_real_white(grid: Grid, rng) -> SpectralField:
    """Real, zero-mean white-noise field at every nonzero mode off the
    Nyquist planes, in the position domain.

    The modes are drawn as random_band_limited draws its band (in 3d,
    transverse, z_+ eps_+(k) + z_- eps_-(k)), with no envelope; one inverse
    transform follows, and the real part is kept.  Each kept mode's -k
    partner is kept too, so the real part, (v(k) + conj v(-k)) / 2 at k,
    stays transverse and keeps the flag.  A Nyquist-plane mode is its own
    partner's alias, which is why those planes stay empty.
    """
    pos = to_position(_draw(grid, np.inf, rng, transverse=True))
    return _trusted(grid, pos.data.real, POSITION, pos.transverse)


def random_compact_bump(grid: Grid, rng) -> SpectralField:
    """Real compactly supported sum of raised-cosine bumps (1D)."""
    x = grid.axis
    v = np.zeros(grid.n)
    for _ in range(int(rng.integers(1, 4))):
        center = rng.uniform(-0.22 * grid.length, 0.22 * grid.length)
        width = rng.uniform(0.5, 2.0)
        amp = rng.uniform(0.3, 1.0)
        arg = (x - center) / width
        v += amp * np.where(np.abs(arg) <= 0.5, np.cos(np.pi * arg) ** 2, 0.0)
    return SpectralField(grid, v)


def narrowband_state(grid: Grid, k0: float, rel_bandwidth: float) -> LPState:
    """Unit-norm 1D wavepacket with a Gaussian spectrum at k0 > 0."""
    sigma = rel_bandwidth * k0
    k = grid.k_axis
    amp = np.exp(-((k - k0) ** 2) / (2.0 * sigma ** 2)).astype(np.complex128)
    amp[grid.zero_mode_index()] = 0.0
    return normalize(LPState(SpectralField(grid, amp, FREQUENCY)))


# ------------------------------------------------------------------ suites

def suite_operator_algebra(grid1: Grid, grid3: Grid, seed: int = 7) -> SuiteResult:
    """Transform unitarity and the multiplier-operator algebra, at every mode.

    Every row compares two maps that are linear and diagonal in k, on
    fields that fill every mode.  The 3d algebra runs on eps_+ and eps_-,
    which fill every nonzero mode, Nyquist planes included.  The round
    trips and Parseval gaps run on one white draw per grid, complex normals
    at every nonzero mode off the Nyquist planes, and on fields of unit
    amplitude at every nonzero mode, Nyquist included: eps_+ and eps_- in
    3d, a flat spectrum in 1d.  The 3d draw is transverse_project of three
    drawn components, and its transversality residual is measured.  Where two such maps
    differ at any mode, their difference applied to a Gaussian draw
    vanishes only on a proper subspace of the draws, which has probability
    0, so one draw exposes the defect with probability 1.  The round trips
    compare in frequency space, where a 1% error at one mode reads of order
    1e-3 of the draw's peak, not diluted over the lattice.  A Parseval gap
    is read on the inverse image and on the forward image of it, so a
    defect in either transform moves it.

    Each plane wave is transformed once and compared with the one-hot
    column of its polarization vector over the k-cell volume (1 / dk in
    1d): forward and inverse transforms that drop the same phase still
    invert each other, but miss this closed form at every mode with an odd
    mode-number sum.  The eigenrelations then run on the frequency-domain
    wave.
    """
    rng = np.random.default_rng(seed)
    tol_unitary, tol_algebra = 1e-12, 1e-10

    def parseval_gap(grid, pos, f):
        a = grid.cell_volume * np.sum(np.abs(pos.data) ** 2)
        b = grid.k_cell_volume * np.sum(np.abs(f.data) ** 2)
        return abs(a - b) / b

    def round_trips(grid, spectra):
        """Frequency-side round trips, and the Parseval gaps of each inverse
        image and of the forward image of it."""
        rt, gaps = [], []
        for f in spectra:
            pos = to_position(f)
            back = to_frequency(pos)
            rt.append(_rel(back, f))
            gaps += [parseval_gap(grid, pos, f), parseval_gap(grid, pos, back)]
        return rt, gaps

    def sign_gaps(parts, peak):
        """L P(+) v against P(+) v and L P(-) v against -P(-) v."""
        plus, minus = parts
        return [_rel(helicity_apply(plus), plus, peak),
                _rel(helicity_apply(minus), -minus, peak)]

    white1 = _draw(grid1, np.inf, rng, False)
    flat1 = SpectralField(grid1, grid1.k_axis != 0.0, FREQUENCY)
    rt1, parseval1 = round_trips(grid1, [white1, flat1])
    peak = _peak(white1)
    lam1 = _rel(helicity_apply(helicity_apply(white1)), white1, peak)
    proj1 = sign_gaps(helicity_parts(white1), peak)

    white3 = transverse_project(_draw(grid3, np.inf, rng, False))
    residual = transversality_residual(white3)
    table = grid3.polarization_table
    basis = [_trusted(grid3, table[i], FREQUENCY, True) for i in (0, 1)]
    rt3, parseval3 = round_trips(grid3, [white3] + basis)
    del white3

    basis_lam, lam_sq, comm = [], [], []
    half_power, mom_rt, mom_parseval = [], [], []
    for sigma, e in zip((1, -1), basis):
        peak = _peak(e)  # also the peak of sigma * e: negation is exact
        lam = helicity_apply(e)
        basis_lam.append(_rel(lam, sigma * e, peak))
        lam_sq.append(_rel(helicity_apply(lam), e, peak))
        cc = curl(e) * NATURAL.c
        we = apply_frequency_power(e, 1.0)
        comm += [_rel(cc, apply_frequency_power(lam, 1.0)),
                 _rel(cc, helicity_apply(we))]
        half = apply_frequency_power(apply_frequency_power(e, 0.5), 0.5)
        half_power.append(_rel(half, we))
        amps = momentum_amplitudes(e)
        mom_rt.append(_rel(to_frequency(synthesize_from_amplitudes(amps)), e, peak))
        mom_parseval.append(abs(amps.norm_squared() - l2_norm(e) ** 2) / l2_norm(e) ** 2)

    # The projector rows take both helicities at once.  Each is scaled by the
    # input's peak: a part that should vanish has no peak to divide by.
    both = basis[0] + basis[1]
    peak = _peak(both)
    parts = helicity_parts(both)
    pp_plus, pp_minus = helicity_parts(parts[0])
    proj_idem = _rel(pp_plus, parts[0], peak)
    proj_annih = _peak(pp_minus) / peak
    proj_sign = sign_gaps(parts, peak)
    # k^ at every mode, left unflagged: the projection must remove it whole.
    unit_k = np.empty(grid3.field_shape)
    _unit_k(grid3)(lambda a: a, *unit_k, np.empty(grid3.spatial_shape, bool))
    unit_k = SpectralField(grid3, unit_k, FREQUENCY)
    proj_basis = _rel(transverse_project(both + unit_k), both)

    nz = grid3.k_magnitude > 0.0
    pol_norm = float(np.max(np.abs(magnitude(basis[0])[nz] - 1.0)))
    kx, ky, kz = grid3.k_vectors
    kdot = np.abs(kx * table[0][0] + ky * table[0][1] + kz * table[0][2])
    pol_trans = float(np.max(kdot[nz] / grid3.k_magnitude[nz]))
    pol_conj = _max_abs(table[1], np.conj(table[0]))

    def one_hot(grid, mode, value):
        column = np.zeros(grid.field_shape, np.complex128)
        column[(Ellipsis,) + mode] = value / grid.k_cell_volume
        return column

    pw_table, pw_curl, pw_lam, pw_omega = [], [], [], []
    for mode, sigma in (((3, 1, -2), 1), ((0, 0, 2), -1), ((-1, 4, 0), 1)):
        phi = to_frequency(plane_wave(grid3, mode, sigma))
        eps = table[(1 - sigma) // 2][(slice(None),) + mode]
        pw_table.append(_rel(phi, one_hot(grid3, mode, eps)))
        kmag = grid3.k_spacing * float(np.sqrt(sum(m * m for m in mode)))
        pw_curl.append(_rel(curl(phi), sigma * kmag * phi))
        pw_lam.append(_rel(helicity_apply(phi), float(sigma) * phi))
        pw_omega.append(_rel(apply_frequency_power(phi, 1.0), NATURAL.c * kmag * phi))
    phi_a = plane_wave(grid3, (1, 0, 0), 1)
    phi_b = plane_wave(grid3, (2, 1, 0), 1)
    pw_orth = abs(l2_inner(phi_a, phi_b)) / (l2_norm(phi_a) * l2_norm(phi_b))
    phi_m3 = to_frequency(plane_wave(grid1, -3))
    pw_table.append(_rel(phi_m3, one_hot(grid1, (-3,), 1.0)))
    sign_check = _rel(helicity_apply(phi_m3), -1.0 * phi_m3)

    return SuiteResult("operator-algebra", [
        _below("transform-round-trip-1d", rt1, tol_unitary),
        _below("transform-round-trip-3d", rt3, tol_unitary),
        _below("parseval-1d", parseval1, tol_unitary),
        _below("parseval-3d", parseval3, tol_unitary),
        _below("transversality-residual", residual, 1e-12),
        _below("helicity-squared-3d", lam_sq, tol_algebra),
        _below("helicity-squared-1d", lam1, tol_algebra),
        _below("curl-frequency-helicity-commutation", comm, tol_algebra),
        _below("projector-idempotence", proj_idem, tol_algebra),
        _below("projector-annihilation", proj_annih, tol_algebra),
        _below("projector-helicity-sign-3d", proj_sign, tol_algebra),
        _below("projector-helicity-sign-1d", proj1, tol_algebra),
        _below("half-power-composition", half_power, 1e-11),
        _below("polarization-unit-norm", pol_norm, 1e-12),
        _below("polarization-transversality", pol_trans, 1e-12),
        _below("polarization-conjugation", pol_conj, 1e-12),
        _below("plane-wave-table-column", pw_table, 1e-12),
        _below("plane-wave-curl-eigenvalue", pw_curl, tol_algebra),
        _below("plane-wave-helicity-eigenvalue", pw_lam, tol_algebra),
        _below("plane-wave-frequency-eigenvalue", pw_omega, 1e-12),
        _below("plane-wave-orthogonality", pw_orth, 1e-12),
        _below("sign-multiplier-1d", sign_check, 1e-12),
        _below("momentum-amplitude-round-trip", mom_rt, tol_unitary),
        _below("momentum-amplitude-parseval", mom_parseval, tol_algebra),
        _below("transverse-projector-basis", proj_basis, tol_algebra),
        _below("basis-helicity-eigenvalue", basis_lam, tol_algebra),
    ])


def suite_isomorphism(grid1: Grid, grid3: Grid, seed: int = 11) -> SuiteResult:
    """LP <-> BB equivalence, the RS relation, and the EM cross-path.

    Sixteen random 1d LP pairs, in-band draws under alternating unit
    systems, run the round trip, the norm and inner-product correspondence
    and the evolution commutation.  In 3d these complex-linear rows run on
    eps_+ and eps_- under both unit systems, each paired with its own
    evolution (eps_+ and eps_- are orthogonal, so they cannot pair with each
    other): the maps they compare are diagonal in k and the basis fields
    fill every nonzero mode, so the rows hold for every transverse state of
    the grid.

    The real-linear rows (the helicity pair of a real F, the RS identity
    and both EM cross paths) need real E, B and A, which couple k with -k.
    Each input slot gets one random_real_white draw, at every nonzero mode
    off the Nyquist planes.  Every row compares two linear maps that are
    diagonal in the (k, -k) pairs, so where the maps differ at any pair, a
    Gaussian draw exposes it with probability 1, and the error is not
    diluted away: 1% at one mode of a 64**3 grid reads of order 1e-6 in
    em-cross-path-3d, far above the 1e-10 bounds.  One draw per slot does
    what a deterministic real spanning set would, with a quarter of its
    probes: the set needs four real fields per slot, those with spectrum
    c eps_sigma(k), c in {1, i}, at every k.
    """
    rng = np.random.default_rng(seed)
    units_list = [NATURAL, UnitsConfig(hbar=0.5, c=2.0, eps0=3.0)]
    roundtrip, inner_corr, norm_corr, evolve_comm = [], [], [], []

    def correspondence(psi, t, partner=None):
        """The complex-linear rows on psi, whose inner product pairs it with
        ``partner``, or else with its own evolution evolve(psi, t)."""
        hbar = psi.units.hbar
        f = bb_from_lp(psi)
        roundtrip.append(_rel(to_frequency(lp_from_bb(f).psi), to_frequency(psi.psi)))
        moved = evolve(psi, t)
        f_moved = bb_from_lp(moved)
        evolve_comm.append(_rel(to_frequency(f_moved.f), to_frequency(evolve(f, t).f)))
        if partner is None:
            partner, f_partner = moved, f_moved
        else:
            f_partner = bb_from_lp(partner)
        ip_lp = lp_inner(psi, partner)
        inner_corr.append(abs(bb_inner(f, f_partner) - hbar * ip_lp) / abs(ip_lp))
        norm_corr.append(abs(f.norm - np.sqrt(hbar) * psi.norm) / (np.sqrt(hbar) * psi.norm))

    for i in range(16):
        units = units_list[i % 2]
        psi, psi2 = (LPState(random_band_limited(grid1, rng), units) for _ in range(2))
        correspondence(psi, float(rng.uniform(-3.0, 3.0)), psi2)

    for units in units_list:
        for e in grid3.polarization_table:
            correspondence(LPState(_trusted(grid3, e, FREQUENCY, True), units),
                           float(rng.uniform(-3.0, 3.0)))

    e3, b3, a3 = (random_real_white(grid3, rng) for _ in range(3))
    fb = bb_from_em(EMFields(e3, e3, b3))
    parts = helicity_parts(to_frequency(fb.f))
    pair_eigen = [_rel(helicity_apply(parts[0]), parts[0]),
                  _rel(helicity_apply(parts[1]), -parts[1])]
    plus, minus = (to_position(part) for part in parts)
    peak = _peak(plus)
    rs_plus, rs_minus = helicity_parts(np.sqrt(NATURAL.eps0 / 2.0)
                                       * (e3 + 1j * NATURAL.c * b3))
    rs_identity = [_rel(to_position(rs_plus), plus, peak),
                   _rel(minus.data, np.conj(to_position(rs_minus).data))]
    del fb, parts, plus, minus, rs_plus, rs_minus  # else alive at the cross path's peak

    def cross_path(e, a):
        em = EMFields.from_potentials(e, a)
        return _rel(to_position(bb_from_em(em).f),
                    to_position(bb_from_lp(lp_from_potentials(em)).f))

    cross_path_3d = cross_path(e3, a3)
    cross_path_1d = cross_path(random_real_white(grid1, rng), random_real_white(grid1, rng))

    return SuiteResult("isomorphism", [
        _below("lp-bb-round-trip", roundtrip, 1e-11),
        _below("inner-product-correspondence", inner_corr, 1e-10),
        _below("norm-correspondence", norm_corr, 1e-10),
        _below("evolution-commutes-with-isomorphism", evolve_comm, 1e-12),
        _below("helicity-pair-eigenfield", pair_eigen, 1e-10),
        _below("riemann-silberstein-identity-3d", rs_identity, 1e-10),
        _below("em-cross-path-3d", cross_path_3d, 1e-10),
        _below("em-cross-path-1d", cross_path_1d, 1e-10),
    ])


def suite_two_path(figset, grid1: Grid, grid3: Grid, seed: int = 13) -> SuiteResult:
    """The two routes to the energy density agree pointwise: on the figure
    states and on 20 random transverse LP and BB states, one in 7 in 3d."""
    rng = np.random.default_rng(seed)
    fig = [p.two_path_discrepancy for p in figset.panels.values()]
    corpus = []
    for i in range(20):
        grid = grid3 if i % 7 == 0 else grid1
        field = random_band_limited(grid, rng, transverse=True)
        state = (LPState(field) if i % 2 == 0 else BBState(field))
        corpus.append(energy_density(state).two_path_discrepancy)
    return SuiteResult("two-path-energy", [
        _below("figure-states-discrepancy", fig, 1e-10),
        _below("random-states-discrepancy", corpus, 1e-10),
    ])


def suite_parseval_energy(figset, grid1: Grid, seed: int = 17) -> SuiteResult:
    """Position-side energy integrals match momentum-side quadrature."""
    rng = np.random.default_rng(seed)

    def spectral(state: LPState) -> float:
        """hbar <psi, W psi> in the state's own units."""
        return state.units.hbar * lp_inner(
            state, LPState(apply_frequency_power(state.psi, 1.0, state.units),
                           state.units)).real

    def lp_energy_error(state: LPState) -> float:
        tot, want = total_energy(energy_density(state)), spectral(state)
        return abs(tot - want) / abs(want)

    lp_errors = [lp_energy_error(figset.states["a"]), lp_energy_error(figset.states["b"])]
    lp_errors += [lp_energy_error(LPState(random_band_limited(grid1, rng)))
                  for _ in range(5)]

    state_c = figset.states["c"]
    fc = to_frequency(state_c.f)
    norm0_sq = grid1.k_cell_volume * float(np.sum(np.abs(strip_zero_mode(fc).data) ** 2))
    bb_reg = abs(spectral(lp_from_bb(state_c, zero_mode="drop")) - norm0_sq) / norm0_sq
    # The zero mode is helicity-neutral and lands half in each projection,
    # so the integrated density is |F|^2 minus half the mean's weight.
    full_norm_sq = grid1.k_cell_volume * float(np.sum(np.abs(fc.data) ** 2))
    dc_sq = grid1.k_cell_volume * float(
        np.abs(fc.data[grid1.zero_mode_index()]) ** 2)
    tot_c = total_energy(energy_density(state_c))
    bb_total = abs(tot_c - (full_norm_sq - 0.5 * dc_sq)) / full_norm_sq

    nb = narrowband_state(grid1, k0=10.0, rel_bandwidth=0.05)
    tot_nb = total_energy(energy_density(nb))
    amp = to_frequency(nb.psi).data
    oracle = (grid1.k_cell_volume * float(np.sum(omega(grid1) * np.abs(amp) ** 2))
              / (grid1.k_cell_volume * float(np.sum(np.abs(amp) ** 2))))

    return SuiteResult("parseval-energy", [
        _below("lp-total-vs-spectral", lp_errors, 1e-8),
        _below("bb-regularized-total-vs-spectral", bb_reg, 1e-8),
        _below("bb-quadrance-energy-accounting", bb_total, 1e-8),
        _below("narrowband-energy-offset", abs(tot_nb - 10.0) / 10.0, 0.005),
        _below("narrowband-vs-quadrature-oracle", abs(tot_nb - oracle) / oracle, 1e-8),
    ])


def _value_at(grid: Grid, values: np.ndarray, x: float) -> float:
    j = int(round((x + 0.5 * grid.length) / grid.spacing))
    return float(values[j])


def suite_truth_table(figset) -> SuiteResult:
    """Compactness pattern of the three canonical states."""
    g = figset.grid
    half_pulse = 0.5 * figset.pulse_length
    floor = PHYSICAL_FLOOR
    checks = []

    def extended(label, curve_name, curve):
        rel = _value_at(g, curve, 2.0) / float(np.max(curve))
        checks.append(_above(f"{label}-{curve_name}-extended-at-2", rel, floor))

    pa = figset.panels["a"]
    supp_a = support_estimate(figset.states["a"].field, floor)
    checks.append(_at_most("a-lp-support-radius-offset",
                           abs(supp_a.radii[0] - half_pulse), g.spacing))
    extended("a", "bb", pa.bb_abs)
    extended("a", "energy", pa.energy)

    pb = figset.panels["b"]
    extended("b", "lp", pb.lp_abs)
    extended("b", "bb", pb.bb_abs)
    extended("b", "energy", pb.energy)

    pc = figset.panels["c"]
    supp_c = support_estimate(figset.states["c"].field, floor)
    checks.append(_at_most("c-bb-support-radius-offset",
                           abs(supp_c.radii[0] - half_pulse), g.spacing))
    extended("c", "lp", pc.lp_abs)
    extended("c", "energy", pc.energy)
    return SuiteResult("figure-truth-table", checks)


def suite_nonlocality_floor(figset) -> SuiteResult:
    """Strictly positive energy everywhere; Knight verdicts distinguishable.

    The grid minimum must be strictly positive for all three states.  The
    bb-compact state's minimum sits on the parity-suppressed antipodal node
    (see scenarios), so a second check certifies that every other node
    carries a resolvable value above the detector floor.

    Every Knight test takes the pulse interval as its source: each state is
    compact there in one natural quantity (psi, the potentials, or F).  The
    lp-extended state's own field is not compact, so its estimated support
    would fill the box and leave no probe cell.
    """
    g = figset.grid
    half_pulse = 0.5 * figset.pulse_length
    source = DetectorVolume.interval(-half_pulse, half_pulse)
    checks = []
    for label in ("a", "b", "c"):
        panel = figset.panels[label]
        emap = EnergyDensityMap(g, panel.energy, panel.two_path_discrepancy)
        ordered = np.sort(panel.energy)
        peak = float(ordered[-1])
        checks.append(_above(f"{label}-min-energy-density",
                             float(ordered[0]), 0.0))
        checks.append(_above(f"{label}-min-excluding-antipode-node",
                             float(ordered[1]) / peak, 1e-12))
        report = knight_locality_test(emap, source)
        checks.append(_above(f"{label}-knight-detector-energy",
                             report.detector_energy, report.floor))
    return SuiteResult("nonlocality-floor", checks)


def suite_tail_quantification(units: UnitsConfig = NATURAL) -> SuiteResult:
    """Power-law energy tails and fit self-consistency.

    The power-law window [2, 6] must sit far from periodic images: on a
    box of 16 the nearest image of a unit pulse lies at distance 10 and
    contributes almost half of the field amplitude at x = 6 (the measured
    log-log slope flattens to about -2.2).  The fit therefore runs on a
    box of 128 with the default sample spacing, where the slope converges
    to its free-space value.
    """
    grid_long = Grid(1, 128.0, 32768)
    state = make_lp_compact(grid_long, 1.0, units)
    emap = energy_density(state)
    fit = tail_exponent_fit(emap, (2.0, 6.0), model="power")

    grid = Grid(1, 16.0, 4096)
    r = grid.radius.copy()
    stretched_vals = np.exp(-2.0 * np.sqrt(r))
    fit_s = tail_exponent_fit(EnergyDensityMap(grid, stretched_vals, 0.0),
                              (2.0, 6.0))
    power_vals = np.where(r > 0, r, grid.spacing) ** -3.0
    fit_p = tail_exponent_fit(EnergyDensityMap(grid, power_vals, 0.0),
                              (2.0, 6.0))

    return SuiteResult("tail-quantification", [
        _below("energy-tail-exponent-offset-from-minus-3",
               abs(fit.params["exponent"] + 3.0), 0.3),
        _above("energy-tail-goodness", fit.r_squared, 0.99),
        _below("synthetic-stretched-gamma-offset",
               abs(fit_s.params.get("gamma", np.inf) - 0.5), 0.05),
        _below("synthetic-stretched-rate-offset",
               abs(fit_s.params.get("decay_rate", np.inf) - 2.0), 0.1),
        _below("synthetic-power-exponent-offset",
               abs(fit_p.params.get("exponent", np.inf) + 3.0), 0.02),
        _above("synthetic-power-goodness", fit_p.r_squared, 0.999),
    ])


def suite_vector_potential(grid1: Grid, units: UnitsConfig = NATURAL) -> SuiteResult:
    """The vector-potential-local state: compact profile, nonlocal energy."""
    x = grid1.axis
    xi = odd_pulse_profile(grid1, 1.0)
    region = DetectorVolume.interval(-0.5, 0.5)
    built = vector_potential_localized_state(xi, region, units)

    recovered = to_position(apply_frequency_power(built.state.psi, -0.5, units))
    xi_unit = to_position(xi) / l2_norm(xi)
    rec_unit = recovered / l2_norm(recovered)
    diff = np.abs(rec_unit.data - xi_unit.data)
    peak = float(np.max(np.abs(xi_unit.data)))
    inside = np.abs(x) <= 0.5
    dev_in = float(np.max(diff[inside])) / peak
    dev_out = float(np.max(diff[~inside])) / peak

    emap = energy_density(built.state)
    peak_u = float(np.max(emap.values))
    rel_20 = _value_at(grid1, emap.values, 2.0) / peak_u
    rel_25 = _value_at(grid1, emap.values, 2.5) / peak_u

    return SuiteResult("vector-potential-locality", [
        _below("profile-recovery-inside", dev_in, 1e-10),
        _below("profile-recovery-outside", dev_out, 1e-10),
        _below("construction-reported-deviation", built.recovery_deviation, 1e-10),
        _above("energy-at-distance-1.5", rel_20, 1e-12),
        _above("energy-at-distance-2", rel_25, 1e-12),
    ])


def suite_lemma_witnesses(figset, grid1: Grid, seed: int = 23,
                          floor: float = PHYSICAL_FLOOR) -> SuiteResult:
    """Antilocality and helicity-continuation corroboration.

    Also certifies that the requested floor is feasible: a floor below the
    grid's measured transform noise would make every "is zero" claim
    meaningless, so such floors fail here instead of silently passing.
    """
    rng = np.random.default_rng(seed)

    probe = random_compact_bump(grid1, rng)
    noise = max(_rel(to_position(to_frequency(probe)), probe),
                float(np.finfo(np.float64).eps))

    window = max(0.05, 4.0 * grid1.spacing)
    w_samples = max(4, int(round(window / grid1.spacing)))
    joint = []
    for _ in range(20):
        v = random_compact_bump(grid1, rng)
        mag_v = magnitude(v)
        wv = apply_frequency_power(v, 1.0)
        mag_wv = magnitude(to_position(wv))
        rel_v = _window_maxima(mag_v, w_samples) / float(np.max(mag_v))
        rel_wv = _window_maxima(mag_wv, w_samples) / float(np.max(mag_wv))
        joint.append(float(np.min(np.maximum(rel_v, rel_wv))))

    p = sin2_profile(grid1, 1.0)
    witness = antilocality_witness(p, DetectorVolume.interval(2.4, 2.6))

    scan_window = max(0.1, 5.0 * grid1.spacing)
    scans = [report.min_window_max / report.peak for label in ("a", "b", "c")
             for report in helicity_scans(figset.states[label].field, scan_window)
             if not report.identically_zero]

    return SuiteResult("lemma-witnesses", [
        _above("floor-feasible-vs-transform-noise", floor, noise),
        _above("antilocality-corpus-joint-minimum", joint, floor),
        _below("compact-profile-far-zone-field", witness.rel_v, 1e-14),
        _above("compact-profile-far-zone-frequency-image",
               witness.rel_omega_v, 1e-4),
        _above("helicity-scan-minimum", scans, PHYSICAL_FLOOR),
    ])


def suite_determinism(figset, grid1: Grid, seed: int = 29) -> SuiteResult:
    """Repeatability of the pipeline and unitarity of time evolution."""
    rng = np.random.default_rng(seed)

    again = figure2_report(figset.grid, figset.pulse_length, figset.units)
    repeat_dev = [_max_abs(figset.panels[p].energy, again.panels[p].energy)
                  for p in ("a", "b", "c")]
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        cols = [("x", figset.grid.axis), ("energy_density", figset.panels["a"].energy)]
        write_csv(p1, cols)
        write_csv(p2, [("x", again.grid.axis), ("energy_density", again.panels["a"].energy)])
        with open(p1, "rb") as fh:
            b1 = fh.read()
        with open(p2, "rb") as fh:
            b2 = fh.read()
    bytes_equal = 0.0 if b1 == b2 else 1.0

    src = DetectorVolume.interval(-0.5, 0.5)
    emap = energy_density(figset.states["a"])
    j1 = json.dumps(jsonable(knight_locality_test(emap, src)), sort_keys=True)
    j2 = json.dumps(jsonable(knight_locality_test(emap, src)), sort_keys=True)
    json_equal = 0.0 if j1 == j2 else 1.0

    norm_dev, energy_dev, rt_dev = [], [], []
    for i in range(6):
        field = random_band_limited(grid1, rng)
        state = LPState(field) if i % 2 == 0 else BBState(field)
        t = float(rng.uniform(-5.0, 5.0))
        moved = evolve(state, t)
        norm_dev.append(abs(moved.norm - state.norm) / state.norm)
        e0 = total_energy(energy_density(state))
        e1 = total_energy(energy_density(moved))
        energy_dev.append(abs(e1 - e0) / e0)
        back = evolve(moved, -t)
        rt_dev.append(_rel(back.field, state.field))

    return SuiteResult("determinism-evolution", [
        _below("figure-recompute-deviation", repeat_dev, 1e-300),
        _below("csv-bytes-differ", bytes_equal, 0.5),
        _below("report-json-differs", json_equal, 0.5),
        _below("evolution-norm-drift", norm_dev, 1e-10),
        _below("evolution-energy-drift", energy_dev, 1e-10),
        _below("evolution-round-trip", rt_dev, 1e-12),
    ])


def _run_suite(name: str, suite, *args) -> SuiteResult:
    """suite(*args), or, if it raises a PhotonlocError, ValueError or
    ArithmeticError (how a numerical defect surfaces through the package's
    own validation), a failed suite ``name`` with one NaN row that names the
    exception."""
    try:
        return suite(*args)
    except (PhotonlocError, ValueError, ArithmeticError) as exc:
        return SuiteResult(name, [_below(f"raised {type(exc).__name__}: {exc}",
                                         np.nan, np.inf)])


def run_all_checks(grid_n: int = 4096, domain: float = 16.0,
                   pulse_length: float = 1.0, seed: int = 7,
                   floor: float = PHYSICAL_FLOOR,
                   units: UnitsConfig = NATURAL) -> list:
    """Run every suite and return the list of SuiteResults.

    ``grid_n`` sizes the random-corpus grids: the 1d grid has ``grid_n``
    points, the 3d grid the even part of sqrt(grid_n) per axis within
    [16, 64], so the default gives 64**3 (at 8**3 the transversality checks
    fail).  The figure-based suites always run at the committed
    demonstration parameters (N = 4096, box 16) so their numbers are
    comparable across configurations.  A ``floor`` that is not finite and
    positive, or a grid or pulse that cannot be built, raises before any
    suite runs.  A suite that raises comes back failed, with one NaN row
    naming the exception, and the others still run.
    """
    if not (0.0 < floor < np.inf):
        raise ValueError(f"floor must be finite and positive, got {floor}")
    grid1 = Grid(1, domain, grid_n)
    n3 = 2 * (int(np.sqrt(grid_n)) // 2)
    grid3 = Grid(3, domain, min(64, max(16, n3)))
    fig_grid = Grid(1, 16.0, 4096)
    figset = figure2_report(fig_grid, pulse_length, units)
    return [
        _run_suite("operator-algebra", suite_operator_algebra, grid1, grid3, seed),
        _run_suite("isomorphism", suite_isomorphism, grid1, grid3, seed + 1),
        _run_suite("two-path-energy", suite_two_path, figset, grid1, grid3, seed + 2),
        _run_suite("parseval-energy", suite_parseval_energy, figset, fig_grid, seed + 3),
        _run_suite("figure-truth-table", suite_truth_table, figset),
        _run_suite("nonlocality-floor", suite_nonlocality_floor, figset),
        _run_suite("tail-quantification", suite_tail_quantification, units),
        _run_suite("vector-potential-locality", suite_vector_potential, fig_grid, units),
        _run_suite("lemma-witnesses", suite_lemma_witnesses, figset, fig_grid, seed + 4, floor),
        _run_suite("determinism-evolution", suite_determinism, figset, fig_grid, seed + 5),
    ]
