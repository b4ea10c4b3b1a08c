"""Self-verification suites.

Each suite bundles the invariants of one layer into named numerical checks
with explicit bounds, so that `photonloc check` can print a table and the
test suite can assert every row.  All randomness is seeded; two runs of a
suite produce identical numbers.

The suites mirror the package's analysis pipeline: operator algebra on
random band-limited fields, the LP/BB isomorphism, the two-path energy
density, Parseval energy accounting, the six-panel truth table, the
everywhere-positive energy floor, tail quantification, the vector-potential
localized state, the antilocality and helicity-continuation witnesses, and
determinism under repeated evaluation and time evolution.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .energy import DetectorVolume, EnergyDensityMap, energy_density, knight_locality_test, total_energy
from .fields import (FREQUENCY, POSITION, SpectralField, _trusted, l2_inner, l2_norm,
                     magnitude, to_frequency, to_position)
from .grid import Grid
from .locality import (PHYSICAL_FLOOR, _window_maxima, antilocality_witness,
                       helicity_scans, support_estimate, tail_exponent_fit,
                       vector_potential_localized_state)
from .operators import (apply_frequency_power, curl, helicity_apply,
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


def _below(name, value, bound) -> CheckResult:
    value = float(value)
    return CheckResult(name, value, float(bound), "<", value < bound)


def _above(name, value, bound) -> CheckResult:
    value = float(value)
    return CheckResult(name, value, float(bound), ">", value > bound)


def _at_most(name, value, bound) -> CheckResult:
    value = float(value)
    return CheckResult(name, value, float(bound), "<=", value <= bound)


def _rel(a, b) -> float:
    """max |a - b| relative to the peak of b (arrays or fields)."""
    da = a.data if isinstance(a, SpectralField) else np.asarray(a)
    db = b.data if isinstance(b, SpectralField) else np.asarray(b)
    scale = float(np.max(np.abs(db)))
    diff = float(np.max(np.abs(da - db)))
    return diff / scale if scale > 0.0 else diff


# ---------------------------------------------------------------- builders

def band_limit(grid: Grid) -> float:
    """Aliasing-safe band: half the Nyquist wavevector."""
    return 0.5 * np.pi * grid.n / grid.length


def random_band_limited(grid: Grid, rng, transverse: bool = False) -> SpectralField:
    """Zero-mean complex field with white spectrum below the band limit."""
    shape = grid.field_shape
    data = np.empty(shape, np.complex128)
    data.real = rng.standard_normal(shape)
    data.imag = rng.standard_normal(shape)
    data *= (grid.k_magnitude > 0.0) & (grid.k_magnitude <= band_limit(grid))
    f = SpectralField(grid, data, FREQUENCY)
    if transverse and grid.dim == 3:
        f = transverse_project(f)
    return f


def random_real_smooth(grid: Grid, rng, transverse: bool = False) -> SpectralField:
    """Real, zero-mean, spectrally smooth position-domain field."""
    noise = SpectralField(grid, rng.standard_normal(grid.field_shape))
    f = to_frequency(noise)
    envelope = np.exp(-((grid.k_magnitude / (0.15 * band_limit(grid))) ** 2))
    data = f.data * envelope
    data[grid.zero_mode_index()] = 0.0
    if transverse and grid.dim == 3:
        # The real part taken below is transverse only if the Nyquist
        # planes, whose modes have no -k partner, are empty.
        h = grid.n // 2
        data[:, h] = data[:, :, h] = data[:, :, :, h] = 0.0
        out = transverse_project(SpectralField(grid, data, FREQUENCY))
    else:
        out = SpectralField(grid, data, FREQUENCY)
    pos = to_position(out)
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

def suite_operator_algebra(grid1: Grid, grid3: Grid, n_fields: int = 50,
                           seed: int = 7) -> SuiteResult:
    """Transform unitarity and the multiplier-operator algebra."""
    rng = np.random.default_rng(seed)
    tol_unitary, tol_algebra = 1e-12, 1e-10

    rt1 = parseval1 = 0.0
    for _ in range(min(n_fields, 50)):
        f = random_band_limited(grid1, rng)
        pos = to_position(f)
        rt1 = max(rt1, _rel(to_position(to_frequency(pos)), pos),
                  _rel(to_frequency(to_position(f)), f))
        a = grid1.cell_volume * np.sum(np.abs(pos.data) ** 2)
        b = grid1.k_cell_volume * np.sum(np.abs(f.data) ** 2)
        parseval1 = max(parseval1, abs(a - b) / b)

    rt3 = parseval3 = 0.0
    lam_sq = comm = proj_idem = proj_annih = proj_complete = 0.0
    half_power = mom_rt = mom_parseval = residual = 0.0
    for i in range(n_fields):
        f = random_band_limited(grid3, rng, transverse=True)
        residual = max(residual, transversality_residual(f))
        if i < 8:
            pos = to_position(f)
            rt3 = max(rt3, _rel(to_position(to_frequency(pos)), pos))
            a = grid3.cell_volume * np.sum(np.abs(pos.data) ** 2)
            b = grid3.k_cell_volume * np.sum(np.abs(f.data) ** 2)
            parseval3 = max(parseval3, abs(a - b) / b)
        lam = helicity_apply(f)
        lam_sq = max(lam_sq, _rel(helicity_apply(lam), f))
        cc = curl(f) * NATURAL.c
        comm = max(comm,
                   _rel(cc, apply_frequency_power(lam, 1.0)),
                   _rel(cc, helicity_apply(apply_frequency_power(f, 1.0))))
        pp, pm = helicity_parts(f)
        pp_plus, pp_minus = helicity_parts(pp)
        proj_idem = max(proj_idem, _rel(pp_plus, pp))
        proj_annih = max(proj_annih,
                         float(np.max(np.abs(pp_minus.data)))
                         / float(np.max(np.abs(f.data))))
        del pp_plus, pp_minus  # else alive through the next iteration's peak
        proj_complete = max(proj_complete, _rel(pp + pm, f))
        half = apply_frequency_power(apply_frequency_power(f, 0.5), 0.5)
        half_power = max(half_power, _rel(half, apply_frequency_power(f, 1.0)))
        amps = momentum_amplitudes(f)
        mom_rt = max(mom_rt, _rel(to_frequency(synthesize_from_amplitudes(amps)), f))
        mom_parseval = max(mom_parseval,
                           abs(amps.norm_squared() - l2_norm(f) ** 2) / l2_norm(f) ** 2)

    lam1 = proj1 = 0.0
    for _ in range(min(n_fields, 20)):
        f = random_band_limited(grid1, rng)
        lam1 = max(lam1, _rel(helicity_apply(helicity_apply(f)), f))
        pp, pm = helicity_parts(f)
        proj1 = max(proj1, _rel(pp + pm, f))

    table = grid3.polarization_table
    nz = grid3.k_magnitude > 0.0
    norms = np.sqrt(np.sum(np.abs(table[0]) ** 2, axis=0))
    pol_norm = float(np.max(np.abs(norms[nz] - 1.0)))
    kx, ky, kz = (np.broadcast_to(c, grid3.spatial_shape) for c in grid3.k_vectors)
    kdot = np.abs(kx * table[0][0] + ky * table[0][1] + kz * table[0][2])
    pol_trans = float(np.max(kdot[nz] / grid3.k_magnitude[nz]))
    pol_conj = float(np.max(np.abs(table[1] - np.conj(table[0]))))

    pw_curl = pw_lam = pw_omega = pw_orth = 0.0
    for mode, sigma in (((3, 1, -2), 1), ((0, 0, 2), -1), ((-1, 4, 0), 1)):
        phi = plane_wave(grid3, mode, sigma)
        kmag = grid3.k_spacing * float(np.sqrt(sum(m * m for m in mode)))
        pw_curl = max(pw_curl, _rel(curl(phi), sigma * kmag * phi))
        pw_lam = max(pw_lam, _rel(helicity_apply(phi), float(sigma) * phi))
        pw_omega = max(pw_omega, _rel(apply_frequency_power(phi, 1.0),
                                      NATURAL.c * kmag * phi))
    phi_a = plane_wave(grid3, (1, 0, 0), 1)
    phi_b = plane_wave(grid3, (2, 1, 0), 1)
    pw_orth = abs(l2_inner(phi_a, phi_b)) / (l2_norm(phi_a) * l2_norm(phi_b))
    phi_m3 = plane_wave(grid1, -3)
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
        _below("projector-completeness-3d", proj_complete, tol_algebra),
        _below("projector-completeness-1d", proj1, tol_algebra),
        _below("half-power-composition", half_power, 1e-11),
        _below("polarization-unit-norm", pol_norm, 1e-12),
        _below("polarization-transversality", pol_trans, 1e-12),
        _below("polarization-conjugation", pol_conj, 1e-12),
        _below("plane-wave-curl-eigenvalue", pw_curl, tol_algebra),
        _below("plane-wave-helicity-eigenvalue", pw_lam, tol_algebra),
        _below("plane-wave-frequency-eigenvalue", pw_omega, 1e-12),
        _below("plane-wave-orthogonality", pw_orth, 1e-12),
        _below("sign-multiplier-1d", sign_check, 1e-12),
        _below("momentum-amplitude-round-trip", mom_rt, tol_unitary),
        _below("momentum-amplitude-parseval", mom_parseval, tol_algebra),
    ])


def suite_isomorphism(grid1: Grid, grid3: Grid, n_pairs: int = 20,
                      seed: int = 11) -> SuiteResult:
    """LP <-> BB equivalence, the RS relation, and the EM cross-path."""
    rng = np.random.default_rng(seed)
    units_list = [NATURAL, UnitsConfig(hbar=0.5, c=2.0, eps0=3.0)]

    roundtrip = inner_corr = norm_corr = evolve_comm = 0.0
    for i in range(n_pairs):
        units = units_list[i % 2]
        grid = grid3 if i % 5 == 0 else grid1
        psi = LPState(random_band_limited(grid, rng, transverse=True), units)
        psi2 = LPState(random_band_limited(grid, rng, transverse=True), units)
        f = bb_from_lp(psi)
        back = lp_from_bb(f)
        roundtrip = max(roundtrip, _rel(to_frequency(back.psi), to_frequency(psi.psi)))
        ip_lp = lp_inner(psi, psi2)
        ip_bb = bb_inner(f, bb_from_lp(psi2))
        inner_corr = max(inner_corr, abs(ip_bb - units.hbar * ip_lp) / abs(ip_lp))
        norm_corr = max(norm_corr,
                        abs(f.norm - np.sqrt(units.hbar) * psi.norm)
                        / (np.sqrt(units.hbar) * psi.norm))
        t = float(rng.uniform(-3.0, 3.0))
        evolve_comm = max(evolve_comm, _rel(to_frequency(bb_from_lp(evolve(psi, t)).f),
                                            to_frequency(evolve(f, t).f)))

    pair_rebuild = pair_eigen = rs_identity = cross_path = cross_path_1d = 0.0
    for i in range(6):
        e3 = random_real_smooth(grid3, rng, transverse=True)
        b3 = random_real_smooth(grid3, rng, transverse=True)
        fb = bb_from_em(EMFields(e3, e3, b3))
        plus, minus = helicity_parts(fb.f)
        pair_rebuild = max(pair_rebuild, _rel(plus + minus, to_position(fb.f)))
        pair_eigen = max(pair_eigen, _rel(helicity_apply(plus), plus))
        scale = np.sqrt(NATURAL.eps0 / 2.0)
        rs_plus, rs_minus = helicity_parts(scale * (e3 + 1j * NATURAL.c * b3))
        rs_identity = max(
            rs_identity,
            _rel(plus, to_position(rs_plus)),
            _rel(minus.data, np.conj(to_position(rs_minus).data)))
        del rs_plus, rs_minus  # else alive through the next iteration's peak

        a3 = random_real_smooth(grid3, rng, transverse=True)
        em = EMFields.from_potentials(e3, a3)
        via_em = bb_from_em(em)
        via_lp = bb_from_lp(lp_from_potentials(em))
        cross_path = max(cross_path, _rel(to_position(via_em.f), to_position(via_lp.f)))

        e1 = random_real_smooth(grid1, rng)
        a1 = random_real_smooth(grid1, rng)
        em1 = EMFields.from_potentials(e1, a1)
        cross_path_1d = max(cross_path_1d,
                            _rel(to_position(bb_from_em(em1).f),
                                 to_position(bb_from_lp(lp_from_potentials(em1)).f)))

    return SuiteResult("isomorphism", [
        _below("lp-bb-round-trip", roundtrip, 1e-11),
        _below("inner-product-correspondence", inner_corr, 1e-10),
        _below("norm-correspondence", norm_corr, 1e-10),
        _below("evolution-commutes-with-isomorphism", evolve_comm, 1e-12),
        _below("helicity-pair-reconstruction", pair_rebuild, 1e-12),
        _below("helicity-pair-eigenfield", pair_eigen, 1e-10),
        _below("riemann-silberstein-identity-3d", rs_identity, 1e-10),
        _below("em-cross-path-3d", cross_path, 1e-10),
        _below("em-cross-path-1d", cross_path_1d, 1e-10),
    ])


def suite_two_path(figset, grid1: Grid, grid3: Grid, n_random: int = 20,
                   seed: int = 13) -> SuiteResult:
    """The two routes to the energy density agree pointwise."""
    rng = np.random.default_rng(seed)
    worst_fig = max(p.two_path_discrepancy for p in figset.panels.values())
    worst_random = 0.0
    for i in range(n_random):
        grid = grid3 if i % 7 == 0 else grid1
        field = random_band_limited(grid, rng, transverse=True)
        state = (LPState(field) if i % 2 == 0 else BBState(field))
        worst_random = max(worst_random, energy_density(state).two_path_discrepancy)
    return SuiteResult("two-path-energy", [
        _below("figure-states-discrepancy", worst_fig, 1e-10),
        _below("random-states-discrepancy", worst_random, 1e-10),
    ])


def suite_parseval_energy(figset, grid1: Grid, seed: int = 17) -> SuiteResult:
    """Position-side energy integrals match momentum-side quadrature."""
    rng = np.random.default_rng(seed)

    def lp_energy_error(state: LPState) -> float:
        tot = total_energy(energy_density(state))
        spectral = state.units.hbar * lp_inner(
            state, LPState(apply_frequency_power(state.psi, 1.0, state.units),
                           state.units)).real
        return abs(tot - spectral) / abs(spectral)

    worst_lp = max(lp_energy_error(figset.states["a"]),
                   lp_energy_error(figset.states["b"]))
    for _ in range(5):
        worst_lp = max(worst_lp, lp_energy_error(
            LPState(random_band_limited(grid1, rng))))

    state_c = figset.states["c"]
    fc = to_frequency(state_c.f)
    data0 = fc.data.copy()
    data0[grid1.zero_mode_index()] = 0.0
    norm0_sq = grid1.k_cell_volume * float(np.sum(np.abs(data0) ** 2))
    psi_c = lp_from_bb(state_c, zero_mode="drop")
    spectral_c = state_c.units.hbar * lp_inner(
        psi_c, LPState(apply_frequency_power(psi_c.psi, 1.0))).real
    bb_reg = abs(spectral_c - norm0_sq) / norm0_sq
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
        _below("lp-total-vs-spectral", worst_lp, 1e-8),
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
    rt = to_position(to_frequency(probe))
    peak = float(np.max(np.abs(probe.data)))
    noise = float(np.max(np.abs(rt.data - probe.data))) / peak
    noise = max(noise, float(np.finfo(np.float64).eps))

    window = max(0.05, 4.0 * grid1.spacing)
    w_samples = max(4, int(round(window / grid1.spacing)))
    worst_joint = np.inf
    for _ in range(20):
        v = random_compact_bump(grid1, rng)
        mag_v = magnitude(v)
        wv = apply_frequency_power(v, 1.0)
        mag_wv = magnitude(to_position(wv))
        rel_v = _window_maxima(mag_v, w_samples) / float(np.max(mag_v))
        rel_wv = _window_maxima(mag_wv, w_samples) / float(np.max(mag_wv))
        worst_joint = min(worst_joint, float(np.min(np.maximum(rel_v, rel_wv))))

    p = sin2_profile(grid1, 1.0)
    witness = antilocality_witness(p, DetectorVolume.interval(2.4, 2.6))

    worst_scan = np.inf
    scan_window = max(0.1, 5.0 * grid1.spacing)
    for label in ("a", "b", "c"):
        for report in helicity_scans(figset.states[label].field, scan_window):
            if not report.identically_zero:
                worst_scan = min(worst_scan, report.min_window_max / report.peak)

    return SuiteResult("lemma-witnesses", [
        _above("floor-feasible-vs-transform-noise", floor, noise),
        _above("antilocality-corpus-joint-minimum", worst_joint, floor),
        _below("compact-profile-far-zone-field", witness.rel_v, 1e-14),
        _above("compact-profile-far-zone-frequency-image",
               witness.rel_omega_v, 1e-4),
        _above("helicity-scan-minimum", worst_scan, PHYSICAL_FLOOR),
    ])


def suite_determinism(figset, grid1: Grid, seed: int = 29) -> SuiteResult:
    """Repeatability of the pipeline and unitarity of time evolution."""
    rng = np.random.default_rng(seed)

    again = figure2_report(figset.grid, figset.pulse_length, figset.units)
    repeat_dev = max(float(np.max(np.abs(figset.panels[p].energy
                                         - again.panels[p].energy)))
                     for p in ("a", "b", "c"))
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

    norm_dev = energy_dev = rt_dev = 0.0
    for i in range(6):
        field = random_band_limited(grid1, rng)
        state = LPState(field) if i % 2 == 0 else BBState(field)
        t = float(rng.uniform(-5.0, 5.0))
        moved = evolve(state, t)
        norm_dev = max(norm_dev, abs(moved.norm - state.norm) / state.norm)
        e0 = total_energy(energy_density(state))
        e1 = total_energy(energy_density(moved))
        energy_dev = max(energy_dev, abs(e1 - e0) / e0)
        back = evolve(moved, -t)
        rt_dev = max(rt_dev, _rel(back.field, state.field))

    return SuiteResult("determinism-evolution", [
        _below("figure-recompute-deviation", repeat_dev, 1e-300),
        _below("csv-bytes-differ", bytes_equal, 0.5),
        _below("report-json-differs", json_equal, 0.5),
        _below("evolution-norm-drift", norm_dev, 1e-10),
        _below("evolution-energy-drift", energy_dev, 1e-10),
        _below("evolution-round-trip", rt_dev, 1e-12),
    ])


def run_all_checks(grid_n: int = 4096, domain: float = 16.0,
                   pulse_length: float = 1.0, n_fields: int = 50,
                   seed: int = 7, floor: float = PHYSICAL_FLOOR,
                   units: UnitsConfig = NATURAL) -> list:
    """Run every suite and return the list of SuiteResults.

    ``grid_n`` sizes the random-corpus grids: the 1d grid has ``grid_n``
    points, the 3d grid the even part of sqrt(grid_n) per axis within
    [16, 64], so the default gives 64**3 (at 8**3 the transversality checks
    fail).  The figure-based suites always run at the committed
    demonstration parameters (N = 4096, box 16) so their numbers are
    comparable across configurations.  A ``floor`` that is not finite and
    positive, or fewer than one random field, raises ValueError before any
    suite runs.
    """
    if not (0.0 < floor < np.inf):
        raise ValueError(f"floor must be finite and positive, got {floor}")
    if n_fields < 1:
        raise ValueError(f"n_fields must be at least 1, got {n_fields}")
    grid1 = Grid(1, domain, grid_n)
    n3 = 2 * (int(np.sqrt(grid_n)) // 2)
    grid3 = Grid(3, domain, min(64, max(16, n3)))
    fig_grid = Grid(1, 16.0, 4096)
    figset = figure2_report(fig_grid, pulse_length, units)
    return [
        suite_operator_algebra(grid1, grid3, n_fields, seed),
        suite_isomorphism(grid1, grid3, 20, seed + 1),
        suite_two_path(figset, grid1, grid3, 20, seed + 2),
        suite_parseval_energy(figset, fig_grid, seed + 3),
        suite_truth_table(figset),
        suite_nonlocality_floor(figset),
        suite_tail_quantification(units),
        suite_vector_potential(fig_grid, units),
        suite_lemma_witnesses(figset, fig_grid, seed + 4, floor),
        suite_determinism(figset, fig_grid, seed + 5),
    ]
