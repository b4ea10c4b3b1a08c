"""Command-line interface.

Subcommands:

  demo-fig2   compute the six-panel pulse comparison; write data and plots
  energy      energy-density map of a saved state
  locality    locality analyses of a saved or built-in state
  check       run the numerical verification suites

Exit codes: 0 on success, 1 on validation errors (bad arguments, malformed
files, impossible geometry), 2 when a numerical verification fails, a
suite that raises included.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import numpy as np

from .checks import run_all_checks
from .energy import (DetectorVolume, energy_density, knight_locality_test,
                     total_energy)
from .errors import InsufficientWindowError, PhotonlocError, ProbeCellError
from .grid import Grid
from .locality import (PHYSICAL_FLOOR, antilocality_witness, helicity_scans,
                       support_estimate, tail_exponent_fit,
                       vector_potential_localized_state)
from .scenarios import (figure2_report, make_lp_compact, odd_pulse_profile,
                        state_curves)
from .serialization import load_state, save_state, write_csv, write_json
from .svgplot import line_plot
from .units import UnitsConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports bad arguments with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _add_units_args(parser):
    parser.add_argument("--hbar", type=float, default=1.0,
                        help="value of hbar (default 1)")
    parser.add_argument("--c", type=float, default=1.0,
                        help="speed of light (default 1)")
    parser.add_argument("--eps0", type=float, default=1.0,
                        help="vacuum permittivity (default 1)")


def _add_output_args(parser, data_format=True, plots=True):
    """The output options a subcommand reads: the directory always, the
    data format and the plot options where it writes them."""
    parser.add_argument("--output-dir", default=None,
                        help="output directory (default: $PHOTONLOC_OUTPUT_DIR "
                             "or the working directory)")
    if data_format:
        parser.add_argument("--format", choices=("csv", "json"), default="csv",
                            help="data file format (default csv)")
    if plots:
        parser.add_argument("--plot", choices=("none", "svg"), default="svg",
                            help="plot output (default svg)")
        parser.add_argument("--log-scale", action="store_true",
                            help="use a log scale on the linear panels too")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="photonloc",
                     description="Single-photon pulse states: position "
                                 "representations and energy localization.")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo-fig2", help="six-panel pulse comparison",
                          description="Compute the three canonical pulse "
                                      "states and their six comparison panels.")
    demo.add_argument("--grid-n", type=int, default=4096,
                      help="grid points (default 4096)")
    demo.add_argument("--domain-length", type=float, default=16.0,
                      help="periodic box length (default 16)")
    demo.add_argument("--pulse-length", type=float, default=1.0,
                      help="pulse support length (default 1)")
    _add_units_args(demo)
    _add_output_args(demo)

    energy = sub.add_parser("energy", help="energy density of a saved state",
                            description="Load a state file and write its "
                                        "energy-density table.")
    energy.add_argument("state_file", help="state JSON produced by save_state "
                                           "or demo-fig2")
    _add_output_args(energy)

    loc = sub.add_parser("locality", help="locality analyses of a state",
                         description="Knight test, tail fit, antilocality "
                                     "witness and helicity scans.")
    loc.add_argument("state_file", nargs="?", default=None,
                     help="state JSON, analysed in the units saved in it "
                          "(default: built-in compact LP pulse)")
    loc.add_argument("--grid-n", type=int, default=4096,
                     help="grid points for the built-in state (default 4096)")
    loc.add_argument("--domain-length", type=float, default=16.0,
                     help="box length for the built-in state (default 16)")
    loc.add_argument("--pulse-length", type=float, default=1.0,
                     help="pulse length of the built-in state and, on any 1d "
                          "input, of the vector_potential profile (default 1)")
    loc.add_argument("--floor", type=float, default=None,
                     help="energy floor for the Knight test "
                          "(default 1e-12 of the peak)")
    loc.add_argument("--source-volume", default=None,
                     help="source region: 'lo,hi' (interval), "
                          "'cx,cy,cz,r' (ball) or 6 box bounds "
                          "(default: estimated support)")
    loc.add_argument("--windows", default="2,6",
                     help="tail-fit window 'lo,hi': absolute radii, in the "
                          "units of the box length (default '2,6')")
    _add_units_args(loc)
    _add_output_args(loc, data_format=False, plots=False)

    check = sub.add_parser("check", help="run the verification suites",
                           description="Run the numerical verification suites "
                                       "and print one row per suite.")
    check.add_argument("--grid-n", type=int, default=4096,
                       help="1d corpus grid points N; the 3d corpus takes "
                            "the even part of sqrt(N) per axis, kept within "
                            "16..64 (default 4096, i.e. 64^3)")
    check.add_argument("--domain-length", type=float, default=16.0,
                       help="corpus box length (default 16)")
    check.add_argument("--pulse-length", type=float, default=1.0,
                       help="pulse length (default 1)")
    check.add_argument("--seed", type=int, default=7,
                       help="corpus seed (default 7)")
    check.add_argument("--floor", type=float, default=PHYSICAL_FLOOR,
                       help="relative floor for the witness suites "
                            "(default 1e-8)")
    _add_units_args(check)
    _add_output_args(check, plots=False)
    return parser


def _resolve_output_dir(args) -> str:
    out = args.output_dir or os.environ.get("PHOTONLOC_OUTPUT_DIR") or os.getcwd()
    os.makedirs(out, exist_ok=True)
    return out


def _units_from(args) -> UnitsConfig:
    return UnitsConfig(hbar=args.hbar, c=args.c, eps0=args.eps0)


def _panel_columns(x, lp_abs, bb_abs, energy):
    return [("x", x), ("lp_abs", lp_abs), ("bb_abs", bb_abs),
            ("energy_density", energy)]


def _panel_curves(lp_abs, bb_abs, energy):
    return [("|psi| (LP)", lp_abs), ("|F| (BB)", bb_abs),
            ("energy density", energy)]


def _parse_floats(text, what):
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise PhotonlocError(f"could not parse {what} {text!r} as "
                             "comma-separated numbers")


def _parse_volume(text, dim):
    vals = _parse_floats(text, "--source-volume")
    if len(vals) == 2 * dim:
        return DetectorVolume.aligned(vals[:dim], vals[dim:])
    if dim == 3 and len(vals) == 4:
        return DetectorVolume.ball(tuple(vals[:3]), vals[3])
    raise PhotonlocError(
        f"--source-volume {text!r} does not describe a volume in "
        f"dimension {dim} (need 2 interval bounds, 4 ball values or "
        "6 box bounds)")


def cmd_demo_fig2(args) -> int:
    out = _resolve_output_dir(args)
    units = _units_from(args)
    grid = Grid(1, args.domain_length, args.grid_n)
    figset = figure2_report(grid, args.pulse_length, units)

    state_dir = os.path.join(out, "states")
    os.makedirs(state_dir, exist_ok=True)
    for label, state in figset.states.items():
        save_state(state, os.path.join(state_dir, f"state_{label}.json"))

    if args.format == "csv":
        # A log-scale panel (d-f) holds the arrays of its linear one (a-c),
        # so each table is formatted once and its bytes copied.
        for label in ("a", "b", "c"):
            panel = figset.panels[label]
            path = os.path.join(out, f"panel_{label}.csv")
            write_csv(path, _panel_columns(panel.x, panel.lp_abs, panel.bb_abs,
                                           panel.energy))
            shutil.copyfile(path, os.path.join(out, f"panel_{chr(ord(label) + 3)}.csv"))
    else:
        bundle = {
            "grid": grid,
            "units": units,
            "pulse_length": figset.pulse_length,
            "panels": figset.panels,
        }
        write_json(os.path.join(out, "fig2_bundle.json"), bundle)

    if args.plot == "svg":
        for label in ("a", "b", "c", "d", "e", "f"):
            panel = figset.panels[label]
            log_y = panel.scale == "log" or args.log_scale
            line_plot(os.path.join(out, f"panel_{label}.svg"),
                      panel.x, _panel_curves(panel.lp_abs, panel.bb_abs,
                                             panel.energy),
                      title=f"panel {label}: {panel.kind}",
                      xlabel="x", ylabel="amplitude / energy density",
                      log_y=log_y)

    print("panel  kind         total_energy            two_path_discrepancy")
    for label in ("a", "b", "c"):
        panel = figset.panels[label]
        print(f"{label:<6} {panel.kind:<12} {panel.total_energy:<23.17g} "
              f"{panel.two_path_discrepancy:.3e}")
    print(f"output directory: {out}")
    return EXIT_OK


def cmd_energy(args) -> int:
    out = _resolve_output_dir(args)
    state = load_state(args.state_file)
    grid = state.grid
    if grid.dim == 1:
        lp_abs, bb_abs, emap = state_curves(state)
        total = total_energy(emap)
        x = grid.axis
        if args.format == "csv":
            write_csv(os.path.join(out, "energy.csv"),
                      _panel_columns(x, lp_abs, bb_abs, emap.values))
        else:
            write_json(os.path.join(out, "energy.json"), {
                "x": x, "lp_abs": lp_abs, "bb_abs": bb_abs,
                "energy_density": emap.values, "total_energy": total,
                "two_path_discrepancy": emap.two_path_discrepancy,
            })
        if args.plot == "svg":
            line_plot(os.path.join(out, "energy.svg"), x,
                      _panel_curves(lp_abs, bb_abs, emap.values),
                      title="energy density", xlabel="x",
                      ylabel="amplitude / energy density",
                      log_y=args.log_scale)
    else:
        emap = energy_density(state)
        total = total_energy(emap)
        if args.format == "csv":
            write_csv(os.path.join(out, "energy.csv"),
                      [("r", grid.radius.ravel()),
                       ("energy_density", emap.values.ravel())])
        else:
            write_json(os.path.join(out, "energy.json"), {
                "total_energy": total,
                "two_path_discrepancy": emap.two_path_discrepancy,
                "min_energy_density": float(np.min(emap.values)),
                "max_energy_density": float(np.max(emap.values)),
            })

    print(f"total_energy        = {total:.17g}")
    print(f"two_path_discrepancy = {emap.two_path_discrepancy:.3e}")
    print(f"min_energy_density  = {float(np.min(emap.values)):.17g}")
    print(f"output directory: {out}")
    return EXIT_OK


def cmd_locality(args) -> int:
    out = _resolve_output_dir(args)
    units = _units_from(args)
    window = _parse_floats(args.windows, "--windows")
    if len(window) != 2 or not (0.0 < window[0] < window[1] < np.inf):
        raise PhotonlocError(f"--windows needs two radii 0 < lo < hi < inf, "
                             f"got {args.windows!r}")
    if args.state_file is not None:
        state = load_state(args.state_file)
        units = state.units
        origin = args.state_file
    else:
        grid = Grid(1, args.domain_length, args.grid_n)
        state = make_lp_compact(grid, args.pulse_length, units)
        origin = "built-in lp-compact pulse"
    grid = state.grid
    field = state.field
    emap = energy_density(state)

    if args.source_volume is not None:
        knight = knight_locality_test(
            emap, _parse_volume(args.source_volume, grid.dim), floor=args.floor)
    else:
        supp = support_estimate(field, PHYSICAL_FLOOR)
        try:
            knight = knight_locality_test(emap, supp.volume(), floor=args.floor)
        except ProbeCellError as exc:
            radii = ", ".join(f"{r:.6g}" for r in supp.radii)
            raise ProbeCellError(
                f"{exc}: the default source, the support estimated at "
                f"{PHYSICAL_FLOOR:g} of the peak, has radii ({radii}); give a "
                "smaller source region with --source-volume") from None

    try:
        fit = tail_exponent_fit(emap, (window[0], window[1]))
        fit_payload, fit_note = fit, None
    except InsufficientWindowError as exc:
        fit_payload, fit_note = None, str(exc)

    scan_window = max(grid.length / 50.0, 5.0 * grid.spacing)
    scans = dict(zip(("plus", "minus"), helicity_scans(field, scan_window)))

    witness = vp = None
    if grid.dim == 1:
        width = grid.length / 20.0
        lo = 0.35 * grid.length
        witness = antilocality_witness(
            field, DetectorVolume.interval(lo, lo + width), units)
        half = 0.5 * args.pulse_length
        vp_built = vector_potential_localized_state(
            odd_pulse_profile(grid, args.pulse_length),
            DetectorVolume.interval(-half, half), units)
        vp_map = energy_density(vp_built.state)
        vp = {
            "support": vp_built.support,
            "recovery_deviation": vp_built.recovery_deviation,
            "min_energy_density": float(np.min(vp_map.values)),
            "peak_energy_density": float(np.max(vp_map.values)),
        }

    bundle = {
        "state": {"origin": origin,
                  "representation": state.representation,
                  "grid": grid},
        "energy": {"total": total_energy(emap),
                   "min_density": float(np.min(emap.values)),
                   "two_path_discrepancy": emap.two_path_discrepancy},
        "knight": knight,
        "tail_fit": fit_payload,
        "tail_fit_note": fit_note,
        "antilocality_witness": witness,
        "helicity_scans": scans,
        "vector_potential": vp,
    }
    write_json(os.path.join(out, "locality_report.json"), bundle)

    print(f"state: {origin}")
    print(f"knight verdict: {knight.verdict} "
          f"(detector energy {knight.detector_energy:.6g}, "
          f"floor {knight.floor:.6g})")
    if fit_payload is not None:
        print(f"tail fit: model={fit_payload.model} params="
              + ", ".join(f"{k}={v:.6g}" for k, v in
                          sorted(fit_payload.params.items()))
              + f" r2={fit_payload.r_squared:.6f}")
    else:
        print(f"tail fit: unavailable ({fit_note})")
    if witness is not None:
        print(f"antilocality witness: passed={witness.passed} "
              f"rel_v={witness.rel_v:.3e} rel_omega_v={witness.rel_omega_v:.3e}")
    for name, scan in scans.items():
        print(f"helicity scan ({name}): {scan.verdict}")
    print(f"output directory: {out}")
    return EXIT_OK


def cmd_check(args) -> int:
    out_needed = args.format == "json"
    units = _units_from(args)
    suites = run_all_checks(grid_n=args.grid_n, domain=args.domain_length,
                            pulse_length=args.pulse_length, seed=args.seed,
                            floor=args.floor, units=units)
    width = max(len(s.name) for s in suites)
    print(f"{'suite':<{width}}  checks  status")
    all_ok = True
    for suite in suites:
        status = "pass" if suite.passed else "FAIL"
        all_ok = all_ok and suite.passed
        print(f"{suite.name:<{width}}  {len(suite.checks):<6}  {status}")
        for check in suite.failures():
            print(f"  failed: {check.name}: {check.value:.6g} "
                  f"{check.comparator} {check.bound:.6g} required")
    if out_needed:
        out = _resolve_output_dir(args)
        write_json(os.path.join(out, "check_report.json"),
                   {"suites": suites, "passed": all_ok})
    print("all suites passed" if all_ok else "NUMERICAL VERIFICATION FAILED")
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "demo-fig2": cmd_demo_fig2,
        "energy": cmd_energy,
        "locality": cmd_locality,
        "check": cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (PhotonlocError, OSError, ValueError) as exc:
        print(f"photonloc: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
