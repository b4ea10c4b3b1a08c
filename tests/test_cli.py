import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import photonloc
from photonloc import (DetectorVolume, Grid, LPState, SpectralField, UnitsConfig,
                       antilocality_witness, cli, load_state, make_lp_compact,
                       save_state)
from photonloc.checks import SuiteResult, _at_most
from photonloc.serialization import jsonable

from test_golden import _state_3d  # noqa: E402

PANEL_LABELS = "abcdef"

# Directory holding the imported package: the child process runs these same
# sources from any cwd, whether they come from src/ or from an installed copy.
PACKAGE_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(photonloc.__file__)))

# The error line of cli.main ("photonloc: error: ...") or of an argparse
# parser ("photonloc <subcommand>: error: ...").
CLI_ERROR_LINE = re.compile(r"^photonloc(?: [a-z0-9-]+)?: error: ",
                            re.MULTILINE)


def run_cli(args, cwd, env_extra=None):
    env = dict(os.environ)
    env.pop("PHOTONLOC_OUTPUT_DIR", None)
    if env_extra:
        env.update(env_extra)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (PACKAGE_ROOT + os.pathsep + inherited if inherited
                         else PACKAGE_ROOT)
    return subprocess.run([sys.executable, "-m", "photonloc", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def assert_cli_error(res):
    """Exit 1 with photonloc's own error line, not an interpreter failure."""
    assert res.returncode == 1, res.stderr
    assert CLI_ERROR_LINE.search(res.stderr), res.stderr


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    res = run_cli(["demo-fig2", "--grid-n", "1024", "--output-dir", str(out)],
                  cwd=out)
    assert res.returncode == 0, res.stderr
    return out, res.stdout


def test_demo_writes_all_artifacts(demo_dir):
    out, stdout = demo_dir
    for label in PANEL_LABELS:
        assert (out / f"panel_{label}.csv").is_file()
        assert (out / f"panel_{label}.svg").is_file()
    for label in "abc":
        assert (out / "states" / f"state_{label}.json").is_file()
    assert "lp-compact" in stdout
    assert "lp-extended" in stdout
    assert "bb-compact" in stdout
    header = (out / "panel_a.csv").read_text().splitlines()[0]
    assert header == "x,lp_abs,bb_abs,energy_density"


def test_demo_is_deterministic(demo_dir, tmp_path):
    out, _ = demo_dir
    res = run_cli(["demo-fig2", "--grid-n", "1024",
                   "--output-dir", str(tmp_path)], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    for rel in ("panel_a.csv", "panel_f.csv", "panel_c.svg",
                os.path.join("states", "state_b.json")):
        assert (out / rel).read_bytes() == (tmp_path / rel).read_bytes()


def test_demo_formats_each_panel_table_once(tmp_path, monkeypatch, capsys):
    """Panels d-f hold the arrays of a-c, so their tables are the a-c files'
    bytes, copied rather than formatted again."""
    written = []

    def spy(path, columns, original=cli.write_csv):
        written.append(os.path.basename(path))
        return original(path, columns)
    monkeypatch.setattr(cli, "write_csv", spy)
    assert cli.main(["demo-fig2", "--grid-n", "1024", "--plot", "none",
                     "--output-dir", str(tmp_path)]) == 0
    assert written == ["panel_a.csv", "panel_b.csv", "panel_c.csv"]
    for log, lin in zip("def", "abc"):
        assert (tmp_path / f"panel_{log}.csv").read_bytes() \
            == (tmp_path / f"panel_{lin}.csv").read_bytes()


def test_demo_json_bundle(tmp_path):
    res = run_cli(["demo-fig2", "--grid-n", "1024", "--format", "json",
                   "--plot", "none", "--output-dir", str(tmp_path)],
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert not list(tmp_path.glob("*.csv"))
    assert not list(tmp_path.glob("*.svg"))
    bundle = json.loads((tmp_path / "fig2_bundle.json").read_text())
    assert sorted(bundle["panels"]) == list(PANEL_LABELS)
    panel_a = bundle["panels"]["a"]
    assert panel_a["kind"] == "lp-compact"
    assert len(panel_a["energy"]) == 1024
    assert min(panel_a["energy"]) > 0.0


def test_demo_respects_env_output_dir(tmp_path):
    target = tmp_path / "via-env"
    res = run_cli(["demo-fig2", "--grid-n", "1024", "--plot", "none"],
                  cwd=tmp_path, env_extra={"PHOTONLOC_OUTPUT_DIR": str(target)})
    assert res.returncode == 0, res.stderr
    assert (target / "panel_a.csv").is_file()


def test_demo_validation_failures(tmp_path):
    res = run_cli(["demo-fig2", "--grid-n", "512"], cwd=tmp_path)
    assert_cli_error(res)
    res = run_cli(["demo-fig2", "--grid-n", "notanumber"], cwd=tmp_path)
    assert_cli_error(res)


def test_energy_matches_demo_panel_bit_for_bit(demo_dir, tmp_path):
    out, _ = demo_dir
    res = run_cli(["energy", str(out / "states" / "state_a.json"),
                   "--output-dir", str(tmp_path), "--plot", "none"],
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "energy.csv").read_bytes() \
        == (out / "panel_a.csv").read_bytes()
    assert "total_energy" in res.stdout
    assert "min_energy_density" in res.stdout


def test_energy_zero_state(tmp_path):
    grid = Grid(1, 16.0, 1024)
    zero = LPState(SpectralField(grid, np.zeros(grid.n, dtype=complex)))
    state_path = tmp_path / "zero.json"
    save_state(zero, state_path)
    res = run_cli(["energy", str(state_path), "--plot", "none",
                   "--output-dir", str(tmp_path)], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "total_energy        = 0" in res.stdout
    table = (tmp_path / "energy.csv").read_text().splitlines()[1:]
    energies = [float(line.split(",")[3]) for line in table]
    assert max(energies) == 0.0


def test_energy_file_errors(tmp_path):
    res = run_cli(["energy", str(tmp_path / "missing.json")], cwd=tmp_path)
    assert_cli_error(res)
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    res = run_cli(["energy", str(bad)], cwd=tmp_path)
    assert_cli_error(res)
    res = run_cli(["energy"], cwd=tmp_path)
    assert_cli_error(res)


def test_energy_rejects_non_finite_samples(demo_dir, tmp_path):
    out, _ = demo_dir
    payload = json.loads((out / "states" / "state_a.json").read_text())
    payload["components"][0]["re"][5] = float("nan")
    state_path = tmp_path / "nan.json"
    state_path.write_text(json.dumps(payload))
    res = run_cli(["energy", str(state_path), "--plot", "none",
                   "--output-dir", str(tmp_path)], cwd=tmp_path)
    assert_cli_error(res)
    assert "non-finite" in res.stderr
    assert "total_energy" not in res.stdout
    assert not (tmp_path / "energy.csv").exists()


def test_locality_builtin_state(tmp_path):
    res = run_cli(["locality", "--grid-n", "1024",
                   "--output-dir", str(tmp_path)], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "locality_report.json").read_text())
    assert report["knight"]["verdict"] == "distinguishable"
    assert report["energy"]["min_density"] > 0.0
    assert report["antilocality_witness"]["passed"] is True
    assert report["helicity_scans"]["plus"]["verdict"] == "nowhere-vanishing"
    assert report["helicity_scans"]["minus"]["verdict"] == "nowhere-vanishing"
    assert report["vector_potential"]["recovery_deviation"] < 1e-10
    assert report["vector_potential"]["min_energy_density"] > 0.0
    assert "knight verdict: distinguishable" in res.stdout


def test_locality_saved_state_and_options(demo_dir, tmp_path):
    out, _ = demo_dir
    res = run_cli(["locality", str(out / "states" / "state_c.json"),
                   "--source-volume=-1,1", "--windows", "2,5",
                   "--output-dir", str(tmp_path)], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "locality_report.json").read_text())
    assert report["state"]["representation"] == "bb"
    assert report["knight"]["source"]["kind"] == "interval"
    assert report["knight"]["source"]["lo"] == [-1.0]
    assert report["tail_fit"] is not None


def test_locality_pulse_length_sets_the_vector_potential_profile_of_a_state_file(
        demo_dir, tmp_path):
    """On a state file --pulse-length changes only the vector_potential
    block: its odd profile, and so its support, has half the length."""
    out, _ = demo_dir
    reports = []
    for length in ("1", "0.5"):
        res = run_cli(["locality", str(out / "states" / "state_c.json"),
                       "--pulse-length", length, "--output-dir", str(tmp_path)],
                      cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        reports.append(json.loads((tmp_path / "locality_report.json").read_text()))
    default, half = reports
    spacing = 16.0 / 1024
    for report, radius in ((default, 0.5), (half, 0.25)):
        (lo, hi), = report["vector_potential"]["support"]["region"]
        assert lo == -hi and abs(hi - radius) <= 2.0 * spacing
    for block in ("state", "energy", "knight", "tail_fit", "helicity_scans"):
        assert half[block] == default[block]


def test_locality_on_a_state_file_uses_the_units_saved_in_it(tmp_path):
    """The unit flags set only the built-in state's units: a c = 2 state
    file gets the library's c = 2 witness, whatever --c says."""
    units = UnitsConfig(c=2.0)
    grid = Grid(1, 16.0, 1024)
    path = tmp_path / "state.json"
    save_state(make_lp_compact(grid, 1.0, units), path)
    reports = []
    for flags in ([], ["--c", "3"]):
        res = run_cli(["locality", str(path), *flags, "--output-dir", str(tmp_path)],
                      cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        reports.append(json.loads((tmp_path / "locality_report.json").read_text()))
    assert reports[0] == reports[1]
    lo = 0.35 * grid.length
    witness = antilocality_witness(load_state(path).field,
                                   DetectorVolume.interval(lo, lo + grid.length / 20.0),
                                   units)
    assert reports[0]["antilocality_witness"] == jsonable(witness)


def test_locality_unfittable_window_is_reported_not_fatal(tmp_path):
    res = run_cli(["locality", "--grid-n", "1024", "--windows", "2,7.9",
                   "--output-dir", str(tmp_path)], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "locality_report.json").read_text())
    assert report["tail_fit"] is None
    assert "wrap-around" in report["tail_fit_note"]
    assert "tail fit: unavailable" in res.stdout


def test_locality_bad_arguments(tmp_path):
    res = run_cli(["locality", "--grid-n", "1024",
                   "--source-volume", "a,b"], cwd=tmp_path)
    assert_cli_error(res)
    res = run_cli(["locality", "--grid-n", "1024",
                   "--source-volume", "1"], cwd=tmp_path)
    assert_cli_error(res)
    res = run_cli(["locality", "--grid-n", "1024",
                   "--windows", "1,2,3"], cwd=tmp_path)
    assert_cli_error(res)


@pytest.fixture(scope="module")
def state_3d_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("state3d") / "state_3d.json"
    save_state(_state_3d("lp"), path)
    return path


@pytest.mark.parametrize("volume", ["nan,0.5", "-1,nan", "0,0,0,nan", "0,nan,0,3",
                                    "-2,-2,nan,2,2,2"])
def test_nan_source_volume_exits_1(state_3d_file, tmp_path, volume):
    state = ["--grid-n", "1024"] if volume.count(",") == 1 else [str(state_3d_file)]
    res = run_cli(["locality", *state, f"--source-volume={volume}",
                   "--output-dir", str(tmp_path)], cwd=tmp_path)
    assert_cli_error(res)
    assert not (tmp_path / "locality_report.json").exists()


@pytest.mark.parametrize("windows", ["nan,5", "6,2", "0,5", "2,inf"])
def test_locality_malformed_windows_exit_1(tmp_path, windows):
    res = run_cli(["locality", "--grid-n", "1024", f"--windows={windows}",
                   "--output-dir", str(tmp_path)], cwd=tmp_path)
    assert_cli_error(res)
    assert "--windows" in res.stderr
    assert not (tmp_path / "locality_report.json").exists()


def test_locality_3d_box_source_wider_than_a_sixth_of_the_box(state_3d_file, tmp_path):
    # On a box of 16 the Knight tiling has faces at 0 and +-4: the +-3 source
    # meets the eight centre cells and leaves 56.
    res = run_cli(["locality", str(state_3d_file), "--source-volume=-3,-3,-3,3,3,3",
                   "--output-dir", str(tmp_path)], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "knight verdict: distinguishable" in res.stdout
    knight = json.loads((tmp_path / "locality_report.json").read_text())["knight"]
    assert knight["n_cells"] == 56


def test_energy_3d_builds_only_the_energy_map(state_3d_file, tmp_path, monkeypatch,
                                              capsys):
    # _bb_field and _lp_field build the other representation's image, in
    # energy_density, in scenarios.state_curves and in the states' own
    # isomorphisms alike.
    calls = []
    for name in ("_bb_field", "_lp_field"):
        def spy(*args, original=getattr(photonloc.states, name), **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (photonloc.energy, photonloc.scenarios, photonloc.states):
            monkeypatch.setattr(module, name, spy)
    assert cli.main(["energy", str(state_3d_file), "--format", "json",
                     "--output-dir", str(tmp_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("args", [
    ["locality", "--format", "json"],
    ["locality", "--plot", "none"],
    ["locality", "--log-scale"],
    ["check", "--plot", "none"],
    ["check", "--log-scale"],
    ["check", "--n-fields", "4"],
])
def test_output_options_a_subcommand_does_not_read_are_rejected(capsys, args):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_locality_default_source_covering_the_box_names_the_option(demo_dir, tmp_path):
    # lp-extended is not compact: its support at the 1e-8 floor fills the box.
    out, _ = demo_dir
    res = run_cli(["locality", str(out / "states" / "state_b.json"),
                   "--output-dir", str(tmp_path)], cwd=tmp_path)
    assert_cli_error(res)
    assert "no disjoint probe cell" in res.stderr
    assert "--source-volume" in res.stderr
    assert "radii (8)" in res.stderr
    assert not (tmp_path / "locality_report.json").exists()


def test_check_passes_at_reduced_resolution(tmp_path):
    res = run_cli(["check", "--grid-n", "256",
                   "--format", "json", "--output-dir", str(tmp_path)],
                  cwd=tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "all suites passed" in res.stdout
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["passed"] is True
    assert len(report["suites"]) == 10


@pytest.mark.parametrize("units", [["--hbar", "4", "--c", "0.25", "--eps0", "16"],
                                   ["--c", "2"]], ids=["hbar4-c0.25-eps16", "c2"])
def test_check_passes_in_non_natural_units(tmp_path, units):
    # Every energy oracle is taken in the state's own units.
    res = run_cli(["check", "--grid-n", "256"] + units, cwd=tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "all suites passed" in res.stdout


def test_check_detects_infeasible_floor(tmp_path):
    res = run_cli(["check", "--grid-n", "256", "--floor", "1e-30"], cwd=tmp_path)
    assert res.returncode == 2
    assert "NUMERICAL VERIFICATION FAILED" in res.stdout
    assert "failed:" in res.stdout


@pytest.mark.parametrize("args", [
    ["locality", "--grid-n", "1024", "--floor", "inf"],
    ["locality", "--grid-n", "1024", "--floor", "nan"],
    ["check", "--grid-n", "256", "--floor", "nan"],
    ["check", "--grid-n", "256", "--floor", "inf"],
    ["check", "--grid-n", "256", "--floor", "0"],
])
def test_floor_must_be_finite_and_positive(tmp_path, args):
    report = ["--format", "json"] if args[0] == "check" else []
    res = run_cli(args + report + ["--output-dir", str(tmp_path)], cwd=tmp_path)
    assert_cli_error(res)
    assert "floor must be finite and positive" in res.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["demo-fig2", "--domain-length", "inf"],
    ["demo-fig2", "--c", "inf"],
    ["demo-fig2", "--eps0=-inf"],
    ["locality", "--domain-length", "inf"],
    ["locality", "--hbar", "inf"],
])
def test_non_finite_grid_or_units_exit_1(tmp_path, args):
    res = run_cli(args + ["--grid-n", "1024", "--output-dir", str(tmp_path)],
                  cwd=tmp_path)
    assert_cli_error(res)
    assert "must be finite and positive" in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (["--grid-n", "7"], "n must be a positive even integer"),
    (["--domain-length", "-1"], "length must be finite and positive"),
    (["--pulse-length", "-1"], "pulse_length must be positive"),
    (["--pulse-length", "100"], "shorter than 16 pulse lengths"),
])
def test_check_rejects_a_grid_or_pulse_before_any_suite_runs(capsys, args, message):
    assert cli.main(["check"] + args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_check_prints_the_comparator_of_a_failed_check(monkeypatch, capsys):
    suites = [SuiteResult("planted", [_at_most("planted-at-most", 2.0, 1.0)])]
    monkeypatch.setattr(cli, "run_all_checks", lambda **kwargs: suites)
    assert cli.main(["check"]) == 2
    stdout = capsys.readouterr().out
    assert "  failed: planted-at-most: 2 <= 1 required" in stdout
    assert "NUMERICAL VERIFICATION FAILED" in stdout


def test_unknown_subcommand(tmp_path):
    res = run_cli(["frobnicate"], cwd=tmp_path)
    assert_cli_error(res)
    res = run_cli([], cwd=tmp_path)
    assert_cli_error(res)


def test_main_builds_one_parser_and_reuses_it_after_parser_exits(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    save_state(make_lp_compact(Grid(1, 16.0, 256), 1.0), state_path)
    argv = ["energy", str(state_path), "--plot", "none", "--output-dir", str(tmp_path)]
    cli.build_parser.cache_clear()
    assert cli.main(argv) == 0
    assert cli.main(argv) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["energy", str(state_path), "--format", "xml"])
    assert exc.value.code == 1
    assert cli.main(argv) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["energy", "--help"])
    assert exc.value.code == 0
    assert cli.main(argv) == 0
    assert cli.build_parser.cache_info().misses == 1
    assert "usage: photonloc energy" in capsys.readouterr().out
