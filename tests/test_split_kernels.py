"""The field-sized 3d kernels split over x-plane halves, bit for bit.

Every elementwise kernel between the transforms runs through
``fields._by_planes``: on a 3d grid the helper thread takes the planes
below n/2 and the caller the rest.  With the split forced on a 16**3 grid
(two usable CPUs and a split threshold of 1, as ``_split_every_pass`` sets
them), each kernel must give the bytes the caller alone gives, and the
helper must run numpy only: every function the benchmark's tracer wraps
runs on the calling thread, since the tracer keeps one span stack.  The
Knight reports, whose cell energies come from contractions on the caller,
are compared too.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import photonloc
from photonloc import (FREQUENCY, BBState, DetectorVolume, Grid, LPState, SpectralField,
                       apply_frequency_power, curl, detector_energy, energy_density,
                       fields, helicity_apply, helicity_parts, helicity_project,
                       helicity_scans, knight_locality_test, magnitude,
                       make_lp_compact, strip_zero_mode, to_frequency, to_position,
                       transversality_residual, transverse_project)

from test_acceptance import REPORT_SHA256  # noqa: E402
from test_energy import _mean_carrying_bb_3d  # noqa: E402
from test_golden import _state_3d  # noqa: E402
from test_transforms import (_random_field_data, _split_every_pass,  # noqa: E402
                             _with_signed_zeros)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GRID = Grid(3, 8.0, 16)


def _energy_states():
    mean = _mean_carrying_bb_3d()
    for state in (_state_3d("lp"), _state_3d("bb"), mean):
        yield state
        yield type(state)(to_frequency(state.field), state.units)


def _outputs(rng) -> dict:
    """The bytes of every split kernel's output on fixed inputs."""
    general = SpectralField(GRID, _with_signed_zeros(_random_field_data(GRID, rng)), FREQUENCY)
    transverse = transverse_project(general)
    out = {
        "magnitude": magnitude(general),
        "curl": curl(general).data,
        "transverse_project": transverse.data,
        "transversality_residual": np.float64(transversality_residual(general)),
        "strip_zero_mode": strip_zero_mode(general).data,
        "helicity_apply": helicity_apply(transverse).data,
        "helicity_parts": np.stack([p.data for p in helicity_parts(transverse)]),
    }
    for s in (0.5, -0.5, 1.0):
        out[f"apply_frequency_power({s})"] = apply_frequency_power(
            general, s, zero_mode="drop").data
    boxes = [DetectorVolume.box((-4.0, -1.5, -2.0), (0.5, 4.0, 1.0)),
             DetectorVolume.ball((0.3, -0.2, 0.1), 2.5)]
    for i, state in enumerate(_energy_states()):
        emap = energy_density(state)
        out[f"energy_density[{i}]"] = emap.values
        out[f"two_path_discrepancy[{i}]"] = np.float64(emap.two_path_discrepancy)
        out[f"detector_energy[{i}]"] = np.array([detector_energy(emap, v) for v in boxes])
        for j, source in enumerate(boxes):
            report = knight_locality_test(emap, source, probe_cells=64)
            out[f"knight[{i}][{j}]"] = np.array([report.detector_energy, report.floor,
                                                 report.n_cells, *report.detector.lo])
    return {name: np.asarray(value).tobytes() for name, value in out.items()}


def test_two_cpus_give_the_bytes_of_one(monkeypatch):
    by_cpus = {}
    for cpus in (2, 1):
        _split_every_pass(monkeypatch, cpus)
        by_cpus[cpus] = _outputs(np.random.default_rng(29))
    assert by_cpus[2].keys() == by_cpus[1].keys()
    assert [k for k in by_cpus[2] if by_cpus[2][k] != by_cpus[1][k]] == []


# --- thread hygiene -----------------------------------------------------------

@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs, with the split forced."""
    _split_every_pass(monkeypatch)
    threads, start = [], threading.Thread.start

    def counted(thread):
        threads.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return threads


def test_1d_energy_density_and_scans_start_no_thread(started):
    grid = Grid(1, 16.0, 256)
    state = make_lp_compact(grid, 1.0)
    energy_density(state)
    helicity_scans(state.field, 0.5)
    assert started == []


def test_3d_calls_leave_no_thread_behind(started):
    before = threading.active_count()
    state = _state_3d("bb")
    emap = energy_density(state)
    knight_locality_test(emap, DetectorVolume.box((-1.0,) * 3, (1.0,) * 3))
    helicity_scans(state.field, 5.0)
    assert started                              # the kernels did split
    assert threading.active_count() == before


def _layers():
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def test_every_traced_layer_runs_on_the_calling_thread(started, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    modules = [m for key, m in sys.modules.items()
               if key == "photonloc" or key.startswith("photonloc.")]
    seen = []
    for module_name, func_name, _, _ in _layers():
        original = getattr(getattr(photonloc, module_name), func_name)

        def spy(*args, _original=original, _name=func_name, **kwargs):
            seen.append((_name, threading.get_ident()))
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)

    pl = photonloc                      # the spied names, as a caller sees them
    state = _state_3d("lp")
    emap = pl.energy_density(state)
    pl.knight_locality_test(emap, DetectorVolume.box((-1.0,) * 3, (1.0,) * 3))
    pl.detector_energy(emap, DetectorVolume.ball((0.5, 0.0, 0.0), 2.0))
    part = pl.helicity_project(pl.strip_zero_mode(state.field), 1)
    pl.helicity_vanishing_scan(to_position(part), 5.0)    # unclaimed: the scan applies L
    pl.transverse_project(state.field)
    pl.bb_from_lp(state)
    pl.lp_from_bb(BBState(state.field), zero_mode="drop")
    assert started
    assert {"energy_density", "helicity_apply", "apply_frequency_power", "_unit_k",
            "detector_energy", "transverse_project"} <= {name for name, _ in seen}
    assert {ident for _, ident in seen} == {threading.get_ident()}


# --- the one-CPU path, end to end --------------------------------------------

@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_one_cpu_report_has_the_pinned_bytes(tmp_path):
    # The child pins itself, and only itself, to one CPU, so every kernel
    # runs whole on the caller; the in-process acceptance run splits them
    # wherever the host has two CPUs.  Both must write the same report.
    script = (
        "import hashlib, os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from photonloc import fields, run_all_checks, write_json\n"
        "assert fields._usable_cpus() == 1\n"
        "results = run_all_checks()\n"
        "write_json(sys.argv[1], {'suites': results,\n"
        "                         'passed': all(s.passed for s in results)})\n")
    path = tmp_path / "check_report.json"
    env = dict(os.environ)
    src = str(Path(photonloc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", script, str(path)], env=env, timeout=600,
                   check=True)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_SHA256
