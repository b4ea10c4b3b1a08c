"""Byte-exact golden outputs of the command-line interface.

Each case runs ``photonloc.cli.main`` in-process into a temporary directory
and compares every file it writes, byte for byte, with its copy under
``tests/golden/``.  A change that promises identical output leaves every
case passing; a change meant to alter an output regenerates only the golden
files concerned, and their diff is the record of what changed.

The bytes are pinned to numpy 2.4.6 with its bundled pocketfft on an
x86-64 CPU where numpy dispatches its AVX512 (X86_V4) kernels: their fused
multiply-adds round a complex product differently from the scalar loop, so
a CPU with a lower feature level may differ in a last bit even with the
same numpy.  Another numpy version, FFT backend or CPU may round a last bit
differently, and the test then fails: there is no tolerance and no skip.

The inputs are built here: the 1d states are the lp-compact and bb-compact
states that ``demo-fig2-csv`` saves, and the 3d ones are 16^3 LP and BB
states made from the spectral curl of a Gaussian vector potential, so no
large state file is committed.

Regenerate all cases, or the named ones, with

    PYTHONPATH=src python tests/test_golden.py [CASE ...]
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from photonloc import (BBState, Grid, LPState, SpectralField, cli, curl,
                       make_bb_compact, make_lp_compact, normalize, save_state)

GOLDEN = Path(__file__).resolve().with_name("golden")

CASES = {
    "check": ["check", "--grid-n", "256", "--format", "json"],
    "demo-fig2-csv": ["demo-fig2", "--grid-n", "1024", "--plot", "none"],
    "demo-fig2-json": ["demo-fig2", "--grid-n", "1024", "--format", "json",
                       "--plot", "none"],
    "energy-1d": ["energy", "state_c.json"],
    "energy-1d-log": ["energy", "state_c.json", "--log-scale"],
    "locality-1d": ["locality", "state_a.json"],
    "energy-3d-lp": ["energy", "state_3d_lp.json", "--format", "json"],
    "energy-3d-bb": ["energy", "state_3d_bb.json", "--format", "json"],
    "locality-3d-lp-ball": ["locality", "state_3d_lp.json", "--source-volume=0,0,0,3"],
    "locality-3d-lp-box": ["locality", "state_3d_lp.json", "--source-volume=-2,-2,-2,2,2,2"],
    "locality-3d-bb-ball": ["locality", "state_3d_bb.json", "--source-volume=0,0,0,3"],
    "locality-3d-bb-box": ["locality", "state_3d_bb.json", "--source-volume=-2,-2,-2,2,2,2"],
}

# Files a case writes that repeat another golden file byte for byte: the
# log-scale panels d-f hold the data of a-c, both demo runs save the same
# states, and a log-scale energy plot writes the same table as the linear one.
ALIASES = {
    "demo-fig2-csv": {f"panel_{log}.csv": f"demo-fig2-csv/panel_{lin}.csv"
                      for log, lin in zip("def", "abc")},
    "demo-fig2-json": {f"states/state_{s}.json": f"demo-fig2-csv/states/state_{s}.json"
                       for s in "abc"},
    "energy-1d-log": {"energy.csv": "energy-1d/energy.csv"},
}


def _state_3d(representation: str, n: int = 16):
    """An n^3 state on a box of 16 (16^3 by default): the curl of a Gaussian
    vector potential whose three components sit at slightly different
    centres."""
    grid = Grid(3, 16.0, n)
    x = grid.axis
    centres = ((0.5, 0.0, 0.0), (0.0, -0.5, 0.0), (0.0, 0.0, 0.25))
    potential = np.stack([
        np.exp(-((x[:, None, None] - cx) ** 2 + (x[None, :, None] - cy) ** 2
                 + (x[None, None, :] - cz) ** 2) / (2.0 * 1.5 ** 2))
        for cx, cy, cz in centres])
    field = curl(SpectralField(grid, potential))
    return normalize(LPState(field) if representation == "lp" else BBState(field))


def _inputs(tmp: Path) -> Path:
    """A directory holding every input state.  Cases run from it and name
    their inputs relative to it, since a locality report records the path."""
    grid = Grid(1, 16.0, 1024)
    save_state(make_lp_compact(grid, 1.0), tmp / "state_a.json")
    save_state(make_bb_compact(grid, 1.0), tmp / "state_c.json")
    for rep in ("lp", "bb"):
        save_state(_state_3d(rep), tmp / f"state_3d_{rep}.json")
    return tmp


def _run(case: str, out: Path, inputs: Path):
    argv = CASES[case] + ["--output-dir", str(out)]
    cwd = os.getcwd()
    os.chdir(inputs)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{case} exited {code}"


def _written(out: Path) -> list:
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())


def _golden_path(case: str, rel: str) -> Path:
    return GOLDEN / ALIASES.get(case, {}).get(rel, f"{case}/{rel}")


def _json_difference(got, want, path="$"):
    """Path and values of the first differing JSON entry, or None."""
    if type(got) is not type(want):
        return f"{path}: got {got!r}, want {want!r}"
    if isinstance(got, dict):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                return f"{path}.{key}: present in only one file"
            diff = _json_difference(got[key], want[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(got, list):
        for i, (g, w) in enumerate(zip(got, want)):
            diff = _json_difference(g, w, f"{path}[{i}]")
            if diff:
                return diff
        if len(got) != len(want):
            return f"{path}: length {len(got)}, want {len(want)}"
        return None
    return None if got == want else f"{path}: got {got!r}, want {want!r}"


def _first_difference(name: str, got: bytes, want: bytes) -> str:
    if name.endswith(".json"):
        diff = _json_difference(json.loads(got), json.loads(want))
        if diff:
            return f"first differing JSON key {diff}"
    got_lines = got.decode().splitlines()
    want_lines = want.decode().splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"first differing line {i + 1}:\n  got:  {g[:200]}\n  want: {w[:200]}"
    return f"{len(got_lines)} lines, want {len(want_lines)}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _inputs(tmp_path_factory.mktemp("golden-inputs"))


@pytest.mark.parametrize("case", list(CASES))
def test_output_matches_golden_bytes(case, inputs, tmp_path):
    out = tmp_path / case
    _run(case, out, inputs)
    written = _written(out)
    expected = sorted(set(ALIASES.get(case, {}))
                      | set(_written(GOLDEN / case)))
    assert written == expected
    for rel in written:
        got = (out / rel).read_bytes()
        want = _golden_path(case, rel).read_bytes()
        if got != want:
            pytest.fail(f"{case}/{rel}: {_first_difference(rel, got, want)}")


def _regenerate(names):
    with tempfile.TemporaryDirectory() as tmp:
        inputs = _inputs(Path(tmp))
        for case in names:
            out = Path(tmp) / "out" / case
            _run(case, out, inputs)
            shutil.rmtree(GOLDEN / case, ignore_errors=True)
            for rel in _written(out):
                if rel not in ALIASES.get(case, {}):
                    target = GOLDEN / case / rel
                    target.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(out / rel, target)
            print(f"regenerated {GOLDEN / case}")


if __name__ == "__main__":
    _regenerate(sys.argv[1:] or list(CASES))
