"""Acceptance criteria.

Each test takes one verification suite, prints a single PASS/FAIL line
(with the failing measurements, if any), and asserts that every check in
the suite holds at its stated tolerance.  The suites run once per session
at the committed default parameters: corpus grids of 4096 points (1d) and
64**3 points (3d) on a box of 16, pulse length 1, natural units, 50 random
fields per corpus.

The same run also pins the bytes of the report that ``photonloc check
--format json`` writes at these defaults.  Like the golden files, the pin
holds for numpy 2.4.6 with its bundled pocketfft on an x86-64 CPU where
numpy dispatches its AVX512 kernels.  A change that
alters the report's bytes updates ``REPORT_SHA256`` and says why.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from photonloc import run_all_checks, write_json

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

REPORT_SHA256 = "40cfa5b6d1c0eeb517ec183a07d0f90bca80b8c410c79c9762aa223a0dcd8aab"

CRITERIA = [
    ("01", "operator-algebra"),
    ("02", "isomorphism"),
    ("03", "two-path-energy"),
    ("04", "parseval-energy"),
    ("05", "figure-truth-table"),
    ("06", "nonlocality-floor"),
    ("07", "tail-quantification"),
    ("08", "vector-potential-locality"),
    ("09", "lemma-witnesses"),
    ("10", "determinism-evolution"),
]


@pytest.fixture(scope="module")
def results():
    return run_all_checks(grid_n=4096, domain=16.0, pulse_length=1.0, seed=7)


@pytest.fixture(scope="module")
def suites(results):
    return {suite.name: suite for suite in results}


def _report(number, suite):
    status = "PASS" if suite.passed else "FAIL"
    print(f"ACCEPTANCE {number} {suite.name}: {status} "
          f"({len(suite.checks)} checks)")
    for check in suite.failures():
        print(f"    failed: {check.name}: measured {check.value:.6g}, "
              f"required {check.comparator} {check.bound:.6g}")
    assert suite.passed, f"criterion {number} ({suite.name}) failed"


@pytest.mark.parametrize("number,name", CRITERIA,
                         ids=[f"{n}-{name}" for n, name in CRITERIA])
def test_acceptance_criterion(suites, number, name):
    assert name in suites, f"missing verification suite {name!r}"
    _report(number, suites[name])


def test_every_suite_is_covered(suites):
    assert sorted(suites) == sorted(name for _, name in CRITERIA)


def test_default_report_bytes_are_pinned(results, tmp_path):
    path = tmp_path / "check_report.json"
    write_json(path, {"suites": results,
                      "passed": all(suite.passed for suite in results)})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_SHA256


def test_the_benchmark_reads_the_suites_in_this_order(results, monkeypatch):
    """The benchmark's ``verify`` workload counts an op as incorrect unless
    run_all_checks returns exactly its ``SUITES``, in order."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert tuple(suite.name for suite in results) == workloads.SUITES
