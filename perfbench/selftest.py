"""Self-test of the benchmark's output checks.

Plants a wrong output into each workload and requires that every affected
op counts as failed (and that the run goes on), with the expected reason;
an unplanted figure1d run must pass.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It takes about half a minute (field3d runs at 96^3 here, not 128^3).
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from unittest import mock

import run

run.require_source()

import photonloc as pl  # noqa: E402
from photonloc import cli  # noqa: E402
from photonloc.checks import CheckResult, SuiteResult  # noqa: E402

import workloads  # noqa: E402


def drop_last_column(path, columns):
    if path.endswith("energy.csv"):
        columns = columns[:-1]
    return pl.write_csv(path, columns)


def failing_report(seed):
    suites = [SuiteResult(name, [CheckResult("ok", 0.0, 1.0, "<", True)])
              for name in workloads.SUITES]
    suites[0] = SuiteResult(suites[0].name, [CheckResult("planted", 2.0, 1.0, "<", False)])
    return suites


def raise_error(argv=None):
    raise RuntimeError("planted crash")


def main() -> int:
    run.RUN_DIR.mkdir(exist_ok=True)
    exact_energy = pl.total_energy
    with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as workdir:
        cases = [
            ("figure1d unplanted", workloads.Figure1d(1, workdir), None, None),
            ("figure1d energy.csv corrupted", workloads.Figure1d(2, workdir),
             mock.patch.object(cli, "write_csv", drop_last_column),
             "differs from panel_a.csv"),
            ("figure1d exit code 1", workloads.Figure1d(3, workdir),
             mock.patch.object(cli, "cmd_energy", lambda args: 1), "exit codes"),
            ("figure1d crash", workloads.Figure1d(4, workdir),
             mock.patch.object(cli, "main", raise_error), "planted crash"),
            ("verify failing suite", workloads.Verify(5),
             mock.patch.object(pl, "run_all_checks", failing_report),
             "suite operator-algebra failed"),
            ("field3d energy off by 1e-6", workloads.Field3d(6, n=96),
             mock.patch.object(pl, "total_energy",
                               lambda emap: exact_energy(emap) * (1.0 + 1e-6)),
             "total energy"),
        ]
        bad = 0
        for label, workload, planted, reason in cases:
            workload.setup()
            log = io.StringIO()
            with contextlib.redirect_stdout(log), (planted or contextlib.nullcontext()):
                durations, failed = run.measure(workload, 0.0)
            if reason is None:
                ok = failed == 0
            else:
                ok = failed == len(durations) == workload.batch and reason in log.getvalue()
            bad += not ok
            print(f"{'PASS' if ok else 'FAIL'} {label}: {failed}/{len(durations)} ops failed")
            if not ok:
                print(log.getvalue()[-2000:])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
