"""photonloc benchmark: one workload per process, closed loop, one client.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify|field3d|figure1d \
        --seed N --seconds S --trace 0|1

The run builds its inputs from the seed, runs operations back to back until
their summed time reaches ``--seconds`` (at least one operation, and whole
batches), checks every operation's output, and prints one metric per line
followed, as the last line, by a JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, op time in units of a reference kernel
timed alongside (see hostclock.py); with ``--trace 1`` every layer function is
wrapped (see tracing.py) and the metrics are the per-layer ones, per op, and
the spans are written to ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"
# Set-ups timed per run: the run's own, then half of the rest in fresh
# processes before the ops and half after them, so that they sample the
# host's speed over the whole run.  The median is reported, so that one slow
# set-up (such as the first run's bytecode compile) does not decide it.
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

NPROC = len(os.sched_getaffinity(0))
for _var in THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = str(NPROC)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "field3d", "figure1d"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a child process times one set-up and prints its seconds.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_source():
    if not (ROOT / "src" / "photonloc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no photonloc source under {ROOT / 'src'}; "
                 "run from the root of a photonloc checkout")
    sys.path.insert(0, str(ROOT / "src"))


def timed_setup(name: str, seed: int, workdir: str):
    """Import, grid construction and input generation, timed together."""
    start = perf_counter()
    import photonloc  # noqa: F401
    import workloads
    workload = workloads.make(name, seed, workdir)
    workload.setup()
    return workload, perf_counter() - start


def setup_in_child(name: str, seed: int) -> float:
    out = subprocess.run([sys.executable, __file__, "--setup-only", "--workload", name,
                          "--seed", str(seed)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def l3_bytes():
    """Largest level-3 cache of cpu0, from sysfs (None where unavailable)."""
    sizes = []
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                sizes.append(int(size.rstrip("K")) * 1024)
        except (OSError, ValueError):
            continue
    return max(sizes) if sizes else None


def stamp(workload) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "photonloc").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    l3 = l3_bytes()
    return {
        "commit": git_commit(), "src_sha256": source.hexdigest(),
        "nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "l3_bytes": l3, "field_bytes": workload.field_bytes,
        "field_over_l3": workload.field_bytes / l3 if l3 else None,
        "file_writes": "timed through the page cache, no fsync",
    }


def measure(workload, seconds: float, tracer=None, clock=None):
    """Closed loop, one client: the next op starts when the last one is
    checked.  Returns per-op durations and the number of failed ops; with a
    ``HostClock``, also appends each op's time in reference units to
    ``clock.ratios``."""
    durations, failed = [], 0
    i = 0
    while not durations or sum(durations) < seconds or i % workload.batch:
        workload.prepare(i)
        if tracer is not None:
            tracer.op = i
            root = tracer.open("op")
        spent = clock.spent if clock is not None else 0.0
        start = perf_counter()
        try:
            result = workload.op(i)
            problems = None
        except Exception:
            problems = [traceback.format_exc()]
        end = perf_counter()
        if clock is None:
            durations.append(end - start)
        else:
            durations.append(end - start - (clock.spent - spent))
            clock.ratios.append(durations[-1] / clock.reference(start, end))
        if tracer is not None:
            tracer.close(root)
        if problems is None:
            try:
                problems = workload.check(i, result)
            except Exception:
                problems = [traceback.format_exc()]
        if problems:
            failed += 1
            print(f"{workload.name} op {i} FAILED: " + "; ".join(problems), flush=True)
        i += 1
    return durations, failed


def tail(durations):
    """Highest percentile with at least ten ops beyond it, or None while
    that percentile would not lie above the median."""
    n = len(durations)
    if n <= 20:
        return None
    return sorted(durations)[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    RUN_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        if args.setup_only:
            print(timed_setup(args.workload, args.seed, workdir)[1])
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir) -> int:
    workload, first_setup = timed_setup(args.workload, args.seed, workdir)
    print("stamp " + json.dumps(stamp(workload), sort_keys=True), flush=True)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    children = (SETUP_REPEATS - 1) // 2
    setups = [first_setup]
    if tracer is None:
        setups += [setup_in_child(args.workload, args.seed) for _ in range(children)]
        import hostclock
        with hostclock.HostClock() as clock:
            durations, failed = measure(workload, args.seconds, clock=clock)
    else:
        durations, failed = measure(workload, args.seconds, tracer)
    n = len(durations)
    result = {"correct": failed == 0, "attempted": n, "failed": failed}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} ops={n}")
    print(f"error_rate {failed / n:.6g} (failed/attempted = {failed}/{n})")
    print("op_s " + " ".join(f"{d:.4g}" for d in durations))

    if tracer is not None:
        units = tracing.metric_units()
        values = tracer.metrics(n, sum(durations))
        spans_path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "ops": n})
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        units = {"setup_s": "s", "op_p50_ref": "ref", "peak_rss_mb": "MB"}
        setups += [setup_in_child(args.workload, args.seed)
                   for _ in range(SETUP_REPEATS - 1 - children)]
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_ref": statistics.median(clock.ratios),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        ref = [s for _, s in clock.samples]
        q1, q2, q3 = statistics.quantiles(ref, n=4)
        print(f"reference kernel {q2 * 1e3:.4g} ms median [{q1 * 1e3:.4g}, {q3 * 1e3:.4g}] "
              f"over {len(ref)} samples, {clock.spent:.3g} s taken out of op times")
        print(f"setup_s is the median of {len(setups)} set-ups; op_p50_ref of {n} ops")
        # Printed, not gated: in seconds they follow the shared host's speed.
        print(f"ops_per_s {n / sum(durations):.6g} 1/s")
        print(f"op_p50_s {statistics.median(durations):.6g} s (n={n})")
        slow = tail(durations)
        print(f"op_tail_s {slow[0]:.6g} s (p{slow[1]:.4g}, n={n})" if slow
              else f"op_tail_s undefined (n={n}; needs more than 20 ops)")
    for name, unit in units.items():
        print(f"{name:<52} {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
