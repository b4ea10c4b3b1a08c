"""Repeated runs of the benchmark, summarised.

From the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 --traced-seeds 1,2 \
        --out perfbench/baseline.json [--compare earlier.json]

runs ``run.py`` once per workload and seed with tracing off (for
``run_seconds`` from BENCHMARK.json), then once per traced seed with
tracing on, one process at a time.  For each end-to-end metric it records
the values, median, quartiles and spread (interquartile distance over the
median) against the metric's bound, and how far seed B (the second seed)
lies from seed A (the first).  For the traced runs it records the
per-layer table, whether every count repeats exactly between the traced
seeds, and the tracing overhead (untraced over traced ops per second).
With ``--compare`` it also reports each median's change from an earlier
summary against the bound.  The summary is rewritten after every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int):
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {out.returncode}: "
                           f"{out.stderr[-2000:]}")
    stamp = next((json.loads(line[6:]) for line in lines if line.startswith("stamp ")), None)
    rate = next((float(line.split()[1]) for line in lines if line.startswith("ops_per_s ")), None)
    return json.loads(lines[-1]), stamp, rate


def summarise(values: list, bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else None
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "spread_over_bound": spread / bound if spread is not None else None}


def worse_by(new: float, old: float, better: str) -> float:
    """Relative worsening of ``new`` against ``old`` (negative when better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--traced-seeds", type=seed_list, default=[])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else None

    summary = {"run_seconds": seconds, "seeds": args.seeds,
               "traced_seeds": args.traced_seeds, "stamp": None, "workloads": {}}

    def save():
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")

    for name in (w["name"] for w in spec["workloads"]):
        entry = summary["workloads"][name] = {"runs": [], "end_to_end": {}, "traced": []}
        runs, rates = [], []
        for seed in args.seeds:
            result, stamp, rate = one_run(name, seed, seconds, 0)
            summary["stamp"] = summary["stamp"] or stamp
            runs.append(result["metrics"])
            rates.append(rate)
            entry["runs"].append({"seed": seed, "ops_per_s": rate, **{
                k: result[k] for k in ("correct", "attempted", "failed")}})
            entry["end_to_end"] = {m: summarise([r[m]["value"] for r in runs], e2e[m]["bound"])
                                   for m in e2e}
            save()
        if len(runs) > 1:
            entry["seed_b_vs_a"] = {}
            for m in e2e:
                change = worse_by(runs[1][m]["value"], runs[0][m]["value"], e2e[m]["better"])
                entry["seed_b_vs_a"][m] = {"worse_by": change, "bound": e2e[m]["bound"],
                                           "within": change <= e2e[m]["bound"]}

        traced = entry["traced"]
        for seed in args.traced_seeds:
            result, _, _ = one_run(name, seed, seconds, 1)
            traced.append({"seed": seed, "correct": result["correct"],
                           "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            save()
        if traced:
            untraced = statistics.median(rates)
            traced_rate = statistics.median(t["metrics"]["trace.ops_per_s"] for t in traced)
            entry["trace_overhead"] = {"untraced_ops_per_s": untraced,
                                       "traced_ops_per_s": traced_rate,
                                       "slowdown": untraced / traced_rate}
            entry["traced_counts_differ"] = sorted(
                m for m, unit in units.items() if unit in ("count", "B")
                and len({t["metrics"][m] for t in traced}) > 1)
        if earlier and name in earlier["workloads"]:
            old = earlier["workloads"][name]["end_to_end"]
            entry["against_earlier"] = {
                m: {"worse_by": worse_by(entry["end_to_end"][m]["median"], old[m]["median"],
                                         e2e[m]["better"]),
                    "bound": e2e[m]["bound"]}
                for m in e2e if m in old}
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
