"""Steadiness check: run each workload many times and report the spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads serve-journaled --runs 5

Run ``i`` of a set uses seed ``--first-seed + i``; every set reuses the
same seeds, so a second set measures the same inputs again. For each
workload and metric the tool prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread — the
distance between the quartiles as a share of the median — and the
metric's bound. It then lists every metric whose spread is wider than
its bound, every metric whose median in a later set is worse than the
first set's by more than the bound, and every quality metric that is
not identical between sets.
Exits 1 when any run fails or anything is listed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DETAIL_PREFIX = "perfbench-detail "

#: Workload-specific metrics that are not in BENCHMARK.json's
#: end-to-end list (each is measured by one workload only):
#: name -> (better, bound).
EXTRA_METRICS = {
    "ops_per_s": ("higher", 0.25),
    "resolve_p50_ms": ("lower", 0.25),
    "resolve_p99_ms": ("lower", 0.25),
    "write_p50_ms": ("lower", 0.25),
    "write_p99_ms": ("lower", 0.5),
    "recover_s": ("lower", 0.25),
}
#: Metrics that depend only on the inputs and must repeat exactly.
EXACT = ("pc", "pq", "match_precision", "match_recall", "success_share")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's detail record (metrics and provenance)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    completed = subprocess.run(command, capture_output=True, text=True,
                               cwd=ROOT, check=False)
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if completed.returncode != 0 or not result.get("correct"):
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {completed.returncode})")
    return next(json.loads(line[len(DETAIL_PREFIX):]) for line in lines
                if line.startswith(DETAIL_PREFIX))


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    if not first:
        return 0.0
    loss = first - second if better == "higher" else second - first
    return loss / abs(first)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update(EXTRA_METRICS)
    workloads = (
        [w["name"] for w in spec["workloads"]] if args.workloads == "all"
        else args.workloads.split(",")
    )
    findings = []
    for workload in workloads:
        medians = []
        for number in range(args.sets):
            samples: dict[str, list[float]] = {}
            for offset in range(args.runs):
                seed = args.first_seed + offset
                detail = run_once(workload, seed, args.seconds, trace=0)
                print(f"# {workload} set {number + 1} seed {seed}: "
                      + json.dumps(detail), flush=True)
                for name, entry in detail["metrics"].items():
                    samples.setdefault(name, []).append(entry["value"])
            print(f"== {workload} set {number + 1} ({args.runs} runs, "
                  f"{args.seconds} s each)")
            print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} "
                  f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
            set_medians = {}
            for name, values in samples.items():
                better, bound = rules[name]
                median, q1, q3, spread = summarise(values)
                set_medians[name] = (median, values)
                flag = ""
                if spread > bound:
                    flag = "WIDE"
                    findings.append(f"{workload} {name}: spread "
                                    f"{spread:.4f} > bound {bound}")
                elif spread > bound / 3:
                    flag = "over a third of bound"
                print(f"  {name:18s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.4f} {bound:6.2f} {flag}")
            medians.append(set_medians)
        for number, later in enumerate(medians[1:], start=2):
            for name, (median, values) in later.items():
                first_median, first_values = medians[0][name]
                better, bound = rules[name]
                drift = worse_by(first_median, median, better)
                print(f"  set {number} vs 1: {name:18s} worse by "
                      f"{drift:+.4f} (bound {bound})")
                if drift > bound:
                    findings.append(f"{workload} {name}: set {number} median "
                                    f"worse by {drift:.4f} > {bound}")
                if name in EXACT and values != first_values:
                    findings.append(f"{workload} {name}: set {number} values "
                                    "differ from set 1")
    if findings:
        print("Findings:")
        for finding in findings:
            print(f"  {finding}")
        return 1
    print("Every spread is within its bound.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
