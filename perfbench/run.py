"""Run one benchmark workload, or all of them, and print the metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dedup-salsh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with no tracing
installed. ``--trace 1`` runs the workload untraced, then again with
span wrappers around every layer, and reports the per-layer metrics and
the tracing overhead. ``--workload all`` runs every workload in its own
process, one after the other, and prints every metric by name and unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, prefixed ``perfbench-detail``, holds every metric the workload
measured plus provenance. A failed correctness check or library error
exits with code 1; a missing library source exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of a run (corpus CSVs, resolver state) and the span
#: files of traced runs; inside the checkout, ignored by git.
OUT = ROOT / ".perfbench_out"
DETAIL_PREFIX = "perfbench-detail "
WORKLOAD_NAMES = ("dedup-salsh", "dedup-metablock", "serve-journaled")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def provenance(seed: int) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload_seed": seed,
    }


def measure(args, spec) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail line)."""
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = spans.Tracer()
    workload = None
    detail = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(args.seed)}
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        if args.trace:
            # Untraced then traced passes, half the window each; the
            # process is warm by the time the traced passes start.
            half = args.seconds / 2
            base = workload.run(half, tracer)
            spans.install_layer_spans(tracer)
            try:
                traced = workload.run(half, tracer, warm_up=False)
            finally:
                tracer.uninstall()
            workloads.check(
                traced.fingerprint == base.fingerprint,
                "the traced passes produced other outputs than untraced",
            )
            overhead = (base.metrics["records_per_s"][0]
                        / traced.metrics["records_per_s"][0]) - 1.0
            values = spans.layer_metrics(
                tracer, traced.passes, traced.window_seconds, overhead
            )
            metrics = {name: (values[name], unit)
                       for name, unit in spans.LAYER_METRICS.items()}
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_file)
            detail["spans_file"] = str(spans_file.relative_to(ROOT))
            run = traced
            detail["untraced_passes"] = base.passes
        else:
            run = workload.run(args.seconds, tracer)
            metrics = dict(run.metrics)
        # Any failed call or error answer fails the run (see
        # workloads.py), so a run that gets here succeeded throughout.
        metrics["success_share"] = (1.0, "ratio")
        detail["provenance"].update(run.provenance)
        correct = True
    except workloads.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    except Exception:  # a library call failed: report, exit 1
        traceback.print_exc()
        correct, metrics = False, {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if correct and missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        correct = False
    detail["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }
    attempted = (workload.passes_started * workload.calls_per_pass
                 if workload is not None else 0)
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": 0 if correct else 1,
        "metrics": {} if not correct else {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted
        },
    }
    return result, detail


def print_table(workload: str, metrics: dict) -> None:
    print(f"== {workload}")
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:>16.6g} {entry['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, capture_output=True, text=True,
                                   check=False)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.splitlines()
        detail = next((json.loads(line[len(DETAIL_PREFIX):])
                       for line in lines if line.startswith(DETAIL_PREFIX)),
                      None)
        if completed.returncode != 0 or detail is None:
            print(f"== {name}: FAILED (exit {completed.returncode})")
            status = 1
            continue
        print_table(name, detail["metrics"])
        print(f"  provenance: {json.dumps(detail['provenance'])}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library source not found at {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result, detail = measure(args, load_spec())
    if result["correct"]:
        print_table(args.workload, detail["metrics"])
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
