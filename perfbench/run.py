"""Benchmark of the emergence CLI: one workload per invocation.

Usage::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \
        --trace 0|1

Run from the repository root; ``all`` runs every workload in turn.
``--trace 0`` measures set-up time over several fresh processes, then runs
the workload's closed loop in one fresh process and prints every end-to-end
metric.  ``--trace 1`` runs the loop
untraced and then traced, each in its own fresh process for half the
seconds, checks that both wrote the same report bytes, and prints every
per-layer metric plus ``trace.overhead``; the spans are kept in
``.perfbench/``.  Each metric is printed as ``name value unit`` with the
environment record; the last line is the JSON result whose metrics are the
ones ``BENCHMARK.json`` lists for the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = workloads.ROOT
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
SETUP_RUNS = 11
# Workload processes get --seconds plus this much in all, so that a run
# that hangs still ends within 180 s at the benchmark's run length.
SLACK_S = 150


def setup_seconds(manifest: Path) -> float:
    """Fresh process start until every spec of the workload is resolved."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                           str(manifest)], stdout=subprocess.PIPE,
                          text=True) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
    if probe.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit {probe.returncode}")
    return elapsed


def run_worker(manifest: Path, seconds: float, name: str, deadline: float,
               spans: Path | None = None) -> dict:
    """One workload process; returns the result it wrote."""
    result = manifest.parent / f"result-{name}.json"
    argv = [sys.executable, str(HERE / "worker.py"), str(manifest),
            str(seconds), str(result)]
    if spans is not None:
        argv.append(str(spans))
    subprocess.run(argv, stdout=subprocess.DEVNULL, check=True,
                   timeout=deadline - time.monotonic())
    return json.loads(result.read_text(encoding="utf-8"))


def timed_run(manifest: Path, seconds: float) -> tuple[dict, dict]:
    setup = [setup_seconds(manifest) for _ in range(SETUP_RUNS)]
    res = run_worker(manifest, seconds, "timed",
                     time.monotonic() + seconds + SLACK_S)
    passes = res["passes"]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "reports_per_s": ((res["attempted"] - res["failed"]) / res["loop_s"],
                          "1/s"),
        "pass_s.p50": (statistics.median(passes), "s"),
        "cpu_s_per_report": (res["cpu_s"] / res["attempted"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        "failed_ratio": (res["failed"] / res["attempted"], "1"),
    }
    # A tail needs at least ten samples beyond it.
    if len(passes) >= 100:
        metrics["pass_s.p90"] = (statistics.quantiles(passes, n=10)[8], "s")
    res["samples"] = f"{SETUP_RUNS} set-up processes, {len(passes)} passes"
    return metrics, res


def traced_run(manifest: Path, seconds: float,
               spans: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + seconds + SLACK_S
    plain = run_worker(manifest, seconds / 2, "plain", deadline)
    res = run_worker(manifest, seconds / 2, "traced", deadline, spans)
    metrics = dict(res["layers"])
    metrics["cli.report_kb"] = (res["report_kib"], "KiB")
    metrics["trace.overhead"] = (
        statistics.median(res["passes"]) / statistics.median(plain["passes"])
        - 1, "1")
    # Tracing must never change the program's output.
    labels = [e["label"] for e in json.loads(manifest.read_text())]
    changed = [label for label, a, b in zip(labels, plain["first_pass"],
                                            res["first_pass"]) if a != b]
    res["failures"] += [f"{label}: traced report differs from the untraced "
                        f"one" for label in changed]
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"] + len(changed)
    res["failures"] += plain["failures"]
    res["samples"] = (f"{len(plain['passes'])} untraced and "
                      f"{len(res['passes'])} traced passes; "
                      f"operator_core.operand_mb is computed from the "
                      f"operands' .matrix.nbytes")
    return metrics, res


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["all", *sorted(workloads.WHY)])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="8-site grids, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    return args


def run_workload(workload: str, args: argparse.Namespace, wanted: list):
    """Measure one workload and print its metrics, then its JSON result."""
    workdir = WORK / f"{workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        manifest = workloads.write_specs(workload, args.seed, workdir,
                                         args.tiny)
        if args.trace:
            spans = WORK / f"spans-{workload}-{args.seed}.json"
            metrics, res = traced_run(manifest, args.seconds, spans)
        else:
            metrics, res = timed_run(manifest, args.seconds)
    finally:
        shutil.rmtree(workdir)
    print(f"workload {workload} seed {args.seed} trace {args.trace}: "
          f"{res['samples']}")
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for reason in res["failures"]:
        print(f"failed {reason}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]}
                    for m in wanted},
    }), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "emergence" / "cli.py").is_file():
        print(f"no emergence sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = listed["per_layer" if args.trace else "end_to_end"]
    for workload in (sorted(workloads.WHY) if args.workload == "all"
                     else [args.workload]):
        run_workload(workload, args, wanted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
