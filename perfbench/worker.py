"""The workload process: one closed-loop client calling the CLI in-process.

Usage: ``python3 perfbench/worker.py MANIFEST SECONDS RESULT [SPANS]``.

Passes over the manifest's specs run back to back until SECONDS have
elapsed (at least one pass); each report starts only once the previous one
is written.  Every report then goes through the correctness gate.  With
SPANS given, the layers are traced and the spans are written there.  The
result, including the environment record, is written as JSON to RESULT.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import jsonschema
import numpy

ROOT = Path(__file__).resolve().parent.parent
REPORT_SCHEMA = ROOT / "src" / "emergence" / "schemas" / "report.schema.json"


def _certificates(node):
    """Every certificate object anywhere in a report."""
    if isinstance(node, dict):
        if "max_functional_residual" in node:
            yield node
        for value in node.values():
            yield from _certificates(value)
    elif isinstance(node, list):
        for value in node:
            yield from _certificates(value)


def check_content(entry: dict, data: bytes, validator) -> str | None:
    """Why a report's bytes fail the gate, or None when they pass."""
    report = json.loads(data)
    error = next(iter(validator.iter_errors(report)), None)
    if error is not None:
        return f"report violates the schema: {error.message}"
    if any(c.get("passed") is not True for c in _certificates(report)):
        return "a certificate did not pass"
    if entry["error_type"] is not None:
        found = report.get("error", {}).get("type")
        if found != entry["error_type"]:
            return f"error type {found}, expected {entry['error_type']}"
    return None


def gate(manifest: list, records: list, reports: dict) -> list:
    """The failure reason of each record, None where the report passed.

    A record is ``(index, exit code, sha256)``; ``reports`` maps each sha256
    to its bytes.  A report must exit as its entry expects, match the bytes
    its spec gave in the first pass, validate against the report schema and
    carry only passing certificates.
    """
    validator = jsonschema.Draft7Validator(
        json.loads(REPORT_SCHEMA.read_text(encoding="utf-8")))
    first, verdicts, reasons = {}, {}, []
    for index, code, digest in records:
        entry = manifest[index]
        first.setdefault(index, digest)
        if code != entry["exit_code"]:
            reasons.append(f"{entry['label']}: exit {code}, "
                           f"expected {entry['exit_code']}")
        elif digest is None:
            reasons.append(f"{entry['label']}: no report written")
        elif digest != first[index]:
            reasons.append(f"{entry['label']}: report differs from the "
                           f"first pass")
        else:
            if digest not in verdicts:
                verdicts[digest] = check_content(entry, reports[digest],
                                                 validator)
            reason = verdicts[digest]
            reasons.append(reason and f"{entry['label']}: {reason}")
    return reasons


def run_loop(manifest: list, seconds: float, workdir: Path, main) -> dict:
    """Run whole passes until ``seconds`` have elapsed; gate every report."""
    records, reports, passes = [], {}, []
    outs = [str(workdir / f"report-{i}.json") for i in range(len(manifest))]
    cpu0 = os.times()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, entry in enumerate(manifest):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(outs[i])
            argv = ["--config", entry["config"], "--out", outs[i],
                    *entry["args"]]
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
            except Exception as exc:  # a crash is a failed report
                code = f"raised {type(exc).__name__}: {exc}"
            try:
                with open(outs[i], "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                records.append((i, code, None))
                continue
            digest = hashlib.sha256(data).hexdigest()
            reports.setdefault(digest, data)
            records.append((i, code, digest))
        passes.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start >= seconds:
            break
    loop_s = time.perf_counter() - start
    cpu1 = os.times()
    reasons = gate(manifest, records, reports)
    sizes = [len(reports[d]) for _, _, d in records if d is not None]
    return {
        "passes": passes,
        "loop_s": loop_s,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "attempted": len(records),
        "failed": sum(r is not None for r in reasons),
        "failures": sorted({r for r in reasons if r is not None}),
        "first_pass": [d for _, _, d in records[:len(manifest)]],
        "report_kib": sum(sizes) / 1024 / max(len(sizes), 1),
    }


def _git_commit() -> str | None:
    # The ceiling keeps git from reporting an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    """Versions, BLAS build and threading variables as found, and the host."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "jsonschema": metadata.version("jsonschema"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def main(argv: list[str]) -> int:
    manifest_path, seconds, result_path, *spans_path = argv
    sys.path.insert(0, str(ROOT / "src"))
    from emergence import cli

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    result = run_loop(manifest, float(seconds), Path(manifest_path).parent,
                      cli.main)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics(len(result["passes"]),
                                          sum(result["passes"]))
        tracer.dump(spans_path[0])
    result["environment"] = environment()
    Path(result_path).write_text(json.dumps(result, indent=1) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
