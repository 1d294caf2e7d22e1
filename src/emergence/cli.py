"""Batch front door: load a scenario, run it, emit a versioned report.

One scenario per invocation.  Exit codes:

* 0: every certificate passed,
* 1: a certificate failed at the requested tolerance,
* 2: synthesis refused (a precondition failed; the report carries the error),
* 64: usage or configuration problems, a report path that cannot be
  written included,
* 70: an internal error (any other exception while running or emitting;
  the traceback goes to stderr and no report is written).

Reports are deterministic for a given config (no timestamps, sorted keys,
residuals written as kernel-independent bounds) and written atomically, so
interrupted runs never leave partial files.
Environment variables are never consulted.  On glibc, :func:`main` sets
the C allocator's thresholds once per process (:func:`_keep_heap_warm`);
reports do not depend on it.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import platform
import sys
import traceback
from dataclasses import dataclass, replace
from importlib import resources

from . import __version__
from .engine import json_form
from .errors import BadSpec, EmergenceError, ParseError, SchemaError
from .scenarios import SCENARIO_RUNNERS, ScenarioSpec, run_scenario_spec
from .schema import _schema, _validate

LIBRARY_VERSION = __version__
REPORT_VERSION = _schema("report.schema.json")["properties"][
    "report_version"]["const"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70  # sysexits' EX_SOFTWARE

# --- configuration -------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """A resolved invocation: the spec plus output plumbing."""

    spec: ScenarioSpec
    out: str | None = None
    format: str = "json"
    jobs: int | None = None

    def __post_init__(self):
        if self.format not in ("json", "text"):
            raise SchemaError(f"unknown report format {self.format!r}")


def shipped_config_path(name: str) -> str:
    """Filesystem path of a shipped scenario config (by scenario name)."""
    path = resources.files("emergence").joinpath("configs", f"{name}.json")
    if not path.is_file():
        raise SchemaError(f"no shipped config named {name!r}")
    return str(path)


def load_config(path: str) -> ScenarioSpec:
    """Read, parse, and resolve a scenario spec file; a spec the scenario
    schema refuses raises SchemaError.

    Defaults (samples=100, tol=1e-8, seed=42) come from the spec dataclass;
    the returned value is fully resolved.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"config {path} is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})")
    try:
        return ScenarioSpec.from_dict(data)
    except BadSpec as exc:
        raise SchemaError(f"config {path} violates the scenario schema "
                          f"at {exc}")


# --- reports -------------------------------------------------------------------------


def _error_record(exc: EmergenceError) -> dict:
    """The error's type, message and each attribute it carries (residual,
    gap, frequency, evidence) in JSON form, unless None or empty."""
    record = {key: json_form(value) for key, value in vars(exc).items()}
    return {"type": type(exc).__name__, "message": str(exc),
            **{key: value for key, value in record.items()
               if value not in (None, [], {})}}


def build_report(spec: ScenarioSpec, result=None,
                 error: EmergenceError | None = None) -> dict:
    """The report of ``spec``'s run: its ``result`` or its ``error``; the
    spec hash is the result's, computed once per run."""
    status = "error" if error is not None \
        else ("passed" if result.passed else "failed")
    report = {
        "report_version": REPORT_VERSION,
        "library_version": LIBRARY_VERSION,
        "spec_hash": spec.spec_hash() if result is None else result.spec_hash,
        "config": spec.canonical_dict(),
        "status": status,
    }
    if result is not None:
        report["result"] = result.to_json_dict()
    if error is not None:
        report["error"] = _error_record(error)
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_text(report: dict) -> str:
    lines = [f"scenario {report['config']['name']}: {report['status']}",
             f"spec hash {report['spec_hash']}"]
    result = report.get("result")
    if result is not None:
        lines.append(f"round-trip max {result['round_trip_max']:.3e} over "
                     f"{len(result['samples'])} instance(s)")
        for cert in result["certificates"]:
            verdict = "pass" if cert["passed"] else "FAIL"
            lines.append(
                f"certificate [{verdict}] {cert['samples']} samples, "
                f"functional {cert['max_functional_residual']:.3e}, "
                f"operator {cert['max_operator_residual']:.3e}, "
                f"tolerance {cert['tolerance']:.1e}")
        for digest in result["provenance_digests"]:
            lines.append(f"provenance {digest}")
        for note in result["notes"]:
            lines.append(f"note {note}")
    error = report.get("error")
    if error is not None:
        lines.append(f"error {error['type']}: {error['message']}")
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str):
    """Write ``text`` to ``path`` through a temporary file beside it.

    The temporary file is created with mode ``0o666`` and a random name, so
    the kernel applies the umask and the report gets the mode a plain
    ``open`` would give it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    for _ in range(100):  # a clash of 64 random bits means something is off
        tmp = os.path.join(directory, f".report-{os.urandom(8).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return
    raise FileExistsError(f"no free temporary name in {directory}")


def emit_report(report: dict, out: str | None, format: str = "json"):
    """Render and deliver a report (stdout when no path is given)."""
    if format == "json":
        _validate(report, "report.schema.json")
        text = render_json(report)
    else:
        text = render_text(report)
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


# --- running -------------------------------------------------------------------------


def run_scenario(config: RunConfig) -> int:
    """Run one scenario and emit its report; returns the exit code.

    A report that cannot be written is a usage problem: exit 64.
    """
    spec = config.spec
    result = error = None
    try:
        result = run_scenario_spec(spec, jobs=config.jobs)
    except EmergenceError as exc:
        error = exc
    try:
        emit_report(build_report(spec, result=result, error=error),
                    config.out, config.format)
    except OSError as exc:
        print(f"usage error: cannot write the report to {config.out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    if error is not None:
        print(f"synthesis error: {type(error).__name__}: {error}",
              file=sys.stderr)
        return EXIT_ERROR
    if not result.passed:
        print("certified failure: at least one check missed its tolerance",
              file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


# --- argument parsing ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; each ``parse_args``
    call fills a fresh namespace."""
    parser = _Parser(prog="emergence",
                     description="Run an emergence scenario and report "
                                 "certificates.")
    parser.add_argument("--scenario", choices=sorted(SCENARIO_RUNNERS),
                        help="run a shipped scenario by name")
    parser.add_argument("--config", help="path to a scenario spec file")
    parser.add_argument("--samples", type=int, help="verification samples")
    parser.add_argument("--tol", type=float, help="verification tolerance")
    parser.add_argument("--seed", type=int, help="sampling seed")
    parser.add_argument("--out", help="report path (default: stdout)")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--jobs", type=int,
                        help="verification worker threads")
    return parser


def parse_args(argv=None) -> RunConfig:
    args = _build_parser().parse_args(argv)
    if (args.scenario is None) == (args.config is None):
        raise SchemaError("exactly one of --scenario or --config is required")
    path = args.config if args.config is not None \
        else shipped_config_path(args.scenario)
    spec = load_config(path)
    # ScenarioSpec validates the overridden values again
    overrides = {key: getattr(args, key) for key in ("samples", "tol", "seed")
                 if getattr(args, key) is not None}
    if overrides:
        spec = replace(spec, **overrides)
    if args.jobs is not None and args.jobs < 1:
        raise SchemaError("--jobs must be at least 1")
    return RunConfig(spec, args.out, args.format, args.jobs)


@functools.cache
def _keep_heap_warm():
    """Start glibc's allocator where its adaptive thresholds would end.

    A certification chunk's temporaries (0.1-0.5 MiB each) are otherwise
    handed back to the kernel at the end of the chunk and faulted in again
    by the next one.  Both thresholds are set, never one alone: setting
    either turns glibc's dynamic mmap threshold off.  The trim threshold is
    set only when the mmap threshold took; off glibc nothing is done.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD (-3) at glibc's cap for its dynamic one on 64-bit,
    # then M_TRIM_THRESHOLD (-1) at twice that, as the dynamic rule sets it
    if mallopt(-3, 32 * 2**20):
        mallopt(-1, 64 * 2**20)


def main(argv=None) -> int:
    _keep_heap_warm()
    try:
        config = parse_args(argv)
    except EmergenceError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run_scenario(config)
    except Exception:
        traceback.print_exc()
        print("internal error: no report was written", file=sys.stderr)
        return EXIT_INTERNAL


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
