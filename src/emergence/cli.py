"""Batch front door: load a scenario, run it, emit a versioned report.

One scenario per invocation.  Exit codes:

* 0: every certificate passed,
* 1: a certificate failed at the requested tolerance,
* 2: synthesis refused (a precondition failed; the report carries the error),
* 64: usage or configuration problems.

Reports are deterministic for a given config (no timestamps, sorted keys,
residuals written as kernel-independent bounds) and written atomically, so
interrupted runs never leave partial files.
Environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from importlib import resources

import jsonschema

from . import __version__
from .engine import Certificate
from .errors import EmergenceError, ParseError, SchemaError
from .scenarios import SCENARIO_RUNNERS, ScenarioSpec, run_scenario_spec

LIBRARY_VERSION = __version__
REPORT_VERSION = 2

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_USAGE = 64

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


def _schema(name: str) -> dict:
    text = resources.files("emergence").joinpath("schemas", name).read_text()
    return json.loads(text)


def shipped_config_path(name: str) -> str:
    """Filesystem path of a shipped scenario config (by scenario name)."""
    path = resources.files("emergence").joinpath("configs", f"{name}.json")
    if not path.is_file():
        raise SchemaError(f"no shipped config named {name!r}")
    return str(path)


def load_config(path: str) -> ScenarioSpec:
    """Read, schema-validate, and resolve a scenario spec file.

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
        jsonschema.validate(data, _schema("scenario.schema.json"))
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        raise SchemaError(f"config {path} violates the scenario schema "
                          f"at {where}: {exc.message}")
    return ScenarioSpec.from_dict(data)


def save_config(spec: ScenarioSpec, path: str):
    """Write a spec so that :func:`load_config` reads back an equal value."""
    _atomic_write(path, json.dumps(spec.canonical_dict(), indent=2,
                                   sort_keys=True) + "\n")


# --- reports -------------------------------------------------------------------------


def _error_record(exc: EmergenceError) -> dict:
    record = {"type": type(exc).__name__, "message": str(exc)}
    for attr in ("residual", "gap"):
        value = getattr(exc, attr, None)
        if value is not None:
            record[attr] = float(value)
    frequency = getattr(exc, "frequency", None)
    if frequency is not None:
        record["frequency"] = [int(k) for k in frequency]
    evidence = getattr(exc, "evidence", None)
    if evidence:
        record["evidence"] = _json_safe(evidence)
    return record


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, Certificate):
        return value.to_json_dict()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def build_report(spec: ScenarioSpec, result=None,
                 error: EmergenceError | None = None) -> dict:
    status = "error" if error is not None \
        else ("passed" if result.passed else "failed")
    report = {
        "report_version": REPORT_VERSION,
        "library_version": LIBRARY_VERSION,
        "spec_hash": spec.spec_hash(),
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
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def emit_report(report: dict, out: str | None, format: str = "json"):
    """Render and deliver a report (stdout when no path is given)."""
    if format == "json":
        jsonschema.validate(report, _schema("report.schema.json"))
        text = render_json(report)
    else:
        text = render_text(report)
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


# --- running -------------------------------------------------------------------------


def run_scenario(config: RunConfig) -> int:
    """Run one scenario and emit its report; returns the exit code."""
    spec = config.spec
    try:
        result = run_scenario_spec(spec, jobs=config.jobs)
    except EmergenceError as exc:
        report = build_report(spec, error=exc)
        emit_report(report, config.out, config.format)
        print(f"synthesis error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_ERROR
    report = build_report(spec, result=result)
    emit_report(report, config.out, config.format)
    if not result.passed:
        print("certified failure: at least one check missed its tolerance",
              file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


# --- argument parsing ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


def _build_parser() -> _Parser:
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


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except EmergenceError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run_scenario(config)


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
