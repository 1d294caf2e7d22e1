"""Config loading, exit codes, report rendering, golden outputs."""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest

from emergence import ParseError, ScenarioSpec, SchemaError
from emergence.cli import (EXIT_ERROR, EXIT_FAIL, EXIT_PASS, EXIT_USAGE,
                           RunConfig, _schema, build_report, load_config,
                           main, parse_args, render_json, render_text,
                           save_config, shipped_config_path)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SHIPPED_CONFIGS = ("gravity_from_noncommutativity",
                   "noncommutativity_from_gravity", "idempotent", "boolean",
                   "gravity_empty", "idempotent_projector")


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# --- config loading ---------------------------------------------------------------


def test_minimal_config_gets_documented_defaults(tmp_path):
    spec = load_config(write_config(tmp_path,
                                    {"name": "idempotent", "grid": [8]}))
    assert spec.samples == 100
    assert spec.tol == 1e-8
    assert spec.seed == 42
    assert spec.variant == "identity"


def test_missing_grid_names_the_field(tmp_path):
    with pytest.raises(SchemaError) as info:
        load_config(write_config(tmp_path, {"name": "idempotent"}))
    assert "grid" in str(info.value)


def test_malformed_json_reports_the_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "idempotent",\n  "grid": [8,]}',
                    encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_config(str(path))
    assert "line" in str(info.value)


def test_unknown_keys_are_rejected(tmp_path):
    with pytest.raises(SchemaError) as info:
        load_config(write_config(
            tmp_path, {"name": "idempotent", "grid": [8], "wormhole": 1}))
    assert "wormhole" in str(info.value)


def test_unreadable_path_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_config(str(tmp_path / "absent.json"))


def test_specs_round_trip_through_files(tmp_path):
    spec = ScenarioSpec(name="gravity_from_noncommutativity", grid=(8, 8),
                        theta_values=(0.1, 0.5), samples=25, seed=7)
    path = str(tmp_path / "saved.json")
    save_config(spec, path)
    assert load_config(path) == spec


def test_shipped_configs_exist_and_load():
    for name in SHIPPED_CONFIGS:
        spec = load_config(shipped_config_path(name))
        assert spec.samples == 100
    with pytest.raises(SchemaError):
        shipped_config_path("wormhole")


# --- argument handling --------------------------------------------------------------


def test_overrides_replace_spec_fields():
    config = parse_args(["--scenario", "idempotent", "--samples", "7",
                         "--tol", "1e-6", "--seed", "5"])
    assert config.spec.samples == 7
    assert config.spec.tol == 1e-6
    assert config.spec.seed == 5
    assert config.out is None and config.format == "json"


def test_run_config_rejects_unknown_formats():
    spec = ScenarioSpec(name="idempotent", grid=(8,))
    with pytest.raises(SchemaError):
        RunConfig(spec, format="yaml")


@pytest.mark.parametrize("argv", [
    [],
    ["--scenario", "idempotent", "--config", "x.json"],
    ["--scenario", "idempotent", "--samples", "0"],
    ["--scenario", "idempotent", "--tol", "-1"],
    ["--scenario", "idempotent", "--jobs", "0"],
    ["--scenario", "wormhole"],
    ["--config", "/nonexistent/config.json"],
    ["--scenario", "idempotent", "--seed", "-1"],
    ["--scenario", "idempotent", "--tol", "nan"],
    ["--scenario", "idempotent", "--tol", "inf"],
    ["--config", "{tmp}/nan_tol.json"],
    ["--config", "{tmp}/nan_field_strength.json"],
])
def test_usage_problems_exit_64(argv, capsys, tmp_path):
    # json accepts NaN and the schema's number bounds let it through
    for field in ("tol", "field_strength"):
        (tmp_path / f"nan_{field}.json").write_text(
            '{"name": "gravity_from_noncommutativity", "grid": [8, 8], '
            f'"{field}": NaN}}', encoding="utf-8")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


# --- exit codes ------------------------------------------------------------------------


def test_passing_scenario_exits_zero(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = main(["--scenario", "idempotent", "--samples", "10",
                 "--out", out])
    assert code == EXIT_PASS
    report = json.loads(Path(out).read_text(encoding="utf-8"))
    jsonschema.validate(report, _schema("report.schema.json"))
    assert report["status"] == "passed"
    assert report["result"]["passed"] is True
    assert capsys.readouterr().err == ""


def test_unreachable_tolerance_exits_one(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = main(["--config", shipped_config_path("gravity_empty"),
                 "--samples", "10", "--tol", "1e-18", "--out", out])
    assert code == EXIT_FAIL
    report = json.loads(Path(out).read_text(encoding="utf-8"))
    assert report["status"] == "failed"
    assert "certified failure" in capsys.readouterr().err


def test_refused_synthesis_exits_two(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = main(["--config", shipped_config_path("idempotent_projector"),
                 "--samples", "8", "--out", out])
    assert code == EXIT_ERROR
    report = json.loads(Path(out).read_text(encoding="utf-8"))
    jsonschema.validate(report, _schema("report.schema.json"))
    assert report["status"] == "error"
    assert report["error"]["type"] == "NotScalarForm"
    assert report["error"]["residual"] > 0
    assert "NotScalarForm" in capsys.readouterr().err


def test_reports_go_to_stdout_by_default(capsys):
    code = main(["--scenario", "idempotent", "--samples", "5"])
    assert code == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["name"] == "idempotent"


# --- rendering ----------------------------------------------------------------------


def test_json_reports_reparse_to_the_same_value(tmp_path):
    spec = load_config(shipped_config_path("idempotent"))
    spec = replace(spec, samples=6)
    from emergence import run_scenario_spec
    report = build_report(spec, result=run_scenario_spec(spec))
    assert json.loads(render_json(report)) == report


def test_text_report_summarizes_certificates(tmp_path):
    out = str(tmp_path / "report.txt")
    code = main(["--scenario", "idempotent", "--samples", "6",
                 "--format", "text", "--out", out])
    assert code == EXIT_PASS
    text = Path(out).read_text(encoding="utf-8")
    assert text.startswith("scenario idempotent: passed")
    assert "certificate [pass]" in text
    assert "provenance " in text


def test_interrupted_style_writes_leave_no_temp_files(tmp_path):
    out = str(tmp_path / "report.json")
    assert main(["--scenario", "idempotent", "--samples", "5",
                 "--out", out]) == EXIT_PASS
    assert sorted(os.listdir(tmp_path)) == ["report.json"]


def test_text_rendering_of_error_reports():
    spec = ScenarioSpec(name="idempotent", grid=(8,))
    from emergence.errors import NotScalarForm
    report = build_report(spec, error=NotScalarForm("left the orbit",
                                                    residual=0.5))
    text = render_text(report)
    assert "error NotScalarForm: left the orbit" in text


# --- golden outputs -------------------------------------------------------------------


@pytest.mark.parametrize("name,expected_code", [
    ("idempotent", EXIT_PASS),
    ("idempotent_projector", EXIT_ERROR),
    ("gravity_empty", EXIT_PASS),
])
def test_reports_match_the_golden_files(name, expected_code, tmp_path,
                                        capsys):
    out = str(tmp_path / f"{name}.json")
    code = main(["--config", shipped_config_path(name), "--out", out])
    capsys.readouterr()
    assert code == expected_code
    golden = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(golden, "rb") as fh:
        expected = fh.read()
    with open(out, "rb") as fh:
        assert fh.read() == expected


# --- BLAS-kernel independence ---------------------------------------------------------


def _cpu_flags() -> set:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("flags"):
                return set(line.split(":", 1)[1].split())
    return set()


CPU_FLAGS = _cpu_flags() if os.path.isfile("/proc/cpuinfo") else set()


def _kernel(coretype, flag=None):
    """An ``OPENBLAS_CORETYPE`` to run under, skipped without its ISA."""
    return pytest.param(coretype, marks=pytest.mark.skipif(
        flag is not None and flag not in CPU_FLAGS,
        reason=f"the CPU lacks {flag} for the {coretype} kernel"))


@functools.lru_cache(maxsize=None)
def _cli_report_bytes(name, coretype=None) -> bytes:
    """Report bytes of a shipped config from a fresh CLI process.

    ``coretype`` pins the OpenBLAS kernel in the child's environment only;
    ``None`` keeps whatever kernel the test run itself uses.
    """
    import emergence
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        emergence.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run(
        [sys.executable, "-m", "emergence.cli", "--config",
         shipped_config_path(name)],
        env=env, capture_output=True, timeout=300)
    assert proc.returncode in (EXIT_PASS, EXIT_ERROR), proc.stderr
    return proc.stdout


@pytest.mark.parametrize("coretype", [
    _kernel("Prescott", "pni"),
    _kernel("Sandybridge", "avx"),
    _kernel("Haswell", "avx2"),
    _kernel("SkylakeX", "avx512f"),
])
@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_reports_are_identical_across_blas_kernels(name, coretype):
    assert _cli_report_bytes(name, coretype) == _cli_report_bytes(name)
