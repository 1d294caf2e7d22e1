"""Config loading, exit codes, report rendering, golden outputs."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import io
import json
import math
import os
import platform
import stat
import subprocess
import sys
import tempfile
import types
import warnings
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emergence import (HypothesisViolated, Operator, ParseError,
                       ScenarioSpec, SchemaError, cli, errors, scenarios)
from emergence.cli import (EXIT_ERROR, EXIT_FAIL, EXIT_INTERNAL, EXIT_PASS,
                           EXIT_USAGE, RunConfig, build_report, load_config, main,
                           parse_args, render_json, render_text,
                           shipped_config_path)
from emergence.engine import Certificate, Normals, json_form
from emergence.schema import _schema, _validate

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SHIPPED_CONFIGS = ("gravity_from_noncommutativity",
                   "noncommutativity_from_gravity", "idempotent", "boolean",
                   "gravity_empty", "idempotent_projector")


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _child_env(setting=()) -> dict:
    """This process's environment with the package first on PYTHONPATH,
    updated by the ``(variable, value)`` pairs of ``setting``."""
    import emergence
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        emergence.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(setting)
    return env


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
    path = tmp_path / "saved.json"
    path.write_text(json.dumps(spec.canonical_dict()))
    assert load_config(str(path)) == spec


@pytest.mark.parametrize("field,forms", [
    ("samples", (10, 10.0)), ("seed", (3, 3.0)), ("masks", (4, 4.0)),
    ("block", (2, 2.0)), ("grid", ([8], [8.0])),
])
def test_integral_floats_in_integer_fields_run_as_their_ints(field, forms,
                                                             tmp_path):
    # the schema's integers include 2.0; the run must not see the float
    runs = []
    for form in forms:
        config = write_config(tmp_path, {"name": "boolean", "grid": [4],
                                         "samples": 10, field: form})
        out = tmp_path / "report.json"
        runs.append((main(["--config", config, "--out", str(out)]),
                     out.read_bytes()))
        out.unlink()
    assert runs[0] == runs[1]
    assert runs[0][0] == EXIT_PASS


def test_shipped_configs_exist_and_load():
    for name in SHIPPED_CONFIGS:
        spec = load_config(shipped_config_path(name))
        assert spec.samples == 100
    with pytest.raises(SchemaError):
        shipped_config_path("wormhole")


def test_the_export_list_names_every_public_attribute():
    import emergence
    public = {name for name, value in vars(emergence).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert sorted(emergence.__all__) == sorted(public)


# --- argument handling --------------------------------------------------------------


def test_overrides_replace_spec_fields():
    config = parse_args(["--scenario", "idempotent", "--samples", "7",
                         "--tol", "1e-6", "--seed", "5"])
    assert config.spec.samples == 7
    assert config.spec.tol == 1e-6
    assert config.spec.seed == 5
    assert config.out is None and config.format == "json"


def test_calls_sharing_the_parser_keep_their_own_arguments(capsys):
    first = parse_args(["--scenario", "idempotent", "--samples", "7",
                        "--out", "a.json"])
    second = parse_args(["--scenario", "boolean", "--format", "text"])
    assert (first.spec.name, first.spec.samples, first.out, first.format) \
        == ("idempotent", 7, "a.json", "json")
    assert (second.spec.name, second.out, second.format) \
        == ("boolean", None, "text")
    assert second.spec.samples == parse_args(
        ["--scenario", "boolean"]).spec.samples
    # a bad argument after a good one is still a usage error
    assert main(["--scenario", "idempotent", "--samples", "x"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert parse_args(["--scenario", "idempotent"]).spec.samples \
        != first.spec.samples


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
    ["--config", "{tmp}/zero_h_scale.json"],
])
def test_usage_problems_exit_64(argv, capsys, tmp_path):
    # json accepts NaN and the schema's number bounds let it through
    for field in ("tol", "field_strength"):
        (tmp_path / f"nan_{field}.json").write_text(
            '{"name": "gravity_from_noncommutativity", "grid": [8, 8], '
            f'"{field}": NaN}}', encoding="utf-8")
    write_config(tmp_path, {"name": "noncommutativity_from_gravity",
                            "grid": [8, 8], "h_scales": [0.0]},
                 name="zero_h_scale.json")
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


@pytest.mark.parametrize("name", ["boolean", "idempotent_projector"])
def test_a_run_hashes_its_spec_once(name, tmp_path, monkeypatch, capsys):
    calls = []
    spec_hash = ScenarioSpec.spec_hash

    def counted(spec):
        calls.append(spec)
        return spec_hash(spec)

    monkeypatch.setattr(ScenarioSpec, "spec_hash", counted)
    main(["--config", shipped_config_path(name), "--samples", "8",
          "--out", str(tmp_path / "report.json")])
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["boolean", "idempotent_projector"])
def test_a_run_checks_its_spec_and_its_report_once(name, tmp_path,
                                                   monkeypatch, capsys):
    # a config with no overrides: the spec is checked as it is built, not
    # its raw dict first
    checked = []

    def counted(instance, schema, *args):
        checked.append(schema)
        return _validate(instance, schema, *args)

    for module in ("scenarios", "cli"):
        monkeypatch.setattr(f"emergence.{module}._validate", counted)
    main(["--config", shipped_config_path(name),
          "--out", str(tmp_path / "report.json")])
    capsys.readouterr()
    assert checked == ["scenario.schema.json", "report.schema.json"]


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


#: per gravity runner, its coupling and the fits' first refusal of a field
#: strength of 1e160, 1e200 and 1e308 at coupling 0.5
FIELD_STRENGTH_OVERFLOWS = {
    ("gravity_from_noncommutativity", "theta_values"): (
        {"operand": "design", "index": [0]},
        {"operand": "residual", "index": [0]},
        {"operand": "rhs", "index": [0]}),
    ("noncommutativity_from_gravity", "h_scales"): (
        {"operand": "design", "index": [0]},
        {"operand": "design", "index": [0]},
        {"operand": "design", "index": [0, 0]}),
}


@pytest.mark.parametrize("overflowing", [
    # a perturbation near 1e308 overflows the fit's right-hand side, which
    # the fit refuses
    ({"name": "gravity_from_noncommutativity", "theta_values": [1e308]},
     {"operand": "rhs", "index": [0]}),
    ({"name": "noncommutativity_from_gravity", "h_scales": [1e308]},
     {"operand": "rhs", "index": [0]}),
    # finite entries whose squared residual overflows: the fit refuses the
    # product
    ({"name": "gravity_from_noncommutativity", "theta_values": [1e200]},
     {"operand": "residual", "index": [0]}),
    ({"name": "noncommutativity_from_gravity", "h_scales": [1e200]},
     {"operand": "residual", "index": [0]}),
    # finite products whose sum over the grid overflows: no array overflows
    ({"name": "gravity_from_noncommutativity", "theta_values": [1e306]},
     {"operand": "rhs"}),
    ({"name": "noncommutativity_from_gravity", "h_scales": [1e306]},
     {"operand": "rhs"}),
    # an overflowing perturbation and field strength: the fit refuses its
    # rhs's entries before the plan's overflowing Gram sums, and the
    # design's entries before its rhs's
    ({"name": "noncommutativity_from_gravity", "h_scales": [1e308],
      "field_strength": 1e200}, {"operand": "rhs", "index": [0]}),
    ({"name": "noncommutativity_from_gravity", "h_scales": [1e308],
      "field_strength": 1.7e308}, {"operand": "design", "index": [0, 0]}),
    # an overflowing field strength: the background and the fits overflow
    *[({"name": name, key: [0.5], "field_strength": strength}, evidence)
      for (name, key), refusals in FIELD_STRENGTH_OVERFLOWS.items()
      for strength, evidence in zip((1e160, 1e200, 1e308), refusals)],
])
def test_overflowing_couplings_are_refused_with_exit_two(overflowing,
                                                         tmp_path, capsys):
    # numpy does not warn: any warning is an error, as pytest is configured
    couplings, evidence = overflowing
    config = write_config(tmp_path, {"grid": [8, 8], **couplings})
    out = str(tmp_path / "report.json")
    code = main(["--config", config, "--out", out])
    assert code == EXIT_ERROR
    report = json.loads(Path(out).read_text(encoding="utf-8"))
    jsonschema.validate(report, _schema("report.schema.json"))
    assert report["error"]["type"] == "HypothesisViolated"
    assert report["error"]["evidence"] == evidence
    err = capsys.readouterr().err
    assert "not finite" in err and "Traceback" not in err


GRAVITY_COUPLINGS = {"gravity_from_noncommutativity": "theta_values",
                     "noncommutativity_from_gravity": "h_scales"}


@pytest.mark.parametrize("couplings", [[], [0.5]], ids=["none", "one"])
@pytest.mark.parametrize("mass", [1e100, 1e155, 1e200, 1e308])
@pytest.mark.parametrize("name", sorted(GRAVITY_COUPLINGS))
def test_an_overflowing_mass_is_refused_with_exit_two(name, mass, couplings,
                                                      tmp_path, capsys):
    # from about 1.34e154 m^2 overflows and the background refuses its
    # regulated wave operator; below, the structure check's norms overflow
    # and fail the additive law.  numpy does not warn: any warning is an
    # error, as pytest is configured
    config = write_config(tmp_path, {
        "name": name, "grid": [8, 8], "mass": mass, "samples": 4, "seed": 1,
        GRAVITY_COUPLINGS[name]: couplings})
    out = str(tmp_path / "report.json")
    assert main(["--config", config, "--out", out]) == EXIT_ERROR
    report = json.loads(Path(out).read_text(encoding="utf-8"))
    jsonschema.validate(report, _schema("report.schema.json"))
    assert report["error"]["type"] == "HypothesisViolated"
    assert report["error"]["message"] == (
        "claimed structure flags were never verified: ['additive']"
        if mass < 1e154 else
        "the regulated wave operator is not finite; the mass overflows")
    err = capsys.readouterr().err
    assert "HypothesisViolated" in err and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(GRAVITY_COUPLINGS))
def test_a_heavy_mass_certifies(name, tmp_path):
    # at mass 300 rounding on m^2 ~ 1e5 leaves the additive law's residual
    # above 1e-10, far under 1e-10 of its right-hand side: the law holds
    config = write_config(tmp_path, {
        "name": name, "grid": [24, 24], "mass": 300, "samples": 100,
        "seed": 1, GRAVITY_COUPLINGS[name]: [0.5]})
    out = str(tmp_path / "report.json")
    assert main(["--config", config, "--out", out]) == EXIT_PASS
    report = json.loads(Path(out).read_text(encoding="utf-8"))
    assert report["status"] == "passed"


@pytest.mark.parametrize("strength", [1e155, 1e160, 1e200, 1e300, 1e308])
@pytest.mark.parametrize("name", sorted(GRAVITY_COUPLINGS))
def test_an_overflowing_field_strength_with_no_coupling_exits_two(
        name, strength, tmp_path, capsys):
    # with no coupling to fit, the cross-check's right inverse refuses the
    # overflowing slot, and numpy does not warn
    config = write_config(tmp_path, {
        "name": name, "grid": [8, 8], "field_strength": strength,
        "samples": 4, "seed": 1})
    out = str(tmp_path / "report.json")
    assert main(["--config", config, "--out", out]) == EXIT_ERROR
    report = json.loads(Path(out).read_text(encoding="utf-8"))
    jsonschema.validate(report, _schema("report.schema.json"))
    assert report["error"]["type"] == "NotRightInvertible"
    assert report["error"]["message"].startswith("slot 1 has no right inverse")
    err = capsys.readouterr().err
    assert "NotRightInvertible" in err and "Traceback" not in err


def _run_in_process(data):
    """``(exit code, report)`` of ``main`` on a config of ``data``, the
    report checked against its schema; numpy's overflow warnings are
    recorded, as a plain run prints them, not raised."""
    with tempfile.TemporaryDirectory() as root, \
            warnings.catch_warnings(record=True), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        out = os.path.join(root, "report.json")
        code = main(["--config", write_config(Path(root), data),
                     "--out", out])
        report = json.loads(Path(out).read_text(encoding="utf-8"))
    jsonschema.validate(report, _schema("report.schema.json"))
    return code, report


@pytest.mark.parametrize("eta", [[[1.0, 1.0], [1.0, 1.0]],
                                 [[0.0, 0.0], [0.0, 0.0]]],
                         ids=["rank_one", "zero"])
@pytest.mark.parametrize("name", sorted(GRAVITY_COUPLINGS))
def test_a_singular_metric_is_refused_with_exit_two(name, eta):
    code, report = _run_in_process({
        "name": name, "grid": [6, 6], "eta": eta,
        GRAVITY_COUPLINGS[name]: [0.5], "samples": 10, "seed": 1})
    assert code == EXIT_ERROR
    assert report["error"] == {"type": "BadSpec",
                               "message": "metric must be positive definite"}


@pytest.mark.parametrize("variant", ["identity", "projector"])
def test_the_idempotent_scenario_refuses_a_grid_that_is_not_1d(variant):
    code, report = _run_in_process({
        "name": "idempotent", "variant": variant, "grid": [8, 5],
        "samples": 10, "seed": 1})
    assert code == EXIT_ERROR
    assert report["error"] == {
        "type": "BadSpec", "message": "the idempotent scenario needs a 1D grid"}


def _rotated(first, second, angle):
    """The symmetric 2x2 matrix of eigenvalues ``first``, ``second`` whose
    first eigenvector is at ``angle``."""
    c, s = math.cos(angle), math.sin(angle)
    off = (first - second) * c * s
    return [[first * c * c + second * s * s, off],
            [off, first * s * s + second * c * c]]


EIGENVALUES = st.floats(0.25, 4.0)
ANGLES = st.floats(0.0, math.pi)
GRIDS = st.lists(st.integers(3, 8), min_size=2, max_size=2)
SEEDS = st.integers(0, 2**16)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(GRAVITY_COUPLINGS)), EIGENVALUES, EIGENVALUES,
       ANGLES, GRIDS, SEEDS)
def test_positive_definite_metrics_certify(name, first, second, angle, grid,
                                           seed):
    eta = _rotated(first, second, angle)
    code, report = _run_in_process({
        "name": name, "grid": grid, "eta": eta,
        GRAVITY_COUPLINGS[name]: [0.1, 0.5, 1.0], "samples": 20,
        "seed": seed})
    assert code == EXIT_PASS, report


#: metrics that are not positive definite: rank one or zero (exactly
#: singular in floating point), indefinite, or negative definite
BAD_METRICS = st.one_of(
    st.builds(lambda c, sign: [[c, sign * c], [sign * c, c]],
              st.floats(0.0, 4.0), st.sampled_from([1.0, -1.0])),
    st.builds(lambda c, first: [[c, 0.0], [0.0, 0.0]] if first
              else [[0.0, 0.0], [0.0, c]], st.floats(0.0, 4.0), st.booleans()),
    st.builds(lambda a, b, angle: _rotated(a, -b, angle), EIGENVALUES,
              EIGENVALUES, ANGLES),
    st.builds(lambda a, b, angle: _rotated(-a, -b, angle), EIGENVALUES,
              EIGENVALUES, ANGLES),
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(GRAVITY_COUPLINGS)), BAD_METRICS, GRIDS)
def test_metrics_that_are_not_positive_definite_are_refused(name, eta, grid):
    code, report = _run_in_process({
        "name": name, "grid": grid, "eta": eta,
        GRAVITY_COUPLINGS[name]: [0.5], "samples": 20, "seed": 1})
    assert code == EXIT_ERROR
    assert report["error"]["type"] == "BadSpec"


#: coupling exponents ``k`` of ``10**k`` measured on 6x10 (seed 1, 20
#: samples): the verdict is not monotone in the magnitude (exit 1 at 1e100,
#: exit 2 at 1e250, exit 0 at 1e300), since the round trip and the
#: least-squares residual are absolute, so only the exit contract is held
MEASURED_EXPONENTS = (0, 2, 4, 6, 8, 10, 20, 50, 100, 150, 200, 250, 300,
                      306)


def _exits_with_a_report(name, exponent):
    code, report = _run_in_process({
        "name": name, "grid": [6, 10],
        GRAVITY_COUPLINGS[name]: [10.0 ** exponent], "samples": 20,
        "seed": 1})
    assert report["status"] == {EXIT_PASS: "passed", EXIT_FAIL: "failed",
                                EXIT_ERROR: "error"}[code]
    if code == EXIT_ERROR:
        assert issubclass(getattr(errors, report["error"]["type"]),
                          errors.EmergenceError)


@pytest.mark.parametrize("exponent", MEASURED_EXPONENTS)
@pytest.mark.parametrize("name", sorted(GRAVITY_COUPLINGS))
def test_measured_coupling_magnitudes_exit_with_a_report(name, exponent):
    _exits_with_a_report(name, exponent)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(GRAVITY_COUPLINGS)), st.floats(0.0, 306.0))
def test_any_coupling_magnitude_exits_with_a_report(name, exponent):
    _exits_with_a_report(name, exponent)


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


def test_text_report_of_a_gravity_run_prints_its_notes(capsys):
    assert main(["--scenario", "gravity_from_noncommutativity",
                 "--format", "text"]) == EXIT_PASS
    assert capsys.readouterr().out == (
        "scenario gravity_from_noncommutativity: passed\n"
        "spec hash a2f939f066891df11a1ae30cf92449ca9b3df11c8eb7955696310c00a"
        "e32814a\n"
        "round-trip max 1.000e-12 over 3 instance(s)\n"
        "certificate [pass] 100 samples, functional 1.000e-12, operator "
        "1.000e-12, tolerance 1.0e-08\n"
        "provenance 66f4b8cf9983eb1bbc671d61c45f7da1da9989d2461a72469e23b4bc"
        "f5036dd9\n"
        "note free_theory_residual=1.000e-12\n")


def test_interrupted_style_writes_leave_no_temp_files(tmp_path):
    out = str(tmp_path / "report.json")
    assert main(["--scenario", "idempotent", "--samples", "5",
                 "--out", out]) == EXIT_PASS
    assert sorted(os.listdir(tmp_path)) == ["report.json"]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_reports_get_the_mode_of_a_plain_write(umask, tmp_path):
    out = tmp_path / "report.json"
    plain = tmp_path / "plain.json"
    previous = os.umask(umask)
    try:
        plain.write_text("{}\n", encoding="utf-8")
        assert main(["--scenario", "idempotent", "--samples", "5",
                     "--out", str(out)]) == EXIT_PASS
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == \
        stat.S_IMODE(plain.stat().st_mode) == 0o666 & ~umask


def test_atomic_writes_never_touch_the_umask(monkeypatch, tmp_path):
    # the umask belongs to the whole process, so setting it races threads
    def umask(mask):
        raise AssertionError("os.umask called")
    monkeypatch.setattr(os, "umask", umask)
    out = tmp_path / "report.json"
    cli._atomic_write(str(out), "{}\n")
    assert out.read_text(encoding="utf-8") == "{}\n"


def test_atomic_writes_pass_over_a_taken_temporary_name(monkeypatch,
                                                        tmp_path):
    draws = iter([b"\0" * 8, b"\1" * 8])
    monkeypatch.setattr(os, "urandom", lambda n: next(draws))
    taken = tmp_path / f".report-{'00' * 8}"
    taken.write_text("taken", encoding="utf-8")
    cli._atomic_write(str(tmp_path / "report.json"), "{}\n")
    assert sorted(os.listdir(tmp_path)) == [taken.name, "report.json"]
    assert taken.read_text(encoding="utf-8") == "taken"


@pytest.mark.parametrize("where", ["missing/report.json", "dir"])
def test_an_unwritable_report_path_exits_64(where, tmp_path, capsys):
    (tmp_path / "dir").mkdir()
    code = main(["--scenario", "idempotent", "--samples", "5",
                 "--out", str(tmp_path / where)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # a directory as --out gets its temp file beside it, then removed
    assert sorted(os.listdir(tmp_path)) == ["dir"]
    assert os.listdir(tmp_path / "dir") == []


def _raise_value_error(spec, jobs=None):
    raise ValueError("runner fault")


def _report_the_schema_refuses(spec, result=None, error=None):
    return {**build_report(spec, result=result, error=error), "extra": 1}


@pytest.mark.parametrize("fault", ["runner", "report"])
def test_an_internal_error_exits_70_without_a_report(fault, monkeypatch,
                                                     tmp_path, capsys):
    if fault == "runner":
        monkeypatch.setitem(scenarios.SCENARIO_RUNNERS, "idempotent",
                            _raise_value_error)
    else:  # the compiled report check refuses with jsonschema's error
        monkeypatch.setattr(cli, "build_report", _report_the_schema_refuses)
    code = main(["--scenario", "idempotent", "--samples", "5",
                 "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL
    assert "Traceback" in err
    assert ("ValueError: runner fault" if fault == "runner"
            else "ValidationError") in err
    assert os.listdir(tmp_path) == []


def test_the_entry_point_exits_70_on_an_internal_error():
    script = (
        "import sys\n"
        "from emergence import cli, scenarios\n"
        "def runner(spec, jobs=None):\n"
        "    raise ValueError('runner fault')\n"
        "scenarios.SCENARIO_RUNNERS['idempotent'] = runner\n"
        "sys.argv = ['emergence', '--scenario', 'idempotent']\n"
        "cli.entry_point()\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_INTERNAL == 70
    assert "Traceback" in proc.stderr
    assert "ValueError: runner fault" in proc.stderr
    assert proc.stdout == ""


def test_text_rendering_of_error_reports():
    spec = ScenarioSpec(name="idempotent", grid=(8,))
    from emergence.errors import NotScalarForm
    report = build_report(spec, error=NotScalarForm("left the orbit",
                                                    residual=0.5))
    text = render_text(report)
    assert "error NotScalarForm: left the orbit" in text


def test_refusal_evidence_takes_its_json_form():
    # every form json_form gives: a certificate by its written bounds, real
    # and complex arrays and scalars, numpy scalars, tuple keys and repr
    evidence = {
        "certificate": Certificate(40, 0.25, 1.5e-7, 1e-6, False, 3),
        "residuals": np.array([0.5, 1.5]), "index": np.int64(7),
        "single": np.float32(0.5), "eigenvalue": complex(0.5, -2.0),
        "spectrum": np.array([1j, 2.0]), "flags": frozenset({"additive"}),
        (0, 1): None}
    spec = ScenarioSpec(name="idempotent", grid=(8,))
    report = build_report(spec, error=HypothesisViolated("refused",
                                                         evidence=evidence))
    written = json.dumps(report["error"], sort_keys=True)
    assert written == (
        '{"evidence": {"0,1": null, "certificate": {"max_functional_residual"'
        ': 1.0, "max_operator_residual": 1e-06, "passed": false, "samples": '
        '40, "seed": 3, "tolerance": 1e-06}, "eigenvalue": {"imag": -2.0, '
        '"real": 0.5}, "flags": "frozenset({\'additive\'})", "index": 7, '
        '"residuals": [0.5, 1.5], "single": 0.5, "spectrum": {"imag": '
        '[1.0, 0.0], "real": [0.0, 2.0]}}, "message": "refused", "type": '
        '"HypothesisViolated"}')
    assert type(json_form(np.int64(7))) is int
    assert type(json_form(np.float32(0.5))) is float


# --- allocator setting ---------------------------------------------------------------


class _Libc:
    """A C library handle that records its ``mallopt`` calls."""

    def __init__(self, accepted=1):
        self.accepted = accepted
        self.calls = []

        def mallopt(param, value):  # a function, so it takes argtypes
            self.calls.append((param, value))
            return self.accepted
        self.mallopt = mallopt


@pytest.fixture
def libc(monkeypatch):
    handle = _Libc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: handle)
    monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
    cli._keep_heap_warm.cache_clear()
    yield handle
    cli._keep_heap_warm.cache_clear()


#: M_MMAP_THRESHOLD at 32 MiB, then M_TRIM_THRESHOLD at 64 MiB
THRESHOLDS = [(-3, 32 * 2**20), (-1, 64 * 2**20)]


def test_main_sets_the_allocator_thresholds_once_per_process(libc, tmp_path,
                                                              monkeypatch):
    out = tmp_path / "report.json"
    argv = ["--scenario", "idempotent", "--samples", "5", "--out", str(out)]
    assert main(argv) == EXIT_PASS
    first = out.read_bytes()
    assert main(argv) == EXIT_PASS
    assert main(["--samples", "0"]) == EXIT_USAGE  # before arguments parse
    assert libc.calls == THRESHOLDS
    # off glibc nothing is set, and the report keeps its bytes
    libc.calls.clear()
    cli._keep_heap_warm.cache_clear()
    monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))
    assert main(argv) == EXIT_PASS
    assert libc.calls == []
    assert out.read_bytes() == first


def test_a_refused_mmap_threshold_leaves_the_trim_threshold_alone(libc):
    # setting either threshold turns glibc's dynamic one off: both or none
    libc.accepted = 0
    cli._keep_heap_warm()
    assert libc.calls == THRESHOLDS[:1]


# --- golden outputs -------------------------------------------------------------------


@pytest.mark.parametrize("name,expected_code", [
    ("gravity_from_noncommutativity", EXIT_PASS),
    ("noncommutativity_from_gravity", EXIT_PASS),
    ("idempotent", EXIT_PASS),
    ("boolean", EXIT_PASS),
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


#: sha256 of the gravity runners' report bytes at 100 samples and the
#: couplings 0.1, 0.5 and 1.0; report version 2 is kernel-independent, so
#: these hold on every machine
GRAVITY_REPORT_DIGESTS = {
    ("gravity_from_noncommutativity", (6, 10), 1):
        "02eb3f764990d690a77faae942659901c5e639039f92e4c66259665019eb5279",
    ("gravity_from_noncommutativity", (6, 10), 11):
        "3bb8e9cfd953f53ce3b182280f71cd57f248d40f67966895a5b1a27ec826c70e",
    ("gravity_from_noncommutativity", (16, 16), 1):
        "40da11591402678eaf3dac91d2a9bb244896418aaf4299ef71f61636f5807e25",
    ("gravity_from_noncommutativity", (16, 16), 11):
        "d77180635b10fcdab1f743d276e0617852f01b8fff03b94dc8bd7e1e3e504fd0",
    ("noncommutativity_from_gravity", (6, 10), 1):
        "cc673f8e71bab17e08e633f19d3b93eda5d1a16dde0efa1523998a197072a94c",
    ("noncommutativity_from_gravity", (6, 10), 11):
        "143bde73c315d4b34a261f5f12b970d3329da8f98208737f9e9ce174f45b664f",
    ("noncommutativity_from_gravity", (16, 16), 1):
        "733bdf6130fdfc546e171a091cd19c313a571885d2169ca15403142986c5011a",
    ("noncommutativity_from_gravity", (16, 16), 11):
        "7fa8772ce8a804779e0b64edfc9a4e07d173f65967f902bf8220fc8c8f10bf2f",
    ("gravity_from_noncommutativity", (128, 128), 1):
        "0851403ef141e9b3d3eaedf1253675bd03a136569dbb84524a9bfd0505f378cb",
    ("noncommutativity_from_gravity", (128, 128), 1):
        "db63bb137e0b5b1008b04b07f3b5cb58cb3407ee3718e5261a7d0e0e7ff236af",
}


# in the table's order, so an added grid does not renumber the others' ids
@pytest.mark.parametrize("name,grid,seed", list(GRAVITY_REPORT_DIGESTS))
def test_gravity_reports_keep_their_bytes(name, grid, seed, tmp_path,
                                          capsys):
    couplings = ("theta_values" if name == "gravity_from_noncommutativity"
                 else "h_scales")
    config = write_config(tmp_path, {"name": name, "grid": list(grid),
                                     couplings: [0.1, 0.5, 1.0],
                                     "samples": 100, "seed": seed})
    out = tmp_path / "report.json"
    assert main(["--config", config, "--out", str(out)]) == EXIT_PASS
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GRAVITY_REPORT_DIGESTS[name, grid, seed]


#: the same at a non-identity metric on the 6x10 grid; the first runner's
#: zero coupling pins its degenerate flag too
METRIC_REPORT_SPECS = {
    "gravity_from_noncommutativity": {"theta_values": [0.0, 0.5, 1.0]},
    "noncommutativity_from_gravity": {"h_scales": [0.5, 1.0]},
}
METRIC_REPORT_DIGESTS = {
    ("gravity_from_noncommutativity", 1):
        "80116def6f3522f16ff17bdf8fe3332c10e7c867b8490a262d1765175b2b445e",
    ("gravity_from_noncommutativity", 11):
        "a422efd86de35191ddc509ae7cd4b77489fce6af69ede07f5d38850e1230eb8b",
    ("noncommutativity_from_gravity", 1):
        "3fb6bdc54c097ce3a21c84778269ba31037a75920712412167e307c03229b530",
    ("noncommutativity_from_gravity", 11):
        "6e09dedf2ee08fc645b04e49efee9e0dcce574e93128036abdd1d2e89f4c9e36",
}


#: the same reports at field strength 1.3 and mass 0.7, away from the unit
#: values every other pin runs at
COUPLED_METRIC_REPORT_DIGESTS = {
    ("gravity_from_noncommutativity", 1):
        "2cc4e6064e158110705467f7654ee06a7c94b8a7e36f8d1020a5f82aa77e11e5",
    ("gravity_from_noncommutativity", 11):
        "ecee83614d2284e7f441484060a7422295b0da295d56d20cd3d93a3554dfc114",
    ("noncommutativity_from_gravity", 1):
        "82e8e748f15278dba4df77937a0dde2b663d6e9b17ccc862deb185773d4eabcf",
    ("noncommutativity_from_gravity", 11):
        "8d163474cee0e06d4b80e8713e9753440793636702a36f3e9ce5be706d456aac",
}


def _metric_report_digest(tmp_path, capsys, name, seed, **background):
    config = write_config(tmp_path, {
        "name": name, "grid": [6, 10], "eta": [[2.0, 0.3], [0.3, 1.0]],
        **background, **METRIC_REPORT_SPECS[name], "samples": 100,
        "seed": seed})
    out = tmp_path / "report.json"
    assert main(["--config", config, "--out", str(out)]) == EXIT_PASS
    capsys.readouterr()
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name,seed", sorted(METRIC_REPORT_DIGESTS))
def test_gravity_reports_at_a_non_identity_metric_keep_their_bytes(
        name, seed, tmp_path, capsys):
    assert _metric_report_digest(tmp_path, capsys, name, seed) \
        == METRIC_REPORT_DIGESTS[name, seed]


@pytest.mark.parametrize("name,seed", sorted(COUPLED_METRIC_REPORT_DIGESTS))
def test_gravity_reports_off_unit_coupling_and_mass_keep_their_bytes(
        name, seed, tmp_path, capsys):
    digest = _metric_report_digest(tmp_path, capsys, name, seed,
                                   field_strength=1.3, mass=0.7)
    assert digest == COUPLED_METRIC_REPORT_DIGESTS[name, seed]


#: sha256 and exit code of gravity reports at field strength 0 (6x10, 10
#: samples, seed 1): with no background coupling there is no regulated
#: cross-check, so no map or certificate; a nonzero coupling is not
#: recovered, which fails the round trip
ZERO_FIELD_REPORTS = {
    "gravity_from_noncommutativity": (
        {"theta_values": [0.0]}, EXIT_PASS,
        "ab4beadbdf0afe1a351a3c2965e4cbe91f41aed8666c6bee7ce52ed2d4198f25"),
    "noncommutativity_from_gravity": (
        {"h_scales": [0.5]}, EXIT_FAIL,
        "180363ef9bc4802a625e4888d51205eb3a703b7b2cb19de950c00f9721943a6c"),
}


@pytest.mark.parametrize("name", sorted(ZERO_FIELD_REPORTS))
def test_a_zero_field_strength_runs_no_cross_check(name, tmp_path, capsys):
    values, code, digest = ZERO_FIELD_REPORTS[name]
    config = write_config(tmp_path, {
        "name": name, "grid": [6, 10], "field_strength": 0, **values,
        "samples": 10, "seed": 1})
    out = tmp_path / "report.json"
    assert main(["--config", config, "--out", str(out)]) == code
    capsys.readouterr()
    result = json.loads(out.read_bytes())["result"]
    assert result["certificates"] == result["maps"] == []
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


#: sha256 of the Boolean (8 masks, block 32) and identity idempotent (64
#: sites) report bytes at 100 samples: both certify their maps on the same
#: draws as their scenario certificates
MAP_REPORT_SPECS = {
    "boolean": {"name": "boolean", "grid": [8], "masks": 8, "block": 32},
    "idempotent": {"name": "idempotent", "grid": [64], "variant": "identity"},
}
MAP_REPORT_DIGESTS = {
    ("boolean", 1):
        "5403eeaf8ed40577937eb77c1a3ebd6c39bfb3104075feac6befc6e75a362f24",
    ("boolean", 11):
        "856dbdb85d5721e08ede72300d6e900cad53abf0d82f683f9865bed9e0dd2099",
    ("idempotent", 1):
        "660e5d38e60a2c6191da974d3038bd101e37f7f76ee1889ebee84a05e03f9b51",
    ("idempotent", 11):
        "fac0c2cc14340f485ea15b1bb8f1b2736d2d5ff2640de5629795c6e3dc2605af",
}


@pytest.mark.parametrize("name,seed", sorted(MAP_REPORT_DIGESTS))
def test_map_reports_keep_their_bytes(name, seed, tmp_path, capsys):
    config = write_config(tmp_path, {**MAP_REPORT_SPECS[name],
                                     "samples": 100, "seed": seed})
    out = tmp_path / "report.json"
    assert main(["--config", config, "--out", str(out)]) == EXIT_PASS
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == MAP_REPORT_DIGESTS[name, seed]


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
    return pytest.param((("OPENBLAS_CORETYPE", coretype),), id=coretype,
                        marks=pytest.mark.skipif(
                            flag is not None and flag not in CPU_FLAGS,
                            reason=f"the CPU lacks {flag} for the "
                                   f"{coretype} kernel"))


#: numpy's SIMD loops dispatched below AVX-512, as on a CPU without it: the
#: batched complex products of a Boolean block run through other loops
NUMPY_BELOW_AVX512 = pytest.param(
    (("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR AVX512_ICL X86_V4"),),
    id="numpy_below_avx512")


def _numpy_baseline_only():
    """Every SIMD target this numpy dispatches disabled, so it runs its
    baseline loops, as on a CPU with none of them; skipped when it
    dispatches none.  Raw maxima may move here (the shipped Boolean
    certificate's does), so only the report bytes are compared."""
    from numpy._core._multiarray_umath import __cpu_dispatch__
    return pytest.param(
        (("NPY_DISABLE_CPU_FEATURES", " ".join(__cpu_dispatch__)),),
        id="numpy_baseline_only",
        marks=pytest.mark.skipif(not __cpu_dispatch__,
                                 reason="numpy dispatches no SIMD target"))


#: specs beyond the shipped configs: larger gravity grids, whose parameter
#: maps once read BLAS rounding, and Boolean masks with multi-row blocks
KERNEL_SPECS = {
    "gravity_from_noncommutativity_16x16": {
        "name": "gravity_from_noncommutativity", "grid": [16, 16],
        "theta_values": [0.1, 0.5, 1.0], "samples": 30, "seed": 3},
    "noncommutativity_from_gravity_16x16": {
        "name": "noncommutativity_from_gravity", "grid": [16, 16],
        "h_scales": [0.1, 0.5, 1.0], "samples": 30, "seed": 3},
    "boolean_8x8": {"name": "boolean", "grid": [8], "masks": 8, "block": 8,
                    "samples": 30, "seed": 3},
}


@pytest.fixture(scope="module")
def kernel_configs(tmp_path_factory):
    """Config path per name: the shipped configs and :data:`KERNEL_SPECS`."""
    root = tmp_path_factory.mktemp("kernel_specs")
    paths = {name: shipped_config_path(name) for name in SHIPPED_CONFIGS}
    for name, spec in KERNEL_SPECS.items():
        paths[name] = write_config(root, spec, f"{name}.json")
    return paths


@functools.lru_cache(maxsize=None)
def _cli_report_bytes(config, setting=()) -> bytes:
    """Report bytes of a config file from a fresh CLI process.

    ``setting`` holds ``(variable, value)`` pairs for the child's
    environment only, such as the OpenBLAS kernel it pins; none keeps the
    environment the test run itself has.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "emergence.cli", "--config", config],
        env=_child_env(setting), capture_output=True, timeout=300)
    assert proc.returncode in (EXIT_PASS, EXIT_ERROR), proc.stderr
    return proc.stdout


@pytest.mark.parametrize("setting", [
    _kernel("Prescott", "pni"),
    _kernel("Sandybridge", "avx"),
    _kernel("Haswell", "avx2"),
    _kernel("SkylakeX", "avx512f"),
    NUMPY_BELOW_AVX512,
    _numpy_baseline_only(),
])
@pytest.mark.parametrize("name", SHIPPED_CONFIGS + tuple(KERNEL_SPECS))
def test_reports_are_identical_across_blas_kernels(name, setting,
                                                   kernel_configs):
    config = kernel_configs[name]
    assert _cli_report_bytes(config, setting) == _cli_report_bytes(config)


# --- dense twin -------------------------------------------------------------------------

#: idempotent and Boolean specs whose operators the twin builds dense; the
#: gravity fits take stencils, so only gravity certification has a twin
TWIN_SPECS = [
    *({"name": "idempotent", "grid": [n]} for n in (6, 8, 12)),
    {"name": "idempotent", "grid": [8], "variant": "projector"},
    *({"name": "boolean", "grid": [8], "masks": masks, "block": block}
      for masks, block in ((4, 2), (8, 1), (3, 3))),
]


def _twin_report(spec, tmp_path, capsys) -> tuple:
    """Exit code and parsed report of one run through the CLI."""
    config = write_config(tmp_path, spec)
    out = tmp_path / "report.json"
    code = main(["--config", config, "--out", str(out)])
    capsys.readouterr()
    return code, json.loads(out.read_text(encoding="utf-8"))


def _assignments(maps) -> list:
    """Pops and returns the probe assignments of the rendered ``maps``."""
    return [probe.pop("assignment") for m in maps for probe in m["probes"]]


def _assert_close(a, b, rel=1e-14):
    """Two JSON values of one shape whose numbers agree within ``rel``."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys()
        for key in a:
            _assert_close(a[key], b[key], rel)
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_close(x, y, rel)
    else:
        assert type(a) is type(b)
        assert abs(a - b) <= rel * max(abs(a), abs(b))


def _densely(build):
    """``build``, returning the dense matrix of the operator it builds."""

    def dense(*args, **kwargs):
        op = build(*args, **kwargs)
        return Operator(op.matrix, op.space)
    return dense


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("spec", TWIN_SPECS, ids=lambda spec: "-".join(
    map(str, spec.values())))
def test_dense_operators_give_the_structured_report(spec, seed, tmp_path,
                                                    capsys, monkeypatch):
    # the fast paths against the slow one, end to end: each operator the
    # runners build as a stencil or a diagonal is rebuilt as its dense
    # matrix; only the probe assignments may move, by rounding
    spec = {**spec, "samples": 30, "seed": seed}
    structured = _twin_report(spec, tmp_path, capsys)
    for name in ("make_discrete_operator", "identity_operator",
                 "diagonal_operator"):
        monkeypatch.setattr(scenarios, name, _densely(getattr(scenarios,
                                                              name)))
    dense = _twin_report(spec, tmp_path, capsys)
    assert dense[0] == structured[0]
    _assert_close(*(_assignments(report.get("result", {}).get("maps", []))
                    for _, report in (dense, structured)))
    assert render_json(dense[1]) == render_json(structured[1])


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("grid", [(6, 6), (8, 8), (6, 10)],
                         ids=lambda grid: "x".join(map(str, grid)))
@pytest.mark.parametrize("name", ["gravity_from_noncommutativity",
                                  "noncommutativity_from_gravity"])
def test_a_dense_regulated_slot_gives_the_structured_certificate(name, grid,
                                                                 seed):
    # the gravity fits take stencils, so the twin covers certification
    # alone: the cross-check's slot rebuilt as its dense matrix certifies
    # the same, and only the probe assignments may move, by rounding
    spec = ScenarioSpec(name=name, grid=grid, samples=30, seed=seed)
    background = scenarios.build_gravity_background(
        spec.grid, spec.eta, spec.field_strength, spec.mass)
    op = background["box_m"]
    assert op.structure == "stencil"
    dense = {**background, "box_m": Operator(op.matrix, op.space)}
    pairs = [scenarios._gravity_cross_check(b, spec, Normals(spec.seed))[0]
             for b in (dense, background)]
    assert pairs[0][1].to_json_dict() == pairs[1][1].to_json_dict()
    maps = [emap.to_json_dict() for emap, _ in pairs]
    _assert_close(*(_assignments([m]) for m in maps))
    assert maps[0] == maps[1]
