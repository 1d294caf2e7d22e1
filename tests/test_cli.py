"""Config loading, exit codes, report rendering, golden outputs."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest

from emergence import ParseError, ScenarioSpec, SchemaError
from emergence.cli import (EXIT_ERROR, EXIT_FAIL, EXIT_PASS, EXIT_USAGE,
                           RunConfig, _schema, build_report, load_config,
                           main, parse_args, render_json, render_text,
                           shipped_config_path)

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
    path = tmp_path / "saved.json"
    path.write_text(json.dumps(spec.canonical_dict()))
    assert load_config(str(path)) == spec


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


@pytest.mark.parametrize("overflowing", [
    ({"name": "gravity_from_noncommutativity", "theta_values": [1e308]},
     {"operand": "rhs", "index": [0]}),
    ({"name": "noncommutativity_from_gravity", "h_scales": [1e308]},
     {"operand": "rhs", "index": [0]}),
    # finite entries whose squared residual overflows
    ({"name": "gravity_from_noncommutativity", "theta_values": [1e200]},
     {"operand": "residual", "index": [0]}),
    ({"name": "noncommutativity_from_gravity", "h_scales": [1e200]},
     {"operand": "residual", "index": [0]}),
    # finite products whose sum over the grid overflows: no array overflows,
    # so numpy does not warn
    ({"name": "gravity_from_noncommutativity", "theta_values": [1e306]},
     {"operand": "rhs"}),
    ({"name": "noncommutativity_from_gravity", "h_scales": [1e306]},
     {"operand": "rhs"}),
])
def test_overflowing_couplings_are_refused_with_exit_two(overflowing,
                                                         tmp_path, capsys):
    couplings, evidence = overflowing
    config = write_config(tmp_path, {"grid": [8, 8], **couplings})
    out = str(tmp_path / "report.json")
    with (pytest.warns(RuntimeWarning, match="overflow") if "index" in evidence
          else contextlib.nullcontext()):
        code = main(["--config", config, "--out", out])
    assert code == EXIT_ERROR
    report = json.loads(Path(out).read_text(encoding="utf-8"))
    jsonschema.validate(report, _schema("report.schema.json"))
    assert report["error"]["type"] == "HypothesisViolated"
    assert report["error"]["evidence"] == evidence
    err = capsys.readouterr().err
    assert "not finite" in err and "Traceback" not in err


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


def test_text_rendering_of_error_reports():
    spec = ScenarioSpec(name="idempotent", grid=(8,))
    from emergence.errors import NotScalarForm
    report = build_report(spec, error=NotScalarForm("left the orbit",
                                                    residual=0.5))
    text = render_text(report)
    assert "error NotScalarForm: left the orbit" in text


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
}


@pytest.mark.parametrize("name,grid,seed", sorted(GRAVITY_REPORT_DIGESTS))
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
    import emergence
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        emergence.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(setting)
    proc = subprocess.run(
        [sys.executable, "-m", "emergence.cli", "--config", config],
        env=env, capture_output=True, timeout=300)
    assert proc.returncode in (EXIT_PASS, EXIT_ERROR), proc.stderr
    return proc.stdout


@pytest.mark.parametrize("setting", [
    _kernel("Prescott", "pni"),
    _kernel("Sandybridge", "avx"),
    _kernel("Haswell", "avx2"),
    _kernel("SkylakeX", "avx512f"),
    NUMPY_BELOW_AVX512,
])
@pytest.mark.parametrize("name", SHIPPED_CONFIGS + tuple(KERNEL_SPECS))
def test_reports_are_identical_across_blas_kernels(name, setting,
                                                   kernel_configs):
    config = kernel_configs[name]
    assert _cli_report_bytes(config, setting) == _cli_report_bytes(config)
