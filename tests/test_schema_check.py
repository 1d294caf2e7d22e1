"""The compiled schema checks: jsonschema's Draft 7 verdicts, and its words
for every refusal, without importing jsonschema on a run that passes."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emergence import BadSpec, ScenarioSpec, SchemaError, cli, schema
from emergence.cli import build_report, load_config
from emergence.scenarios import run_scenario_spec
from emergence.schema import _compile, _schema
from test_benchmark_hooks import _perfbench_module

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = sorted((SRC / "emergence" / "configs").glob("*.json"))
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.json"))
SCHEMAS = ("scenario.schema.json", "report.schema.json")


def _texts(paths) -> list:
    return [path.read_text(encoding="utf-8") for path in paths]


def _benchmark_specs() -> list:
    workloads = _perfbench_module("workloads")
    return [{**entry.spec, "seed": 1}
            for workload in ("gravity_24x24", "boolean_256")
            for entry in workloads.entries(workload)]


@pytest.fixture(scope="module")
def valid_texts():
    """JSON texts of valid instances per schema: shipped configs and the
    benchmark specs; golden reports and the benchmark specs' reports."""
    specs = _benchmark_specs()
    reports = [build_report(spec, run_scenario_spec(spec))
               for spec in map(ScenarioSpec.from_dict, specs)]
    return {"scenario.schema.json": _texts(CONFIGS) + list(map(json.dumps,
                                                               specs)),
            "report.schema.json": _texts(GOLDEN) + list(map(json.dumps,
                                                            reports))}


def test_the_shipped_schemas_are_draft7_schemas():
    for name in SCHEMAS:
        schema = _schema(name)
        validator = jsonschema.validators.validator_for(schema)
        assert validator is jsonschema.Draft7Validator
        validator.check_schema(schema)


UNCOMPILED = [
    ({"oneOf": [{"type": "string"}]}, "oneOf"),
    ({"type": "string", "format": "date"}, "format"),
    ({"type": "object", "patternProperties": {"^x": {}}},
     "patternProperties"),
    ({"type": "object", "additionalProperties": {"type": "string"}},
     "additionalProperties"),
    ({"type": "array", "items": [{"type": "string"}]}, "items"),
    ({"properties": {"grid": {"items": {"multipleOf": 2}}}}, "multipleOf"),
]


@pytest.mark.parametrize("schema,keyword", UNCOMPILED,
                         ids=[keyword for _, keyword in UNCOMPILED])
def test_compile_refuses_what_it_does_not_implement(schema, keyword):
    with pytest.raises(ValueError, match=re.escape(repr(keyword))):
        _compile(schema)


def test_the_compiled_check_agrees_on_every_shipped_instance(valid_texts):
    # each schema accepts its own instances and refuses the other's
    for name in SCHEMAS:
        check = _compile(_schema(name))
        oracle = jsonschema.Draft7Validator(_schema(name))
        for other in SCHEMAS:
            for instance in map(json.loads, valid_texts[other]):
                assert check(instance) is oracle.is_valid(instance) \
                    is (other == name)


#: one-keyword schemas and values on which Draft 7's rules are easy to miss
EDGE_CASES = [
    ({"const": 1}, [1, 1.0, True, "1", [1]]),
    ({"enum": [0, "a"]}, [0, -0.0, False, "a", "a\n", None]),
    ({"type": "integer"}, [2, 2.0, 2.5, True, 2**70, math.inf, math.nan]),
    ({"type": "number"}, [2, math.nan, -math.inf, True, "2"]),
    ({"pattern": "^a$"}, ["a", "a\n", "\na", 1]),
    ({"minimum": 0}, [-0.0, -1e-300, math.nan, True, "x", -2**70]),
    ({"maximum": 8}, [8.0, 8.5, math.inf, math.nan, 2**70]),
    ({"exclusiveMinimum": 0}, [0, -0.0, 5e-324, math.nan, False]),
    ({"minItems": 1, "maxItems": 1}, [[], [0], [0, 0], {}, "ab"]),
    ({"required": ["a"]}, [{}, {"a": None}, ["a"], "a"]),
    ({"properties": {"a": {"type": "string"}}, "additionalProperties": False},
     [{}, {"a": "x"}, {"a": 1}, {"b": "x"}, ["b"]]),
    ({"items": {"type": "boolean"}}, [[], [True], [0], (0,), {"0": 0}]),
]


@pytest.mark.parametrize("schema,values", EDGE_CASES,
                         ids=["-".join(s) for s, _ in EDGE_CASES])
def test_the_compiled_check_follows_draft7_at_the_edges(schema, values):
    check = _compile(schema)
    oracle = jsonschema.Draft7Validator(schema)
    assert [check(v) for v in values] == [oracle.is_valid(v) for v in values]


# --- drawn instances --------------------------------------------------------------


def _property_names(node) -> set:
    names = set()
    if isinstance(node, dict):
        names |= set(node.get("properties", {}))
        names |= set(node.get("required", []))
        for value in node.values():
            names |= _property_names(value)
    return names


KEYS = st.sampled_from(sorted(set().union(
    *(_property_names(_schema(name)) for name in SCHEMAS)))) | st.text(
        max_size=6)
#: values at the shipped schemas' edges: bounds, integral floats, bools,
#: huge integers, enum members with a trailing newline, short and long grids
EDGES = st.sampled_from([
    0, 1, 2, 8, 9, -1, 2**63, -2**63 - 1, 2**64 + 1, 0.0, -0.0, 0.5, 1.0,
    2.0, 8.0, 9.0, 1e-8, 1e300, math.nan, math.inf, -math.inf, True, False,
    None, "", "riemannian", "riemannian\n", "idempotent", "boolean\n",
    "projector", "passed", "error\n", "0" * 64, "0" * 64 + "\n", "f" * 63,
    "A" * 64, [], [8], [8.0], [1], [2, 2], [8, True], [2, 3, 4], [math.nan],
    [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]], [{}], ["0" * 64]])
SCALARS = st.one_of(
    EDGES, st.none(), st.booleans(), st.integers(),
    st.integers(-2**70, 2**70), st.floats(),
    st.integers(-10**6, 10**6).map(float), st.text(max_size=8),
    st.text(max_size=8).map(lambda s: s + "\n"))
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=4), max_leaves=10)


NUMBERS = st.sampled_from([
    0, 1, 2, 8, 9, -1, 0.0, -0.0, 2.0, 8.0, 0.5, 5e-324, math.nan, math.inf,
    -math.inf, 2**63, True, False])


def _near(value):
    """Edge values of ``value``'s own kind."""
    if isinstance(value, str):
        return st.sampled_from([value + "\n", "\n" + value, value[1:],
                                value.upper()])
    return NUMBERS if isinstance(value, (int, float)) else EDGES


def _paths(node, path=()):
    """The path of every value in ``node``, its own ``()`` first."""
    yield path
    items = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def _mutants(draw, texts):
    """A valid instance after up to three edits: a key dropped, a key
    added, or the value at some path below the root replaced, most often
    by an edge value of its own kind."""
    instance = json.loads(draw(st.sampled_from(texts)))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(instance))))
        edit = draw(st.sampled_from(["drop", "add", "replace", "replace"]))
        node = _at(instance, path)
        value = copy.deepcopy(draw(_near(node) | EDGES | VALUES))
        if edit == "drop" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif edit == "add" and isinstance(node, dict):
            node[draw(KEYS)] = value
        elif path:
            _at(instance, path[:-1])[path[-1]] = value
    return instance


@pytest.mark.parametrize("name", SCHEMAS)
def test_the_compiled_check_agrees_on_drawn_instances(name, valid_texts):
    check = _compile(_schema(name))
    oracle = jsonschema.Draft7Validator(_schema(name))

    @settings(max_examples=1000, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(VALUES, *[_mutants(valid_texts[name])] * 3))
    def agree(instance):
        assert check(instance) is oracle.is_valid(instance)

    agree()


# --- refusals ------------------------------------------------------------------------


def test_a_fresh_process_checks_configs_without_importing_jsonschema(
        tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "idempotent"}', encoding="utf-8")
    program = (
        "import sys\n"
        "from emergence import SchemaError\n"
        "from emergence.cli import load_config\n"
        "for path in sys.argv[2:]:\n"
        "    load_config(path)\n"
        "print([m for m in ('jsonschema', 'concurrent.futures')"
        " if m in sys.modules])\n"
        "try:\n"
        "    load_config(sys.argv[1])\n"
        "except SchemaError as exc:\n"
        "    print(exc)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", program, str(bad), *map(str, CONFIGS)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", f"config {bad} violates the scenario schema at (root): "
              f"'grid' is a required property"]


#: the refusals' text, as jsonschema words them
PINNED_REFUSALS = [
    ({"name": "idempotent"},
     "at (root): 'grid' is a required property"),
    ({"name": "idempotent", "grid": [8], "wormhole": 1},
     "at (root): Additional properties are not allowed ('wormhole' was "
     "unexpected)"),
    ({"name": "wormhole", "grid": [8]},
     "at name: 'wormhole' is not one of ['gravity_from_noncommutativity', "
     "'noncommutativity_from_gravity', 'idempotent', 'boolean']"),
    ({"name": "idempotent", "grid": [1]},
     "at grid/0: 1 is less than the minimum of 2"),
    ({"name": "idempotent", "grid": [8], "samples": "ten"},
     "at samples: 'ten' is not of type 'integer'"),
    ({"name": "idempotent", "grid": [8], "tol": 0},
     "at tol: 0 is less than or equal to the minimum of 0"),
    ({"name": "boolean", "grid": [8], "masks": 9},
     "at masks: 9 is greater than the maximum of 8"),
    ({"name": "idempotent", "grid": [8], "seed": True},
     "at seed: True is not of type 'integer'"),
]


@pytest.mark.parametrize("config,where", PINNED_REFUSALS,
                         ids=[where.split(":")[0] for _, where
                              in PINNED_REFUSALS])
def test_refusals_keep_their_text(config, where, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_config(str(path))
    assert str(info.value) == \
        f"config {path} violates the scenario schema {where}"


def test_a_refused_report_raises_jsonschemas_best_match():
    report = json.loads(GOLDEN[0].read_text(encoding="utf-8"))
    report["status"] = "lost"
    with pytest.raises(jsonschema.ValidationError) as info:
        cli.emit_report(report, None)
    assert info.value.message == jsonschema.exceptions.best_match(
        jsonschema.Draft7Validator(_schema("report.schema.json"))
        .iter_errors(report)).message


#: dicts whose refusal only the whole dict shows: an unknown key, a missing
#: grid, an eta that is no list of lists, and no dict at all
FROM_DICT_REFUSALS = [
    {"name": "boolean", "grid": [8], "bogus": 1},
    {"name": "idempotent"},
    {"name": "gravity_from_noncommutativity", "grid": [8, 8],
     "eta": [1.0, 0.0]},
    {"name": "gravity_from_noncommutativity", "grid": [8, 8],
     "eta": [[1.0, 0.0], "0 1"]},
    [{"name": "idempotent", "grid": [8]}],
]


@pytest.mark.parametrize("data", FROM_DICT_REFUSALS)
def test_from_dict_refuses_in_jsonschemas_words(data):
    error = jsonschema.exceptions.best_match(jsonschema.Draft7Validator(
        _schema("scenario.schema.json")).iter_errors(data))
    where = "/".join(map(str, error.absolute_path)) or "(root)"
    with pytest.raises(BadSpec) as info:
        ScenarioSpec.from_dict(data)
    assert str(info.value) == f"{where}: {error.message}"


def test_a_refusal_jsonschema_does_not_confirm_is_never_an_acceptance(
        monkeypatch):
    monkeypatch.setattr(schema, "_validator", lambda name: lambda x: False)
    with pytest.raises(RuntimeError, match="jsonschema accepts"):
        load_config(str(CONFIGS[0]))
    with pytest.raises(RuntimeError, match="jsonschema accepts"):
        ScenarioSpec(name="idempotent", grid=(8,))


# --- specs built in the library ---------------------------------------------------


SPEC_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ScenarioSpec)
                 if f.default is not dataclasses.MISSING}
SCENARIO_NAMES = _schema("scenario.schema.json")["properties"]["name"]["enum"]


def _json(value):
    """A drawn value as JSON: numpy values as Python ones, every tuple and
    array as a list."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    return value


def _integral(value):
    if isinstance(value, list):
        return [_integral(v) for v in value]
    return int(value) if isinstance(value, float) and value.is_integer() \
        else value


def _normalized(fields) -> dict:
    """The spec ``fields`` should give: defaults filled in, JSON values,
    and integral floats as ints in the integer fields."""
    spec = {key: _json(value) for key, value in {**SPEC_DEFAULTS,
                                                 **fields}.items()}
    for key in ("grid", "masks", "block", "samples", "seed"):
        spec[key] = _integral(spec[key])
    return spec


def _finite(spec) -> bool:
    try:
        json.dumps(spec, allow_nan=False)
    except ValueError:
        return False
    return True


NUMPY_SCALARS = st.one_of(
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.floats().map(np.float64),
    st.floats(width=32).map(np.float32), st.booleans().map(np.bool_),
    st.sampled_from(SCENARIO_NAMES + ["riemannian", "projector"]).map(
        np.str_))
FIELD_SCALARS = st.one_of(SCALARS, NUMPY_SCALARS)
FIELD_LISTS = st.one_of(
    st.lists(FIELD_SCALARS, max_size=3),
    st.lists(FIELD_SCALARS, max_size=3).map(tuple),
    st.lists(st.integers(1, 9), min_size=1, max_size=2).map(np.array),
    st.lists(st.floats(-4, 4), min_size=1, max_size=3).map(np.array),
    st.sampled_from([((1.0, 0.0), (0.0, 1.0)), [[2.0, 0.5], [0.5, 1.0]],
                     np.eye(2), np.eye(2, dtype=int), [[1, 0]],
                     [[1.0, 0.0], [0.0, math.nan]]]))
FIELD_VALUES = st.one_of(FIELD_SCALARS, FIELD_LISTS,
                         st.lists(FIELD_LISTS, max_size=2))
SMALL = st.integers(0, 9)
#: values each field takes in a spec the schema accepts, in each form
SPEC_VALUES = {
    "name": st.sampled_from(SCENARIO_NAMES)
    | st.sampled_from(SCENARIO_NAMES).map(np.str_),
    "grid": st.lists(st.integers(2, 9) | st.integers(2, 9).map(float)
                     | st.integers(2, 9).map(np.int64), min_size=1,
                     max_size=2) | st.sampled_from([(8, 8), np.array([4])]),
    "signature": st.just("riemannian"),
    "mass": st.floats(0, 4) | SMALL | SMALL.map(np.float64),
    "field_strength": st.floats(-4, 4) | SMALL.map(np.int64),
    "eta": st.sampled_from([((1.0, 0.0), (0.0, 1.0)), [[2, 1], [1, 3.0]],
                            np.eye(2), [[1.0, 0.0], [0.0, math.nan]]]),
    "theta_values": st.lists(st.floats(-4, 4), max_size=3) | FIELD_LISTS,
    "h_scales": st.lists(st.floats(-4, 4), max_size=3).map(np.array),
    "masks": st.integers(1, 8) | st.integers(1, 8).map(float),
    "block": st.integers(1, 4) | st.integers(1, 4).map(np.int32),
    "variant": st.sampled_from(["identity", "projector"]).map(np.str_),
    "samples": st.integers(1, 300) | st.integers(1, 300).map(float),
    "tol": st.sampled_from([1e-8, 1e-6, 0.5, 1, np.float64(1e-10)]),
    "feasibility_threshold": st.floats(1e-9, 1) | st.just(math.inf),
    "seed": SMALL | SMALL.map(np.int64) | st.integers(0, 2**70),
}


@st.composite
def _spec_fields(draw) -> dict:
    """Fields of a spec: a name, a grid and some other fields, mostly in
    values the schema accepts, and up to two of them any drawn value."""
    fields = draw(st.fixed_dictionaries(
        {key: SPEC_VALUES[key] for key in ("name", "grid")},
        optional={key: SPEC_VALUES[key] for key in SPEC_DEFAULTS}))
    for key in draw(st.lists(st.sampled_from(sorted(SPEC_VALUES)),
                             max_size=2)):
        fields[key] = draw(FIELD_VALUES)
    return fields


@settings(max_examples=600, deadline=None)
@given(_spec_fields())
def test_a_spec_is_built_exactly_when_the_schema_accepts_it(fields):
    # no run: the spec alone decides, and every refusal is a BadSpec
    expected = _normalized(fields)
    accepted = (jsonschema.Draft7Validator(_schema("scenario.schema.json"))
                .is_valid(expected) and _finite(expected))
    for build in (lambda: ScenarioSpec(**fields),
                  lambda: ScenarioSpec.from_dict(fields)):
        try:
            spec = build()
        except BadSpec:
            assert not accepted
        else:
            assert accepted
            assert json.dumps(spec.canonical_dict(), sort_keys=True) \
                == json.dumps(expected, sort_keys=True)
            # and it holds Python values, as the spec of the JSON does
            assert repr(spec) == repr(ScenarioSpec(**expected))
