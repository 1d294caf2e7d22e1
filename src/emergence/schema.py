"""The shipped JSON schemas, each compiled once per process into a check.

``ScenarioSpec`` checks every spec against the scenario schema, and the CLI
every report against the report schema; ``jsonschema`` is imported only to
word a refusal.
"""

from __future__ import annotations

import functools
import json
import numbers
import re
from importlib import resources


def _schema(name: str) -> dict:
    text = resources.files("emergence").joinpath("schemas", name).read_text()
    return json.loads(text)


def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


def _same(a, b) -> bool:
    """jsonschema's equality on scalars: ``2.0 == 2``, but ``True != 1``."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


# Draft 7's types, as jsonschema checks them
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}


def _refuse(key, why):
    raise ValueError(f"schema keyword {key!r} is compiled only {why}")


def _type(name, schema):
    if name not in _TYPES:
        _refuse("type", f"as one of {sorted(_TYPES)}")
    return _TYPES[name]


def _enum(values, schema, key="enum"):
    if any(isinstance(v, (list, dict)) for v in values):
        _refuse(key, "with scalar values")
    return lambda x: any(_same(v, x) for v in values)


def _pattern(pattern, schema):
    search = re.compile(pattern).search  # re.search, as jsonschema's
    return lambda x: not isinstance(x, str) or search(x) is not None


def _required(keys, schema):
    return lambda x: not isinstance(x, dict) or all(k in x for k in keys)


def _properties(properties, schema):
    checks = {key: _compile(sub) for key, sub in properties.items()}
    return lambda x: not isinstance(x, dict) or all(
        check(x[key]) for key, check in checks.items() if key in x)


def _additional_properties(allowed, schema):
    if allowed is not False:
        _refuse("additionalProperties", "as false")
    known = schema.get("properties", {}).keys()
    return lambda x: not isinstance(x, dict) or x.keys() <= known


def _items(items, schema):
    if not isinstance(items, dict):
        _refuse("items", "as one schema")
    check = _compile(items)
    return lambda x: not isinstance(x, list) or all(map(check, x))


# keyword -> (its value, the whole schema) -> a check of one instance; like
# jsonschema's, each check passes a value its keyword does not apply to,
# and a bound refuses only a comparison that holds, so NaN passes them all
_KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "const": lambda value, schema: _enum([value], schema, "const"),
    "pattern": _pattern,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": lambda n, schema: (
        lambda x: not isinstance(x, list) or len(x) >= n),
    "maxItems": lambda n, schema: (
        lambda x: not isinstance(x, list) or len(x) <= n),
    "minimum": lambda m, schema: lambda x: not (_is_number(x) and x < m),
    "maximum": lambda m, schema: lambda x: not (_is_number(x) and x > m),
    "exclusiveMinimum": lambda m, schema: (
        lambda x: not (_is_number(x) and x <= m)),
}
_ANNOTATIONS = ("$schema", "$id", "title")


def _compile(schema: dict):
    """A predicate that accepts exactly what Draft 7 validation against
    ``schema`` accepts, for the keywords the shipped schemas use.  Any
    other keyword raises, so no edit of a schema can weaken the check."""
    checks = []
    for key, value in schema.items():
        if key in _ANNOTATIONS:
            continue
        if key not in _KEYWORDS:
            raise ValueError(f"schema keyword {key!r} is not compiled")
        checks.append(_KEYWORDS[key](value, schema))
    return lambda x: all(check(x) for check in checks)


@functools.cache
def _validator(name: str):
    """The shipped schema's compiled check, built once per process."""
    return _compile(_schema(name))


def _validate(instance, name: str, refusal=None):
    """Check ``instance`` against a shipped schema.

    A refusal raises jsonschema's own best-matching error, or with
    ``refusal`` an error of that type whose message is the failing
    property's path, then jsonschema's wording.  So jsonschema is imported
    only to word a refusal; if it finds no error the check raises anyway.
    """
    if _validator(name)(instance):
        return
    import jsonschema
    error = jsonschema.exceptions.best_match(
        jsonschema.Draft7Validator(_schema(name)).iter_errors(instance))
    if error is None:
        raise RuntimeError(f"the compiled {name} check refused an instance "
                           f"that jsonschema accepts")
    if refusal is None:
        raise error
    where = "/".join(map(str, error.absolute_path)) or "(root)"
    raise refusal(f"{where}: {error.message}")
