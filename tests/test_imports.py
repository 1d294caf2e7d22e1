"""Every top-level import of the package and of its tests is used."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "emergence").rglob("*.py"),
                  *(ROOT / "tests").rglob("*.py")])


def _bound_names(tree: ast.Module):
    """``(name, line)`` for each name a top-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotation_names(node) -> set:
    """Names inside a quoted annotation such as ``"OperatorFamily"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _used_names(tree: ast.Module) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                used |= _annotation_names(sub)
        # names a module exports count as used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant)}
    return used


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"line {line}: {name}" for name, line in _bound_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _references(tree: ast.Module, modules: set) -> list:
    """Lines that import one of ``modules`` or name it, as a module, an
    imported name, an attribute or a variable."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(a.name for a in node.names)]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        if any(n.split(".")[0] in modules for n in names):
            found.append(node.lineno)
    return found


def _package_references(modules: set) -> dict:
    package = ROOT / "src" / "emergence"
    return {path.name: _references(ast.parse(path.read_text(
        encoding="utf-8")), modules) for path in package.rglob("*.py")}


def test_only_operator_core_sums_exactly():
    # correctly rounded sums have one home: operator_core.exact_sum(s)
    found = _package_references({"fsum", "fractions"})
    core = found.pop("operator_core.py")
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert core


def test_only_schema_names_jsonschema():
    # specs and reports have one check, emergence.schema's, which alone
    # imports jsonschema, to word a refusal
    found = _package_references({"jsonschema"})
    assert found.pop("schema.py")
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _references(ast.parse("import jsonschema.exceptions"),
                       {"jsonschema"}) == [1]


def _block_lookups(node, where=None) -> list:
    """``(function, line)`` of each ``getattr`` or ``hasattr`` call that
    names ``"block"``, with the innermost function around it."""
    found = []
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id in ("getattr", "hasattr")
                and any(isinstance(arg, ast.Constant) and arg.value == "block"
                        for arg in child.args)):
            found.append((where, child.lineno))
        inner = child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        found.extend(_block_lookups(child, inner))
    return found


def test_only_map_block_asks_for_a_block_form():
    # the block-or-call choice is made once: engine.map_block
    package = ROOT / "src" / "emergence"
    found = [(path.name, where) for path in sorted(package.rglob("*.py"))
             for where, _ in _block_lookups(ast.parse(
                 path.read_text(encoding="utf-8")))]
    assert found == [("engine.py", "map_block")]


def _type_attribute_identities(tree: ast.Module) -> list:
    """Lines that compare a ``type(x).<attr>`` with ``is`` or ``is not``."""
    def type_attribute(node):
        return (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "type")

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(map(type_attribute, (node.left, *node.comparators)))]


def test_no_path_is_chosen_by_what_a_class_overrides():
    # every carrier keeps one contract, so no function asks whether a
    # class overrides a method to choose how to treat it
    package = ROOT / "src" / "emergence"
    found = {path.name: _type_attribute_identities(ast.parse(
        path.read_text(encoding="utf-8"))) for path in package.rglob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}
    for source in ("type(a).act is B.act", "B.f is not type(a).f"):
        assert _type_attribute_identities(ast.parse(source)) == [1]


STACK_TYPES = {"Operator", "OperatorStack"}


def _stack_type_checks(tree: ast.Module) -> list:
    """``(function, line)`` of each ``isinstance`` against ``Operator`` or
    ``OperatorStack`` and of each ``type(...)`` call, with the top-level
    function around it."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)):
                continue
            named = {n.id for arg in node.args[1:] for n in ast.walk(arg)
                     if isinstance(n, ast.Name)}
            if node.func.id == "type" or (node.func.id == "isinstance"
                                          and named & STACK_TYPES):
                found.append((getattr(top, "name", None), node.lineno))
    return found


def test_one_operator_path_in_operator_core():
    # one operator is a stack of one: it enters and leaves the stack form
    # in one place, and no function of the algebra tells the two apart
    path = ROOT / "src" / "emergence" / "operator_core.py"
    found = _stack_type_checks(ast.parse(path.read_text(encoding="utf-8")))
    assert found and {where for where, _ in found} == {"_one_path"}


def _roll_calls(tree: ast.Module) -> list:
    """Lines that call numpy's ``roll`` as ``np.roll`` or ``numpy.roll``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "roll"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")]


def test_operator_core_roll_is_the_only_roll():
    # periodic shifts have one home: operator_core._roll, whose slabs are
    # kept per grid shape and offset
    package = ROOT / "src" / "emergence"
    found = {path.name: _roll_calls(ast.parse(
        path.read_text(encoding="utf-8"))) for path in package.rglob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _roll_calls(ast.parse("np.roll(a, 1)")) == [1]


def _normal_draws(tree: ast.Module, scope: str = "") -> set:
    """``Class.function`` names of the functions that call a
    ``standard_normal``, however it is reached."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found |= _normal_draws(node, f"{scope}{node.name}.")
        elif any(isinstance(n, ast.Call) and (
                getattr(n.func, "attr", None) == "standard_normal"
                or getattr(n.func, "id", None) == "standard_normal")
                for n in ast.walk(node)):
            found.add(scope.rstrip(".") or "<module>")
    return found


def test_standard_normals_are_drawn_in_these_functions_alone():
    # a seed's normals are drawn once per run, by its engine.Normals
    # stream, which certification and the scenarios' fixed fields read: no
    # scenario runner draws them on its own
    package = ROOT / "src" / "emergence"
    found = {(path.stem, where) for path in package.rglob("*.py")
             for where in _normal_draws(ast.parse(
                 path.read_text(encoding="utf-8")))}
    assert found == {("engine", "Normals.read"),
                     ("parameter_algebra", "ParameterAlgebra.samples")}
    assert _normal_draws(ast.parse(
        "def f():\n    def g():\n        rng.standard_normal(3)\n")) \
        == {"f.g"}


def test_only_the_base_carrier_defines_sample():
    # a carrier samples through its from_normals alone: one draw path
    package = ROOT / "src" / "emergence"
    found = {(path.stem, node.name) for path in package.rglob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ClassDef)
             and any(isinstance(item, ast.FunctionDef)
                     and item.name == "sample" for item in node.body)}
    assert found == {("parameter_algebra", "ParameterAlgebra")}


def test_every_shipped_carrier_states_its_normals():
    import numpy as np

    from emergence import parameter_algebra as pa
    carriers = [pa.RealScalars(), pa.ComplexScalars(), pa.NonnegativeReals(),
                pa.BooleanComplex(3, 2), pa.CentralizerDiagonal(np.eye(4)),
                pa.ProductAlgebra((pa.RealScalars(), pa.BooleanComplex(2))),
                pa.TuplePower(pa.ComplexScalars(), 3)]
    shipped = {c for c in vars(pa).values() if isinstance(c, type)
               and issubclass(c, pa.ParameterAlgebra)
               and c is not pa.ParameterAlgebra}
    assert {type(c) for c in carriers} == shipped
    for carrier in carriers:
        assert type(carrier.normals) is int and carrier.normals >= 1, \
            carrier.name


def _classes(module: str) -> list:
    path = ROOT / "src" / "emergence" / module
    return [node for node in ast.walk(ast.parse(path.read_text(
        encoding="utf-8"))) if isinstance(node, ast.ClassDef)]


def test_block_map_is_the_only_parameter_map_class():
    # a parameter map is a _BlockMap over its block function, never a
    # subclass with a block of its own
    classes = _classes("engine.py")
    assert "_BlockMap" in {c.name for c in classes}
    assert [c.name for c in classes
            if any(isinstance(b, ast.Name) and b.id == "_BlockMap"
                   for b in c.bases)] == []


def test_theories_has_one_tree_form():
    # a sum and a composition of families differ only in how they combine
    # the two branches' operators
    def fields(c):
        return {s.target.id for s in c.body if isinstance(s, ast.AnnAssign)
                and isinstance(s.target, ast.Name)}

    assert [c.name for c in _classes("theories.py")
            if {"left", "right"} <= fields(c)] == ["Tree"]


LOWER_LAYERS = ("operator_core.py", "parameter_algebra.py", "theories.py")


def _defaults(tree: ast.Module):
    """``(callee, name, position)`` for each keyword default of a function
    or method; ``position`` counts the arguments a caller passes before it,
    or is None for a keyword-only one.  A method is called by its name, an
    ``__init__`` by its class's name, and neither is passed ``self``."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = [*args.posonlyargs, *args.args]
                bound = owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                callee = (owner if child.name == "__init__" and owner
                          else child.name)
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    yield callee, arg.arg, i - bound
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield callee, arg.arg, None
                yield from visit(child, None)
            else:
                yield from visit(child, owner)

    yield from visit(tree, None)


def _settings(tree: ast.Module) -> set:
    """``(callee, keyword or position)`` for what each call sets; a call
    with ``*args`` or ``**kwargs`` sets every argument (``"*"``)."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = (func.id if isinstance(func, ast.Name) else
                  func.attr if isinstance(func, ast.Attribute) else None)
        if callee is None:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            found.add((callee, "*"))
        found.update((callee, i) for i in range(len(node.args)))
        found.update((callee, k.arg) for k in node.keywords)
    return found


def test_lower_layer_defaults_have_callers():
    # a default of operator_core, parameter_algebra or theories is a setting
    # only if some call in the package or its tests sets it
    settings = set()
    for path in MODULES:
        settings |= _settings(ast.parse(path.read_text(encoding="utf-8")))
    package = ROOT / "src" / "emergence"
    unset = sorted(
        f"{module}: {callee}({name})"
        for module in LOWER_LAYERS
        for callee, name, position in _defaults(ast.parse(
            (package / module).read_text(encoding="utf-8")))
        if not {(callee, name), (callee, position), (callee, "*")}
        & settings)
    assert unset == [], f"defaults that no call sets: {unset}"


def _kind_comparisons(function: ast.FunctionDef) -> set:
    """The strings a function compares its ``kind`` or ``self.kind``
    against, with ``==`` or ``in`` a tuple."""
    return {constant.value for node in ast.walk(function)
            if isinstance(node, ast.Compare)
            and (node.left.id if isinstance(node.left, ast.Name) else
                 getattr(node.left, "attr", None)) == "kind"
            for op, comparator in zip(node.ops, node.comparators)
            for constant in ([comparator] if isinstance(op, ast.Eq) else
                             comparator.elts if isinstance(op, ast.In)
                             and isinstance(comparator, ast.Tuple) else [])
            if isinstance(constant, ast.Constant)}


def test_the_builder_docstring_names_every_kind_it_builds():
    # make_discrete_operator's docstring lists its kinds as ``name(...)``:
    # a kind added or removed in the code is added or removed there too
    path = ROOT / "src" / "emergence" / "operator_core.py"
    (builder,) = [node for node in ast.walk(ast.parse(path.read_text(
        encoding="utf-8"))) if isinstance(node, ast.FunctionDef)
        and node.name == "make_discrete_operator"]
    built = _kind_comparisons(builder)
    named = set(re.findall(r"``(\w+)\(", ast.get_docstring(builder)))
    assert built and built == named


def test_the_coefficient_docstring_names_every_kind_it_handles():
    # CoefficientFunction's docstring lists its kinds as ``a | b``: the
    # kinds its constructors make, its evaluation and its preimage handle
    # are those, so no branch outlives the constructor of its kind
    path = ROOT / "src" / "emergence" / "parameter_algebra.py"
    (cls,) = [node for node in ast.walk(ast.parse(path.read_text(
        encoding="utf-8"))) if isinstance(node, ast.ClassDef)
        and node.name == "CoefficientFunction"]
    methods = {node.name: node for node in cls.body
               if isinstance(node, ast.FunctionDef)}
    handled = [_kind_comparisons(methods[name])
               for name in ("__call__", "preimage")]
    built = {node.args[0].value for node in ast.walk(cls)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "cls" and isinstance(node.args[0],
                                                      ast.Constant)}
    (listed,) = re.findall(r"``kind`` is one of ``([\w |]+)``",
                           ast.get_docstring(cls))
    assert built and built == set(listed.split(" | "))
    assert handled == [built, built]


def _loaded_names(tree: ast.Module) -> set:
    """Names a module reads, as a variable or as an attribute."""
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree)
               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)})


def test_every_export_has_a_package_caller_or_a_criterion():
    # a public name stays only while the package itself reads it or an
    # acceptance criterion names it
    import emergence
    package = ROOT / "src" / "emergence"
    read = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            read |= _loaded_names(ast.parse(path.read_text(encoding="utf-8")))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(
        encoding="utf-8"))
    named = _loaded_names(acceptance) | {
        alias.asname or alias.name for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) for alias in node.names}
    orphans = sorted(set(emergence.__all__) - read - named)
    assert orphans == [], f"exports with no caller: {orphans}"
