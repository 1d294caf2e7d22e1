"""Per-layer spans recorded from outside the program.

:meth:`Tracer.install` replaces the public functions of each layer with
wrappers in every ``emergence`` module namespace that holds them, since that
is where callers look them up (``engine.sym_part``, ``scenarios.sym_part``,
``operator_core.adjoint_wrt_pairing`` ...).  ``act`` is wrapped on each
``ParameterAlgebra`` class that defines it.  Nothing under ``src/`` changes.

Spans are kept in memory as ``(id, name, start, end, parent, thread, extra)``
with one span stack per thread, so ``--jobs`` pool workers nest correctly;
the root span of a pool task has no parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# Layer -> (traced functions, end-to-end metrics they should move, workloads
# they should move them on).  Later changes cite these names verbatim.
LAYERS = {
    "operator_core": (
        ("sym_part", "adjoint_wrt_pairing", "operator_residual",
         "lagrangian_value", "right_inverse", "make_discrete_operator"),
        ("pass_s.p50", "reports_per_s", "peak_rss_mb"),
        ("gravity_24x24", "certify_jobs2")),
    "parameter_algebra": (
        ("act", "solve_action_on_identity", "check_action_compatibility"),
        ("pass_s.p50",),
        ("boolean_256", "gravity_24x24", "certify_jobs2")),
    "theories": (
        ("evaluate_family", "evaluate_polynomial", "polynomial_family",
         "verify_structure"),
        ("pass_s.p50",),
        ("boolean_256",)),
    "engine": (
        ("emerge", "verify_emergence", "brute_force_emerge"),
        ("pass_s.p50", "cpu_s_per_report"),
        ("certify_jobs2", "boolean_256")),
    "scenarios": (
        ("build_gravity_background", "feasible_metric_perturbation",
         "noncommutativity_coefficient"),
        ("pass_s.p50",),
        ("gravity_24x24",)),
    "cli": (
        ("load_config", "emit_report"),
        ("reports_per_s", "setup_s"),
        ("shipped_configs",)),
}

MIB = 1024 * 1024


class Tracer:
    """Wraps the layers' functions and keeps their spans in memory."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.main_thread = threading.main_thread().ident

    def _wrap(self, fn, name, note=None):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = [sid, name, start, end, parent, threading.get_ident(),
                        None]
                spans.append(span)
            if note is not None:
                span[6] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function of the already imported package."""
        from emergence.operator_core import Operator
        from emergence.parameter_algebra import ParameterAlgebra

        def operand_bytes(args, kwargs, result):
            return {"operand_bytes": sum(
                a.matrix.nbytes for a in (*args, *kwargs.values())
                if isinstance(a, Operator))}

        modules = [m for n, m in sys.modules.items()
                   if m is not None and n.split(".")[0] == "emergence"]
        for layer, (functions, _, _) in LAYERS.items():
            module = sys.modules[f"emergence.{layer}"]
            for fname in functions:
                if fname == "act":
                    continue
                original = getattr(module, fname)
                note = operand_bytes if layer == "operator_core" else None
                if fname == "verify_emergence":
                    note = _certificate_note(original)
                wrapped = self._wrap(original, f"{layer}.{fname}", note)
                for m in modules:
                    for attr in [a for a, v in vars(m).items()
                                 if v is original]:
                        setattr(m, attr, wrapped)
        classes = [ParameterAlgebra]
        for cls in classes:
            classes.extend(c for c in cls.__subclasses__()
                           if c not in classes)
            if "act" in vars(cls):
                cls.act = self._wrap(vars(cls)["act"],
                                     "parameter_algebra.act")

    def dump(self, path):
        """Write the spans as JSON."""
        keys = ("id", "name", "start", "end", "parent", "thread", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"main_thread": self.main_thread,
                       "spans": [dict(zip(keys, s)) for s in self.spans]},
                      fh)

    def metrics(self, passes: int, wall_s: float) -> dict:
        """Per-layer metrics, each per pass, from the recorded spans.

        Self time is a span's duration minus that of its direct children.
        ``self_s`` counts the main thread only, so per-layer self times add
        up to at most the traced wall time; time spent in pool threads is
        reported apart as ``<layer>.worker_self_s``.
        """
        child_s = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        calls = defaultdict(int)
        main_s = defaultdict(float)
        worker_s = defaultdict(float)
        operand = draws = issued = passed = 0
        for sid, name, start, end, _, thread, extra in self.spans:
            own = end - start - child_s[sid]
            calls[name] += 1
            if thread == self.main_thread:
                main_s[name] += own
            else:
                worker_s[name] += own
            if extra is not None:
                operand += extra.get("operand_bytes", 0)
                draws += extra.get("draws", 0)
                issued += "passed" in extra
                passed += extra.get("passed", False)
        out = {}
        for layer, (functions, _, _) in LAYERS.items():
            names = [f"{layer}.{f}" for f in functions]
            for name in names:
                out[f"{name}.calls"] = (calls[name] / passes, "count")
                out[f"{name}.self_s"] = (main_s[name] / passes, "s")
            layer_s = sum(main_s[n] for n in names)
            out[f"{layer}.self_s"] = (layer_s / passes, "s")
            out[f"{layer}.worker_self_s"] = (
                sum(worker_s[n] for n in names) / passes, "s")
            out[f"{layer}.share"] = (layer_s / wall_s, "1")
        out["operator_core.operand_mb"] = (operand / MIB / passes, "MiB")
        out["engine.verify_emergence.draws"] = (draws / passes, "count")
        out["engine.certificates.pass_ratio"] = (passed / issued, "1")
        return out


def _certificate_note(verify_emergence):
    signature = inspect.signature(verify_emergence)

    def note(args, kwargs, certificate):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"draws": bound.arguments["n_samples"],
                "passed": bool(certificate.passed)}

    return note
