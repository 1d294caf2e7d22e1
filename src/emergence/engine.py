"""Synthesis of emergence maps between parameterized theories.

Given a source family ``eps -> Psi1(eps)`` and a target polynomial family,
the engine constructs a parameter map ``F`` such that both Lagrangians agree
on every field: ``<phi, Psi1(eps) phi> = <phi, Psi2(F(eps)) phi>``.  Maps are
built per term: constant-coefficient terms are split off as a fixed offset,
and the active terms go through one recursion over the slots.  Each level
groups the terms by the exponent ``j`` of the last slot, distributes the
source over the groups by dyadic halving (exact in binary floating point)
and transports each group by the ``j``-th power of that slot's right
inverse; a group with no slot left is a single term, solved through the
identity orbit of the parameter action.

Every constructor samples its own result and attaches a
:class:`Certificate`; a constructor never returns an uncertified map, it
raises ``HypothesisViolated`` with the failing certificate as evidence.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (BadSpec, DegreeMismatch, DimensionTooLarge,
                     EmergenceError, EmptyAccumulation, HypothesisViolated,
                     NoPreimage, NotInIdentityOrbit, NotMultiplicative,
                     NotRightInvertible, NotScalarForm, NotScalarInvariant,
                     SpaceMismatch)
from .operator_core import (FieldBlock, Operator, block_rows, compose,
                            exact_sums, frobenius_coordinates,
                            lagrangian_value, operator_residual, power,
                            reflect, right_inverse, scale, stack_operators,
                            subtract, sym_part)
from .parameter_algebra import (CoefficientFunction, Draws, NonnegativeReals,
                                ProductAlgebra, solve_action_on_identity)
from .theories import (OperatorFamily, PolynomialFamily, ScalarTimesFixed,
                       compose_families, evaluate_draws, evaluate_family,
                       evaluate_polynomial, monomial_operator,
                       polynomial_family, scalar_family, sum_families,
                       transported_slots)

DEFAULT_SAMPLES = 40
DEFAULT_TOL = 1e-8

#: smallest residual a report writes; rounding noise below it depends on
#: the BLAS kernel, so reports state only that the residual is under it
REPORT_FLOOR = 1e-12

# --- certificates and provenance ------------------------------------------------


def residual_bound(value: float) -> float:
    """The residual as a report writes it: a power of ten at or above it.

    Returns the smallest ``10**k`` that is not below ``value``, but never
    less than :data:`REPORT_FLOOR` (zero and negative values give the
    floor).  A bound never understates the raw value; infinities and NaN
    pass through unchanged.
    """
    value = float(value)
    if not math.isfinite(value):
        return value
    if value <= REPORT_FLOOR:
        return REPORT_FLOOR
    exponent = math.ceil(math.log10(value))
    # log10 rounds: step to the neighbouring decade when it overshoots or
    # undershoots the true smallest bound
    while float(f"1e{exponent}") < value:
        exponent += 1
    while float(f"1e{exponent - 1}") >= value:
        exponent -= 1
    return float(f"1e{exponent}")


@dataclass(frozen=True)
class Certificate:
    """Sampled evidence that the two Lagrangians agree under the map.

    The functional residual is relative (denominator ``max(1, |L1|)``), the
    operator residual is the raw Frobenius norm of the symmetric-part
    difference.  ``passed`` holds exactly when both raw maxima are within
    tolerance.

    :meth:`to_json_dict` writes each maximum as :func:`residual_bound`, so
    the written numbers do not depend on the BLAS kernel.  A bound above
    ``tolerance`` on a passed certificate means the raw residual lies under
    the reporting floor :data:`REPORT_FLOOR` (or, for a tolerance that is
    not a power of ten, in the decade just below the bound); the verdict is
    always taken on the raw value.

    ``draw_normals`` is what :func:`verify_emergence` read per draw from
    the seed's stream: the carrier's normals and then the field's.  A wider
    call that takes the certificate as ``covered`` resumes after its draws;
    a certificate made by hand has None and is evaluated in full.  It is
    neither compared nor written.
    """

    samples: int
    max_functional_residual: float
    max_operator_residual: float
    tolerance: float
    passed: bool
    seed: int
    draw_normals: int | None = field(default=None, compare=False,
                                     repr=False)

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "max_functional_residual":
                residual_bound(self.max_functional_residual),
            "max_operator_residual":
                residual_bound(self.max_operator_residual),
            "tolerance": self.tolerance,
            "passed": self.passed,
            "seed": self.seed,
        }


def _digest(rendered: dict) -> str:
    """sha256 of a rendered provenance tree's canonical JSON."""
    blob = json.dumps(rendered, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ProvenanceNode:
    """One step of the construction; leaves are always monomial solves."""

    kind: str  # monomial | composition | sum | univariate | accumulate | multivariate
    detail: str = ""
    data: tuple = ()
    children: tuple = ()

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.detail:
            out["detail"] = self.detail
        for key, value in self.data:
            out[key] = value
        if self.children:
            out["children"] = [c.to_json_dict() for c in self.children]
        return out


def _monomial_node(alpha, coefficient, weight, detail="") -> ProvenanceNode:
    data = (("exponents", list(alpha)),
            ("coefficient", coefficient.describe() if coefficient is not None
             else "unital"),
            ("weight", weight))
    return ProvenanceNode("monomial", detail, data)


# --- the map record ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EmergenceMap:
    """A certified parameter map from the source carrier to the target's.

    ``parameter_map`` returns either a shared parameter, a per-term dict
    keyed by multi-index (covering every coefficient occurrence exactly
    once), or a nested pair for sum/composition targets.
    """

    source: OperatorFamily
    target: object  # PolynomialFamily or OperatorFamily
    parameter_map: object  # callable eps -> assignment
    assignment_kind: str  # "shared" | "per_term" | "pair"
    provenance: ProvenanceNode
    certificate: Certificate
    label: str = ""

    def __call__(self, eps):
        return self.parameter_map(eps)

    def to_json_dict(self) -> dict:
        rng = np.random.default_rng(self.certificate.seed)
        params = self.source.algebra.samples(rng, 3)
        probes = [{"parameter": json_form(eps),
                   "assignment": json_form(value)}
                  for eps, value in zip(params, map_draws(
                      self.parameter_map, params, self.target.algebra))]
        provenance = self.provenance.to_json_dict()
        return {
            "label": self.label,
            "assignment_kind": self.assignment_kind,
            "certificate": self.certificate.to_json_dict(),
            "provenance": provenance,
            "provenance_digest": _digest(provenance),
            "probes": probes,
        }


def json_form(value):
    """A report value as JSON, the one form every report value takes: a
    dict's tuple keys joined by commas and other keys as ``str``; lists for
    tuples and real arrays; ``{"real", "imag"}`` for a complex number or
    array; a :class:`Certificate` by its ``to_json_dict()``; a numpy scalar
    as the Python one it holds; and anything else that is not a JSON
    scalar by its ``repr``."""
    if isinstance(value, (str, int, float)) or value is None:
        return value
    if isinstance(value, dict):
        return {",".join(map(str, key)) if isinstance(key, tuple)
                else str(key): json_form(v) for key, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [json_form(v) for v in value]
    if isinstance(value, Certificate):
        return value.to_json_dict()
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {"real": value.real.tolist(), "imag": value.imag.tolist()}
        return value.tolist()
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, complex):
        return {"real": value.real, "imag": value.imag}
    return value if isinstance(value, (str, int, float)) else repr(value)


# --- verification -----------------------------------------------------------------


def map_block(parameter_map, params, carrier):
    """The map at every parameter of ``params`` as one block of values,
    draw ``i`` with the bits of ``parameter_map(eps_i)``: a map's block form,
    ``parameter_map.block(params)``, which refuses as the calls one draw at
    a time would, or else its calls, stacked by ``carrier.stack``."""
    block = getattr(parameter_map, "block", None)
    if block is not None:
        return block(params)
    return carrier.stack(parameter_map(eps) for eps in params)


def map_draws(parameter_map, params, carrier) -> list:
    """``[parameter_map(eps) for eps in params]``, with the same bits: the
    block of :func:`map_block`, split into its draws."""
    params = list(params)
    return _split(map_block(parameter_map, params, carrier), len(params))


def _split(value, count: int) -> list:
    """A block of values as ``count`` per-draw values, the inverse of
    stacking them: a table of blocks as one table per draw, in the same key
    order, and a tuple of blocks as one tuple per draw."""
    if isinstance(value, dict):
        columns = {key: _split(v, count) for key, v in value.items()}
        return [{key: column[i] for key, column in columns.items()}
                for i in range(count)]
    if isinstance(value, tuple):
        return list(zip(*(_split(v, count) for v in value)))
    return list(value)


def _draw_entries(source, target) -> int:
    """Entries one draw's operator takes in a certification chunk:
    ``n**2`` when a chunk may stack dense matrices (either family is a tree
    or acts successively, a product carrier; or per-row scales make a
    non-diagonal body dense), else the size of a draw's body in the stack
    of the fixed operators, which is dense, ``n**2`` too, when their
    structures mix."""
    n = source.space.dim
    bodies = []
    for family in (source, target):
        if isinstance(family.algebra, ProductAlgebra):
            return n * n
        fixed = ([monomial_operator(family, alpha)
                  for alpha, _ in family.terms]
                 if isinstance(family, PolynomialFamily)
                 else [family.form.fixed])
        if family.algebra.per_row and any(op.structure != "diagonal"
                                          for op in fixed):
            return n * n
        bodies += fixed
    return stack_operators(bodies).body[0].size


def _draw_bytes(source, target) -> int:
    """What one certification draw holds at once against the block budget:
    its field; its operator in both stacks, their difference, its adjoint
    and symmetric part, each of :func:`_draw_entries` entries; and the
    norms' copy, in grid order for a stencil, so at least ``n`` entries."""
    n, k = source.space.dim, _draw_entries(source, target)
    return (n + 5 * k + max(k, n)) * np.dtype(source.space.dtype).itemsize


def functional_residual(left, right, fields) -> float:
    """Worst ``|l1 - l2| / max(1, |l1|)`` of the two Lagrangians over the
    fields (an array, a FieldBlock, or one per draw of stacks); NaN wins."""
    l1 = lagrangian_value(left, fields)
    l2 = lagrangian_value(right, fields)
    return float(np.max(np.abs(l1 - l2) / np.maximum(1.0, np.abs(l1))))


class Normals:
    """The standard normals of ``default_rng(seed)`` in generator order,
    one stream per run and seed, each normal drawn at most once.

    Split draws give the variates of one call, so :meth:`read` draws only
    what lies past the drawn end, as one piece, and every reader of the
    stream sees the normals its own ``default_rng(seed)`` would draw: the
    gravity runners' fixed fields and each certification of the seed read
    one stream.  A read is read-only: a view when one piece holds it, and
    concatenated when it spans pieces.

    The stream keeps its first ``keep`` normals for readers that come back
    to them, such as a gravity runner's certification to its fixed fields,
    until a read ends past them.  A read that ends past ``keep`` releases
    every piece wholly behind its end: later reads go forward from there,
    and a view it returned keeps its piece alive as long as the view
    lives.  Reading released normals raises ``ValueError``.
    """

    def __init__(self, seed, keep: int = 0):
        self.seed = seed
        self.keep = keep
        self._rng = np.random.default_rng(seed)
        self._pieces = []  # (position of the first normal, read-only piece)
        self.drawn = 0

    def read(self, start: int, count: int) -> np.ndarray:
        """Normals ``start`` to ``start + count`` of the stream, flat."""
        end = start + count
        if end > self.drawn:
            piece = self._rng.standard_normal(end - self.drawn)
            piece.flags.writeable = False
            self._pieces.append((self.drawn, piece))
            self.drawn = end
        parts = [piece[max(start - at, 0):end - at]
                 for at, piece in self._pieces
                 if at < end and at + len(piece) > start]
        if sum(len(part) for part in parts) != count:
            raise ValueError(f"normals {start} to {end} of seed {self.seed} "
                             f"were released")
        if end > self.keep:
            self._pieces = [(at, piece) for at, piece in self._pieces
                            if at + len(piece) > end]
        if len(parts) == 1:
            return parts[0]
        out = np.concatenate(parts) if parts else np.empty(0)
        out.flags.writeable = False
        return out


def _draw_chunk(algebra, space, normals: Normals, start: int, m: int):
    """Certification draws ``start`` to ``start + m`` of the stream
    ``normals``: their parameters and an ``(m, n)`` array of their fields.

    A draw takes the carrier's normals and then its field's, so the chunk
    is one read, row ``i`` holding draw ``i``'s: the variates per-draw
    generator calls would draw, in their order.
    """
    k = algebra.normals
    per_draw = k + space.normals
    z = normals.read(start * per_draw, m * per_draw).reshape(m, per_draw)
    return algebra.from_normals(z[:, :k]), space.fields_from_normals(z[:, k:])


def verify_emergence(source: OperatorFamily, target, parameter_map,
                     n_samples: int = 100, tol: float = DEFAULT_TOL,
                     seed: int | Normals = 0, jobs: int | None = None,
                     covered: Certificate | None = None) -> Certificate:
    """Sample parameters and fields; report both residual maxima.

    Deterministic for a given seed regardless of ``jobs`` and of the chunk
    size: each chunk of as many draws as one block holds
    (:func:`~emergence.operator_core.block_rows`) is read just before it
    is evaluated as stacked arrays (the source's :func:`evaluate_draws`,
    the target's at :func:`map_block`), and each draw gets the bits it gets
    alone; the maximum keeps NaN, so any non-finite residual fails, as a
    non-passing certificate, never an exception.
    :func:`_draw_chunk` reads each chunk's draws from one :class:`Normals`
    stream: the run's stream of its seed when ``seed`` is one, which other
    readers share, else a stream of the int (or None) of the call's own.
    ``covered``, a certificate this function made on the same source,
    target and map with this int seed and at most ``n_samples``, stands in
    for its draws: only the later draws are evaluated, read from the
    position after the covered ones (``covered.samples`` draws of
    ``draw_normals`` normals each).  Covered normals the stream has not
    drawn yet are drawn a chunk at a time and not evaluated, so the stream
    holds one chunk then too.  Fewer than one sample is refused.
    """
    if n_samples < 1:
        raise BadSpec(f"n_samples must be at least 1, got {n_samples}")
    normals = seed if isinstance(seed, Normals) else Normals(seed)
    seed = normals.seed
    per_draw = source.algebra.normals + source.space.normals
    start, head = 0, (0.0, 0.0)
    if (covered is not None and covered.draw_normals == per_draw
            and isinstance(seed, int) and covered.seed == seed
            and covered.samples <= n_samples):
        start = covered.samples
        head = (covered.max_functional_residual, covered.max_operator_residual)
    errors = np.geterr()  # pool threads do not inherit the caller's state
    size = block_rows(_draw_bytes(source, target))
    skip, step = start * per_draw, size * per_draw
    for at in range(normals.drawn, skip, step):  # covered, not evaluated
        normals.read(at, min(step, skip - at))
    chunks = (_draw_chunk(source.algebra, source.space, normals, i,
                          min(size, n_samples - i))
              for i in range(start, n_samples, size))

    def block(chunk):
        params, fields = chunk
        with np.errstate(**errors):
            left = evaluate_draws(source, params)
            right = evaluate_family(target, map_block(
                parameter_map, params, target.algebra))
            # one block per chunk: both sides share its self-correlations
            fields = FieldBlock(fields, source.space)
            return (functional_residual(left, right, fields),
                    float(np.max(operator_residual(left, right))))

    if jobs is not None and jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(block, list(chunks)))
    else:
        results = [block(chunk) for chunk in chunks]
    fn_max, op_max = map(float, np.maximum(head, np.max(
        np.reshape(results, (-1, 2)), axis=0, initial=0.0)))
    return Certificate(n_samples, fn_max, op_max, tol,
                       fn_max <= tol and op_max <= tol, seed, per_draw)


def _certify(source, target, parameter_map, kind, provenance, label,
             n_samples, tol, seed) -> EmergenceMap:
    """Attach a certificate or refuse: constructors never return failures.
    ``seed`` is an int or a :class:`Normals` stream, as
    :func:`verify_emergence` takes it."""
    cert = verify_emergence(source, target, parameter_map, n_samples, tol,
                            seed)
    if not cert.passed:
        raise HypothesisViolated(
            f"synthesized map for {label!r} failed certification "
            f"(functional {cert.max_functional_residual:.3e}, operator "
            f"{cert.max_operator_residual:.3e}, tol {tol:.1e})",
            evidence={"certificate": cert})
    return EmergenceMap(source, target, parameter_map, kind, provenance,
                        cert, label)


# --- flag gates --------------------------------------------------------------------


def _has_verified(family: OperatorFamily, *flags: str) -> bool:
    return any(f in family.verified for f in flags)


def _gate_claims(family: OperatorFamily) -> None:
    missing = family.claimed - family.verified
    if missing:
        raise HypothesisViolated(
            f"claimed structure flags were never verified: {sorted(missing)}",
            evidence={"claimed": sorted(family.claimed),
                      "verified": sorted(family.verified)})


def _same_source(a: OperatorFamily, b: OperatorFamily) -> bool:
    if a is b:
        return True
    if not a.space.matches(b.space):
        return False
    params = a.algebra.samples(np.random.default_rng(11), 3)
    try:
        residual = operator_residual(evaluate_draws(a, params),
                                     evaluate_draws(b, params))
    except EmergenceError:
        return False
    # a NaN residual is no agreement
    return bool(np.all(residual <= 1e-10))


# --- monomial emergence -------------------------------------------------------------


def emerge_monomial(source: OperatorFamily, coefficient: CoefficientFunction,
                    slot: Operator, exponent: int, tol: float = DEFAULT_TOL,
                    n_samples: int = DEFAULT_SAMPLES,
                    seed: int = 0) -> EmergenceMap:
    """Emerge the source from the single-term target ``g(delta) slot^l``.

    The parameter map solves ``Psi1(eps) R^l`` for an identity-orbit element
    and pulls it back through ``g``.  ``l = 0`` needs no inverse (the empty
    power is the identity).
    """
    _gate_claims(source)
    if not slot.space.matches(source.space):
        raise SpaceMismatch("target slot lives on a different field space")
    if exponent < 0:
        raise BadSpec("monomial exponent must be nonnegative")
    if not coefficient.nowhere_vanishing:
        raise HypothesisViolated(
            "monomial coefficient must be nowhere vanishing",
            evidence={"coefficient": coefficient.describe()})
    post = power(right_inverse(slot), exponent) if exponent > 0 else None
    target = scalar_family(source.algebra, slot, exponent, coefficient,
                           label=f"{coefficient.kind} * slot^{exponent}")
    fmap = _monomial_solver(source, coefficient, post, source.algebra,
                            weight=1.0, offset=None,
                            term_label=f"slot^{exponent}", tol=tol)
    prov = _monomial_node((exponent,), coefficient, 1.0)
    return _certify(source, target, fmap, "shared", prov,
                    f"monomial[{exponent}] from {source.label}",
                    n_samples, tol, seed)


def _transport(op: Operator, post: Operator | None) -> Operator:
    """``op o post`` whose diagonal is correctly rounded sums, so the orbit
    coordinates read from it do not depend on the BLAS kernel.

    A product of circulants has one diagonal value, the sum of
    ``f[k] p[-k]`` over the stencils: the products a dense row-times-column
    sum adds.  A product of diagonals is exact as it is.
    """
    if post is None:
        return op
    out = compose(op, post)
    if out.structure == "diagonal":
        return out
    body = np.array(out.body)
    if out.structure == "stencil":
        body.flat[0] = exact_sums(np.ravel(op.body * reflect(post.body)))
    else:
        # row i's products held transposed, the layout exact_sums runs on
        np.fill_diagonal(body, exact_sums((op.matrix.T * post.matrix).T))
    return Operator(body, out.space, out.structure)


class _BlockMap:
    """A parameter map over its block function: ``block(params)`` maps a
    block of draws (any iterable of parameters) at once, and a call on one
    draw is draw 0 of its block of one, so draw ``i`` of a block is
    ``self(eps_i)`` to the bit.  A block refuses as its draws do one at a
    time: when it raises, its draws are run again as blocks of one, so the
    earliest failing draw, and within it the first failing term, raises.
    No draws give an empty block: each solver's :class:`Draws` holds no
    values."""

    def __init__(self, solve):
        self._block = solve

    def __call__(self, eps):
        return _split(self._block([eps]), 1)[0]

    def block(self, params):
        params = list(params)
        try:
            return self._block(params)
        except Exception:
            for eps in params:
                self._block([eps])
            raise


def _monomial_solver(source, coefficient, post, algebra, weight, offset,
                     term_label, tol) -> _BlockMap:
    """Solver ``eps -> delta`` for one active term, with a block form.

    The working slice is ``(Psi1(weight*eps) - weight*offset) @ post``.  The
    source scales rows, so ``act(c, F) @ post = act(c, F @ post)``: the fixed
    operator and the offset are transported once here, and each block is one
    action and one subtraction.  Each draw's slice is read as an
    identity-orbit element of the target action and pulled back through the
    coefficient.
    """
    form = source.form
    if not isinstance(form, ScalarTimesFixed):
        raise BadSpec("synthesis needs a scalar-times-fixed source, one that "
                      "is linear in its parameter")
    transported = replace(source, form=ScalarTimesFixed(
        _transport(form.fixed, post), form.coefficient))
    offset = None if offset is None else scale(weight,
                                               _transport(offset, post))

    def solve(params):
        if not params:  # no draw to solve: the empty block
            return Draws.stack([])
        if weight != 1.0:
            params = [source.algebra.scale(weight, e) for e in params]
        m = evaluate_draws(transported, params)
        if offset is not None:
            m = subtract(m, offset)
        try:
            c = solve_action_on_identity(algebra, m, tol=tol)
        except NotInIdentityOrbit as exc:
            raise NotScalarForm(
                f"term {term_label}: transported source slice is not in "
                f"the identity orbit of the parameter action",
                residual=exc.residual) from exc
        try:
            return coefficient.preimage(c)
        except NoPreimage as exc:
            raise NoPreimage(f"term {term_label}: {exc}") from exc

    return _BlockMap(solve)


# --- composition / sum / accumulation ----------------------------------------------


def _split_map(split, map2, map3) -> _BlockMap:
    """``eps -> (F2(split(eps)), F3(split(eps)))`` onto a sum or composition
    target, ``split`` a halving or a square root; a block gives two blocks."""

    def pair(params):
        parts = [split(eps) for eps in params]
        return tuple(map_block(m.parameter_map, parts, m.target.algebra)
                     for m in (map2, map3))

    return _BlockMap(pair)


def _check_constituents(source, maps):
    for m in maps:
        if not m.certificate.passed:
            raise BadSpec("constituent map carries a failing certificate")
        if not _same_source(source, m.source):
            raise BadSpec("constituent map was certified against a "
                          "different source family")


def emerge_composition(source: OperatorFamily, map2: EmergenceMap,
                       map3: EmergenceMap, tol: float = DEFAULT_TOL,
                       n_samples: int = DEFAULT_SAMPLES,
                       seed: int = 0) -> EmergenceMap:
    """Emerge the source from the composition of two certified targets.

    ``H(eps) = (F2(sqrt(eps)), F3(sqrt(eps)))``: a multiplicative source
    splits across the square root, each factor is handled by the given maps.
    """
    _gate_claims(source)
    if not _has_verified(source, "multiplicative", "homomorphic"):
        raise NotMultiplicative(
            "composition split needs a verified multiplicative source")
    _check_constituents(source, (map2, map3))
    composed = compose_families(map2.target, map3.target)
    fmap = _split_map(source.algebra.sqrt_select, map2, map3)
    prov = ProvenanceNode("composition", "",
                          (("branch", "principal_sqrt"),),
                          (map2.provenance, map3.provenance))
    return _certify(source, composed, fmap, "pair", prov,
                    f"composition from {source.label}", n_samples, tol, seed)


def _sum_maps(source, map2, map3, justification, tol, n_samples, seed):
    _check_constituents(source, (map2, map3))
    summed = sum_families(map2.target, map3.target)
    fmap = _split_map(lambda eps: source.algebra.scale(0.5, eps), map2, map3)
    prov = ProvenanceNode("sum", justification,
                          (("weights", [0.5, 0.5]),),
                          (map2.provenance, map3.provenance))
    return _certify(source, summed, fmap, "pair", prov,
                    f"sum from {source.label}", n_samples, tol, seed)


def emerge_sum(source: OperatorFamily, map2: EmergenceMap,
               map3: EmergenceMap, tol: float = DEFAULT_TOL,
               n_samples: int = DEFAULT_SAMPLES, seed: int = 0) -> EmergenceMap:
    """Emerge the source from the sum of two certified targets.

    ``H(eps) = (F2(eps/2), F3(eps/2))``: a scalar-invariant source splits as
    two halves of itself.
    """
    _gate_claims(source)
    if not _has_verified(source, "scalar_invariant"):
        raise NotScalarInvariant(
            "sum split needs a verified scalar-invariant source")
    return _sum_maps(source, map2, map3, "scalar_halving", tol, n_samples,
                     seed)


def emerge_accumulate(source: OperatorFamily, pairs, tol: float = DEFAULT_TOL,
                      n_samples: int = DEFAULT_SAMPLES,
                      seed: int = 0) -> EmergenceMap:
    """Emerge the source from a sum of pairwise compositions.

    Left fold: compose within each pair, then sum onto the running partial.
    A single pair reduces to the composition alone.  A homomorphic source
    justifies both splits (multiplicativity for the square roots, additivity
    for the dyadic halving).
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyAccumulation("accumulation needs at least one pair")
    _gate_claims(source)
    if not _has_verified(source, "homomorphic"):
        raise HypothesisViolated(
            "accumulation needs a verified homomorphic source",
            evidence={"verified": sorted(source.verified)})
    running = None
    for i, (ma, mb) in enumerate(pairs):
        try:
            comp = emerge_composition(source, ma, mb, tol, n_samples, seed)
            if running is None:
                running = comp
            else:
                running = _sum_maps(source, running, comp, "additive_halving",
                                    tol, n_samples, seed)
        except EmergenceError as exc:
            exc.args = (f"accumulation step {i}",) + exc.args
            raise
    if len(pairs) == 1:
        return running
    prov = ProvenanceNode("accumulate", "",
                          (("pairs", len(pairs)),),
                          (running.provenance,))
    return replace(running, provenance=prov,
                   label=f"accumulation[{len(pairs)}] from {source.label}")


# --- polynomial synthesis ------------------------------------------------------------


def _fold_weights(s: int) -> tuple:
    """Dyadic left-fold weights: exact halving, sums to 1.0 in binary."""
    if s <= 1:
        return (1.0,)
    w = [2.0 ** -(s - 1), 2.0 ** -(s - 1)]
    w.extend(2.0 ** -(s - k) for k in range(2, s))
    return tuple(w)


def _synthesize(source, poly, terms, offset, weight, post, tol, tail=()):
    """Core recursion over the slots: returns ``(solvers, provenance)``.

    ``terms`` are sorted ``(exponents, coefficient)`` pairs over the first
    slots of ``poly``; a term's multi-index is ``exponents + tail``, with
    ``tail`` the exponents of the slots factored out above.  ``solvers``
    is a list of ``(alpha, eps -> delta)``, one per term, and ``poly``
    gives only the right inverses and the carrier.  The working source
    at this level is ``(Psi1(weight*eps) - weight*offset) @ post``.  The
    terms are grouped by the last slot's exponent ``j`` (with one slot
    each term is its own group), each group takes its dyadic weight and is
    transported by ``R_last**j``; a group that keeps a slot recurses, and
    a single term is solved through the identity orbit, its refusals
    labelled by its whole multi-index.
    """
    last = len(terms[0][0]) - 1
    groups = {}
    for alpha, f in terms:
        groups.setdefault(alpha[-1], []).append((alpha[:-1], f))
    groups = sorted(groups.items())
    weights = _fold_weights(len(groups))
    solvers = []
    children = []
    for (j, group), w in zip(groups, weights):
        group_post = post
        if j > 0:
            r_pow = power(poly.right_inverses[last], j)
            group_post = r_pow if post is None else compose(post, r_pow)
        if last:
            sub_solvers, node = _synthesize(source, poly, group, offset,
                                            weight * w, group_post, tol,
                                            (j,) + tail)
            solvers.extend(sub_solvers)
            if j > 0:
                leaf = _monomial_node((j,), None, weight * w,
                                      detail="unital_identity")
                node = ProvenanceNode(
                    "composition", "right_inverse_transport",
                    (("slot", last), ("exponent", j)), (node, leaf))
        else:
            ((_, f),) = group
            alpha = (j,) + tail
            solvers.append((alpha, _monomial_solver(
                source, f, group_post, poly.algebra, weight * w, offset,
                term_label=f"{alpha} (power {j})", tol=tol)))
            node = _monomial_node((j,), f, weight * w)
        children.append(node)
    if len(groups) == 1:
        return solvers, children[0]
    kind, data = (("multivariate", (("slot", last),)) if last
                  else ("univariate", ()))
    prov = ProvenanceNode(kind, "additive_halving",
                          data + (("weights", list(weights)),),
                          tuple(children))
    return solvers, prov


def _split_constants(poly: PolynomialFamily):
    active = [(a, f) for a, f in poly.terms if not f.is_constant]
    constants = [(a, f) for a, f in poly.terms if f.is_constant]
    return active, constants


def emerge(source: OperatorFamily, poly: PolynomialFamily,
           tol: float = DEFAULT_TOL, n_samples: int = DEFAULT_SAMPLES,
           seed: int = 0) -> EmergenceMap:
    """Synthesize a certified emergence map onto a polynomial family.

    Recursion on the number of slot variables: the last variable is factored
    out, the source is distributed over the groups by exact dyadic halving,
    and each group is transported by a power of the last slot's right
    inverse, down to single terms solved through the identity orbit.
    """
    _gate_claims(source)
    if not source.space.matches(poly.space):
        raise SpaceMismatch("source and target live on different field spaces")
    if poly.coefficient_degree <= 0 \
            or poly.coefficient_degree % source.degree != 0:
        raise DegreeMismatch(
            f"target coefficient degree {poly.coefficient_degree} is not a "
            f"positive multiple of the source degree {source.degree}")
    active, constants = _split_constants(poly)
    for alpha, f in active:
        if not f.nowhere_vanishing:
            raise HypothesisViolated(
                f"coefficient at {alpha} may vanish; preimages are not "
                f"defined everywhere", evidence={"term": list(alpha)})
    for i in transported_slots(poly.terms):
        if i not in poly.right_inverses:
            raise NotRightInvertible(
                f"slot {i} has no right inverse: "
                f"{poly.right_inverse_failures.get(i, 'not attempted')}")
    if len(active) > 1 and not _has_verified(
            source, "additive", "homomorphic", "scalar_invariant"):
        raise HypothesisViolated(
            "distributing the source over several terms needs a verified "
            "additive (or homomorphic, or scalar-invariant) source",
            evidence={"verified": sorted(source.verified)})

    zero = poly.algebra.zero()
    offset = (evaluate_polynomial(replace(poly, terms=tuple(constants)), zero)
              if constants else None)
    if active:
        solvers, core_prov = _synthesize(source, poly, sorted(active),
                                         offset, 1.0, None, tol)
    else:
        solvers, core_prov = [], None

    def table(params):
        # eps -> {alpha: delta}: each active term's solver, and the
        # algebra's zero for each constant term
        out = {alpha: map_block(g, params, poly.algebra)
               for alpha, g in solvers}
        zeros = Draws.stack([zero] * len(params))
        for alpha, _ in constants:
            out[alpha] = zeros
        return out

    if constants:
        const_leaves = tuple(
            _monomial_node(alpha, f, 1.0, detail="constant_coefficient")
            for alpha, f in constants)
        children = ((core_prov,) if core_prov is not None else ()) + const_leaves
        prov = ProvenanceNode("sum", "constant_offset", (), children)
    else:
        prov = core_prov
    if prov is None:
        raise BadSpec("polynomial family has no terms")
    return _certify(source, poly, _BlockMap(table), "per_term", prov,
                    f"emerge from {source.label}", n_samples, tol, seed)


def identity_emergence(source: OperatorFamily, tol: float = DEFAULT_TOL,
                       n_samples: int = DEFAULT_SAMPLES,
                       seed: int = 0) -> EmergenceMap:
    """View a coefficient-free scalar family as its own polynomial target."""
    if not isinstance(source.form, ScalarTimesFixed) \
            or source.form.coefficient is not None:
        raise BadSpec("identity emergence needs a plain scalar-times-fixed "
                      "source")
    poly = polynomial_family([source.form.fixed],
                             {(1,): CoefficientFunction.linear(1.0)},
                             source.algebra, label="identity_view")
    prov = _monomial_node((1,), CoefficientFunction.linear(1.0), 1.0,
                          detail="identity_map")
    return _certify(source, poly, lambda eps: eps, "shared", prov,
                    f"identity on {source.label}", n_samples, tol, seed)


# --- brute-force oracle ---------------------------------------------------------------


def brute_force_emerge(source: OperatorFamily, poly: PolynomialFamily, params,
                       tol: float = DEFAULT_TOL) -> list:
    """Independent oracle: fit the per-term parameters at each of ``params``.

    ``params`` is any iterable of parameters, a :class:`Draws` block
    included; the result has one entry per parameter, the per-term
    assignment when the residual is within tolerance and ``None``
    otherwise.  Linear and affine coefficients reduce to one least-squares
    solve over the symmetric parts, in the coordinates of their bodies when
    all share one structure (a stencil entry stands for its n matrix
    entries, the zeros off a diagonal drop out) and of their dense matrices
    otherwise; other coefficient kinds fall back to a nested grid search
    over at most two scalar parameters, draw by draw.  What does not depend
    on the draw is built once: the offsets, and on the linear route the
    basis pieces (one stack per term) and their symmetric parts.  Each draw
    stacks them after its target's, takes their coordinates as its design
    and takes its own least-squares solve, so each fit has the bits it has
    alone.
    """
    active, constants = _split_constants(poly)
    algebra = poly.algebra
    try:
        basis = algebra.basis()
    except Exception as exc:
        raise DimensionTooLarge(
            f"parameter carrier has no finite coordinate basis: {exc}")
    dim = len(basis) * len(active)
    if dim > 8:
        raise DimensionTooLarge(
            f"parameter dimension {dim} exceeds the oracle bound 8")
    targets = [evaluate_family(source, eps) for eps in params]
    zero = algebra.zero()
    offsets = []
    for alpha, f in constants:
        value = f(zero)
        mono = monomial_operator(poly, alpha)
        offsets.append(scale(value, mono) if np.isscalar(value)
                       else algebra.act(value, mono))

    def assignment(values) -> dict:
        out = dict(zip((alpha for alpha, _ in active), values))
        for alpha, _ in constants:
            out[alpha] = zero
        return out

    linear_kinds = all(f.kind in ("linear", "affine") for _, f in active)
    if not linear_kinds:
        if len(active) > 2 or len(basis) != 1:
            raise DimensionTooLarge(
                "grid search supports at most two scalar parameters")
        return [_grid_fit(poly, len(active), assignment, target, tol)
                for target in targets]

    # under a hermitian pairing the symmetric part is only real-linear
    # in a complex parameter: fit its real and imaginary parts apart
    split = (algebra.scalar_kind == "complex"
             and poly.space.pairing.symmetry == "hermitian")
    units = (1.0, 1j) if split else (1.0,)
    pieces = []
    for alpha, f in active:
        mono = monomial_operator(poly, alpha)
        slope = f.params[0]
        off = f.params[1] if f.kind == "affine" else 0.0
        if off:
            offsets.append(scale(off, mono))
        pieces.append(algebra.act(Draws.stack(
            algebra.scale(slope * u, e) for u in units for e in basis), mono))
    # each fixed draw's symmetric part; with the target's, one stack whose
    # coordinates are the columns: in body coordinates, or as dense
    # matrices where the structures mix
    fixed = [draw for op in (*offsets, *pieces) for draw in sym_part(op).stack]
    k = len(basis)

    def fit(target):
        cols = np.ascontiguousarray(frobenius_coordinates(stack_operators(
            [sym_part(target), *fixed])).T)
        if (split or algebra.scalar_kind != "complex") \
                and np.iscomplexobj(cols):
            cols = np.concatenate([cols.real, cols.imag])
        a = cols[:, 1 + len(offsets):]
        rhs = cols[:, 0] - cols[:, 1:1 + len(offsets)].sum(axis=1)
        x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
        residual = float(np.linalg.norm(a @ x - rhs))
        if residual > tol:
            return None
        values = []
        for i in range(len(active)):
            coords = x[i * k * len(units):(i + 1) * k * len(units)]
            if split:
                coords = coords[:k] + 1j * coords[k:]
            values.append(algebra.from_coords(coords))
        return assignment(values)

    return [fit(target) for target in targets]


def _grid_fit(poly, count, assignment, target, tol):
    """The oracle's nested grid search over ``count`` scalar parameters,
    for nonlinear coefficients: the per-term assignment, or None."""

    def objective(values):
        return operator_residual(evaluate_polynomial(poly, assignment(values)),
                                 target)

    cone = isinstance(poly.algebra, NonnegativeReals)
    lo = 0.0 if cone else -4.0
    boxes = [(lo, 4.0)] * count
    best, best_val = None, np.inf
    for _ in range(4):
        axes = [np.linspace(a, b, 33) for a, b in boxes]
        grids = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([g.ravel() for g in grids], axis=1)
        for row in coords:
            val = objective(tuple(row))
            if val < best_val:
                best, best_val = tuple(row), val
        boxes = [(c - (b - a) / 16.0, c + (b - a) / 16.0)
                 for c, (a, b) in zip(best, boxes)]
        if cone:
            boxes = [(max(0.0, a), b) for a, b in boxes]
    if best_val > tol:
        return None
    return assignment(best)
