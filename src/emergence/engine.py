"""Synthesis of emergence maps between parameterized theories.

Given a source family ``eps -> Psi1(eps)`` and a target polynomial family,
the engine constructs a parameter map ``F`` such that both Lagrangians agree
on every field: ``<phi, Psi1(eps) phi> = <phi, Psi2(F(eps)) phi>``.  Maps are
built per term: constant-coefficient terms are split off as a fixed offset,
the remainder is distributed over the active terms by dyadic halving (exact
in binary floating point), single terms are solved through the identity
orbit of the parameter action, and higher slot variables are removed by
right-inverse transport.

Every constructor samples its own result and attaches a
:class:`Certificate`; a constructor never returns an uncertified map, it
raises ``HypothesisViolated`` with the failing certificate as evidence.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (BadSpec, DegreeMismatch, DimensionTooLarge,
                     EmergenceError, EmptyAccumulation, HypothesisViolated,
                     NoPreimage, NotInIdentityOrbit, NotMultiplicative,
                     NotRightInvertible, NotScalarForm, NotScalarInvariant,
                     SpaceMismatch)
from .operator_core import (FieldBlock, Operator, block_rows, compose,
                            exact_sums, frobenius_coordinates,
                            identity_operator, lagrangian_value,
                            operator_residual, power,
                            reflect, right_inverse, scale, stack_operators,
                            subtract, sym_part)
from .parameter_algebra import (CoefficientFunction, Draws, NonnegativeReals,
                                solve_action_on_identity)
from .theories import (OperatorFamily, PolynomialFamily, ScalarTimesFixed,
                       compose_families, evaluate_draws, evaluate_family,
                       evaluate_polynomial, evaluates_blocks,
                       factor_last_variable, monomial_operator,
                       polynomial_family, scalar_family, sum_families)

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

    ``rng_state`` is the generator's state after the certificate's draws,
    as :func:`verify_emergence` left it; a wider call that takes the
    certificate as ``covered`` resumes from it.  It is neither compared nor
    written.
    """

    samples: int
    max_functional_residual: float
    max_operator_residual: float
    tolerance: float
    passed: bool
    seed: int
    rng_state: dict | None = field(default=None, compare=False, repr=False)

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

    def digest(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def leaves(self):
        if not self.children:
            return (self,)
        out = []
        for c in self.children:
            out.extend(c.leaves())
        return tuple(out)


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

    def target_operator(self, eps) -> Operator:
        return evaluate_family(self.target, self.parameter_map(eps))

    def to_json_dict(self, n_probes: int = 3) -> dict:
        rng = np.random.default_rng(self.certificate.seed)
        params = [self.source.algebra.sample(rng) for _ in range(n_probes)]
        probes = [{"parameter": _param_json(eps),
                   "assignment": _param_json(value)}
                  for eps, value in zip(params, map_draws(self.parameter_map,
                                                          params))]
        return {
            "label": self.label,
            "assignment_kind": self.assignment_kind,
            "certificate": self.certificate.to_json_dict(),
            "provenance": self.provenance.to_json_dict(),
            "provenance_digest": self.provenance.digest(),
            "probes": probes,
        }


def _param_json(value):
    if isinstance(value, dict):
        return {",".join(str(i) for i in key): _param_json(v)
                for key, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_param_json(v) for v in value]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {"real": value.real.tolist(), "imag": value.imag.tolist()}
        return value.tolist()
    if isinstance(value, complex):
        return {"real": value.real, "imag": value.imag}
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


# --- verification -----------------------------------------------------------------


def map_draws(parameter_map, params) -> list:
    """``[parameter_map(eps) for eps in params]``, with the same bits.

    A map with a block form, ``parameter_map.block(params)``, maps every
    draw in one call and refuses as the calls one draw at a time would; any
    other map is called draw by draw.
    """
    params = list(params)
    block = getattr(parameter_map, "block", None)
    if block is None or not params:
        return [parameter_map(eps) for eps in params]
    return _split(block(params), len(params))


def _split(value, count: int) -> list:
    """A block map's value as ``count`` per-draw values: a table of
    :class:`Draws` as one table per draw, in the same key order."""
    if isinstance(value, dict):
        columns = {key: _split(v, count) for key, v in value.items()}
        return [{key: column[i] for key, column in columns.items()}
                for i in range(count)]
    return list(value)


def _dense_stacks(family) -> bool:
    """Whether a chunk of ``family`` may stack dense matrices: it is
    evaluated draw by draw, or a fixed body is dense, or its bodies mix
    structures, or per-row scales make a non-diagonal body dense."""
    if not evaluates_blocks(family):
        return True
    if isinstance(family, PolynomialFamily):
        bodies = list(family.operators)
        if any(not any(alpha) for alpha, _ in family.terms):
            bodies.append(identity_operator(family.space))
    else:
        bodies = [family.form.fixed]
    structures = {op.structure for op in bodies}
    if "dense" in structures or len(structures) > 1:
        return True
    per_row = np.ndim(family.algebra.row_scale(family.algebra.one())) > 0
    return per_row and structures != {"diagonal"}


def _draw_bytes(source, target) -> int:
    """What one certification draw counts against the block budget: the
    space's ``n`` entries, or ``n**2`` when either family may stack dense
    matrices, at the space's item size."""
    n = source.space.dim
    entries = n * n if _dense_stacks(source) or _dense_stacks(target) else n
    return entries * np.dtype(source.space.dtype).itemsize


def _stacks(source, target, parameter_map, params):
    """Both families' operators at a block of draws, one stack each.

    The source is evaluated by :func:`~emergence.theories.evaluate_draws`,
    and the target at the map's block form, ``parameter_map.block(params)``,
    when it has one; a map without one is called draw by draw and its
    operators stacked.  A draw's bodies are the same bits either way.
    """
    left = evaluate_draws(source, params)
    block = getattr(parameter_map, "block", None)
    if block is not None:
        return left, evaluate_family(target, block(params))
    return left, stack_operators(evaluate_family(target, parameter_map(e))
                                 for e in params)


def functional_residual(left, right, fields) -> float:
    """Worst ``|l1 - l2| / max(1, |l1|)`` of the two Lagrangians over the
    fields (an array, a FieldBlock, or one per draw of stacks); NaN wins."""
    l1 = lagrangian_value(left, fields)
    l2 = lagrangian_value(right, fields)
    return float(np.max(np.abs(l1 - l2) / np.maximum(1.0, np.abs(l1))))


def verify_emergence(source: OperatorFamily, target, parameter_map,
                     n_samples: int = 100, tol: float = DEFAULT_TOL,
                     seed: int = 0, jobs: int | None = None,
                     covered: Certificate | None = None) -> Certificate:
    """Sample parameters and fields; report both residual maxima.

    Deterministic for a given seed regardless of ``jobs`` and of the chunk
    size: each chunk of as many draws as one block holds
    (:func:`~emergence.operator_core.block_rows`) is drawn just before it
    is evaluated as stacked arrays (see :func:`_stacks`), and each draw gets
    the bits it gets alone; the maximum keeps NaN, so any non-finite
    residual fails, as a non-passing certificate, never an exception.
    ``covered``, a certificate of the same source, target and map with this
    int seed, at most ``n_samples`` and a generator state, stands in for its
    draws: the generator resumes from its state, so only the later draws are
    made and evaluated.  The result carries the state after its draws.
    """
    rng = np.random.default_rng(seed)
    start, head = 0, (0.0, 0.0)
    if (covered is not None and covered.rng_state is not None
            and isinstance(seed, int) and covered.seed == seed
            and covered.samples <= n_samples):
        start = covered.samples
        head = (covered.max_functional_residual, covered.max_operator_residual)
        rng.bit_generator.state = covered.rng_state
    errors = np.geterr()  # pool threads do not inherit the caller's state
    size = block_rows(_draw_bytes(source, target))

    def draw():
        return source.algebra.sample(rng), source.space.sample_field(rng)

    chunks = ([draw() for _ in range(min(size, n_samples - i))]
              for i in range(start, n_samples, size))

    def block(chunk):
        with np.errstate(**errors):
            left, right = _stacks(source, target, parameter_map,
                                  [eps for eps, _ in chunk])
            # one block per chunk: both sides share its self-correlations
            fields = FieldBlock(np.stack([p for _, p in chunk]), source.space)
            return (functional_residual(left, right, fields),
                    float(np.max(operator_residual(left, right))))

    if jobs is not None and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(block, list(chunks)))
    else:
        results = [block(chunk) for chunk in chunks]
    fn_max, op_max = map(float, np.maximum(head, np.max(
        np.reshape(results, (-1, 2)), axis=0, initial=0.0)))
    return Certificate(n_samples, fn_max, op_max, tol,
                       fn_max <= tol and op_max <= tol, seed,
                       rng.bit_generator.state)


def _certify(source, target, parameter_map, kind, provenance, label,
             n_samples, tol, seed) -> EmergenceMap:
    """Attach a certificate or refuse: constructors never return failures."""
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


def _same_source(a: OperatorFamily, b: OperatorFamily, seed: int = 11) -> bool:
    if a is b:
        return True
    if not a.space.matches(b.space):
        return False
    rng = np.random.default_rng(seed)
    for _ in range(3):
        eps = a.algebra.sample(rng)
        try:
            # a NaN residual is no agreement
            if not operator_residual(evaluate_family(a, eps),
                                     evaluate_family(b, eps)) <= 1e-10:
                return False
        except EmergenceError:
            return False
    return True


# --- monomial emergence -------------------------------------------------------------


def emerge_monomial(source: OperatorFamily, coefficient: CoefficientFunction,
                    slot: Operator, exponent: int, tol: float = DEFAULT_TOL,
                    n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
                    algebra=None) -> EmergenceMap:
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
    algebra = algebra if algebra is not None else source.algebra
    post = power(right_inverse(slot), exponent) if exponent > 0 else None
    target = scalar_family(algebra, slot, exponent, coefficient=coefficient,
                           label=f"{coefficient.kind} * slot^{exponent}")
    fmap = _monomial_solver(source, coefficient, post, algebra,
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
    if out.structure == "stencil":
        out.body.flat[0] = exact_sums(np.ravel(op.body * reflect(post.body)))
    elif out.structure == "dense":
        np.fill_diagonal(out.body, exact_sums(op.matrix * post.matrix.T))
    return out


class _BlockMap:
    """A parameter map with a block form: ``block(params)`` maps a block of
    draws (any iterable of parameters) at once, and a call on one draw is
    draw 0 of its block of one, so draw ``i`` of a block is ``self(eps_i)``
    to the bit.  A block refuses as its draws do one at a time: when it
    raises, its draws are run again as blocks of one, so the earliest
    failing draw, and within it the first failing term, raises."""

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


class _MonomialSolve(_BlockMap):
    """The solver ``eps -> delta`` of one active term (see
    :func:`_monomial_solver`), on a block of draws: each draw's slice is
    read as an identity-orbit element and pulled back through the
    coefficient."""

    def __init__(self, source, transported, offset, coefficient, algebra,
                 weight, term_label, tol):
        self.source, self.transported, self.offset = source, transported, offset
        self.coefficient, self.algebra, self.weight = coefficient, algebra, weight
        self.term_label, self.tol = term_label, tol

    def _block(self, params):
        if self.weight != 1.0:
            params = [self.source.algebra.scale(self.weight, e)
                      for e in params]
        m = evaluate_draws(self.transported, params)
        if self.offset is not None:
            m = subtract(m, self.offset)
        try:
            c = solve_action_on_identity(self.algebra, m, tol=self.tol)
        except NotInIdentityOrbit as exc:
            raise NotScalarForm(
                f"term {self.term_label}: transported source slice is not in "
                f"the identity orbit of the parameter action",
                residual=exc.residual) from exc
        try:
            return self.coefficient.preimage(c)
        except NoPreimage as exc:
            raise NoPreimage(f"term {self.term_label}: {exc}") from exc


def _monomial_solver(source, coefficient, post, algebra, weight, offset,
                     term_label, tol) -> _MonomialSolve:
    """Solver ``eps -> delta`` for one active term, with a block form.

    The working slice is ``(Psi1(weight*eps) - weight*offset) @ post``.  The
    source scales rows, so ``act(c, F) @ post = act(c, F @ post)``: the fixed
    operator and the offset are transported once here, and each block is one
    action and one subtraction.  The slice is read as an identity-orbit
    element of the target action and pulled back through the coefficient.
    """
    form = source.form
    if not isinstance(form, ScalarTimesFixed):
        raise BadSpec("synthesis needs a scalar-times-fixed source, one that "
                      "is linear in its parameter")
    transported = replace(source, form=ScalarTimesFixed(
        _transport(form.fixed, post), form.coefficient))
    offset = None if offset is None else scale(weight,
                                               _transport(offset, post))
    return _MonomialSolve(source, transported, offset, coefficient, algebra,
                          weight, term_label, tol)


# --- composition / sum / accumulation ----------------------------------------------


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

    def fmap(eps, _f2=map2.parameter_map, _f3=map3.parameter_map):
        root = source.algebra.sqrt_select(eps)
        return (_f2(root), _f3(root))

    prov = ProvenanceNode("composition", "",
                          (("branch", "principal_sqrt"),),
                          (map2.provenance, map3.provenance))
    return _certify(source, composed, fmap, "pair", prov,
                    f"composition from {source.label}", n_samples, tol, seed)


def _sum_maps(source, map2, map3, justification, tol, n_samples, seed):
    _check_constituents(source, (map2, map3))
    summed = sum_families(map2.target, map3.target)

    def fmap(eps, _f2=map2.parameter_map, _f3=map3.parameter_map):
        half = source.algebra.scale(0.5, eps)
        return (_f2(half), _f3(half))

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


def _constant_offset(poly: PolynomialFamily, constants) -> Operator | None:
    if not constants:
        return None
    return evaluate_polynomial(replace(poly, terms=tuple(constants)),
                               poly.algebra.zero())


def _synthesize(source, poly, offset, weight, post, tol):
    """Core recursion: returns ``(solvers, provenance)``.

    ``solvers`` is a list of ``(alpha, eps -> delta)`` covering the active
    terms of ``poly``; the working source at this level is
    ``(Psi1(weight*eps) - weight*offset) @ post``.
    """
    if poly.slots == 1:
        return _synth_univariate(source, poly, offset, weight, post, tol)
    return _synth_multivariate(source, poly, offset, weight, post, tol)


def _synth_univariate(source, poly, offset, weight, post, tol):
    terms = poly.terms
    weights = _fold_weights(len(terms))
    solvers = []
    children = []
    for (alpha, f), w in zip(terms, weights):
        exponent = alpha[0]
        term_post = post
        if exponent > 0:
            r_pow = power(poly.right_inverses[0], exponent)
            term_post = r_pow if post is None else compose(post, r_pow)
        total_w = weight * w
        solvers.append((alpha, _monomial_solver(
            source, f, term_post, poly.algebra, total_w, offset,
            term_label=f"{alpha} (power {exponent})", tol=tol)))
        children.append(_monomial_node(alpha, f, total_w))
    if len(terms) == 1:
        return solvers, children[0]
    prov = ProvenanceNode("univariate", "additive_halving",
                          (("weights", list(weights)),), tuple(children))
    return solvers, prov


def _synth_multivariate(source, poly, offset, weight, post, tol):
    last = poly.slots - 1
    groups = factor_last_variable(poly)
    weights = _fold_weights(len(groups))
    solvers = []
    children = []
    for (sub, j), w in zip(groups, weights):
        child_post = post
        if j > 0:
            r_pow = power(poly.right_inverses[last], j)
            child_post = r_pow if post is None else compose(post, r_pow)
        sub_solvers, sub_prov = _synthesize(source, sub, offset, weight * w,
                                            child_post, tol)
        solvers.extend((alpha + (j,), g) for alpha, g in sub_solvers)
        if j > 0:
            leaf = _monomial_node((j,), None, weight * w,
                                  detail="unital_identity")
            sub_prov = ProvenanceNode(
                "composition", "right_inverse_transport",
                (("slot", last), ("exponent", j)), (sub_prov, leaf))
        children.append(sub_prov)
    if len(groups) == 1:
        return solvers, children[0]
    prov = ProvenanceNode("multivariate", "additive_halving",
                          (("slot", last), ("weights", list(weights))),
                          tuple(children))
    return solvers, prov


def _split_constants(poly: PolynomialFamily):
    active = [(a, f) for a, f in poly.terms if not f.is_constant]
    constants = [(a, f) for a, f in poly.terms if f.is_constant]
    return active, constants


class _PerTermMap(_BlockMap):
    """``eps -> {alpha: delta}``: each active term's solver, and the
    algebra's zero for each constant term."""

    def __init__(self, solvers, constants, zero):
        self.solvers, self.constants, self.zero = solvers, constants, zero

    def _block(self, params):
        table = {alpha: g.block(params) if hasattr(g, "block")
                 else Draws.stack(g(e) for e in params)
                 for alpha, g in self.solvers}
        zeros = Draws.stack([self.zero] * len(params))
        for alpha in self.constants:
            table[alpha] = zeros
        return table


def _emerge_impl(source: OperatorFamily, poly: PolynomialFamily, tol,
                 n_samples, seed, label):
    _gate_claims(source)
    if not source.space.matches(poly.space):
        raise SpaceMismatch("source and target live on different field spaces")
    if poly.coefficient_degree <= 0 \
            or poly.coefficient_degree % source.degree != 0:
        raise DegreeMismatch(
            f"target coefficient degree {poly.coefficient_degree} is not a "
            f"positive multiple of the source degree {source.degree}")
    multiplier = poly.coefficient_degree // source.degree
    bound = poly.algebra.max_power
    if bound is not None and multiplier > bound:
        raise DegreeMismatch(
            f"degree multiplier {multiplier} exceeds the parameter "
            f"algebra's power bound {bound}")
    active, constants = _split_constants(poly)
    for alpha, f in active:
        if not f.nowhere_vanishing:
            raise HypothesisViolated(
                f"coefficient at {alpha} may vanish; preimages are not "
                f"defined everywhere", evidence={"term": list(alpha)})
    needed = set()
    for alpha, _ in active:
        needed.update(i for i, e in enumerate(alpha) if e > 0)
    for i in sorted(needed):
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

    offset = _constant_offset(poly, constants)
    zero = poly.algebra.zero()
    if active:
        active_poly = PolynomialFamily(
            poly.operators, tuple(sorted(active)), poly.algebra,
            poly.coefficient_degree, poly.right_inverses,
            poly.right_inverse_failures, label=f"{poly.label}|active")
        solvers, core_prov = _synthesize(source, active_poly, offset, 1.0,
                                         None, tol)
    else:
        solvers, core_prov = [], None

    parameter_map = _PerTermMap(tuple(solvers),
                                tuple(alpha for alpha, _ in constants), zero)
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
    return _certify(source, poly, parameter_map, "per_term", prov, label,
                    n_samples, tol, seed)


def emerge_univariate(source: OperatorFamily, poly: PolynomialFamily,
                      tol: float = DEFAULT_TOL,
                      n_samples: int = DEFAULT_SAMPLES,
                      seed: int = 0) -> EmergenceMap:
    """Per-term synthesis for a single-variable polynomial target."""
    if poly.slots != 1:
        raise BadSpec("emerge_univariate needs a single-variable target")
    return _emerge_impl(source, poly, tol, n_samples, seed,
                        label=f"univariate from {source.label}")


def emerge(source: OperatorFamily, poly: PolynomialFamily,
           tol: float = DEFAULT_TOL, n_samples: int = DEFAULT_SAMPLES,
           seed: int = 0) -> EmergenceMap:
    """Synthesize a certified emergence map onto a polynomial family.

    Recursion on the number of slot variables: the last variable is factored
    out, each cofactor group is transported by a power of the last slot's
    right inverse, and the single-variable base case distributes the source
    over the active terms by exact dyadic halving.
    """
    return _emerge_impl(source, poly, tol, n_samples, seed,
                        label=f"emerge from {source.label}")


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


def brute_force_emerge(source: OperatorFamily, poly: PolynomialFamily, eps,
                       tol: float = DEFAULT_TOL):
    """Independent oracle: fit the per-term parameters at one ``eps``.

    Linear and affine coefficients reduce to one least-squares solve over
    the symmetric parts, in the coordinates of their bodies when all share
    one structure (a stencil entry stands for its n matrix entries, the
    zeros off a diagonal drop out) and of their dense matrices otherwise;
    other coefficient kinds fall back to a nested grid search over at most
    two scalar parameters.  Returns the per-term assignment when the
    residual is within tolerance, ``None`` otherwise.
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
    target = evaluate_family(source, eps)
    zero = algebra.zero()
    offsets = []
    for alpha, f in constants:
        value = f(zero)
        mono = monomial_operator(poly, alpha)
        offsets.append(scale(value, mono) if np.isscalar(value)
                       else algebra.act(value, mono))

    linear_kinds = all(f.kind in ("linear", "affine") for _, f in active)
    if linear_kinds:
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
            pieces.extend(algebra.act(algebra.scale(slope * u, e), mono)
                          for u in units for e in basis)
        ops = [sym_part(op) for op in (target, *offsets, *pieces)]
        if len({op.structure for op in ops}) == 1:
            cols = np.stack([frobenius_coordinates(op) for op in ops], axis=1)
        else:
            cols = np.stack([op.matrix.ravel() for op in ops], axis=1)
        if (split or algebra.scalar_kind != "complex") \
                and np.iscomplexobj(cols):
            cols = np.concatenate([cols.real, cols.imag])
        a = cols[:, 1 + len(offsets):]
        rhs = cols[:, 0] - cols[:, 1:1 + len(offsets)].sum(axis=1)
        x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
        residual = float(np.linalg.norm(a @ x - rhs))
        if residual > tol:
            return None
        out = {}
        k = len(basis)
        for i, (alpha, _) in enumerate(active):
            coords = x[i * k * len(units):(i + 1) * k * len(units)]
            if split:
                coords = coords[:k] + 1j * coords[k:]
            out[alpha] = algebra.from_coords(coords)
        for alpha, _ in constants:
            out[alpha] = zero
        return out

    # grid search over scalar parameters for nonlinear coefficients
    if len(active) > 2 or len(basis) != 1:
        raise DimensionTooLarge(
            "grid search supports at most two scalar parameters")

    def objective(values):
        table = {alpha: values[i] for i, (alpha, _) in enumerate(active)}
        for alpha, _ in constants:
            table[alpha] = zero
        return operator_residual(evaluate_polynomial(poly, table), target)

    cone = isinstance(algebra, NonnegativeReals)
    lo = 0.0 if cone else -4.0
    boxes = [(lo, 4.0)] * len(active)
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
    out = {alpha: best[i] for i, (alpha, _) in enumerate(active)}
    for alpha, _ in constants:
        out[alpha] = zero
    return out
