"""Parameterized theories: operator families and polynomial families.

An operator family assigns to each fundamental parameter ``eps`` an operator
on the field space; its Lagrangian is ``<phi, Psi(eps) phi>``.  A polynomial
family is the special case given by a multivariate polynomial with
parameter-dependent coefficients evaluated at fixed slot operators, with the
monomial order fixed: slot 0 leftmost, the last variable rightmost.

Structure flags (``additive``, ``multiplicative``, ``homomorphic``,
``scalar_invariant``) are *claims*.  They stay claims until
:func:`verify_structure` has sampled them; the synthesis engine refuses
families whose claims are unverified.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (BadSpec, DegreeMismatch, NotRightInvertible,
                     UnknownParameter, Univariate)
from .operator_core import (DEFAULT_TOL, Operator, add, compose, power,
                            right_inverse, zero_operator)
from .parameter_algebra import (CoefficientFunction, ParameterAlgebra,
                                ProductAlgebra)

STRUCTURE_FLAGS = ("additive", "multiplicative", "homomorphic", "scalar_invariant")

# --- family forms --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScalarTimesFixed:
    """``eps -> act(g(eps), fixed)`` with ``g`` defaulting to the identity."""

    fixed: Operator
    coefficient: CoefficientFunction | None = None


@dataclass(frozen=True, eq=False)
class RepresentationForm:
    """``eps -> rho(eps) o base`` for a matrix representation ``rho``."""

    rho: object  # callable eps -> ndarray
    base: Operator


@dataclass(frozen=True, eq=False)
class SumTree:
    left: "OperatorFamily"
    right: "OperatorFamily"


@dataclass(frozen=True, eq=False)
class CompositionTree:
    left: "OperatorFamily"
    right: "OperatorFamily"


@dataclass(frozen=True, eq=False)
class Tabulated:
    """A finite lookup table of (parameter, operator) pairs."""

    entries: tuple


@dataclass(frozen=True, eq=False)
class DerivedForm:
    """Engine-internal closure form (offset-shifted or transported sources)."""

    fn: object  # callable eps -> Operator
    description: str


# --- operator families ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """A parameterized family of operators with verified structure flags."""

    degree: int
    algebra: ParameterAlgebra
    form: object
    space: object
    claimed: frozenset = frozenset()
    verified: frozenset = frozenset()
    label: str = ""

    def with_claims(self, *flags: str) -> "OperatorFamily":
        unknown = set(flags) - set(STRUCTURE_FLAGS)
        if unknown:
            raise BadSpec(f"unknown structure flags {sorted(unknown)}")
        return replace(self, claimed=self.claimed | set(flags))


def scalar_family(algebra, base: Operator, exponent: int = 1,
                  coefficient: CoefficientFunction | None = None,
                  label: str = "") -> OperatorFamily:
    """Family ``eps -> act(coefficient(eps), base^exponent)``."""
    fixed = power(base, exponent) if exponent != 1 else base
    return OperatorFamily(1, algebra, ScalarTimesFixed(fixed, coefficient),
                          base.space, label=label or "scalar_times_fixed")


def representation_family(algebra, rho, base: Operator,
                          label: str = "") -> OperatorFamily:
    return OperatorFamily(1, algebra, RepresentationForm(rho, base), base.space,
                          label=label or "representation")


def tabulated_family(algebra, entries, space, label: str = "") -> OperatorFamily:
    """Family defined only on the tabulated parameters."""
    return OperatorFamily(1, algebra, Tabulated(tuple(entries)), space,
                          label=label or "tabulated")


def evaluate_family(family: OperatorFamily, eps) -> Operator:
    """Evaluate ``eps -> Psi(eps)``."""
    form = family.form
    if isinstance(form, ScalarTimesFixed):
        value = form.coefficient(eps) if form.coefficient is not None else eps
        return family.algebra.act(value, form.fixed)
    if isinstance(form, RepresentationForm):
        return Operator(np.asarray(form.rho(eps)) @ form.base.matrix,
                        form.base.space)
    if isinstance(form, SumTree):
        eps = tuple(eps)
        return add(evaluate_family(form.left, eps[0]),
                   evaluate_family(form.right, eps[1]))
    if isinstance(form, CompositionTree):
        eps = tuple(eps)
        return compose(evaluate_family(form.left, eps[0]),
                       evaluate_family(form.right, eps[1]))
    if isinstance(form, Tabulated):
        for key, op in form.entries:
            if family.algebra.distance(key, eps) <= 1e-12:
                return op
        raise UnknownParameter(f"parameter off the table for {family.label!r}")
    if isinstance(form, DerivedForm):
        return form.fn(eps)
    raise BadSpec(f"unknown family form {type(form).__name__}")


def sum_families(left: OperatorFamily, right: OperatorFamily) -> OperatorFamily:
    """Pointwise sum; parameters pair up, degrees add."""
    if not left.space.matches(right.space):
        raise BadSpec("summed families must share a field space")
    return OperatorFamily(left.degree + right.degree,
                          ProductAlgebra((left.algebra, right.algebra)),
                          SumTree(left, right), left.space,
                          label=f"({left.label} + {right.label})")


def compose_families(left: OperatorFamily, right: OperatorFamily) -> OperatorFamily:
    if not left.space.matches(right.space):
        raise BadSpec("composed families must share a field space")
    return OperatorFamily(left.degree + right.degree,
                          ProductAlgebra((left.algebra, right.algebra)),
                          CompositionTree(left, right), left.space,
                          label=f"({left.label} o {right.label})")


# --- structure verification -------------------------------------------------------


@dataclass(frozen=True)
class FlagCheck:
    flag: str
    passed: bool
    max_residual: float
    exact: bool = False


@dataclass(frozen=True)
class StructureReport:
    checks: tuple
    samples: int
    seed: int

    def passed_flags(self) -> frozenset:
        return frozenset(c.flag for c in self.checks if c.passed)

    def failed_flags(self) -> frozenset:
        return frozenset(c.flag for c in self.checks if not c.passed)


def _law_residual(family: OperatorFamily, law: str, a, b, fa, fb) -> float:
    """``|Psi(a op b) - Psi(a) op Psi(b)|_F``, given ``fa, fb = Psi(a), Psi(b)``."""
    if law == "additive":
        lhs, rhs = evaluate_family(family, family.algebra.add(a, b)), fa + fb
    else:
        lhs, rhs = evaluate_family(family, family.algebra.mul(a, b)), fa @ fb
    return float(np.linalg.norm(lhs.matrix - rhs, "fro"))


def check_structure(family: OperatorFamily, flags=None, n_samples: int = 40,
                    seed: int = 0, tol: float = 1e-10) -> StructureReport:
    """Sample the claimed structure identities; exactness shortcuts noted.

    ``scalar_times_fixed`` families over a linearly-acting carrier are
    scalar-invariant by construction; that check is recorded as exact
    instead of sampled.
    """
    flags = tuple(flags) if flags is not None else tuple(sorted(family.claimed))
    rng = np.random.default_rng(seed)
    checks = []
    half_like = [0.5, 2.0]

    def residual_pair(fn):
        worst = 0.0
        for _ in range(n_samples):
            worst = max(worst, fn(rng))
        return worst

    for flag in flags:
        if flag not in STRUCTURE_FLAGS:
            raise BadSpec(f"unknown structure flag {flag!r}")
        if (flag == "scalar_invariant"
                and isinstance(family.form, ScalarTimesFixed)
                and family.form.coefficient is None
                and family.algebra.action_linear):
            checks.append(FlagCheck(flag, True, 0.0, exact=True))
            continue

        if flag in ("additive", "multiplicative", "homomorphic"):
            laws = (("additive", "multiplicative") if flag == "homomorphic"
                    else (flag,))

            def res(rng):
                a, b = family.algebra.sample(rng), family.algebra.sample(rng)
                fa = evaluate_family(family, a).matrix
                fb = evaluate_family(family, b).matrix
                return max(_law_residual(family, law, a, b, fa, fb)
                           for law in laws)
        else:  # scalar_invariant
            def res(rng):
                a = family.algebra.sample(rng)
                worst = 0.0
                for c in half_like + [float(rng.uniform(0.1, 1.9))]:
                    lhs = evaluate_family(
                        family, family.algebra.scale(c, a)).matrix
                    rhs = c * evaluate_family(family, a).matrix
                    worst = max(worst, float(np.linalg.norm(lhs - rhs, "fro")))
                return worst

        worst = residual_pair(res)
        checks.append(FlagCheck(flag, worst <= tol, worst))
    return StructureReport(tuple(checks), n_samples, seed)


def verify_structure(family: OperatorFamily, flags=None, n_samples: int = 40,
                     seed: int = 0, tol: float = 1e-10):
    """Run :func:`check_structure` and fold the passing flags into the family.

    Returns ``(family, report)``; only flags that passed move from claimed to
    verified, failing claims stay unverified (and the engine will refuse).
    """
    report = check_structure(family, flags, n_samples, seed, tol)
    passed = report.passed_flags()
    return replace(family, claimed=family.claimed | set(report.failed_flags())
                   | passed, verified=family.verified | passed), report


# --- polynomial families -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PolynomialFamily:
    """A polynomial in fixed slot operators with parameter coefficients.

    ``terms`` is a sorted tuple of ``(multi_index, CoefficientFunction)``;
    ``right_inverses`` maps slot index to a *verified* right inverse, and
    ``right_inverse_failures`` keeps the diagnostic for slots that have none.
    """

    operators: tuple
    terms: tuple
    algebra: ParameterAlgebra
    coefficient_degree: int
    right_inverses: dict
    right_inverse_failures: dict
    label: str = ""

    @property
    def slots(self) -> int:
        return len(self.operators)

    @property
    def total_degree(self) -> int:
        return max((sum(alpha) for alpha, _ in self.terms), default=0)

    @property
    def space(self):
        return self.operators[0].space

    def term_map(self) -> dict:
        return dict(self.terms)


def polynomial_family(operators, terms, algebra,
                      coefficient_degree: int = 1,
                      inverse_tol: float = DEFAULT_TOL,
                      label: str = "") -> PolynomialFamily:
    """Validate and freeze a polynomial family, pre-solving right inverses.

    Slots that admit no right inverse are recorded with their diagnostic
    rather than rejected; synthesis fails later only if such a slot is
    actually needed.
    """
    operators = tuple(operators)
    if not operators:
        raise BadSpec("polynomial family needs at least one slot operator")
    space = operators[0].space
    for op in operators[1:]:
        if not op.space.matches(space):
            raise BadSpec("slot operators must share a field space")
    seen = {}
    for alpha, f in (terms.items() if isinstance(terms, dict) else terms):
        alpha = tuple(int(e) for e in alpha)
        if len(alpha) != len(operators) or any(e < 0 for e in alpha):
            raise BadSpec(f"bad multi-index {alpha} for {len(operators)} slots")
        if alpha in seen:
            raise BadSpec(f"duplicate term {alpha}")
        if not isinstance(f, CoefficientFunction):
            raise BadSpec("terms need CoefficientFunction coefficients")
        seen[alpha] = f
    if not seen:
        raise BadSpec("polynomial family needs at least one term")
    sorted_terms = tuple(sorted(seen.items()))
    inverses, failures = {}, {}
    for i, op in enumerate(operators):
        try:
            inverses[i] = right_inverse(op, tol=inverse_tol)
        except NotRightInvertible as exc:
            failures[i] = str(exc)
    return PolynomialFamily(operators, sorted_terms, algebra,
                            int(coefficient_degree), inverses, failures,
                            label=label or "polynomial")


def monomial_operator(poly: PolynomialFamily, alpha) -> Operator:
    """The slot product for one multi-index, skipping exponent-0 factors.

    Skipping matters: a variable that never appears must not even multiply
    by the identity matrix, so reduced and unreduced polynomials evaluate
    bitwise identically.
    """
    alpha = tuple(alpha)
    out = None
    for op, e in zip(poly.operators, alpha):
        if e == 0:
            continue
        p = np.linalg.matrix_power(op.matrix, e)
        out = p if out is None else out @ p
    if out is None:
        return Operator(np.eye(poly.space.dim, dtype=poly.space.dtype),
                        poly.space)
    return Operator(out, poly.space)


def evaluate_polynomial(poly: PolynomialFamily, assignment) -> Operator:
    """Evaluate with a shared parameter or a per-term table.

    A dict maps multi-indices to per-term parameters ("every occurrence
    exactly once"); anything else is a shared parameter fed to every
    coefficient.
    """
    total = None
    for alpha, f in poly.terms:
        if isinstance(assignment, dict):
            if alpha not in assignment:
                raise BadSpec(f"per-term assignment misses term {alpha}")
            delta = assignment[alpha]
        else:
            delta = assignment
        coeff = f(delta)
        piece = poly.algebra.act(coeff, monomial_operator(poly, alpha)) \
            if not np.isscalar(coeff) else None
        if piece is None:
            piece = Operator(coeff * monomial_operator(poly, alpha).matrix,
                             poly.space)
        total = piece if total is None else add(total, piece)
    return total if total is not None else zero_operator(poly.space)


def factor_last_variable(poly: PolynomialFamily):
    """Group terms by the exponent of the last variable.

    Returns ``[(cofactor_polynomial, j)]`` sorted by ``j``; each cofactor
    lives on the first ``r - 1`` slots and keeps the parent's verified right
    inverses (and failures) for them.  Single-variable input is an error
    (there is nothing left to factor over).
    """
    if poly.slots < 2:
        raise Univariate("cannot factor the last variable out of a "
                         "single-variable polynomial")
    groups: dict[int, dict] = {}
    for alpha, f in poly.terms:
        groups.setdefault(alpha[-1], {})[alpha[:-1]] = f
    last = poly.slots - 1
    inverses = {i: r for i, r in poly.right_inverses.items() if i < last}
    failures = {i: e for i, e in poly.right_inverse_failures.items()
                if i < last}
    return [(PolynomialFamily(poly.operators[:-1],
                              tuple(sorted(groups[j].items())), poly.algebra,
                              poly.coefficient_degree, inverses, failures,
                              label=f"{poly.label}|last^{j}"), j)
            for j in sorted(groups)]


def reassemble_last_variable(poly: PolynomialFamily, factored) -> dict:
    """Inverse bookkeeping of :func:`factor_last_variable` (for tests)."""
    terms = {}
    for sub, j in factored:
        for alpha, f in sub.terms:
            terms[alpha + (j,)] = f
    return terms


@dataclass(frozen=True, eq=False)
class TheoryPair:
    """A source family and the polynomial family it should emerge from."""

    source: OperatorFamily
    target: PolynomialFamily

    def __post_init__(self):
        if not self.source.space.matches(self.target.space):
            raise BadSpec("paired theories must share a field space")
        if self.target.coefficient_degree % max(1, self.source.degree) != 0:
            raise DegreeMismatch("coefficient degree must be a multiple of "
                                 "the source degree")
