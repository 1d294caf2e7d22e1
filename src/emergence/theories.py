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

from .errors import BadSpec, NotRightInvertible, Univariate
from .operator_core import (DEFAULT_TOL, Operator, add, compose, frobenius,
                            identity_operator, power, right_inverse, scale,
                            scale_rows, subtract, zero_operator)
from .parameter_algebra import (CoefficientFunction, Draws, ParameterAlgebra,
                                ProductAlgebra)

STRUCTURE_FLAGS = ("additive", "multiplicative", "homomorphic", "scalar_invariant")

# --- family forms --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScalarTimesFixed:
    """``eps -> act(g(eps), fixed)`` with ``g`` defaulting to the identity."""

    fixed: Operator
    coefficient: CoefficientFunction | None = None


@dataclass(frozen=True, eq=False)
class SumTree:
    left: "OperatorFamily"
    right: "OperatorFamily"


@dataclass(frozen=True, eq=False)
class CompositionTree:
    left: "OperatorFamily"
    right: "OperatorFamily"


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


def evaluate_family(family, eps):
    """Evaluate ``eps -> Psi(eps)`` for an operator or polynomial family.

    A polynomial family takes what :func:`evaluate_polynomial` takes: a
    shared parameter or a per-term table.  Where :func:`evaluates_blocks`
    holds, a :class:`~emergence.parameter_algebra.Draws` (or a table of
    them) gives an :class:`~emergence.operator_core.OperatorStack`, each
    draw's body the bits that draw gets on its own: a scalar-times-fixed
    family is the draws' row scales times the fixed body.
    """
    if isinstance(family, PolynomialFamily):
        return evaluate_polynomial(family, eps)
    form = family.form
    if isinstance(form, ScalarTimesFixed):
        value = form.coefficient(eps) if form.coefficient is not None else eps
        return family.algebra.act(value, form.fixed)
    if isinstance(eps, Draws):
        raise BadSpec("sum and composition trees evaluate one draw at a time")
    if isinstance(form, SumTree):
        eps = tuple(eps)
        return add(evaluate_family(form.left, eps[0]),
                   evaluate_family(form.right, eps[1]))
    if isinstance(form, CompositionTree):
        eps = tuple(eps)
        return compose(evaluate_family(form.left, eps[0]),
                       evaluate_family(form.right, eps[1]))
    raise BadSpec(f"unknown family form {type(form).__name__}")


def evaluates_blocks(family) -> bool:
    """Whether :func:`evaluate_family` takes a block of draws: a polynomial
    or scalar-times-fixed family on a leaf carrier.  Sum and composition
    trees are evaluated one draw at a time."""
    return not isinstance(family.algebra, ProductAlgebra) and (
        isinstance(family, PolynomialFamily)
        or isinstance(family.form, ScalarTimesFixed))


def _degree(family) -> int:
    """A polynomial family counts as one parameter of degree 1."""
    return family.degree if isinstance(family, OperatorFamily) else 1


def sum_families(left, right) -> OperatorFamily:
    """Pointwise sum of operator or polynomial families; degrees add."""
    if not left.space.matches(right.space):
        raise BadSpec("summed families must share a field space")
    return OperatorFamily(_degree(left) + _degree(right),
                          ProductAlgebra((left.algebra, right.algebra)),
                          SumTree(left, right), left.space,
                          label=f"({left.label} + {right.label})")


def compose_families(left, right) -> OperatorFamily:
    """Pointwise composition of operator or polynomial families."""
    if not left.space.matches(right.space):
        raise BadSpec("composed families must share a field space")
    return OperatorFamily(_degree(left) + _degree(right),
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
        lhs = evaluate_family(family, family.algebra.add(a, b))
        rhs = add(fa, fb)
    else:
        lhs = evaluate_family(family, family.algebra.mul(a, b))
        rhs = compose(fa, fb)
    return frobenius(subtract(lhs, rhs))


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
                fa = evaluate_family(family, a)
                fb = evaluate_family(family, b)
                return max(_law_residual(family, law, a, b, fa, fb)
                           for law in laws)
        else:  # scalar_invariant
            def res(rng):
                a = family.algebra.sample(rng)
                worst = 0.0
                for c in half_like + [float(rng.uniform(0.1, 1.9))]:
                    lhs = evaluate_family(family, family.algebra.scale(c, a))
                    rhs = scale(c, evaluate_family(family, a))
                    worst = max(worst, frobenius(subtract(lhs, rhs)))
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
    by the identity, so reduced and unreduced polynomials evaluate bitwise
    identically.
    """
    out = None
    for op, e in zip(poly.operators, tuple(alpha)):
        if e == 0:
            continue
        p = power(op, e)
        out = p if out is None else compose(out, p)
    return out if out is not None else identity_operator(poly.space)


def evaluate_polynomial(poly: PolynomialFamily, assignment):
    """Evaluate with a shared parameter or a per-term table.

    A dict maps multi-indices to per-term parameters ("every occurrence
    exactly once"); anything else is a shared parameter fed to every
    coefficient.  :class:`~emergence.parameter_algebra.Draws` in place of
    parameters give a stack, the same term-ordered sum of coefficient times
    monomial for every draw, each monomial built once.
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
        mono = monomial_operator(poly, alpha)
        if isinstance(coeff, Draws) and coeff.values.ndim == 1:
            piece = scale_rows(coeff.values[:, None], mono)
        elif np.isscalar(coeff):
            piece = scale(coeff, mono)
        else:
            piece = poly.algebra.act(coeff, mono)
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
