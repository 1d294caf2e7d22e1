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

from .errors import BadSpec, NotRightInvertible
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
class Tree:
    """``(a, b) -> combine(Psi_left(a), Psi_right(b))``, ``combine`` the
    operator sum or composition."""

    combine: object
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
    shared parameter or a per-term table; a tree takes one value per
    branch.  A block of draws as the family's carrier stacks it (see
    :func:`evaluate_draws`) gives an
    :class:`~emergence.operator_core.OperatorStack`, each draw's body the
    bits that draw gets on its own.
    """
    if isinstance(family, PolynomialFamily):
        return evaluate_polynomial(family, eps)
    form = family.form
    if isinstance(form, ScalarTimesFixed):
        value = form.coefficient(eps) if form.coefficient is not None else eps
        return family.algebra.act(value, form.fixed)
    if not isinstance(form, Tree):
        raise BadSpec(f"unknown family form {type(form).__name__}")
    if isinstance(eps, Draws):
        raise BadSpec("a sum or composition tree takes one block per "
                      "branch, not one Draws")
    left, right = eps
    return form.combine(evaluate_family(form.left, left),
                        evaluate_family(form.right, right))


def evaluate_draws(family, params):
    """The family at each parameter of ``params`` (a list or a
    :class:`~emergence.parameter_algebra.Draws`) as one stack, each draw's
    body the bits it gets alone: the block its carrier stacks, evaluated."""
    return evaluate_family(family, family.algebra.stack(params))


def _tree(combine, left, right, verb: str, symbol: str) -> OperatorFamily:
    """The family ``combine``-ing two operator or polynomial families on one
    space; a polynomial family counts as one parameter of degree 1."""
    if not left.space.matches(right.space):
        raise BadSpec(f"{verb} families must share a field space")
    degree = sum(f.degree if isinstance(f, OperatorFamily) else 1
                 for f in (left, right))
    return OperatorFamily(degree, ProductAlgebra((left.algebra, right.algebra)),
                          Tree(combine, left, right), left.space,
                          label=f"({left.label} {symbol} {right.label})")


def sum_families(left, right) -> OperatorFamily:
    """Pointwise sum of operator or polynomial families; degrees add."""
    return _tree(add, left, right, "summed", "+")


def compose_families(left, right) -> OperatorFamily:
    """Pointwise composition of operator or polynomial families."""
    return _tree(compose, left, right, "composed", "o")


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


def _law_residuals(family: OperatorFamily, laws, pairs) -> list:
    """``(|Psi(a op b) - Psi(a) op Psi(b)|_F, |Psi(a) op Psi(b)|_F)`` for
    each pair of draws and law, or ``(|Psi(c a) - c Psi(a)|_F,
    |c Psi(a)|_F)`` for each pair ``(c, a)`` of the scalar law: each side
    one block, each draw with the bits it gets alone.  An overflow fails
    the flag (it is not finite), so numpy need not warn."""
    algebra = family.algebra
    a, b = zip(*pairs)
    if laws == ("scalar_invariant",):
        sides = [(map(algebra.scale, a, b), scale_rows(
            np.array(a)[:, None], evaluate_draws(family, b)))]
    else:
        fa, fb = evaluate_draws(family, a), evaluate_draws(family, b)
        sides = [(map(algebra.add, a, b), add(fa, fb)) if law == "additive"
                 else (map(algebra.mul, a, b), compose(fa, fb))
                 for law in laws]
    with np.errstate(over="ignore", invalid="ignore"):
        return [(frobenius(subtract(evaluate_draws(family, list(params)),
                                    rhs)), frobenius(rhs))
                for params, rhs in sides]


def check_structure(family: OperatorFamily, flags=None, n_samples: int = 40,
                    seed: int = 0) -> StructureReport:
    """Sample the claimed structure identities; exactness shortcuts noted.

    A law holds on a draw whose residual is finite and at most ``1e-10 *
    max(1, |rhs|_F)``, for the right-hand side ``Psi(a) + Psi(b)``,
    ``Psi(a) o Psi(b)`` or ``c Psi(a)``; a flag passes when its laws hold
    on every draw, and its ``max_residual`` is the largest absolute
    residual.  Fewer than one sample is refused.

    ``scalar_times_fixed`` families over a linearly-acting carrier are
    scalar-invariant by construction; that check is recorded as exact
    instead of sampled.  Every law draws all its samples, then evaluates
    them as one block.
    """
    if n_samples < 1:
        raise BadSpec(f"n_samples must be at least 1, got {n_samples}")
    flags = tuple(flags) if flags is not None else tuple(sorted(family.claimed))
    rng = np.random.default_rng(seed)
    checks = []

    for flag in flags:
        if flag not in STRUCTURE_FLAGS:
            raise BadSpec(f"unknown structure flag {flag!r}")
        if (flag == "scalar_invariant"
                and isinstance(family.form, ScalarTimesFixed)
                and family.form.coefficient is None
                and family.algebra.action_linear):
            checks.append(FlagCheck(flag, True, 0.0, exact=True))
            continue

        if flag == "scalar_invariant":  # each draw, then its uniform factor
            pairs = []
            for _ in range(n_samples):
                a = family.algebra.sample(rng)
                pairs += [(c, a) for c in (0.5, 2.0, rng.uniform(0.1, 1.9))]
            laws = (flag,)
        else:
            laws = (("additive", "multiplicative") if flag == "homomorphic"
                    else (flag,))
            draws = family.algebra.samples(rng, 2 * n_samples)
            pairs = list(zip(draws[0::2], draws[1::2]))
        residuals, sizes = map(np.concatenate,
                               zip(*_law_residuals(family, laws, pairs)))
        # np.max keeps a NaN, where Python's max may drop it
        worst = float(np.max(residuals))
        holds = np.isfinite(residuals) & (
            residuals <= 1e-10 * np.maximum(1.0, sizes))
        checks.append(FlagCheck(flag, bool(np.all(holds)), worst))
    return StructureReport(tuple(checks), n_samples, seed)


def verify_structure(family: OperatorFamily, n_samples: int = 40,
                     seed: int = 0):
    """Run :func:`check_structure` and fold the passing flags into the family.

    Returns ``(family, report)``; only flags that passed move from claimed to
    verified, failing claims stay unverified (and the engine will refuse).
    """
    report = check_structure(family, n_samples=n_samples, seed=seed)
    passed = report.passed_flags()
    return replace(family, claimed=family.claimed | set(report.failed_flags())
                   | passed, verified=family.verified | passed), report


# --- polynomial families -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PolynomialFamily:
    """A polynomial in fixed slot operators with parameter coefficients.

    ``terms`` is a sorted tuple of ``(multi_index, CoefficientFunction)``;
    ``right_inverses`` maps slot index to a *verified* right inverse, and
    ``right_inverse_failures`` keeps the diagnostic for slots that have none;
    :func:`polynomial_family` solves only the :func:`transported_slots`.
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
    def space(self):
        return self.operators[0].space


def transported_slots(terms) -> tuple:
    """The slots synthesis transports through a right inverse, ascending:
    those a term with a non-constant coefficient raises to a positive
    power.  Constant terms become the offset and need none."""
    return tuple(sorted({i for alpha, f in terms if not f.is_constant
                         for i, e in enumerate(alpha) if e > 0}))


def polynomial_family(operators, terms, algebra,
                      coefficient_degree: int = 1,
                      inverse_tol: float = DEFAULT_TOL,
                      label: str = "") -> PolynomialFamily:
    """Validate and freeze a polynomial family, solving the right inverses
    synthesis needs: those of the :func:`transported_slots`.

    Such a slot that admits no right inverse is recorded with its
    diagnostic rather than rejected; synthesis refuses it later.  Other
    slots are not attempted.  A product carrier takes constant
    coefficients only.
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
        if isinstance(algebra, ProductAlgebra) and not f.is_constant:
            # a coefficient acts on one scalar, not on a tuple of them
            raise BadSpec(f"term {alpha} has a {f.kind} coefficient, which "
                          f"the product carrier {algebra.name} cannot take")
        seen[alpha] = f
    if not seen:
        raise BadSpec("polynomial family needs at least one term")
    sorted_terms = tuple(sorted(seen.items()))
    inverses, failures = {}, {}
    for i in transported_slots(sorted_terms):
        try:
            inverses[i] = right_inverse(operators[i], tol=inverse_tol)
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

