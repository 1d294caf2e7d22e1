"""Families and polynomials: evaluation, structure flags, factoring."""

from __future__ import annotations

import numpy as np
import pytest

from emergence import (BadSpec, CoefficientFunction, ComplexScalars,
                       NonnegativeReals, Operator, RealScalars, Univariate,
                       add, check_structure,
                       compose_families, evaluate_family, evaluate_polynomial,
                       factor_last_variable, grid_space, identity_operator,
                       make_discrete_operator, polynomial_family,
                       scalar_family, sum_families, verify_structure)
from emergence.theories import STRUCTURE_FLAGS, monomial_operator

# --- family forms and evaluation ------------------------------------------------


def test_scalar_family_evaluates_to_rescaled_power(line8):
    shift = make_discrete_operator(line8, "shift", axis=0)
    fam = scalar_family(RealScalars(), shift, exponent=2)
    got = evaluate_family(fam, 3.0)
    assert np.array_equal(got.matrix, 3.0 * (shift.matrix @ shift.matrix))


def test_scalar_family_applies_its_coefficient(line8):
    fam = scalar_family(RealScalars(), identity_operator(line8),
                        coefficient=CoefficientFunction.affine(2.0, 1.0,
                                                               domain="real"))
    assert np.array_equal(evaluate_family(fam, 3.0).matrix, 7.0 * np.eye(8))


def test_sum_and_composition_trees(line8):
    box = make_discrete_operator(line8, "box")
    left = scalar_family(RealScalars(), identity_operator(line8))
    right = scalar_family(RealScalars(), box)
    summed = sum_families(left, right)
    composed = compose_families(left, right)
    assert summed.degree == 2 and composed.degree == 2
    got = evaluate_family(summed, (2.0, 3.0))
    assert np.array_equal(got.matrix, 2.0 * np.eye(8) + 3.0 * box.matrix)
    got = evaluate_family(composed, (2.0, 3.0))
    assert np.array_equal(got.matrix, 6.0 * box.matrix)


def test_family_combinators_check_spaces(line8, line4):
    a = scalar_family(RealScalars(), identity_operator(line8))
    b = scalar_family(RealScalars(), identity_operator(line4))
    with pytest.raises(BadSpec):
        sum_families(a, b)
    with pytest.raises(BadSpec):
        compose_families(a, b)


def test_unknown_claim_flags_are_rejected(line8):
    fam = scalar_family(RealScalars(), identity_operator(line8))
    with pytest.raises(BadSpec):
        fam.with_claims("idempotent")
    assert fam.with_claims("additive").claimed == {"additive"}


# --- structure verification -------------------------------------------------------


def test_identity_rescaling_carries_every_flag(line8):
    fam = scalar_family(RealScalars(), identity_operator(line8))
    fam = fam.with_claims(*STRUCTURE_FLAGS)
    fam, report = verify_structure(fam, n_samples=30)
    assert fam.verified == set(STRUCTURE_FLAGS)
    assert report.failed_flags() == frozenset()


def test_scalar_invariance_shortcut_is_exact(line8):
    fam = scalar_family(RealScalars(), make_discrete_operator(line8, "box"))
    report = check_structure(fam, flags=("scalar_invariant",))
    (check,) = report.checks
    assert check.exact and check.passed and check.max_residual == 0.0


@pytest.mark.parametrize("coefficient,holds", [
    (CoefficientFunction.linear(2.0, domain="real"), True),
    (CoefficientFunction.exponential(), False),
], ids=["linear", "exponential"])
def test_scalar_invariance_is_sampled_through_a_coefficient(line8,
                                                           coefficient,
                                                           holds):
    # a coefficient skips the exact shortcut: Psi(c eps) = c Psi(eps) is
    # sampled, and holds for a linear coefficient only
    fam = scalar_family(RealScalars(), make_discrete_operator(line8, "box"),
                        coefficient=coefficient)
    report = check_structure(fam, flags=("scalar_invariant",), n_samples=10)
    (check,) = report.checks
    assert not check.exact
    assert check.passed is holds
    assert (check.max_residual <= 1e-12) is holds


def test_massive_wave_operator_is_not_multiplicative(line8):
    massive = add(make_discrete_operator(line8, "box"),
                  identity_operator(line8))
    fam = scalar_family(RealScalars(), massive).with_claims("multiplicative")
    fam, report = verify_structure(fam, n_samples=20)
    assert "multiplicative" not in fam.verified
    assert "multiplicative" in fam.claimed
    (check,) = report.checks
    assert not check.passed and check.max_residual > 1.0


def test_homomorphic_flag_bundles_both_identities(line8):
    fam = scalar_family(RealScalars(),
                        identity_operator(line8)).with_claims("homomorphic")
    fam, report = verify_structure(fam, n_samples=20)
    assert "homomorphic" in fam.verified
    assert report.passed_flags() == {"homomorphic"}


def test_check_structure_rejects_unknown_flags(line8):
    fam = scalar_family(RealScalars(), identity_operator(line8))
    with pytest.raises(BadSpec):
        check_structure(fam, flags=("unitary",))


# --- polynomial families ------------------------------------------------------------


def _massive_box(space):
    return add(make_discrete_operator(space, "box"), identity_operator(space))


def test_polynomial_family_freezes_sorted_terms(line8):
    poly = polynomial_family(
        [identity_operator(line8), _massive_box(line8)],
        {(0, 1): CoefficientFunction.linear(1.0, domain="real"),
         (1, 0): CoefficientFunction.linear(2.0, domain="real")},
        RealScalars())
    assert [alpha for alpha, _ in poly.terms] == [(0, 1), (1, 0)]
    assert poly.slots == 2 and poly.total_degree == 1
    assert set(poly.right_inverses) == {0, 1}
    assert poly.right_inverse_failures == {}


def test_polynomial_family_validation_errors(line8, line4):
    lin = CoefficientFunction.linear(1.0, domain="real")
    ident = identity_operator(line8)
    with pytest.raises(BadSpec):
        polynomial_family([], {(0,): lin}, RealScalars())
    with pytest.raises(BadSpec):
        polynomial_family([ident], {}, RealScalars())
    with pytest.raises(BadSpec):
        polynomial_family([ident], {(1, 0): lin}, RealScalars())
    with pytest.raises(BadSpec):
        polynomial_family([ident], {(-1,): lin}, RealScalars())
    with pytest.raises(BadSpec):
        polynomial_family([ident], {(1,): 2.5}, RealScalars())
    with pytest.raises(BadSpec):
        polynomial_family([ident, identity_operator(line4)],
                          {(1, 1): lin}, RealScalars())
    with pytest.raises(BadSpec):
        polynomial_family([ident], [((1,), lin), ((1,), lin)], RealScalars())


def test_uninvertible_slots_are_recorded_not_fatal(line8):
    box = make_discrete_operator(line8, "box")
    poly = polynomial_family([box],
                             {(1,): CoefficientFunction.linear(1.0,
                                                               domain="real")},
                             RealScalars())
    assert poly.right_inverses == {}
    assert "frequency (0,)" in poly.right_inverse_failures[0]


def test_non_finite_slots_are_recorded_not_fatal(flat4):
    ident = Operator(np.eye(4), flat4)
    poly = polynomial_family(
        [ident, Operator(np.diag([1.0, np.nan, 1.0, 1.0]), flat4),
         Operator(np.diag([1.0, np.inf, 1.0, 1.0]), flat4)],
        {(1, 1, 1): CoefficientFunction.linear(1.0, domain="real")},
        RealScalars())
    assert sorted(poly.right_inverses) == [0]
    assert sorted(poly.right_inverse_failures) == [1, 2]
    assert "non-finite" in poly.right_inverse_failures[1]


def test_monomial_operator_skips_absent_variables(line8):
    ident = identity_operator(line8)
    box = _massive_box(line8)
    poly = polynomial_family(
        [box, ident],
        {(2, 0): CoefficientFunction.linear(1.0, domain="real")},
        RealScalars())
    direct = np.linalg.matrix_power(box.matrix, 2)
    assert np.array_equal(monomial_operator(poly, (2, 0)).matrix, direct)
    assert np.array_equal(monomial_operator(poly, (0, 0)).matrix, np.eye(8))


def test_evaluate_polynomial_shared_and_per_term(line8):
    ident = identity_operator(line8)
    box = _massive_box(line8)
    poly = polynomial_family(
        [ident, box],
        {(1, 0): CoefficientFunction.linear(2.0, domain="real"),
         (0, 1): CoefficientFunction.linear(3.0, domain="real")},
        RealScalars())
    shared = evaluate_polynomial(poly, 1.0)
    assert np.array_equal(shared.matrix, 2.0 * np.eye(8) + 3.0 * box.matrix)
    split = evaluate_polynomial(poly, {(1, 0): 1.0, (0, 1): 0.0})
    assert np.array_equal(split.matrix, 2.0 * np.eye(8))
    with pytest.raises(BadSpec):
        evaluate_polynomial(poly, {(1, 0): 1.0})


def test_factor_last_variable_round_trips(line8):
    ident = identity_operator(line8)
    box = _massive_box(line8)
    lin = CoefficientFunction.linear(1.0, domain="real")
    terms = {(1, 0): lin, (0, 1): CoefficientFunction.linear(2.0, domain="real"),
             (2, 1): CoefficientFunction.linear(3.0, domain="real")}
    poly = polynomial_family([ident, box], terms, RealScalars())
    factored = factor_last_variable(poly)
    assert [j for _, j in factored] == [0, 1]
    sub0, _ = factored[0]
    assert [alpha for alpha, _ in sub0.terms] == [(1,)]
    assert sub0.slots == 1
    reassembled = {alpha + (j,): f for sub, j in factored
                   for alpha, f in sub.terms}
    assert reassembled == poly.term_map()


def test_factoring_needs_a_second_variable(line8):
    poly = polynomial_family(
        [identity_operator(line8)],
        {(1,): CoefficientFunction.linear(1.0, domain="real")},
        RealScalars())
    with pytest.raises(Univariate):
        factor_last_variable(poly)


def test_complex_polynomials_evaluate_over_complex_carriers():
    space = grid_space((8,), scalar_kind="complex")
    poly = polynomial_family(
        [identity_operator(space)],
        {(1,): CoefficientFunction.linear(1.0)},
        ComplexScalars())
    got = evaluate_polynomial(poly, 2.0 + 1.0j)
    assert np.allclose(got.matrix, (2.0 + 1.0j) * np.eye(8))


def test_nonnegative_polynomials_stay_in_the_cone(line8):
    poly = polynomial_family(
        [identity_operator(line8)],
        {(1,): CoefficientFunction.linear(1.0, domain="nonneg")},
        NonnegativeReals())
    assert np.array_equal(evaluate_polynomial(poly, 0.5).matrix,
                          0.5 * np.eye(8))
