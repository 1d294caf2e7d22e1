"""Families and polynomials: evaluation, structure flags, right inverses."""

from __future__ import annotations

import math

import numpy as np
import pytest

from emergence import (BadSpec, BooleanComplex, CoefficientFunction,
                       ComplexScalars, NonnegativeReals, Operator,
                       ProductAlgebra, RealScalars, TuplePower, add,
                       check_structure, compose, compose_families,
                       evaluate_family, evaluate_polynomial, grid_space,
                       identity_operator,
                       make_discrete_operator, plain_space, polynomial_family,
                       right_inverse, scalar_family, scale, sum_families,
                       verify_structure)
from emergence.operator_core import diagonal_operator, frobenius, subtract
from emergence.theories import (STRUCTURE_FLAGS, monomial_operator,
                                transported_slots)

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


def _law_families():
    grid = grid_space((6, 4), scalar_kind="complex", symmetry="hermitian")
    box = make_discrete_operator(grid, "box")
    plain = plain_space(12, "complex")
    masks = diagonal_operator(plain, np.linspace(1.0, 2.0, 12) + 0.5j)
    line = grid_space((8,))
    shift = make_discrete_operator(line, "shift", axis=0)
    return {
        "real-stencil": scalar_family(RealScalars(), shift),
        "complex-hermitian": scalar_family(ComplexScalars(), box),
        "boolean-diagonal": scalar_family(BooleanComplex(4, 3), masks),
        "real-coefficient": scalar_family(
            RealScalars(), shift,
            coefficient=CoefficientFunction.affine(2.0, 0.5, "real")),
        # a sum tree adds its branches' blocks
        "sum-tree": sum_families(scalar_family(RealScalars(), shift),
                                 scalar_family(RealScalars(), shift)),
    }


@pytest.mark.parametrize("name", list(_law_families()))
def test_block_sampled_laws_give_the_per_draw_residuals(name):
    family = _law_families()[name]
    algebra = family.algebra
    report = check_structure(family, ["homomorphic"], n_samples=12, seed=4)
    rng = np.random.default_rng(4)
    residuals = []
    for _ in range(12):
        a, b = algebra.sample(rng), algebra.sample(rng)
        fa, fb = evaluate_family(family, a), evaluate_family(family, b)
        residuals.append(frobenius(subtract(
            evaluate_family(family, algebra.add(a, b)), add(fa, fb))))
        residuals.append(frobenius(subtract(
            evaluate_family(family, algebra.mul(a, b)), compose(fa, fb))))
    (check,) = report.checks
    assert check.max_residual.hex() == max(residuals).hex()


def test_a_nan_law_residual_fails_its_flag():
    # an infinite entry: Psi(a + b) - (Psi(a) + Psi(b)) is inf - inf there
    family = scalar_family(RealScalars(), diagonal_operator(
        plain_space(4), [1.0, math.inf, 2.0, 3.0]))
    with np.errstate(invalid="ignore"):
        report = check_structure(family, ["additive", "multiplicative"],
                                 n_samples=5)
        checked, _ = verify_structure(family.with_claims("additive"),
                                      n_samples=5)
    for check in report.checks:
        assert not check.passed
        assert math.isnan(check.max_residual)
    assert "additive" not in checked.verified


@pytest.mark.parametrize("n_samples", [0, -3])
def test_no_structure_is_verified_from_no_samples(line8, n_samples):
    # eight samples refute both laws of an exponential coefficient
    family = scalar_family(RealScalars(),
                           make_discrete_operator(line8, "shift", axis=0),
                           coefficient=CoefficientFunction.exponential())
    claims = family.with_claims("additive", "multiplicative")
    with pytest.raises(BadSpec, match="n_samples must be at least 1"):
        check_structure(claims, n_samples=n_samples)
    with pytest.raises(BadSpec, match="n_samples must be at least 1"):
        verify_structure(claims, n_samples=n_samples)
    report = check_structure(claims, n_samples=8)
    assert report.failed_flags() == {"additive", "multiplicative"}


def test_a_heavy_mass_is_still_additive():
    # eps -> eps box_m is exactly additive; rounding on its m^2 ~ 1e5
    # entries leaves residuals above 1e-10, under 1e-10 of the right-hand
    # side, so the law holds
    space = grid_space((24, 24))
    box_m = add(scale(-1.0, make_discrete_operator(space, "box")),
                scale(300.0 * 300.0, identity_operator(space)))
    family = scalar_family(RealScalars(), box_m).with_claims("additive")
    checked, report = verify_structure(family, n_samples=100, seed=1)
    (check,) = report.checks
    assert check.passed and check.max_residual > 1e-10
    assert "additive" in checked.verified


@pytest.mark.parametrize("carrier", [
    ProductAlgebra((RealScalars(), RealScalars())),
    TuplePower(RealScalars(), 2)], ids=["product", "tuple"])
def test_a_product_carrier_takes_constant_coefficients_only(line8, carrier):
    # a coefficient acts on one scalar: on a tuple it raised a TypeError
    # when the family was evaluated
    with pytest.raises(BadSpec, match=r"term \(1,\) has a linear coefficient"):
        polynomial_family([identity_operator(line8)],
                          {(1,): CoefficientFunction.linear(1.0, "real")},
                          carrier)
    constant = polynomial_family([identity_operator(line8)],
                                 {(1,): CoefficientFunction.constant(2.0)},
                                 carrier)
    assert np.array_equal(evaluate_family(constant, (1.0, 2.0)).matrix,
                          2.0 * np.eye(8))


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
    assert poly.slots == 2
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


def test_only_transported_slots_get_right_inverses(line8, monkeypatch):
    # a constant term becomes the offset, and an exponent 0 needs nothing:
    # only a non-constant term's positive powers are transported
    solved = []

    def counting(op, tol):
        solved.append(op)
        return right_inverse(op, tol)

    monkeypatch.setattr("emergence.theories.right_inverse", counting)
    ident, box = identity_operator(line8), _massive_box(line8)
    const = CoefficientFunction.constant(2.0, domain="real")
    lin = CoefficientFunction.linear(1.0, domain="real")
    terms = {(1, 0): const, (0, 1): lin, (0, 0): lin, (2, 0): const}
    assert transported_slots(terms.items()) == (1,)
    poly = polynomial_family([box, ident], terms, RealScalars())
    assert solved == [ident] and set(poly.right_inverses) == {1}
    solved.clear()
    poly = polynomial_family([box, ident], {(0, 0): lin}, RealScalars())
    assert solved == [] and poly.right_inverses == {}
    assert poly.right_inverse_failures == {}


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
