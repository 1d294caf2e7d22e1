"""Map synthesis: every constructor, every stated error path, the oracle."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from emergence import (BadSpec, BooleanComplex, CentralizerDiagonal,
                       CoefficientFunction,
                       ComplexScalars, DegreeMismatch, DimensionTooLarge,
                       EmergenceError, EmptyAccumulation, HypothesisViolated, NoPreimage,
                       NoSquareRoot, NonnegativeReals, NotMultiplicative,
                       NotRightInvertible, NotScalarForm, NotScalarInvariant,
                       Operator, ProductAlgebra, RealScalars, SpaceMismatch,
                       TuplePower, add, brute_force_emerge, compose,
                       compose_families, emerge,
                       emerge_accumulate, emerge_composition, emerge_monomial,
                       emerge_sum, evaluate_family,
                       grid_space, identity_emergence, identity_operator,
                       make_discrete_operator,
                       operator_residual, plain_space, polynomial_family,
                       scalar_family, scale, sum_families, verify_emergence,
                       verify_structure)
from emergence import operator_core
from emergence.engine import (REPORT_FLOOR, Certificate, Normals,
                              ProvenanceNode, _certify,
                              _draw_bytes, _draw_chunk, _fold_weights,
                              _same_source, _transport, map_block, map_draws,
                              residual_bound)
from emergence.operator_core import diagonal_operator
from emergence.parameter_algebra import Draws
from emergence.theories import (PolynomialFamily, Tree, evaluate_draws,
                                evaluate_polynomial, monomial_operator)

from conftest import central_difference, sample_field

# --- shared builders ----------------------------------------------------------


def lin(slope=1.0, domain="real"):
    return CoefficientFunction.linear(slope, domain=domain)


def verified(family, *flags):
    family, report = verify_structure(family.with_claims(*flags))
    assert report.failed_flags() == frozenset()
    return family


def identity_source(space, algebra=None):
    return scalar_family(algebra or RealScalars(), identity_operator(space),
                         label="scalar_identity")


def massive_box(space):
    return add(make_discrete_operator(space, "box"), identity_operator(space))


# --- fold weights ----------------------------------------------------------------


def test_fold_weights_are_exact_dyadic_partitions():
    assert _fold_weights(1) == (1.0,)
    assert _fold_weights(2) == (0.5, 0.5)
    assert _fold_weights(3) == (0.25, 0.25, 0.5)
    for s in range(1, 12):
        assert math.fsum(_fold_weights(s)) == 1.0


# --- monomial construction ---------------------------------------------------------


def test_monomial_identity_target_recovers_the_parameter(line8):
    source = identity_source(line8)
    emap = emerge_monomial(source, lin(), identity_operator(line8), 1)
    assert emap(0.7) == pytest.approx(0.7, abs=1e-12)
    assert emap.certificate.passed
    assert emap.certificate.max_functional_residual <= 1e-10
    assert emap.assignment_kind == "shared"


def test_monomial_halves_through_a_doubled_coefficient(line8):
    slot = massive_box(line8)
    source = scalar_family(RealScalars(), slot)
    emap = emerge_monomial(source, lin(2.0), slot, 1)
    assert emap(0.8) == pytest.approx(0.4, abs=1e-12)
    assert emap.certificate.max_functional_residual <= 1e-10


def test_monomial_inverts_operator_powers(line8):
    shift = make_discrete_operator(line8, "shift", axis=0)
    source = scalar_family(RealScalars(), shift, exponent=2)
    emap = emerge_monomial(source, lin(), shift, 2)
    assert emap(1.3) == pytest.approx(1.3, abs=1e-12)


def test_monomial_exponent_zero_needs_no_inverse(line8):
    box = make_discrete_operator(line8, "box")  # not right-invertible
    source = identity_source(line8)
    emap = emerge_monomial(source, lin(), box, 0)
    assert emap(2.0) == pytest.approx(2.0, abs=1e-12)


def test_projection_source_is_caught_off_orbit(flat4):
    proj = Operator(np.diag([1.0, 1.0, 0.0, 0.0]), flat4)
    source = scalar_family(RealScalars(), proj)
    with pytest.raises(NotScalarForm) as info:
        emerge_monomial(source, lin(), identity_operator(flat4), 1)
    first_eps = float(np.random.default_rng(0).standard_normal())
    assert info.value.residual == pytest.approx(abs(first_eps), rel=1e-9)


def test_projection_slot_has_no_right_inverse(flat4):
    proj = Operator(np.diag([1.0, 1.0, 0.0, 0.0]), flat4)
    source = identity_source(flat4)
    with pytest.raises(NotRightInvertible):
        emerge_monomial(source, lin(), proj, 1)


def test_monomial_preimage_respects_coefficient_domain(line8):
    source = identity_source(line8)  # samples negative parameters
    with pytest.raises(NoPreimage) as info:
        emerge_monomial(source, lin(domain="nonneg"),
                        identity_operator(line8), 1)
    assert "slot^1" in str(info.value)


def test_a_constant_coefficient_refuses_array_values_it_misses():
    # a Boolean parameter is an array: every entry must hit the constant
    space = plain_space(8, "complex")
    source = scalar_family(BooleanComplex(4, 2), identity_operator(space))
    with pytest.raises(NoPreimage, match="slot\\^0"):
        emerge_monomial(source, CoefficientFunction.constant(2.0),
                        identity_operator(space), 0)


def test_monomial_rejects_vanishing_coefficients(line8):
    source = identity_source(line8)
    with pytest.raises(HypothesisViolated) as info:
        emerge_monomial(source, CoefficientFunction.constant(0.0),
                        identity_operator(line8), 1)
    assert "coefficient" in info.value.evidence


def test_monomial_rejects_bad_slots(line8, line4):
    source = identity_source(line8)
    with pytest.raises(SpaceMismatch):
        emerge_monomial(source, lin(), identity_operator(line4), 1)
    with pytest.raises(BadSpec):
        emerge_monomial(source, lin(), identity_operator(line8), -1)


def test_unverified_claims_refuse_synthesis(line8):
    source = identity_source(line8).with_claims("additive")
    with pytest.raises(HypothesisViolated) as info:
        emerge_monomial(source, lin(), identity_operator(line8), 1)
    assert info.value.evidence == {"claimed": ["additive"], "verified": []}


# --- composition -------------------------------------------------------------------


def test_composition_splits_across_the_square_root(line8):
    source = verified(identity_source(line8, NonnegativeReals()),
                      "multiplicative")
    part = identity_emergence(source)
    emap = emerge_composition(source, part, part)
    assert emap(4.0) == (2.0, 2.0)
    assert emap.assignment_kind == "pair"
    assert np.array_equal(evaluate_family(emap.target, emap(4.0)).matrix,
                          4.0 * np.eye(8))
    assert ("branch", "principal_sqrt") in emap.provenance.data


def test_composition_of_projection_factors():
    space = plain_space(4, "complex")
    proj = Operator(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex), space)
    source = verified(
        scalar_family(ComplexScalars(), proj, label="projector_theory"),
        "multiplicative")
    part = identity_emergence(source)
    emap = emerge_composition(source, part, part)
    assert emap.certificate.max_operator_residual <= 1e-12
    rng = np.random.default_rng(5)
    eps = complex(rng.standard_normal() + 1j * rng.standard_normal())
    assert operator_residual(
        evaluate_family(emap.target, emap(eps)),
        Operator(eps * proj.matrix, space)) <= 1e-12


@pytest.mark.parametrize("kind", ["sum", "composition"])
def test_a_plain_map_onto_a_pair_target_certifies_as_the_built_map(line8,
                                                                   kind):
    # a callable with no block form is stacked as the target's carrier
    # stacks it: one block per branch of the tree
    source = verified(identity_source(line8, NonnegativeReals()),
                      "homomorphic", "scalar_invariant")
    part = identity_emergence(source)
    build, split = {"sum": (emerge_sum, lambda eps: 0.5 * eps),
                    "composition": (emerge_composition, math.sqrt)}[kind]
    built = build(source, part, part)
    cert = verify_emergence(source, built.target,
                            lambda eps: (split(eps), split(eps)),
                            built.certificate.samples, seed=0)
    assert cert.passed and cert == built.certificate
    maxima = ("max_functional_residual", "max_operator_residual")
    assert [_hex(getattr(cert, name)) for name in maxima] \
        == [_hex(getattr(built.certificate, name)) for name in maxima]


def test_composition_needs_a_multiplicative_source(line8):
    source = verified(identity_source(line8), "additive")
    part = identity_emergence(source)
    with pytest.raises(NotMultiplicative):
        emerge_composition(source, part, part)


def test_composition_over_signed_reals_hits_missing_roots(line8):
    source = verified(identity_source(line8), "multiplicative")
    part = identity_emergence(source)
    with pytest.raises(NoSquareRoot):
        emerge_composition(source, part, part)


def test_constituents_must_match_the_source(line8):
    source = verified(identity_source(line8, NonnegativeReals()),
                      "multiplicative")
    doubled = scalar_family(NonnegativeReals(),
                            scale(2.0, identity_operator(line8)))
    with pytest.raises(BadSpec) as info:
        emerge_composition(source, identity_emergence(source),
                           identity_emergence(doubled))
    assert "different source" in str(info.value)


def test_a_constituent_with_a_failing_certificate_is_refused(line8):
    source = verified(identity_source(line8), "scalar_invariant")
    part = identity_emergence(source)
    failing = replace(part, certificate=replace(part.certificate,
                                                passed=False))
    with pytest.raises(BadSpec, match="^constituent map carries a failing "
                                      "certificate$"):
        emerge_sum(source, part, failing)


def test_a_constituent_on_another_space_is_refused(line8):
    # the same identity matrix on a space without the grid's geometry: only
    # the space check tells the two sources apart
    source = verified(identity_source(line8), "scalar_invariant")
    elsewhere = identity_source(plain_space(8))
    assert not source.space.matches(elsewhere.space)
    assert np.array_equal(evaluate_family(source, 2.0).matrix,
                          evaluate_family(elsewhere, 2.0).matrix)
    with pytest.raises(BadSpec, match="certified against a different "
                                      "source family"):
        emerge_sum(source, identity_emergence(source),
                   identity_emergence(elsewhere))


def test_a_nan_residual_is_not_the_same_source():
    # inf - inf on the diagonal: two such families cannot be told to agree
    def family():
        return scalar_family(RealScalars(), diagonal_operator(
            plain_space(4), [1.0, math.inf, 2.0, 3.0]))

    a = family()
    assert _same_source(a, a)
    with np.errstate(invalid="ignore"):
        assert not _same_source(a, family())


# --- sum ---------------------------------------------------------------------------


def test_sum_splits_into_exact_halves(line8):
    source = verified(identity_source(line8), "scalar_invariant")
    part = identity_emergence(source)
    emap = emerge_sum(source, part, part)
    assert emap(3.0) == (1.5, 1.5)
    assert emap(0.0) == (0.0, 0.0)
    assert np.array_equal(evaluate_family(emap.target, emap(3.0)).matrix,
                          3.0 * np.eye(8))
    assert emap.provenance.detail == "scalar_halving"


def test_sum_of_massive_wave_operators(line8):
    source = verified(scalar_family(RealScalars(), massive_box(line8)),
                      "scalar_invariant")
    part = identity_emergence(source)
    emap = emerge_sum(source, part, part)
    assert emap(1.0) == (0.5, 0.5)
    assert emap.certificate.max_operator_residual <= 1e-12


def test_sum_needs_a_scalar_invariant_source(line8):
    source = verified(identity_source(line8), "multiplicative")
    part = identity_emergence(source)
    with pytest.raises(NotScalarInvariant):
        emerge_sum(source, part, part)


# --- accumulation ------------------------------------------------------------------


def test_accumulation_folds_compositions_into_sums(line8):
    source = verified(identity_source(line8, NonnegativeReals()),
                      "homomorphic")
    part = identity_emergence(source)
    emap = emerge_accumulate(source, [(part, part), (part, part)])
    assert emap(0.5) == ((0.5, 0.5), (0.5, 0.5))
    assert np.array_equal(evaluate_family(emap.target, emap(0.5)).matrix,
                          0.5 * np.eye(8))
    assert emap.provenance.kind == "accumulate"
    assert ("pairs", 2) in emap.provenance.data
    (fold,) = emap.provenance.children
    assert fold.kind == "sum" and fold.detail == "additive_halving"


def test_single_pair_accumulation_is_a_composition(line8):
    source = verified(identity_source(line8, NonnegativeReals()),
                      "homomorphic")
    part = identity_emergence(source)
    emap = emerge_accumulate(source, [(part, part)])
    assert emap.provenance.kind == "composition"
    assert emap(4.0) == (2.0, 2.0)


def test_accumulation_rejects_empty_and_unjustified_folds(line8):
    strong = verified(identity_source(line8, NonnegativeReals()),
                      "homomorphic")
    weak = verified(identity_source(line8, NonnegativeReals()), "additive")
    part = identity_emergence(weak)
    with pytest.raises(EmptyAccumulation):
        emerge_accumulate(strong, [])
    with pytest.raises(HypothesisViolated):
        emerge_accumulate(weak, [(part, part)])


def test_accumulation_errors_carry_the_fold_index(line8):
    source = verified(identity_source(line8, NonnegativeReals()),
                      "homomorphic")
    doubled = scalar_family(NonnegativeReals(),
                            scale(2.0, identity_operator(line8)))
    alien = identity_emergence(doubled)
    with pytest.raises(BadSpec) as info:
        emerge_accumulate(source, [(identity_emergence(source), alien)])
    assert info.value.args[0] == "accumulation step 0"


# --- univariate polynomial targets ---------------------------------------------------


def test_univariate_single_monomial_is_transparent(line8):
    slot = massive_box(line8)
    source = scalar_family(RealScalars(), slot)
    poly = polynomial_family([slot], {(1,): lin()}, RealScalars())
    emap = emerge(source, poly)
    assert emap.assignment_kind == "per_term"
    assert emap(0.7)[(1,)] == pytest.approx(0.7, abs=1e-12)
    assert emap.provenance.kind == "monomial"


def test_univariate_square_through_the_shift(line8):
    shift = make_discrete_operator(line8, "shift", axis=0)
    source = scalar_family(RealScalars(), shift, exponent=2)
    poly = polynomial_family([shift], {(2,): lin()}, RealScalars())
    emap = emerge(source, poly)
    assert emap(1.1)[(2,)] == pytest.approx(1.1, abs=1e-12)


def test_univariate_two_terms_split_the_source(line8):
    source = verified(identity_source(line8), "additive")
    poly = polynomial_family(
        [identity_operator(line8)],
        {(1,): lin(1.0), (2,): lin(2.0)}, RealScalars())
    emap = emerge(source, poly)
    table = emap(1.0)
    assert table[(1,)] == pytest.approx(0.5, abs=1e-12)
    assert table[(2,)] == pytest.approx(0.25, abs=1e-12)
    assert emap.provenance.kind == "univariate"
    assert emap.provenance.detail == "additive_halving"
    assert ("weights", [0.5, 0.5]) in emap.provenance.data


def test_univariate_agrees_with_the_oracle_on_forms(line8):
    source = verified(identity_source(line8), "additive")
    poly = polynomial_family(
        [identity_operator(line8)],
        {(1,): lin(1.0), (2,): lin(2.0)}, RealScalars())
    emap = emerge(source, poly)
    for eps in (0.3, 1.7, -2.2):
        (oracle,) = brute_force_emerge(source, poly, [eps])
        assert oracle is not None
        assert operator_residual(
            evaluate_polynomial(poly, emap(eps)),
            evaluate_polynomial(poly, oracle)) <= 1e-8


def test_constant_terms_become_a_fixed_offset(line8):
    source = scalar_family(
        RealScalars(), identity_operator(line8),
        coefficient=CoefficientFunction.affine(1.0, 3.0, domain="real"))
    poly = polynomial_family(
        [identity_operator(line8)],
        {(1,): lin(), (0,): CoefficientFunction.constant(3.0, domain="real")},
        RealScalars())
    emap = emerge(source, poly)
    table = emap(2.0)
    assert table[(1,)] == pytest.approx(2.0, abs=1e-12)
    assert table[(0,)] == 0.0
    assert emap.provenance.kind == "sum"
    assert emap.provenance.detail == "constant_offset"
    leaf_details = [c.detail for c in emap.provenance.children]
    assert "constant_coefficient" in leaf_details


@pytest.mark.parametrize("slots,terms,message", [
    ((1.0,), {(1,): lin(domain="nonneg")},
     "term (1,) (power 1): preimage falls outside the nonnegative cone"),
    # a multi-slot term is labelled by its whole multi-index
    ((1.0, 2.0), {(0, 1): lin(domain="nonneg"), (1, 0): lin()},
     "term (0, 1) (power 0): preimage falls outside the nonnegative cone"),
], ids=["one_slot", "two_slots"])
def test_term_labels_point_at_the_failing_power(slots, terms, message, line8):
    source = verified(identity_source(line8), "additive")
    poly = polynomial_family(
        [scale(c, identity_operator(line8)) for c in slots], terms,
        RealScalars())
    with pytest.raises(NoPreimage) as info:
        emerge(source, poly)
    assert str(info.value) == message


# --- multivariate emergence -----------------------------------------------------------


def test_bivariate_split_over_proportional_slots(line8):
    source = verified(identity_source(line8), "additive")
    poly = polynomial_family(
        [scale(2.0, identity_operator(line8)),
         scale(3.0, identity_operator(line8))],
        {(1, 0): lin(), (0, 1): lin()}, RealScalars())
    emap = emerge(source, poly)
    table = emap(1.2)
    assert table[(1, 0)] == pytest.approx(1.2 / 4.0, abs=1e-12)
    assert table[(0, 1)] == pytest.approx(1.2 / 6.0, abs=1e-12)
    assert emap.provenance.kind == "multivariate"


def _leaves(node):
    """A provenance tree's leaves, left to right."""
    if not node.children:
        return [node]
    return [leaf for child in node.children for leaf in _leaves(child)]


def test_right_inverse_transport_is_recorded(line8):
    source = verified(identity_source(line8), "additive")
    poly = polynomial_family(
        [scale(2.0, identity_operator(line8)),
         scale(3.0, identity_operator(line8))],
        {(1, 0): lin(), (0, 1): lin()}, RealScalars())
    emap = emerge(source, poly)
    transported = [c for c in emap.provenance.children
                   if c.detail == "right_inverse_transport"]
    assert len(transported) == 1
    leaf_details = {leaf.detail for leaf in _leaves(transported[0])}
    assert "unital_identity" in leaf_details
    assert all(leaf.kind == "monomial" for leaf in _leaves(emap.provenance))


def _fsum_transport_diagonal(op, post):
    """The per-row reference: each diagonal entry of ``op o post`` the
    ``math.fsum`` of its row-times-column products, real and imaginary
    parts apart."""
    left, right = op.matrix, post.matrix
    diagonal = []
    for i in range(op.space.dim):
        products = left[i] * right[:, i]
        real = math.fsum(products.real.tolist())
        diagonal.append(complex(real, math.fsum(products.imag.tolist()))
                        if np.iscomplexobj(products) else real)
    return np.array(diagonal)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("structures,result", [
    (("stencil", "stencil"), "stencil"), (("dense", "dense"), "dense"),
    (("stencil", "diagonal"), "dense"), (("diagonal", "diagonal"), "diagonal"),
], ids=["stencil", "dense", "mixed", "diagonal"])
def test_transport_diagonal_is_the_fsum_of_its_products(structures, result,
                                                        kind):
    space = grid_space((6, 4), scalar_kind=kind)
    rng = np.random.default_rng(17)

    def body(structure):
        shape = {"stencil": (6, 4), "diagonal": (24,),
                 "dense": (24, 24)}[structure]
        # entries over sixty binades, so the sums cancel and round
        parts = [rng.standard_normal(shape)
                 * np.ldexp(1.0, rng.integers(-30, 30, shape))
                 for _ in range(2 if kind == "complex" else 1)]
        return parts[0] + 1j * parts[1] if kind == "complex" else parts[0]

    op, post = (Operator(body(s), space, s) for s in structures)
    got = _transport(op, post)
    assert got.structure == result
    want = _fsum_transport_diagonal(op, post)
    assert np.diagonal(got.matrix).tobytes() == want.tobytes()
    # off the diagonal it is the plain composition
    off = ~np.eye(24, dtype=bool)
    assert (got.matrix[off].tobytes()
            == compose(op, post).matrix[off].tobytes())
    assert _transport(op, None) is op


def test_wave_background_with_constant_first_slot(line8):
    box_m = massive_box(line8)
    source = scalar_family(RealScalars(), box_m)
    poly = polynomial_family(
        [box_m, scale(-1.0, box_m)],
        {(1, 0): CoefficientFunction.constant(-1.0, domain="real"),
         (0, 1): lin()},
        RealScalars())
    emap = emerge(source, poly)
    table = emap(0.5)
    assert table[(0, 1)] == pytest.approx(-1.5, abs=1e-10)
    assert table[(1, 0)] == 0.0
    assert emap.certificate.max_functional_residual <= 1e-8


def test_a_slot_only_in_a_constant_term_needs_no_right_inverse():
    # the constant slot has zero diagonal entries, so it has no right
    # inverse; it is never attempted, and the offset it makes is still
    # solved away on the identity orbit
    space = plain_space(4)
    algebra = CentralizerDiagonal(np.eye(4))
    singular = diagonal_operator(space, [1.0, 0.0, 2.0, 0.0])
    with pytest.raises(NotRightInvertible):
        operator_core.right_inverse(singular)
    ident = identity_operator(space)
    source = verified(scalar_family(algebra, ident), "additive",
                      "scalar_invariant")
    poly = polynomial_family(
        [singular, ident],
        {(1, 0): CoefficientFunction.constant(0.5, domain="real"),
         (0, 1): lin()}, algebra)
    assert set(poly.right_inverses) == {1}
    assert poly.right_inverse_failures == {}
    emap = emerge(source, poly)
    assert emap.certificate.passed


def test_absent_last_variable_delegates_bitwise(line8):
    slot = identity_operator(line8)
    other = make_discrete_operator(line8, "shift", axis=0)
    source = verified(scalar_family(RealScalars(), slot), "additive")
    uni = polynomial_family([slot], {(1,): lin(1.0), (2,): lin(2.0)},
                            RealScalars())
    bi = polynomial_family([slot, other],
                           {(1, 0): lin(1.0), (2, 0): lin(2.0)},
                           RealScalars())
    map_uni = emerge(source, uni)
    map_bi = emerge(source, bi)
    for eps in (0.7, -1.9, 2.4):
        t1, t2 = map_uni(eps), map_bi(eps)
        assert t2[(1, 0)] == t1[(1,)]
        assert t2[(2, 0)] == t1[(2,)]
    assert map_bi.certificate == map_uni.certificate


def test_dense_bivariate_matches_the_oracle(rng):
    space = plain_space(3)
    a = Operator(rng.standard_normal((3, 3)) + 3.0 * np.eye(3), space)
    b = Operator(rng.standard_normal((3, 3)) + 3.0 * np.eye(3), space)
    source = scalar_family(RealScalars(), compose(a, b))
    poly = polynomial_family([a, b], {(1, 1): lin()}, RealScalars())
    emap = emerge(source, poly)
    for eps in (0.4, 1.3):
        (oracle,) = brute_force_emerge(source, poly, [eps])
        assert oracle is not None
        assert operator_residual(
            evaluate_polynomial(poly, emap(eps)),
            evaluate_polynomial(poly, oracle)) <= 1e-8


def test_cofactors_keep_the_parents_right_inverse_tolerance():
    space = plain_space(4)
    m0 = np.diag([1.0, 1.0, 1.0, 1e-9]) + 1e-3 * np.triu(np.ones((4, 4)), 1)
    slots = [Operator(m0, space), Operator(2.0 * np.eye(4), space)]
    poly = polynomial_family(slots, {(1, 1): lin()}, RealScalars(),
                             inverse_tol=1e-6)
    assert set(poly.right_inverses) == {0, 1}
    source = verified(scalar_family(RealScalars(), compose(*slots)),
                      "additive", "scalar_invariant")
    emap = emerge(source, poly, tol=1e-6)
    assert emap.certificate.passed


def test_emergence_degree_gates(line8):
    single = identity_source(line8)
    double = sum_families(single, identity_source(line8))
    poly = polynomial_family([identity_operator(line8)], {(1,): lin()},
                             RealScalars())
    with pytest.raises(DegreeMismatch):
        emerge(double, poly)


def test_emergence_space_and_inverse_gates(line8, line4):
    source = identity_source(line8)
    off_space = polynomial_family([identity_operator(line4)], {(1,): lin()},
                                  RealScalars())
    with pytest.raises(SpaceMismatch):
        emerge(source, off_space)
    massless = polynomial_family(
        [make_discrete_operator(line8, "box")], {(1,): lin()}, RealScalars())
    with pytest.raises(NotRightInvertible) as info:
        emerge(source, massless)
    assert "slot 0" in str(info.value)
    assert "frequency (0,)" in str(info.value)


def test_distributing_needs_a_verified_structure_flag(line8):
    source = identity_source(line8)  # nothing verified
    poly = polynomial_family(
        [identity_operator(line8)], {(1,): lin(1.0), (2,): lin(2.0)},
        RealScalars())
    with pytest.raises(HypothesisViolated) as info:
        emerge(source, poly)
    assert "distributing" in str(info.value)


def test_synthesis_refuses_sources_that_are_not_scalar_times_fixed(line8):
    ident = identity_operator(line8)
    summed = sum_families(identity_source(line8), identity_source(line8))
    composed = compose_families(identity_source(line8), identity_source(line8))
    for source in (summed, composed):
        poly = polynomial_family([ident], {(1,): lin()}, RealScalars(),
                                 coefficient_degree=source.degree)
        with pytest.raises(BadSpec) as info:
            emerge(source, poly)
        assert "scalar-times-fixed" in str(info.value)
    with pytest.raises(BadSpec):
        emerge_monomial(composed, lin(), ident, 1)


def test_vanishing_active_coefficients_are_refused(line8):
    source = verified(identity_source(line8), "additive")
    # a linear coefficient whose author does not claim it nowhere vanishing
    maybe_zero = CoefficientFunction("linear", (1.0,), False, "real")
    poly = polynomial_family([identity_operator(line8)], {(1,): maybe_zero},
                             RealScalars())
    with pytest.raises(HypothesisViolated) as info:
        emerge(source, poly)
    assert info.value.evidence == {"term": [1]}


# --- identity emergence -----------------------------------------------------------------


def test_identity_emergence_views_the_family_as_polynomial(line8):
    source = identity_source(line8)
    emap = identity_emergence(source)
    assert emap(1.7) == 1.7
    assert emap.assignment_kind == "shared"
    assert emap.target.slots == 1


def test_identity_emergence_needs_a_plain_scalar_form(line8):
    with_coeff = scalar_family(
        RealScalars(), identity_operator(line8),
        coefficient=CoefficientFunction.linear(2.0, domain="real"))
    with pytest.raises(BadSpec):
        identity_emergence(with_coeff)
    summed = sum_families(identity_source(line8), identity_source(line8))
    with pytest.raises(BadSpec):
        identity_emergence(summed)


# --- verification ------------------------------------------------------------------------


def test_self_verification_is_exactly_zero(line8):
    source = identity_source(line8)
    cert = verify_emergence(source, source, lambda eps: eps, n_samples=25)
    assert cert.passed
    assert cert.max_functional_residual == 0.0
    assert cert.max_operator_residual == 0.0
    assert cert.samples == 25


def test_scaling_mismatch_fails_without_raising(line8):
    source = identity_source(line8)
    cert = verify_emergence(source, source, lambda eps: 2.0 * eps,
                            n_samples=25)
    assert not cert.passed
    assert cert.max_operator_residual > 0.1


#: draws per certification chunk where a test sets the budget for it
CHUNK = 16


def _chunks_of(monkeypatch, source, target, draws=CHUNK):
    """Set the byte budget so a certification chunk of these families holds
    ``draws`` draws: small spaces then cross chunk boundaries too."""
    monkeypatch.setattr(operator_core, "BLOCK_BYTES",
                        draws * _draw_bytes(source, target))


def test_verification_is_job_count_independent(line8, monkeypatch):
    source = identity_source(line8)
    poly = polynomial_family([identity_operator(line8)], {(1,): lin()},
                             RealScalars())
    # 37 draws in chunks of 16: the last chunk is short
    _chunks_of(monkeypatch, source, poly)
    # a mismatched map, so the maxima depend on which draw is worst
    serial, two, four = (verify_emergence(source, poly, lambda eps: 1.5 * eps,
                                          n_samples=37, seed=9, jobs=jobs)
                         for jobs in (None, 2, 4))
    assert serial == two == four
    assert serial.max_functional_residual > 0.0


def _nan_on_call(k):
    """A parameter map that is the identity except on its ``k``-th call."""
    calls = itertools.count(1)
    return lambda eps: math.nan if next(calls) == k else eps


@pytest.mark.parametrize("jobs", [None, 2])
def test_a_nan_residual_in_a_later_block_fails_the_certificate(line8, jobs,
                                                              monkeypatch):
    source = identity_source(line8)
    _chunks_of(monkeypatch, source, source)
    k = CHUNK + 4
    cert = verify_emergence(source, source, _nan_on_call(k),
                            n_samples=2 * CHUNK + 5, jobs=jobs)
    assert not cert.passed
    assert math.isnan(cert.max_functional_residual)
    assert math.isnan(cert.max_operator_residual)
    provenance = ProvenanceNode("monomial")
    with pytest.raises(HypothesisViolated, match="nan"):
        _certify(source, source, _nan_on_call(k), "monomial", provenance,
                 "nan_map", 2 * CHUNK + 5, 1e-8, 0)


class _CountedMap:
    """A parameter map that counts its calls."""

    def __init__(self, fmap):
        self.fmap, self.calls = fmap, 0

    def __call__(self, eps):
        self.calls += 1
        return self.fmap(eps)


def _mismatched(space):
    """A source, a target and a counted map that misses it by half, so the
    maxima depend on which draw is worst."""
    source = identity_source(space)
    poly = polynomial_family([identity_operator(space)], {(1,): lin()},
                             RealScalars())
    return source, poly, _CountedMap(lambda eps: 1.5 * eps)


def _evaluated(*args, **kwargs):
    """A certificate and the number of map calls it made."""
    fmap = args[2]
    before = fmap.calls
    cert = verify_emergence(*args, **kwargs)
    return cert, fmap.calls - before


def _bits(cert):
    return (cert.samples, cert.max_functional_residual.hex(),
            cert.max_operator_residual.hex(), cert.tolerance, cert.passed,
            cert.seed)


@pytest.mark.parametrize("jobs", [None, 2])
def test_a_covered_certificate_evaluates_only_the_later_draws(line8, jobs):
    source, poly, fmap = _mismatched(line8)
    fresh = verify_emergence(source, poly, fmap, 37, 1e-3, 9)
    covered, evaluated = _evaluated(source, poly, fmap, 20, seed=9)
    assert evaluated == 20
    cert, evaluated = _evaluated(source, poly, fmap, 37, 1e-3, 9, jobs,
                                 covered=covered)
    assert evaluated == 17
    assert _bits(cert) == _bits(fresh)
    assert (cert.tolerance, cert.passed) == (1e-3, False)
    # a certificate that covers every draw leaves none to evaluate
    again, evaluated = _evaluated(source, poly, fmap, 37, 1e-3, 9, jobs,
                                  covered=cert)
    assert evaluated == 0
    assert _bits(again) == _bits(fresh)


def test_a_covered_certificate_that_does_not_fit_is_evaluated_in_full(line8):
    source, poly, fmap = _mismatched(line8)
    covered = verify_emergence(source, poly, fmap, 20, seed=3)
    unseeded = verify_emergence(source, poly, fmap, 20, seed=None)
    for n_samples, seed, given in ((30, 4, covered),  # another seed
                                   (19, 3, covered),  # too many samples
                                   (30, None, unseeded)):  # no repeatable seed
        cert, evaluated = _evaluated(source, poly, fmap, n_samples,
                                     seed=seed, covered=given)
        assert evaluated == n_samples
        if seed is not None:
            assert _bits(cert) == _bits(
                verify_emergence(source, poly, fmap, n_samples, seed=seed))


def test_identical_calls_without_a_covered_certificate_evaluate_every_draw(
        line8):
    source, poly, fmap = _mismatched(line8)
    first, evaluated = _evaluated(source, poly, fmap, 30, seed=3)
    assert evaluated == 30
    second, evaluated = _evaluated(source, poly, fmap, 30, seed=3)
    assert evaluated == 30
    assert _bits(first) == _bits(second)


def test_a_covered_certificate_made_by_hand_is_evaluated_in_full(line8):
    source, poly, fmap = _mismatched(line8)
    made = verify_emergence(source, poly, fmap, 20, seed=3)
    # a real parameter normal and eight field normals per draw
    assert made.draw_normals == 9
    # the same numbers, written by hand: nothing says where its draws end
    by_hand = Certificate(made.samples, made.max_functional_residual,
                          made.max_operator_residual, made.tolerance,
                          made.passed, made.seed)
    assert by_hand.draw_normals is None
    assert by_hand == made  # the normals per draw are not compared
    assert by_hand.to_json_dict() == made.to_json_dict()
    assert "draw_normals" not in made.to_json_dict()
    cert, evaluated = _evaluated(source, poly, fmap, 30, seed=3,
                                 covered=by_hand)
    assert evaluated == 30
    resumed, evaluated = _evaluated(source, poly, fmap, 30, seed=3,
                                    covered=made)
    assert evaluated == 10
    assert _bits(cert) == _bits(resumed)


def test_a_nan_in_the_covered_draws_fails_the_wider_certificate(line8):
    source = identity_source(line8)
    covered = verify_emergence(source, source, _nan_on_call(5), n_samples=20)
    assert math.isnan(covered.max_operator_residual)
    # the later draws are exact: only the covered NaN can fail the result
    cert = verify_emergence(source, source, lambda eps: eps, n_samples=40,
                            covered=covered)
    assert not cert.passed
    assert math.isnan(cert.max_functional_residual)
    assert math.isnan(cert.max_operator_residual)


@pytest.mark.parametrize("n_samples", [37, 40, 41, 100])
def test_covered_draws_give_the_bits_of_a_full_call(line8, n_samples):
    source, poly, fmap = _mismatched(line8)
    covered = verify_emergence(source, poly, fmap, 40, seed=5)
    got, evaluated = _evaluated(source, poly, fmap, n_samples, seed=5,
                                covered=covered)
    assert evaluated == (n_samples - 40 if n_samples >= 40 else n_samples)
    assert _bits(got) == _bits(verify_emergence(source, poly, fmap,
                                                n_samples, seed=5))


@pytest.mark.parametrize("n_samples", [0, -3])
def test_nothing_is_verified_or_certified_from_no_samples(line8, n_samples):
    # with no draw nothing is evaluated, so nothing may pass: with one,
    # the shift is no scalar form of the identity
    source = scalar_family(RealScalars(), identity_operator(line8))
    shift = make_discrete_operator(line8, "shift", axis=0)
    poly = polynomial_family([shift], {(1,): lin()}, RealScalars())
    with pytest.raises(BadSpec, match="n_samples must be at least 1"):
        verify_emergence(source, source, lambda eps: eps, n_samples=n_samples)
    with pytest.raises(BadSpec, match="n_samples must be at least 1"):
        emerge(source, poly, n_samples=n_samples)
    with pytest.raises(NotScalarForm):
        emerge(source, poly, n_samples=1)


# --- a block of draws against blocks of one --------------------------------------
# A call of a synthesized map is its block call on one draw, so the tests named
# ``..._per_draw_path`` compare an N-draw block with N blocks of one: a draw's
# bits, and a refusal, do not depend on the block the draw is mapped in.


def _hex(value):
    """The exact bits of a parameter: its real and imaginary parts."""
    values = np.asarray(value, dtype=complex).ravel()
    return [(x.real.hex(), x.imag.hex()) for x in values.tolist()]


class _Spiked(RealScalars):
    """Real scalars whose ``k``-th sample is ``value`` (the rest are drawn),
    counted over every row its blocks have made."""

    def __init__(self, k, value):
        self.k, self.value, self.rows = k, value, 0

    def from_normals(self, z):
        drawn = super().from_normals(z)
        if self.rows < self.k <= self.rows + len(z):
            drawn.values[self.k - 1 - self.rows] = self.value
        self.rows += len(z)
        return drawn


def _stencil_target(dims, kind, symmetry):
    """A stencil source and a two-slot target with a constant term."""
    space = grid_space(dims, scalar_kind=kind, symmetry=symmetry)
    algebra, domain, factor = ((RealScalars(), "real", -2.0) if kind == "real"
                               else (ComplexScalars(), "complex", -2.0 + 1j))
    # m^2 - box: its symbol is at least m^2, so it is right-invertible
    box = add(scale(-1.0, make_discrete_operator(space, "box")),
              identity_operator(space))
    source = verified(scalar_family(algebra, box), "additive",
                      "scalar_invariant")
    poly = polynomial_family(
        [box, scale(factor, box)],
        {(1, 0): CoefficientFunction.constant(0.75, domain),
         (0, 1): CoefficientFunction.affine(2.0, 0.5, domain)}, algebra)
    return source, poly


def _boolean_target():
    algebra = BooleanComplex(masks=8, block=4)
    space = plain_space(32, "complex")
    base = diagonal_operator(space, np.linspace(1.0, 2.0, 32).astype(complex))
    source = verified(scalar_family(algebra, base), "additive",
                      "scalar_invariant")
    return source, polynomial_family(
        [base], {(1,): CoefficientFunction.linear(2.0)}, algebra)


def _centralizer_1_2_3():
    """Coupled components of sizes 1, 2 and 3: orbit spans of unequal
    length."""
    projector = np.zeros((6, 6))
    for comp in ([0], [1, 2], [3, 4, 5]):
        projector[np.ix_(comp, comp)] = 1.0 / len(comp)
    return CentralizerDiagonal(projector)


def _centralizer_target():
    algebra = _centralizer_1_2_3()
    base = diagonal_operator(plain_space(6), np.linspace(1.0, 2.0, 6))
    source = verified(scalar_family(algebra, base), "additive",
                      "scalar_invariant")
    return source, polynomial_family(
        [base], {(1,): CoefficientFunction.linear(2.0, "real")}, algebra)


BLOCK_CASES = {
    f"{'x'.join(map(str, dims))}-{kind}-{symmetry}":
        (lambda dims=dims, kind=kind, symmetry=symmetry:
         _stencil_target(dims, kind, symmetry))
    for dims in ((64,), (6, 10), (4, 4, 6))
    for kind, symmetry in (("real", "symmetric"), ("complex", "symmetric"),
                           ("complex", "hermitian"))
}
BLOCK_CASES["boolean-8x4"] = _boolean_target
BLOCK_CASES["centralizer-1-2-3"] = _centralizer_target


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_maps_and_bodies_match_the_per_draw_path(case):
    source, poly = BLOCK_CASES[case]()
    emap = emerge(source, poly, n_samples=8, seed=2)
    rng = np.random.default_rng(5)
    params = [source.algebra.sample(rng) for _ in range(CHUNK + 3)]
    draws = Draws.stack(params)
    block = emap.parameter_map.block(draws)
    tables = [emap(eps) for eps in params]
    for alpha, _ in poly.terms:
        assert [_hex(v) for v in block[alpha].values] \
            == [_hex(t[alpha]) for t in tables]
    for family, at, each in ((source, draws, params),
                             (poly, block, tables)):
        stack = evaluate_family(family, at)
        for i, value in enumerate(each):
            one = evaluate_family(family, value)
            assert stack.structure == one.structure
            assert np.array_equal(stack[i].body, one.body)


def _empty_block_maps():
    """A synthesized map on every leaf carrier, and one onto a sum whose
    carrier is a product."""
    maps = {case: emerge(*BLOCK_CASES[case](), n_samples=8, seed=2)
            for case in ("64-real-symmetric", "6x10-complex-symmetric",
                         "boolean-8x4", "centralizer-1-2-3")}
    space = grid_space((8,))
    source = verified(identity_source(space, NonnegativeReals()),
                      "scalar_invariant")
    part = emerge(source, polynomial_family(
        [identity_operator(space)], {(1,): lin(domain="nonneg")},
        NonnegativeReals()), n_samples=8)
    maps["nonnegative"] = part
    maps["sum-on-a-product-carrier"] = emerge_sum(source, part, part,
                                                  n_samples=8)
    return maps


def _leaf_blocks(value):
    if isinstance(value, dict):
        return [b for v in value.values() for b in _leaf_blocks(v)]
    if isinstance(value, tuple):
        return [b for v in value for b in _leaf_blocks(v)]
    return [value]


def test_a_map_of_no_draws_is_an_empty_block():
    for case, emap in _empty_block_maps().items():
        block = map_block(emap.parameter_map, [], emap.target.algebra)
        assert isinstance(block, tuple) == (case == "sum-on-a-product-carrier")
        assert all(isinstance(b, Draws) and len(b) == 0
                   for b in _leaf_blocks(block)), case
        assert map_draws(emap.parameter_map, [], emap.target.algebra) == []


@pytest.mark.parametrize("jobs", [None, 2])
@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_certificates_match_the_per_draw_path(case, jobs, monkeypatch):
    source, poly = BLOCK_CASES[case]()
    emap = emerge(source, poly, n_samples=8, seed=2)
    _chunks_of(monkeypatch, source, poly)
    # a map with no block form is called draw by draw: blocks of one
    got, want = (verify_emergence(source, poly, fmap, 2 * CHUNK + 5,
                                  seed=3, jobs=jobs)
                 for fmap in (emap.parameter_map,
                              lambda eps: emap.parameter_map(eps)))
    assert (got.max_functional_residual.hex(),
            got.max_operator_residual.hex(), got.passed) \
        == (want.max_functional_residual.hex(),
            want.max_operator_residual.hex(), want.passed)
    assert got.passed


def _outcome(*args, **kwargs):
    """A certificate's raw maxima, or the refusal's type, text and residual."""
    try:
        cert = verify_emergence(*args, **kwargs)
    except NotScalarForm as exc:
        return type(exc).__name__, str(exc), float(exc.residual).hex()
    return cert.max_functional_residual.hex(), cert.max_operator_residual.hex()


# numpy warns of the overflows and invalid products a spike makes; the
# caller's error state silences them, on the pool's threads too
@pytest.mark.parametrize("jobs", [None, 2])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308])
@pytest.mark.parametrize("case", ["64-real-symmetric", "6x10-complex-hermitian"])
def test_a_spiked_draw_refuses_as_the_per_draw_path(case, value, jobs,
                                                    monkeypatch):
    source, poly = BLOCK_CASES[case]()
    emap = emerge(source, poly, n_samples=8, seed=2)
    _chunks_of(monkeypatch, source, poly)
    k = CHUNK + 5  # mid-chunk
    outcomes = []
    for fmap in (emap.parameter_map, lambda eps: emap.parameter_map(eps)):
        spiked = replace(source, algebra=_Spiked(k, value))
        with np.errstate(all="ignore"):
            outcomes.append(_outcome(spiked, poly, fmap,
                                     2 * CHUNK + 5, seed=3,
                                     jobs=jobs))
        assert spiked.algebra.rows >= k
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "NotScalarForm"


def test_an_infinite_draw_fails_its_certificate_with_an_infinite_residual():
    # on the full grid 0 * inf filled the draw's stencil with NaN off the
    # nine-point support, and its operator residual was NaN; on the support
    # it is inf, and the functional residual, inf / inf, is still NaN
    space = grid_space((6, 10))
    box = make_discrete_operator(space, "box", eta=((2.0, 0.3), (0.3, 1.0)))
    source = scalar_family(_Spiked(5, math.inf), box)

    def fmap(eps):
        return eps if math.isfinite(eps) else 0.0

    with np.errstate(all="ignore"), pytest.raises(HypothesisViolated) as info:
        _certify(source, source, fmap, "shared", ProvenanceNode("monomial"),
                 "spiked", 12, 1e-8, 3)
    cert = info.value.evidence["certificate"]
    assert (cert.samples, cert.passed) == (12, False)
    assert math.isinf(cert.max_operator_residual)
    assert math.isnan(cert.max_functional_residual)
    assert "(functional nan, operator inf, tol 1.0e-08)" in str(info.value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_spiked_boolean_draw_refuses_as_the_per_draw_path(value):
    source, poly = _boolean_target()
    emap = emerge(source, poly, n_samples=8, seed=2)
    algebra = source.algebra
    spike = np.full(algebra.masks, value, dtype=complex)
    draws = Draws.stack([algebra.one(), spike, algebra.one()])
    with np.errstate(all="ignore"):
        with pytest.raises(NotScalarForm) as per_draw:
            emap(spike)
        with pytest.raises(NotScalarForm) as block:
            emap.parameter_map.block(draws)
    assert str(block.value) == str(per_draw.value)
    assert _hex(block.value.residual) == _hex(per_draw.value.residual)


def _product_source(algebra):
    """A source on a product carrier and a one-term real target: the map
    reads the product's action on the identity as one real scalar."""
    space = plain_space(4)
    poly = polynomial_family([identity_operator(space)],
                             {(1,): lin(1.0, "real")}, RealScalars())
    return scalar_family(algebra, identity_operator(space)), poly


@pytest.mark.parametrize("algebra", [
    TuplePower(RealScalars(), 2), ProductAlgebra((RealScalars(), RealScalars()))],
    ids=lambda algebra: algebra.name)
def test_a_product_algebra_source_maps_to_its_action_on_the_identity(algebra):
    source, poly = _product_source(algebra)
    emap = emerge(source, poly)
    assert emap.certificate.passed
    assert emap((2.0, 3.0)) == {(1,): 6.0}
    rng = np.random.default_rng(4)
    params = [algebra.sample(rng) for _ in range(CHUNK + 3)]
    assert [_hex(t[(1,)]) for t in map_draws(emap.parameter_map, params,
                                             poly.algebra)] \
        == [_hex(emap(eps)[(1,)]) for eps in params]


def _pair_families():
    """Families whose block is a tuple: sum and composition trees, nested,
    on real and complex carriers, with a polynomial branch that takes a
    per-term table, and tuple-power scalar-times-fixed families."""
    line = grid_space((8,))
    space = grid_space((6,), scalar_kind="complex", symmetry="hermitian")
    shift = make_discrete_operator(line, "shift", axis=0)
    partial = central_difference(space, 0)
    cshift = make_discrete_operator(space, "shift", axis=0)
    masks = plain_space(6, "complex")
    real, complex_ = (scalar_family(RealScalars(), partial),
                      scalar_family(ComplexScalars(), cshift))
    table = polynomial_family(
        [partial, cshift], {(1, 0): lin(2.0, "complex"),
                        (0, 1): CoefficientFunction.affine(1.5, 0.5),
                        (0, 0): CoefficientFunction.constant(0.25)},
        ComplexScalars())
    return {
        "sum-real": sum_families(scalar_family(RealScalars(), shift),
                                 scalar_family(RealScalars(), shift)),
        "composition-mixed": compose_families(real, complex_),
        "nested": compose_families(sum_families(real, complex_),
                                   sum_families(complex_, real)),
        "table-in-a-pair": sum_families(table, compose_families(real,
                                                                table)),
        "boolean-in-a-pair": sum_families(
            scalar_family(BooleanComplex(3, 2), diagonal_operator(
                masks, np.linspace(1.0, 2.0, 6) + 0.5j)),
            scalar_family(ComplexScalars(), diagonal_operator(
                masks, np.linspace(2.0, 3.0, 6)))),
        "tuple-power-real": scalar_family(TuplePower(RealScalars(), 2),
                                          shift),
        "tuple-power-complex": scalar_family(TuplePower(ComplexScalars(), 3),
                                             partial),
    }


def _draw_value(family, rng):
    """One draw's value for ``family``: a pair for a tree, a per-term table
    for a polynomial family, else a sample of its carrier."""
    if isinstance(family, PolynomialFamily):
        return {alpha: family.algebra.sample(rng) for alpha, _ in family.terms}
    if isinstance(family.form, Tree):
        return (_draw_value(family.form.left, rng),
                _draw_value(family.form.right, rng))
    return family.algebra.sample(rng)


@pytest.mark.parametrize("name", list(_pair_families()))
def test_pairs_and_products_evaluate_a_block_with_each_draws_bits(name):
    family = _pair_families()[name]
    rng = np.random.default_rng(8)
    params = [_draw_value(family, rng) for _ in range(CHUNK + 3)]
    stack = evaluate_draws(family, params)
    for i, eps in enumerate(params):
        one = evaluate_family(family, eps)
        assert (stack.structure, stack.body.dtype) == (one.structure,
                                                       one.body.dtype)
        assert stack[i].body.tobytes() == one.body.tobytes()
    # a tree refuses one Draws for its pair, and so does a product carrier
    with pytest.raises(BadSpec):
        evaluate_family(family, Draws.stack(range(len(params))))


def test_a_boolean_tuple_stacks_as_one_array_and_refusals_stay():
    algebra = BooleanComplex(3, 2)
    space = plain_space(6, "complex")
    family = scalar_family(algebra, diagonal_operator(
        space, np.linspace(1.0, 2.0, 6) + 0.5j))
    masks = [(1.0, 0.0, 1.0), (0.5, 2.0, -1.0), (0.0, 1.0, 1.0)]
    want = algebra.act(Draws(np.array(masks, dtype=complex)), family.form.fixed)
    for got in (algebra.act(Draws.stack(masks), family.form.fixed),
                evaluate_draws(family, masks),
                evaluate_family(family, map_block(tuple, masks, algebra))):
        assert got.body.tobytes() == want.body.tobytes()
    assert map_block(tuple, masks, algebra).values.shape == (3, 3)
    # inf - inf on the diagonal, and a carrier that refuses the operator
    with np.errstate(invalid="ignore"):
        nan = scalar_family(RealScalars(), diagonal_operator(
            plain_space(4), [1.0, math.inf, 2.0, 3.0]))
        assert _same_source(nan, nan)
        assert not _same_source(nan, replace(nan))
    refusing = replace(family, algebra=BooleanComplex(1, 6))
    with pytest.raises(BadSpec):
        evaluate_family(refusing, algebra.one())
    assert not _same_source(family, refusing)
    assert _same_source(family, replace(family))


def _value_bits(value):
    """A map value's exact bits, its tables and pairs kept as they are."""
    if isinstance(value, dict):
        return {key: _value_bits(v) for key, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_value_bits(v) for v in value)
    return _hex(value)


def test_pair_maps_map_a_block_as_their_calls():
    space = grid_space((8,))
    source = verified(identity_source(space, NonnegativeReals()),
                      "homomorphic", "scalar_invariant")
    part = identity_emergence(source)
    poly = polynomial_family([identity_operator(space)],
                             {(1,): lin(2.0), (0,): lin(1.0)},
                             NonnegativeReals())
    table = emerge(source, poly)
    params = source.algebra.samples(np.random.default_rng(3), CHUNK + 3)
    for emap in (emerge_sum(source, part, table),
                 emerge_composition(source, table, part),
                 emerge_accumulate(source, [(part, table), (table, part)])):
        carrier = emap.target.algebra
        assert isinstance(map_block(emap.parameter_map, params, carrier),
                          tuple)
        assert [_value_bits(v) for v in map_draws(emap.parameter_map, params,
                                                  carrier)] \
            == [_value_bits(emap(eps)) for eps in params]


def test_a_complex_component_of_a_product_source_refuses_as_not_scalar():
    # the complex component leaves the real identity orbit: a typed refusal
    source, poly = _product_source(
        ProductAlgebra((RealScalars(), ComplexScalars())))
    with pytest.raises(NotScalarForm):
        emerge(source, poly)


def test_a_nan_map_value_gives_the_per_draw_nan_certificate(line8,
                                                           monkeypatch):
    # a map without a block form, NaN mid-chunk: the stacked residuals keep it
    source = identity_source(line8)
    _chunks_of(monkeypatch, source, source)
    k = CHUNK + 4
    cert = verify_emergence(source, source, _nan_on_call(k), n_samples=40)
    assert math.isnan(cert.max_functional_residual)
    assert math.isnan(cert.max_operator_residual)


# --- a chunk drawn in one call against the per-draw stream ---------------------------

#: each carrier that draws standard normals alone, with its per-draw sample
#: written out as the reference stream: the generator calls one draw made
NORMAL_CARRIERS = {
    "real": (RealScalars, lambda rng: float(rng.standard_normal())),
    "complex": (ComplexScalars, lambda rng: complex(
        rng.standard_normal() + 1j * rng.standard_normal())),
    "boolean-3x2": (lambda: BooleanComplex(3, 2), lambda rng: (
        rng.standard_normal(3) + 1j * rng.standard_normal(3))),
}


def _field_by_calls(space, rng):
    """One field as per-draw calls drew it: the real parts, then the
    imaginary ones."""
    phi = rng.standard_normal(space.dim)
    if space.scalar_kind == "complex":
        phi = phi + 1j * rng.standard_normal(space.dim)
    return phi


def _tagged(values):
    values = np.asarray(values)
    return values.dtype, values.shape, values.tobytes()


@pytest.mark.parametrize("m", [1, 5, 100])
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("carrier", NORMAL_CARRIERS)
def test_a_chunk_drawn_in_one_call_is_the_per_draw_stream(carrier, kind,
                                                         seed, m):
    make, sample = NORMAL_CARRIERS[carrier]
    algebra, space = make(), plain_space(6, kind)
    normals, loop_rng = Normals(seed), np.random.default_rng(seed)
    each = [(sample(loop_rng), _field_by_calls(space, loop_rng))
            for _ in range(m + 3)]
    # a chunk read from the start, then one read on from its end
    for start, count in ((0, m), (m, 3)):
        params, fields = _draw_chunk(algebra, space, normals, start, count)
        assert isinstance(params, Draws)
        assert _tagged(params.values) \
            == _tagged([eps for eps, _ in each[start:start + count]])
        assert _tagged(fields) \
            == _tagged([phi for _, phi in each[start:start + count]])
        # real fields sliced out of the draws are made contiguous
        assert fields.flags.c_contiguous
    assert normals._rng.bit_generator.state == loop_rng.bit_generator.state
    # a sample and a field alone are blocks of one: the same stream again
    rng, loop_rng = (np.random.default_rng(seed) for _ in range(2))
    for _ in range(m):
        eps, want = algebra.sample(rng), sample(loop_rng)
        assert type(eps) is type(want)
        assert _tagged(eps) == _tagged(want)
        assert _tagged(sample_field(space, rng)) \
            == _tagged(_field_by_calls(space, loop_rng))
    assert rng.bit_generator.state == loop_rng.bit_generator.state
    # and m samples in one call are m samples one at a time
    got = algebra.samples(rng, m)
    want = [sample(loop_rng) for _ in range(m)]
    assert [type(eps) for eps in got] == [type(eps) for eps in want]
    assert _tagged(got) == _tagged(want)
    assert rng.bit_generator.state == loop_rng.bit_generator.state


def _product_by_calls(algebra, rng):
    """One product sample as a per-draw loop drew it: each component's
    sample in turn, by the reference calls of :data:`NORMAL_CARRIERS`."""
    by_name = {"real_scalars": NORMAL_CARRIERS["real"][1],
               "complex_scalars": NORMAL_CARRIERS["complex"][1]}
    return tuple(by_name[c.name](rng) for c in algebra.components)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("algebra", [
    TuplePower(RealScalars(), 2), TuplePower(ComplexScalars(), 3),
    ProductAlgebra((RealScalars(), ComplexScalars()))],
    ids=lambda algebra: algebra.name)
def test_a_product_splits_its_row_as_the_per_draw_loop_drew_it(algebra,
                                                              kind):
    space = plain_space(6, kind)
    loop_rng = np.random.default_rng(4)
    each = [(_product_by_calls(algebra, loop_rng),
             _field_by_calls(space, loop_rng)) for _ in range(5)]
    normals = Normals(4)
    params, fields = _draw_chunk(algebra, space, normals, 0, 5)
    assert [tuple(map(type, eps)) for eps in params] \
        == [tuple(map(type, eps)) for eps, _ in each]
    assert [_hex(eps) for eps in params] == [_hex(eps) for eps, _ in each]
    assert _tagged(fields) == _tagged([phi for _, phi in each])
    assert normals._rng.bit_generator.state == loop_rng.bit_generator.state
    rng, loop_rng = (np.random.default_rng(4) for _ in range(2))
    got = [algebra.sample(rng), *algebra.samples(rng, 4)]
    want = [_product_by_calls(algebra, loop_rng) for _ in range(5)]
    assert [_hex(eps) for eps in got] == [_hex(eps) for eps in want]
    assert rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("make,lo,hi", [
    (NonnegativeReals, 0.05, 3.0), (_centralizer_1_2_3, 0.1, 2.5)],
    ids=["nonnegative", "centralizer-1-2-3"])
def test_remapped_carriers_sample_inside_their_intervals(make, lo, hi):
    algebra = make()
    params, _ = _draw_chunk(algebra, plain_space(6), Normals(4), 0, 500)
    values = params.values
    assert np.all(values > lo) and np.all(values <= hi)
    for eps in params:  # each sample is an element of the carrier
        algebra._element(eps)
    # a zero normal maps to the top, a huge one towards the open bottom
    edges = algebra.from_normals(np.array([[0.0], [1e150]])
                                 * np.ones(algebra.normals)).values
    assert np.all(edges[0] == hi) and np.all(edges[1] == lo)
    rng, loop_rng = (np.random.default_rng(4) for _ in range(2))
    assert [_hex(eps) for eps in algebra.samples(rng, 5)] \
        == [_hex(algebra.sample(loop_rng)) for _ in range(5)]


@pytest.mark.parametrize("case", ["64-real-symmetric", "6x10-complex-hermitian",
                                  "boolean-8x4", "centralizer-1-2-3"])
def test_a_covered_certificate_resumes_across_a_chunk_boundary(case,
                                                               monkeypatch):
    source, poly = BLOCK_CASES[case]()
    emap = emerge(source, poly, n_samples=8, seed=2)
    _chunks_of(monkeypatch, source, poly)
    # 20 draws end 4 into the second chunk; the resumed call's chunks start
    # there, a fresh call's at 0, 16 and 32
    covered = verify_emergence(source, poly, emap.parameter_map, 20, seed=3)
    for n_samples in (CHUNK + 5, 2 * CHUNK + 5):
        resumed = verify_emergence(source, poly, emap.parameter_map,
                                   n_samples, seed=3, covered=covered)
        fresh = verify_emergence(source, poly, emap.parameter_map,
                                 n_samples, seed=3)
        assert _bits(resumed) == _bits(fresh)
        # on one stream of the seed the resumed call reads from the
        # covered draws' end, which lies inside a chunk
        normals = Normals(3)
        on_stream = verify_emergence(source, poly, emap.parameter_map, 20,
                                     seed=normals)
        assert _bits(on_stream) == _bits(covered)
        assert _bits(verify_emergence(
            source, poly, emap.parameter_map, n_samples, seed=normals,
            covered=on_stream)) == _bits(fresh)


def test_constructors_refuse_to_return_failing_maps(flat4):
    ripple = Operator(np.eye(4) + 0.004 * np.diag([1.0, -1.0, 1.0, -1.0]),
                      flat4)
    source = scalar_family(RealScalars(), ripple)
    poly = polynomial_family([identity_operator(flat4)], {(1,): lin()},
                             RealScalars())
    with pytest.raises(HypothesisViolated) as info:
        emerge(source, poly, tol=0.01)
    cert = info.value.evidence["certificate"]
    assert isinstance(cert, Certificate)
    assert not cert.passed
    assert cert.max_operator_residual > 0.01


# --- one stream of a seed's normals ---------------------------------------------

_READS = st.lists(st.tuples(st.integers(0, 400), st.integers(0, 150)),
                  min_size=1, max_size=12)
_SHAPES = st.lists(st.one_of(st.integers(0, 40),
                             st.tuples(st.integers(0, 6), st.integers(0, 9))),
                   max_size=6)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), reads=_READS, shapes=_SHAPES,
       position=st.integers(0, 300))
def test_the_stream_is_the_generators_normals_read_anywhere(seed, reads,
                                                           shapes, position):
    total = max(start + count for start, count in reads) + position + 400
    normals = Normals(seed, keep=total)
    want = np.random.default_rng(seed).standard_normal(total)
    for start, count in reads:
        before = (normals.drawn, normals._rng.bit_generator.state)
        got = normals.read(start, count)
        assert (got.dtype, got.shape) == (np.float64, (count,))
        assert got.tobytes() == want[start:start + count].tobytes()
        assert not got.flags.writeable
        if start + count <= before[0]:  # behind the drawn end: no draw
            assert (normals.drawn, normals._rng.bit_generator.state) \
                == before
        else:
            assert normals.drawn == start + count
    # reads in turn from a position, shaped as chunks are, give the
    # variates of generator calls of those shapes
    calls = np.random.default_rng(seed)
    calls.standard_normal(position)
    for shape in shapes:
        count = int(np.prod(shape))
        got = normals.read(position, count).reshape(shape)
        assert not got.flags.writeable
        assert got.tobytes() == calls.standard_normal(shape).tobytes()
        position += count


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fixed=st.integers(0, 300),
       steps=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 80)),
                      max_size=12))
def test_a_forward_reader_keeps_only_what_it_has_not_passed(seed, fixed,
                                                            steps):
    # a gravity runner's order: its fixed block, then certification reading
    # on from 0 in chunks, skipping the draws a covered certificate holds
    normals = Normals(seed, keep=fixed)
    want = np.random.default_rng(seed).standard_normal(fixed + 12 * 110)
    normals.read(0, fixed)
    position = 0
    for skip, count in steps:
        start = position + skip
        got = normals.read(start, count)
        assert got.tobytes() == want[start:start + count].tobytes()
        assert not got.flags.writeable
        position = start + count
        # the fixed block stays until a read ends past it; then the stream
        # holds nothing behind the last read's end
        assert all(at + len(piece) > position for at, piece in normals._pieces
                   if position > fixed)
    # a passed normal is gone: reading it raises and draws nothing
    if (normals._pieces[0][0] if normals._pieces else normals.drawn) > 0:
        before = (normals.drawn, normals._rng.bit_generator.state)
        with pytest.raises(ValueError, match="were released"):
            normals.read(0, 1)
        assert (normals.drawn, normals._rng.bit_generator.state) == before


def test_a_read_across_pieces_is_one_copy_and_inside_one_a_view():
    normals = Normals(5, keep=32)
    first = normals.read(0, 10)
    inside = normals.read(2, 5)
    assert inside.base is first.base is not None
    across = normals.read(8, 10)  # draws 8 more and joins two pieces
    assert across.base is None and not across.flags.writeable
    assert normals.drawn == 18
    assert normals.read(0, 18).tobytes() \
        == np.random.default_rng(5).standard_normal(18).tobytes()
    # a read past a gap draws the gap with it, as one piece
    normals.read(30, 2)
    assert normals.drawn == 32


# --- reported residual bounds ------------------------------------------------------------


@pytest.mark.parametrize("raw", [0.0, -1e-3, 1e-300, 3.7e-16, 1e-12,
                                 math.nextafter(1e-12, 1.0), 7.65e-14,
                                 1.04e-11, 0.01, 0.1, 0.30000000000000004,
                                 1.0, 1.3272637868526236, 10.0, 99.5, 1e7])
def test_residual_bounds_never_understate(raw):
    bound = residual_bound(raw)
    assert bound >= raw
    assert bound >= REPORT_FLOOR
    exponent = round(math.log10(bound))
    assert bound == float(f"1e{exponent}")
    if bound > REPORT_FLOOR:
        assert float(f"1e{exponent - 1}") < raw


def test_residual_bounds_of_zero_and_noise_are_the_floor():
    assert residual_bound(0.0) == REPORT_FLOOR == 1e-12
    assert residual_bound(6.79e-15) == residual_bound(1.04e-14) == 1e-12
    assert residual_bound(2e-12) == 1e-11
    assert residual_bound(math.inf) == math.inf


def test_certificates_pass_on_raw_values_and_report_bounds():
    cert = Certificate(10, 3.0e-15, 4.0e-14, 1e-13, True, 5)
    written = cert.to_json_dict()
    assert written["max_functional_residual"] == 1e-12
    assert written["max_operator_residual"] == 1e-12
    assert written["tolerance"] < written["max_operator_residual"]
    assert written["passed"] is True


def test_verified_maps_under_a_tight_tolerance_still_pass(line8):
    source = identity_source(line8)
    poly = polynomial_family([scale(3.0, identity_operator(line8))],
                             {(1,): lin()}, RealScalars())
    cert = verify_emergence(source, poly, lambda eps: eps / 3.0,
                            n_samples=25, tol=1e-13)
    assert cert.max_operator_residual <= 1e-13
    assert cert.passed
    written = cert.to_json_dict()
    assert written["max_operator_residual"] == REPORT_FLOOR > cert.tolerance
    assert written["passed"] is True


# --- provenance and serialization -----------------------------------------------------


def test_provenance_digests_are_deterministic(line8):
    source = verified(identity_source(line8), "additive")
    poly = polynomial_family(
        [identity_operator(line8)], {(1,): lin(1.0), (2,): lin(2.0)},
        RealScalars())
    first = emerge(source, poly)
    second = emerge(source, poly)
    digest = first.to_json_dict()["provenance_digest"]
    assert digest == second.to_json_dict()["provenance_digest"]
    assert len(digest) == 64
    assert first.certificate == second.certificate


#: provenance digests of certified maps onto ``m = 1.5 I - box`` slots
#: ``[m, 2m, 0.5m]``, one linear term per slot; the tree records only
#: exponents, coefficients and weights, so both grids give the same digest
SLOT_DIGESTS = {
    1: "e7a65f9a014bfbb8b285dff079337ef65906c6b4c375d8660e9af3d101f55fe9",
    2: "f7dbb85e6d0ae2fa2b1d6a43dd6a8e45725413021773e9efd72e486ae7e5f528",
    3: "be71ea97434c758c54615e0748c4459bb4595dda58440e3bf9333ec9c0ad7c85",
}


@pytest.mark.parametrize("grid", [(8,), (6, 4)], ids=["8", "6x4"])
@pytest.mark.parametrize("slots", sorted(SLOT_DIGESTS))
def test_synthesis_provenance_keeps_its_digest(slots, grid):
    space = grid_space(grid)
    m = add(scale(1.5, identity_operator(space)),
            scale(-1.0, make_discrete_operator(space, "box")))
    source = verified(scalar_family(RealScalars(), m), "additive")
    poly = polynomial_family(
        [m, scale(2.0, m), scale(0.5, m)][:slots],
        {tuple(int(i == s) for i in range(slots)): lin()
         for s in range(slots)}, RealScalars())
    emap = emerge(source, poly)
    assert emap.certificate.passed
    assert emap.to_json_dict()["provenance_digest"] == SLOT_DIGESTS[slots]


def test_a_mixed_polynomial_keeps_its_provenance_digest(line8):
    # univariate levels of two terms, single-group levels, transports by
    # powers 1 and 2 and a constant offset in one tree
    ident = identity_operator(line8)
    source = verified(identity_source(line8), "additive")
    poly = polynomial_family(
        [ident, scale(2.0, ident), scale(0.5, ident)],
        {(1, 0, 0): lin(), (2, 0, 0): lin(2.0), (0, 1, 0): lin(),
         (1, 1, 0): lin(0.5), (0, 0, 2): lin(), (1, 0, 1): lin(3.0),
         (0, 0, 0): CoefficientFunction.constant(0.5, domain="real")},
        RealScalars())
    emap = emerge(source, poly)
    assert emap.certificate.passed
    assert emap.to_json_dict()["provenance_digest"] == (
        "35627fd842220d541d5c65ae68149249eb31009807aee545570d2c22195b5b91")


def test_map_serialization_is_json_ready(line8):
    source = verified(identity_source(line8), "additive")
    poly = polynomial_family(
        [identity_operator(line8)], {(1,): lin(1.0), (2,): lin(2.0)},
        RealScalars())
    payload = emerge(source, poly).to_json_dict()
    blob = json.loads(json.dumps(payload))
    assert blob["assignment_kind"] == "per_term"
    assert blob["certificate"]["passed"] is True
    assert len(blob["probes"]) == 3
    assert blob["provenance"]["kind"] == "univariate"


# --- brute force oracle -----------------------------------------------------------------


def test_oracle_recovers_the_trivial_assignment(line8):
    source = identity_source(line8)
    poly = polynomial_family([identity_operator(line8)], {(1,): lin()},
                             RealScalars())
    (got,) = brute_force_emerge(source, poly, [3.0])
    assert got is not None
    assert got[(1,)] == pytest.approx(3.0, abs=1e-10)


def test_oracle_reports_span_mismatches_as_none(line8):
    source = identity_source(line8)
    shifted = polynomial_family(
        [make_discrete_operator(line8, "shift", axis=0)], {(1,): lin()},
        RealScalars())
    assert brute_force_emerge(source, shifted, [1.0]) == [None]


def test_oracle_refuses_large_parameter_spaces(line8):
    source = identity_source(line8)
    tuple_poly = polynomial_family(
        [identity_operator(line8)], {(1,): CoefficientFunction.constant(1.0)},
        TuplePower(RealScalars(), 2))
    with pytest.raises(DimensionTooLarge):
        brute_force_emerge(source, tuple_poly, [(1.0, 1.0)])

    space = plain_space(5, "complex")
    wide = polynomial_family(
        [identity_operator(space), identity_operator(space)],
        {(1, 0): CoefficientFunction.linear(1.0),
         (0, 1): CoefficientFunction.linear(1.0)},
        BooleanComplex(masks=5))
    boolean_source = scalar_family(BooleanComplex(masks=5),
                                   identity_operator(space))
    with pytest.raises(DimensionTooLarge):
        brute_force_emerge(boolean_source, wide, [np.ones(5, dtype=complex)])


def test_oracle_refuses_a_product_carrier_for_its_basis(line8):
    algebra = ProductAlgebra((RealScalars(), ComplexScalars()))
    poly = polynomial_family(
        [identity_operator(line8)], {(1,): CoefficientFunction.constant(1.0)},
        algebra)
    with pytest.raises(DimensionTooLarge,
                       match="^parameter carrier has no finite coordinate "
                             "basis: product\\(real_scalars, complex_scalars"
                             "\\) has no identity-orbit basis$"):
        brute_force_emerge(identity_source(line8), poly, [(1.0, 1j)])


def test_oracle_fits_a_complex_parameter_under_a_hermitian_pairing():
    # the symmetric part of eps * (shift + I) is real-linear in eps only
    space = grid_space((8,), scalar_kind="complex")
    slot = add(make_discrete_operator(space, "shift", axis=0),
               identity_operator(space))
    source = scalar_family(ComplexScalars(), slot)
    poly = polynomial_family([slot], {(1,): CoefficientFunction.linear(2.0)},
                             ComplexScalars())
    (got,) = brute_force_emerge(source, poly, [1.0 - 0.5j])
    assert got is not None
    assert got[(1,)] == pytest.approx(0.5 - 0.25j, abs=1e-12)


def test_oracle_grid_search_fits_an_exponential(line8):
    source = scalar_family(
        RealScalars(), identity_operator(line8),
        coefficient=CoefficientFunction.constant(2.0, domain="real"))
    poly = polynomial_family(
        [identity_operator(line8)],
        {(1,): CoefficientFunction.exponential(domain="real")},
        RealScalars())
    (got,) = brute_force_emerge(source, poly, [0.3], tol=1e-2)
    assert got is not None
    assert got[(1,)] == pytest.approx(math.log(2.0), abs=1e-3)


def test_oracle_grid_search_respects_the_nonnegative_cone(line8):
    poly = polynomial_family(
        [identity_operator(line8)],
        {(1,): CoefficientFunction.exponential(domain="nonneg")},
        NonnegativeReals())

    def fit(value):
        source = scalar_family(
            NonnegativeReals(), identity_operator(line8),
            coefficient=CoefficientFunction.constant(value, domain="real"))
        (got,) = brute_force_emerge(source, poly, [1.0], tol=1e-2)
        return got

    assert fit(2.25)[(1,)] == pytest.approx(math.log(2.25), abs=1e-3)
    # exp(delta) = 0.5 only at delta = -log 2, outside the cone
    assert fit(0.5) is None


# --- generated synthesis against the oracle ----------------------------------------------


@st.composite
def slot_operators(draw, space):
    """A stencil of ``make_discrete_operator``, or a central difference built
    from two of its shifts, plus a mass term; or the mass term alone."""
    axes = st.integers(0, len(space.geometry.dims) - 1)
    kind = draw(st.sampled_from(["mass", "shift", "central", "second_partial",
                                 "box"]))
    mass = scale(draw(st.sampled_from([0.5, 1.0, 3.0])),
                 identity_operator(space))
    if kind == "mass":
        return mass
    if kind == "central":
        return add(central_difference(space, draw(axes)), mass)
    params = {
        "shift": lambda: {"axis": draw(axes), "step": draw(st.integers(1, 2))},
        "second_partial": lambda: {"mu": draw(axes), "nu": draw(axes)},
        "box": dict,
    }[kind]()
    return add(make_discrete_operator(space, kind, **params), mass)


@st.composite
def oracle_cases(draw):
    """A source and a polynomial target of at most 3 terms of degree <= 3
    in <= 2 slots, on a line of 8-64 sites, 6x10 or 4x4x6; the source is
    one of the target's monomials, so a one-term target is reachable."""
    dims = draw(st.one_of(st.integers(8, 64).map(lambda n: (n,)),
                          st.sampled_from([(6, 10), (4, 4, 6)])))
    algebra, kind, symmetry = draw(st.sampled_from([
        (RealScalars(), "real", "symmetric"),
        (RealScalars(), "complex", "symmetric"),
        (RealScalars(), "complex", "hermitian"),
        (ComplexScalars(), "complex", "symmetric"),
        (ComplexScalars(), "complex", "hermitian")]))
    space = grid_space(dims, scalar_kind=kind, symmetry=symmetry)
    slots = [draw(slot_operators(space)) for _ in range(draw(st.integers(1, 2)))]
    indices = [a for a in itertools.product(range(4), repeat=len(slots))
               if sum(a) <= 3]
    alphas = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=3,
                           unique=True))
    domain = algebra.scalar_kind
    slopes = st.sampled_from([1.0, 2.0, -0.5])
    coefficients = st.one_of(
        slopes.map(lambda a: CoefficientFunction.linear(a, domain)),
        st.tuples(slopes, st.sampled_from([0.5, -1.0])).map(
            lambda ab: CoefficientFunction.affine(*ab, domain)))
    poly = polynomial_family(slots, {a: draw(coefficients) for a in alphas},
                             algebra)
    base = monomial_operator(poly, draw(st.sampled_from(alphas)))
    source, _ = verify_structure(
        scalar_family(algebra, base).with_claims("additive"))
    return source, poly


ORACLE_EPS = {"real": (0.7, -1.3, 2.2), "complex": (0.7, -1.3 + 0.5j, 2.2j)}


@settings(max_examples=200, deadline=None)
@given(oracle_cases())
def test_synthesis_agrees_with_the_oracle_or_refuses(case):
    source, poly = case
    try:
        emap = emerge(source, poly, n_samples=8)
    except EmergenceError as exc:
        event(f"refused: {type(exc).__name__}")
        return
    event("certified")
    params = ORACLE_EPS[poly.algebra.scalar_kind]
    tables = [emap(eps) for eps in params]
    for eps, table in zip(params, tables):
        (oracle,) = brute_force_emerge(source, poly, [eps])
        assert oracle is not None
        assert operator_residual(evaluate_polynomial(poly, table),
                                 evaluate_polynomial(poly, oracle)) <= 1e-8
    # one block of the draws gives each draw's bits
    assert [{alpha: _hex(v) for alpha, v in t.items()}
            for t in map_draws(emap.parameter_map, params, poly.algebra)] \
        == [{alpha: _hex(v) for alpha, v in t.items()} for t in tables]


# --- structured oracle against a dense least squares ------------------------------------


def dense_oracle(source, poly, eps, tol=1e-8):
    """The oracle's linear fit, on n x n matrices and nothing else."""
    algebra = poly.algebra
    basis = algebra.basis()
    hermitian = poly.space.pairing.symmetry == "hermitian"

    def flat(op):
        m = op.matrix
        return (0.5 * (m + (m.conj().T if hermitian else m.T))).ravel()

    rhs = flat(evaluate_family(source, eps))
    columns, fitted = [], []
    for alpha, f in poly.terms:
        mono = monomial_operator(poly, alpha)
        if f.kind == "constant":
            rhs = rhs - flat(scale(f.params[0], mono))
            continue
        if f.kind == "affine":
            rhs = rhs - flat(scale(f.params[1], mono))
        fitted.append(alpha)
        columns += [flat(algebra.act(algebra.scale(f.params[0], e), mono))
                    for e in basis]
    a = np.stack(columns, axis=1)
    if algebra.scalar_kind != "complex":
        a = np.concatenate([a.real, a.imag])
        rhs = np.concatenate([rhs.real, rhs.imag])
    x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    if np.linalg.norm(a @ x - rhs) > tol:
        return None
    k = len(basis)
    out = {alpha: algebra.from_coords(x[i * k:(i + 1) * k])
           for i, alpha in enumerate(fitted)}
    out.update((alpha, algebra.zero()) for alpha, f in poly.terms
               if f.kind == "constant")
    return out


def _fitting(algebra, operators, terms, assignment, eps):
    """``(source, poly, eps)``: the source at the unit parameter is the
    polynomial at ``assignment``, so a fit at ``eps`` exists."""
    poly = polynomial_family(operators, terms, algebra)
    table = dict(assignment)
    table.update((alpha, algebra.zero()) for alpha, f in poly.terms
                 if f.is_constant)
    return scalar_family(algebra, evaluate_polynomial(poly, table)), poly, eps


def _stencil_real():
    space = grid_space((8,))
    return _fitting(
        RealScalars(), [make_discrete_operator(space, "shift", axis=0),
                        massive_box(space)],
        {(1, 0): CoefficientFunction.affine(2.0, 0.5, domain="real"),
         (0, 1): lin(), (0, 0): CoefficientFunction.constant(1.5, "real")},
        {(1, 0): 0.3, (0, 1): -0.7}, 1.0)


def _stencil_complex():
    # a bilinear pairing keeps the symmetric part complex-linear
    space = grid_space((8,), scalar_kind="complex", symmetry="symmetric")
    return _fitting(
        ComplexScalars(), [make_discrete_operator(space, "shift", axis=0),
                           massive_box(space)],
        {(1, 0): CoefficientFunction.linear(2.0),
         (0, 1): CoefficientFunction.affine(1.0, 0.5)},
        {(1, 0): 0.2 + 0.1j, (0, 1): -0.4j}, 1.0)


def _stencil_real_unknowns_complex_entries():
    # a hermitian part i(S - S^T)/2: real unknowns fit real and imaginary
    space = grid_space((8,), scalar_kind="complex")
    turn = scale(1j, make_discrete_operator(space, "shift", axis=0))
    return _fitting(RealScalars(), [turn, massive_box(space)],
                    {(1, 0): lin(), (0, 1): lin()},
                    {(1, 0): 1.25, (0, 1): -0.5}, 1.0)


def _diagonal_boolean():
    algebra = BooleanComplex(masks=3, block=2)
    space = plain_space(6, "complex")
    base = diagonal_operator(space, np.arange(1.0, 7.0).astype(complex))
    return _fitting(algebra, [base],
                    {(1,): CoefficientFunction.linear(2.0),
                     (0,): CoefficientFunction.constant(0.5)},
                    {(1,): np.array([1.0, -0.5, 2.0], dtype=complex)},
                    algebra.one())


def _diagonal_real():
    space = plain_space(5)
    base = diagonal_operator(space, np.linspace(1.0, 3.0, 5))
    return _fitting(RealScalars(), [base],
                    {(1,): CoefficientFunction.affine(3.0, -1.0, "real")},
                    {(1,): 0.75}, 2.0)


def _dense_real():
    space = plain_space(5)
    rng = np.random.default_rng(4)
    ops = [Operator(rng.standard_normal((5, 5)), space) for _ in range(2)]
    return _fitting(
        RealScalars(), ops,
        {(1, 0): lin(), (0, 1): CoefficientFunction.affine(1.5, -0.25,
                                                           "real"),
         (0, 0): CoefficientFunction.constant(2.0, "real")},
        {(1, 0): -1.1, (0, 1): 0.6}, 1.0)


def _mixed_boolean():
    # uneven row scales make the slot dense; the constant stays a stencil
    algebra = BooleanComplex(masks=2, block=4)
    space = grid_space((8,), scalar_kind="complex")
    return _fitting(algebra, [make_discrete_operator(space, "shift", axis=0)],
                    {(1,): CoefficientFunction.linear(1.0),
                     (0,): CoefficientFunction.constant(0.5)},
                    {(1,): np.array([0.5, 2.0], dtype=complex)},
                    algebra.one())


def _mixed_real():
    space = grid_space((6,))
    projector = make_discrete_operator(space, "projection",
                                       basis=[np.arange(6.0)])
    return _fitting(RealScalars(),
                    [make_discrete_operator(space, "shift", axis=0),
                     add(projector, identity_operator(space))],
                    {(1, 0): lin(), (0, 1): lin()},
                    {(1, 0): 0.4, (0, 1): 1.7}, 1.0)


def _outside_span(build, fixed):
    """``build``'s polynomial against a source outside its span."""
    _, poly, eps = build()
    return scalar_family(poly.algebra, fixed(poly.space)), poly, eps


ORACLE_CASES = {
    "stencil-real": _stencil_real,
    "stencil-complex": _stencil_complex,
    "stencil-real-unknowns-complex-entries":
        _stencil_real_unknowns_complex_entries,
    "diagonal-boolean": _diagonal_boolean,
    "diagonal-real": _diagonal_real,
    "dense-real": _dense_real,
    "mixed-boolean": _mixed_boolean,
    "mixed-real": _mixed_real,
}

MISMATCH_CASES = {
    "stencil": lambda: _outside_span(_stencil_real, lambda space: (
        make_discrete_operator(space, "shift", axis=0, step=2))),
    "diagonal-boolean": lambda: _outside_span(_diagonal_boolean, lambda s: (
        diagonal_operator(s, np.array([1, 2, 3, 4, 5, 7], dtype=complex)))),
    "dense": lambda: _outside_span(_dense_real, lambda space: Operator(
        np.random.default_rng(9).standard_normal((5, 5)), space)),
    "mixed": lambda: _outside_span(_mixed_boolean, lambda space: (
        make_discrete_operator(space, "shift", axis=0, step=3))),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_structured_oracle_agrees_with_a_dense_fit(case):
    source, poly, eps = ORACLE_CASES[case]()
    (got,) = brute_force_emerge(source, poly, [eps])
    want = dense_oracle(source, poly, eps)
    assert want is not None and got is not None
    assert got.keys() == want.keys() == dict(poly.terms).keys()
    for alpha in want:
        assert np.allclose(got[alpha], want[alpha], rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("case", MISMATCH_CASES)
def test_structured_and_dense_oracles_refuse_span_mismatches(case):
    source, poly, eps = MISMATCH_CASES[case]()
    assert dense_oracle(source, poly, eps) is None
    assert brute_force_emerge(source, poly, [eps]) == [None]


# --- the oracle on a block against its blocks of one ------------------------------------


def _grid_exponential():
    # eps * I against exp(delta) * I: a fit where eps > 0, none where not
    space = grid_space((8,))
    poly = polynomial_family(
        [identity_operator(space)],
        {(1,): CoefficientFunction.exponential(domain="real")},
        RealScalars())
    return scalar_family(RealScalars(), identity_operator(space)), poly, 2.0


#: the block cases, each with a tolerance
LIST_CASES = {**{name: (build, 1e-8) for name, build in ORACLE_CASES.items()},
              **{f"mismatch-{name}": (build, 1e-8)
                 for name, build in MISMATCH_CASES.items()},
              "grid-exponential": (_grid_exponential, 1e-2)}

#: which draws fit where some do and some do not: a span mismatch fits its
#: zero draw alone, the grid search only positive draws
ACCEPTED = {"mismatch-stencil": [False, True, False, False],
            "grid-exponential": [True, False, False, True]}


@pytest.mark.parametrize("case", LIST_CASES)
def test_the_oracle_fits_a_list_as_its_blocks_of_one(case):
    build, tol = LIST_CASES[case]
    source, poly, eps = build()
    algebra = source.algebra
    params = [eps, algebra.zero(), algebra.scale(-0.5, eps),
              algebra.scale(2.0, eps)]
    fits = brute_force_emerge(source, poly, params, tol)
    each = [fit for p in params
            for fit in brute_force_emerge(source, poly, [p], tol)]
    block = brute_force_emerge(source, poly, Draws.stack(params), tol)

    def bits(fits):
        return [None if f is None
                else {alpha: _hex(v) for alpha, v in f.items()} for f in fits]

    assert bits(fits) == bits(each) == bits(block)
    if case in ACCEPTED:
        assert [f is not None for f in fits] == ACCEPTED[case]
    elif case in ORACLE_CASES:
        assert fits[0] is not None
