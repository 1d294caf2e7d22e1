"""Parameter carriers: ring laws, square-root branches, orbit recovery."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emergence import (BadSpec, BooleanComplex, CentralizerDiagonal,
                       CoefficientFunction, ComplexScalars, DegreeMismatch,
                       NonnegativeReals, NoPreimage, NoSquareRoot,
                       NotInIdentityOrbit, Operator,
                       ProductAlgebra, RealScalars, TuplePower,
                       check_action_compatibility,
                       grid_space, identity_operator, plain_space,
                       solve_action_on_identity)
from emergence.operator_core import (diagonal_operator,
                                     distance_to_diagonal, frobenius,
                                     stack_operators)
from emergence.parameter_algebra import Draws

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e6, max_value=1e6)
finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False,
                                    max_magnitude=1e6)

# --- scalar carriers -----------------------------------------------------------


@given(finite, finite)
def test_real_addition_commutes(a, b):
    alg = RealScalars()
    assert alg.add(a, b) == alg.add(b, a)


@given(finite, finite)
def test_real_multiplication_commutes(a, b):
    alg = RealScalars()
    assert alg.mul(a, b) == alg.mul(b, a)


@given(finite)
def test_real_identities(a):
    alg = RealScalars()
    assert alg.add(a, alg.zero()) == a
    assert alg.mul(a, alg.one()) == a
    assert alg.mul(a, alg.zero()) == 0.0


@given(finite_complex, finite_complex)
def test_complex_ring_laws(a, b):
    alg = ComplexScalars()
    assert alg.add(a, b) == alg.add(b, a)
    assert alg.mul(a, b) == alg.mul(b, a)
    assert alg.add(a, alg.zero()) == a
    assert alg.mul(a, alg.one()) == a


@given(finite_complex)
def test_complex_principal_root_squares_back(a):
    alg = ComplexScalars()
    r = alg.sqrt_select(a)
    assert abs(alg.mul(r, r) - a) <= 1e-9 * max(1.0, abs(a))


def test_square_root_branch_selection():
    assert ComplexScalars().sqrt_select(-1.0) == 1j
    assert RealScalars().sqrt_select(2.25) == 1.5
    with pytest.raises(NoSquareRoot):
        RealScalars().sqrt_select(-4.0)
    with pytest.raises(NoSquareRoot):
        CentralizerDiagonal(np.eye(2)).sqrt_select([1.0, -1.0])


def test_dyadic_perfect_squares_have_exact_roots():
    alg = NonnegativeReals()
    for sq, root in [(0.25, 0.5), (2.25, 1.5), (4.0, 2.0), (6.25, 2.5)]:
        assert alg.sqrt_select(sq) == root


def test_nonnegative_cone_rejects_negatives_outright():
    alg = NonnegativeReals()
    with pytest.raises(BadSpec):
        alg.add(-1.0, 2.0)
    with pytest.raises(BadSpec):
        alg.sqrt_select(-0.5)
    assert alg.from_coords(np.array([-0.3])) == 0.0  # clamped, not raised


@given(finite)
def test_scalar_action_is_plain_rescaling(a):
    space = plain_space(3)
    acted = RealScalars().act(a, identity_operator(space))
    assert np.array_equal(acted.matrix, a * np.eye(3))


# --- boolean masks ---------------------------------------------------------------


def test_boolean_mask_product_is_intersection():
    alg = BooleanComplex(masks=4)
    a = np.array([1, 0, 1, 1], dtype=complex)
    b = np.array([1, 1, 0, 1], dtype=complex)
    assert np.array_equal(alg.mul(a, b), np.array([1, 0, 0, 1], dtype=complex))


def test_boolean_sqrt_fixes_idempotents_exactly():
    alg = BooleanComplex(masks=4)
    rng = np.random.default_rng(3)
    for _ in range(8):
        mask = alg.sample_idempotent(rng)
        assert np.array_equal(alg.sqrt_select(mask), mask)
        assert np.array_equal(alg.mul(mask, mask), mask)


def test_boolean_representation_expands_blocks():
    alg = BooleanComplex(masks=2, block=3)
    a = np.array([2.0, 5.0], dtype=complex)
    assert np.array_equal(alg.row_scale(a).real, [2, 2, 2, 5, 5, 5])
    acted = alg.act(a, identity_operator(plain_space(6, "complex")))
    assert np.array_equal(acted.matrix, np.diag(np.repeat(a, 3)))


def test_boolean_action_checks_dimension():
    alg = BooleanComplex(masks=2, block=2)
    with pytest.raises(BadSpec):
        alg.act(alg.one(), identity_operator(plain_space(3, "complex")))


def test_boolean_action_agrees_with_the_representation_matrix():
    alg = BooleanComplex(masks=3, block=4)
    space = plain_space(12, "complex")
    rng = np.random.default_rng(5)
    a = alg.sample(rng)
    rho = np.diag(np.repeat(a, alg.block))
    x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    got = alg.act(a, Operator(x, space)).matrix
    assert np.max(np.abs(got - rho @ x)) <= 1e-15 * np.max(np.abs(rho @ x))
    real = rng.standard_normal((12, 12))
    got = alg.act(a, Operator(real, space)).matrix
    assert got.tobytes() == (rho @ real).tobytes()


def test_boolean_orbit_recovery_is_exact():
    alg = BooleanComplex(masks=4, block=2)
    space = plain_space(8, "complex")
    mask = np.array([1, 0, 1, 0], dtype=complex)
    target = alg.act(mask, identity_operator(space))
    assert np.allclose(solve_action_on_identity(alg, target), mask, atol=1e-12)


def test_boolean_rejects_degenerate_shape():
    with pytest.raises(BadSpec):
        BooleanComplex(masks=0)
    with pytest.raises(BadSpec):
        BooleanComplex(masks=2, block=0)


# --- tuple and product carriers ---------------------------------------------------


def test_tuple_action_is_successive():
    alg = TuplePower(RealScalars(), 3)
    space = plain_space(2)
    acted = alg.act((2.0, 3.0, 5.0), identity_operator(space))
    assert np.array_equal(acted.matrix, 30.0 * np.eye(2))


def test_tuple_arithmetic_is_componentwise():
    alg = TuplePower(RealScalars(), 2)
    assert alg.add((1.0, 2.0), (3.0, 4.0)) == (4.0, 6.0)
    assert alg.mul((2.0, 3.0), (5.0, 7.0)) == (10.0, 21.0)
    assert alg.sqrt_select((4.0, 2.25)) == (2.0, 1.5)
    with pytest.raises(BadSpec):
        alg.add((1.0,), (2.0, 3.0))
    with pytest.raises(BadSpec):
        TuplePower(RealScalars(), 0)


def test_tuple_orbit_recovery_uses_per_slot_probes():
    alg = TuplePower(RealScalars(), 2)
    space = plain_space(3)
    ident = identity_operator(space)
    probes = [RealScalars().act(2.0, ident), RealScalars().act(3.0, ident)]
    assert solve_action_on_identity(alg, probes) == pytest.approx((2.0, 3.0))
    with pytest.raises(DegreeMismatch):
        solve_action_on_identity(alg, probes + [ident])
    with pytest.raises(BadSpec):
        solve_action_on_identity(alg, ident)


def test_product_algebra_combines_heterogeneous_components():
    alg = ProductAlgebra((RealScalars(), ComplexScalars()))
    assert alg.scalar_kind == "complex"
    assert alg.add((1.0, 1j), (2.0, 1j)) == (3.0, 2j)
    acted = alg.act((2.0, 3 + 0j), identity_operator(plain_space(2, "complex")))
    assert np.allclose(acted.matrix, 6.0 * np.eye(2))
    with pytest.raises(BadSpec):
        ProductAlgebra(())
    with pytest.raises(BadSpec):
        alg.mul((1.0,), (2.0, 3.0))


# --- centralizer diagonals ----------------------------------------------------------


def _coupling_pattern():
    return np.array([[0.5, 0.5, 0.0, 0.0],
                     [0.5, 0.5, 0.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0, 0.0]])


def test_centralizer_components_follow_the_coupling_pattern():
    alg = CentralizerDiagonal(_coupling_pattern())
    assert alg.components == [[0, 1], [2], [3]]
    basis = alg.basis()
    assert np.array_equal(basis[0], [1, 1, 0, 0])
    assert np.array_equal(basis[1], [0, 0, 1, 0])


def test_centralizer_rejects_incompatible_diagonals():
    alg = CentralizerDiagonal(_coupling_pattern())
    with pytest.raises(BadSpec):
        alg.add([1.0, 2.0, 3.0, 4.0], alg.one())
    with pytest.raises(BadSpec):
        CentralizerDiagonal(np.zeros((2, 3)))


def test_centralizer_action_scales_rows():
    alg = CentralizerDiagonal(_coupling_pattern())
    d = np.array([2.0, 2.0, 3.0, 5.0])
    acted = alg.act(d, identity_operator(plain_space(4)))
    assert np.array_equal(acted.matrix, np.diag(d))
    recovered = solve_action_on_identity(alg, acted)
    assert np.allclose(recovered, d, atol=1e-12)


# --- identity-orbit solve -------------------------------------------------------------


def test_orbit_solve_recovers_scalars():
    space = plain_space(4)
    target = Operator(3.0 * np.eye(4), space)
    assert solve_action_on_identity(RealScalars(), target) == pytest.approx(3.0)


def test_orbit_solve_refuses_off_orbit_targets():
    space = plain_space(4)
    target = Operator(2.0 * np.diag([1.0, 1.0, 0.0, 0.0]), space)
    with pytest.raises(NotInIdentityOrbit) as info:
        solve_action_on_identity(RealScalars(), target)
    assert info.value.residual == pytest.approx(2.0)


def test_orbit_solve_accepts_bare_matrices():
    got = solve_action_on_identity(ComplexScalars(), (2 + 1j) * np.eye(3))
    assert got == pytest.approx(2 + 1j)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_orbit_solve_refuses_non_finite_targets(value):
    with pytest.raises(NotInIdentityOrbit):
        solve_action_on_identity(RealScalars(), np.diag([value, 1.0, 1.0]))
    boolean = BooleanComplex(masks=2, block=2)
    with pytest.raises(NotInIdentityOrbit):
        solve_action_on_identity(
            boolean, np.diag([value, 1.0, 1.0, 1.0]).astype(complex))


def test_orbit_solve_refuses_targets_whose_norm_overflows():
    with np.errstate(over="ignore"), pytest.raises(NotInIdentityOrbit):
        solve_action_on_identity(RealScalars(), np.diag([1e308, 1e308]))


def _lstsq_orbit_element(algebra, matrix):
    """The least-squares orbit element, solved densely by LAPACK."""
    space = plain_space(matrix.shape[0], algebra.scalar_kind)
    ident = identity_operator(space)
    columns = np.column_stack([algebra.act(e, ident).matrix.ravel()
                               for e in algebra.basis()]).astype(complex)
    coords, *_ = np.linalg.lstsq(columns, matrix.ravel().astype(complex),
                                 rcond=None)
    return algebra.from_coords(coords)


def _wide_coupling_pattern():
    p = np.zeros((9, 9))
    for comp in ([0, 3, 5], [1, 2], [4], [6, 7, 8]):
        p[np.ix_(comp, comp)] = 1.0 / len(comp)
    return p


orbit_algebras = pytest.mark.parametrize("algebra,n", [
    (RealScalars(), 6), (ComplexScalars(), 6), (NonnegativeReals(), 6),
    (CentralizerDiagonal(_coupling_pattern()), 4),
    (CentralizerDiagonal(_wide_coupling_pattern()), 9),
    (BooleanComplex(masks=3, block=4), 12),
], ids=["real", "complex", "nonnegative", "centralizer", "centralizer_wide",
        "boolean_blocks"])


@orbit_algebras
def test_closed_form_orbit_solve_agrees_with_dense_least_squares(algebra, n):
    ident = identity_operator(plain_space(n, algebra.scalar_kind))
    rng = np.random.default_rng(17)
    for _ in range(10):
        noise = rng.standard_normal((n, n))
        if algebra.scalar_kind == "complex":
            noise = noise + 1j * rng.standard_normal((n, n))
        target = algebra.act(algebra.sample(rng), ident).matrix + 1e-3 * noise
        got = solve_action_on_identity(algebra, target, tol=1.0)
        reference = _lstsq_orbit_element(algebra, target)
        scale_ = max(1.0, float(np.linalg.norm(algebra.to_vector(reference))))
        assert algebra.distance(got, reference) <= 1e-12 * scale_


@pytest.mark.parametrize("algebra,rows", [
    (BooleanComplex(masks=4, block=2), 8),
    (CentralizerDiagonal(np.eye(4)), 4),
], ids=["boolean", "centralizer"])
@pytest.mark.parametrize("shift", [-2, 1])
def test_orbit_solve_refuses_a_target_of_another_dimension(algebra, rows,
                                                           shift):
    n = rows + shift
    with pytest.raises(BadSpec) as info:
        solve_action_on_identity(algebra, np.eye(n))
    assert str(info.value) == (f"{algebra.name} scales {rows} rows, the "
                               f"operator has {n}")


def _per_basis_orbit_solve(algebra, target, tol):
    """The per-basis reference: each element's row support found afresh,
    then a correctly rounded mean over it."""
    n = target.space.dim
    diag = np.diagonal(target.matrix)
    coords = []
    for e in algebra.basis():
        values = diag[np.flatnonzero(np.broadcast_to(algebra.row_scale(e),
                                                     (n,)))]
        mean = math.nan
        if np.isfinite(values).all():
            try:
                mean = math.fsum(values.real.tolist()) / len(values)
                if np.iscomplexobj(values):
                    mean = complex(mean,
                                   math.fsum(values.imag.tolist()) / len(values))
            except OverflowError:
                mean = math.nan
        coords.append(mean)
    candidate = algebra.from_coords(coords)
    residual = _broadcast_distance(target, algebra.row_scale(candidate))
    bound = tol * max(1.0, frobenius(target))
    if not (residual <= bound and math.isfinite(bound)):
        raise NotInIdentityOrbit("reference refuses", residual=residual)
    return candidate


def _broadcast_distance(target, entries):
    """``|A - diag(entries)|_F`` with the entries broadcast to every row,
    as distance_to_diagonal took it before its exact scalar shortcut."""
    entries = np.broadcast_to(entries, (target.space.dim,))
    if target.structure != "stencil":
        return distance_to_diagonal(target, entries)
    off = target.body.copy()
    off.flat[0] = 0
    return math.hypot(math.sqrt(target.space.dim) * float(np.linalg.norm(off)),
                      float(np.linalg.norm(target.body.flat[0] - entries)))


def _outcome(solve, algebra, target):
    """``("value", real, imag)`` of the coordinates, or ``("refused",
    residual)`` with the residual's exact bits (every NaN alike)."""
    try:
        v = algebra.to_vector(solve(algebra, target, tol=1.0))
    except NotInIdentityOrbit as exc:
        return ("refused", "nan" if math.isnan(exc.residual)
                else exc.residual.hex())
    return ("value", np.real(v).tolist(), np.imag(v).tolist())


def _orbit_targets(algebra, n, rng):
    """Stencil, diagonal and dense targets near the orbit, with entries
    spread over many magnitudes so that naive sums would round."""
    kind = algebra.scalar_kind
    ident = identity_operator(plain_space(n, kind))

    def spread(shape):
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        if kind == "complex":
            x = x + 1j * rng.standard_normal(shape) * 10.0 ** rng.uniform(
                -8, 8, shape)
        return x

    for _ in range(4):
        acted = algebra.act(algebra.sample(rng), ident).matrix
        body = spread((n,))
        yield Operator(body, grid_space((n,), scalar_kind=kind), "stencil")
        yield diagonal_operator(ident.space, np.diagonal(acted) + body)
        yield Operator(acted + 1e-3 * spread((n, n)), ident.space)


@orbit_algebras
def test_orbit_plan_matches_the_per_basis_solve_bit_for_bit(algebra, n):
    rng = np.random.default_rng(29)
    targets = list(_orbit_targets(algebra, n, rng))
    first = np.flatnonzero(np.broadcast_to(
        algebra.row_scale(algebra.basis()[0]), (n,)))
    for value in (math.nan, math.inf, 1e308):
        # NaN and inf in exactly one support; 1e308 on a whole support
        # (at least two rows) overflows its sum
        entries = np.diagonal(targets[-1].matrix).copy()
        entries[first if value == 1e308 else first[:1]] = value
        targets.append(diagonal_operator(targets[-1].space, entries))
        targets.append(Operator(targets[-1].matrix, targets[-1].space))
    # a stencil's origin is its whole diagonal, so the sums over its spans
    # are products: NaN and inf propagate, n * 1e308 overflows on this grid,
    # and the largest float over n sits at the edge, one ulp either side
    edge = sys.float_info.max / n
    grid = grid_space((n,), scalar_kind=algebra.scalar_kind)
    for value in (math.nan, math.inf, -math.inf, 1e308, -1e308, edge,
                  math.nextafter(edge, math.inf),
                  math.nextafter(edge, 0.0)):
        origins = [value] if algebra.scalar_kind == "real" else [
            complex(value, 0.5), complex(0.5, value)]
        for origin in origins:
            body = (1e-3 * rng.standard_normal(n)).astype(grid.dtype)
            body[0] = origin
            targets.append(Operator(body, grid, "stencil"))
    assert n * 1e308 == math.inf
    refused = 0
    for target in targets:
        with np.errstate(over="ignore", invalid="ignore"):
            got = _outcome(solve_action_on_identity, algebra, target)
            expected = _outcome(_per_basis_orbit_solve, algebra, target)
        assert got == expected
        refused += got[0] == "refused"
    assert refused >= 12


@orbit_algebras
def test_a_stack_of_targets_is_solved_as_each_draw_alone(algebra, n):
    rng = np.random.default_rng(31)
    targets = list(_orbit_targets(algebra, n, rng))
    # refusals of every kind, after the first draws of each structure
    for value in (math.nan, math.inf, 1e308):
        targets.append(diagonal_operator(targets[1].space, np.full(n, value)))
    grid = targets[0].space
    for value in (math.nan, -math.inf, 1e308, sys.float_info.max / n):
        body = np.zeros(n, dtype=grid.dtype)
        body[0] = value
        targets.append(Operator(body, grid, "stencil"))
    for structure in ("stencil", "diagonal", "dense"):
        group = [t for t in targets if t.structure == structure]
        with np.errstate(over="ignore", invalid="ignore"):
            each = [_outcome(solve_action_on_identity, algebra, t)
                    for t in group]
            stack = stack_operators(group)
            refused = [o for o in each if o[0] == "refused"]
            try:
                got = solve_action_on_identity(algebra, stack, tol=1.0)
            except NotInIdentityOrbit as exc:
                residual = exc.residual
                assert ("refused", "nan" if math.isnan(residual)
                        else residual.hex()) == refused[0]
            else:
                assert not refused
            kept = stack_operators(t for t, o in zip(group, each)
                                   if o[0] == "value")
            got = solve_action_on_identity(algebra, kept, tol=1.0)
        assert isinstance(got, Draws) and len(got) == len(kept)
        values = [o for o in each if o[0] == "value"]
        for v, o in zip(got, values):
            v = algebra.to_vector(v)
            assert ("value", np.real(v).tolist(), np.imag(v).tolist()) == o


@orbit_algebras
def test_block_row_scales_and_coordinates_are_each_draws(algebra, n):
    rng = np.random.default_rng(37)
    params = [algebra.sample(rng) for _ in range(5)]
    draws = Draws.stack(params)
    assert [np.atleast_1d(algebra.row_scale(a)).tolist() for a in params] \
        == algebra.row_scales(draws).tolist()
    coords = np.array([algebra.to_vector(a)[:len(algebra.basis())]
                       for a in params])
    coords[2] = math.nan
    block = algebra.block_from_coords(coords)
    for got, row in zip(block, coords):
        want = algebra.from_coords(row.tolist())
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _bits_or_refusal(fn, value):
    try:
        got = fn(value)
    except (NoPreimage, ArithmeticError, TypeError, ValueError) as exc:
        return ("refused", type(exc).__name__)
    return np.asarray(got).dtype.kind, np.asarray(got).tobytes()


@pytest.mark.parametrize("domain", ["real", "nonneg", "complex"])
@pytest.mark.parametrize("coefficient", [
    CoefficientFunction.constant(1.5), CoefficientFunction.linear(3.0),
    CoefficientFunction.linear(1.0 - 2.0j), CoefficientFunction.affine(
        -3.0, 0.25), CoefficientFunction.exponential(),
    CoefficientFunction.monomial_power(3)],
    ids=["constant", "linear", "linear_complex", "affine", "exp", "power"])
def test_block_coefficients_take_each_draws_bits(coefficient, domain):
    f = CoefficientFunction(coefficient.kind, coefficient.params,
                            coefficient.nowhere_vanishing, domain)
    reals = [0.0, -0.0, 2.5, -1e-16, -3.0, 1e308, math.nan, math.inf]
    blocks = [reals, [complex(x, 0.5) for x in reals[:6]],
              [np.array([x, 1.0, -x]) for x in reals]]
    for values in blocks:
        draws = Draws.stack(values)
        with np.errstate(all="ignore"):
            for fn in (f, f.preimage):
                each = [_bits_or_refusal(fn, v) for v in draws]
                got = _bits_or_refusal(fn, draws)
                if got[0] == "refused":
                    assert got[0] in [e[0] for e in each]
                    continue
                assert all(e[0] != "refused" for e in each)
                block = fn(draws)
                assert [(np.asarray(v).dtype.kind, np.asarray(v).tobytes())
                        for v in block] == each


# --- action compatibility ---------------------------------------------------------------


def test_compatibility_is_vacuous_without_samples():
    report = check_action_compatibility(RealScalars(), [], n_samples=5)
    assert report.ok and report.vacuous and report.samples == 0


def test_compatibility_holds_for_boolean_diagonal_actions():
    alg = BooleanComplex(masks=3, block=1)
    space = plain_space(3, "complex")
    rng = np.random.default_rng(11)
    ops = [Operator(np.diag(rng.standard_normal(3)), space) for _ in range(2)]
    report = check_action_compatibility(alg, ops, n_samples=20)
    assert report.ok and not report.vacuous
    assert report.optional_ok
    assert report.commutativity_residual == pytest.approx(0.0, abs=1e-12)


def test_compatibility_flags_noncommutative_style_actions():
    # a deliberately broken carrier: action by a non-diagonal conjugation
    class Twisted(RealScalars):
        def act(self, a, op):
            twist = np.array([[1.0, float(a)], [0.0, 1.0]])
            return Operator(twist @ op.matrix, op.space)

    ops = [identity_operator(plain_space(2))]
    report = check_action_compatibility(Twisted(), ops, n_samples=10)
    assert not report.ok
    assert report.required_residual > 1e-6


# --- coefficient functions ------------------------------------------------------------


def test_coefficient_evaluation_per_kind():
    assert CoefficientFunction.constant(2.5)(7.0) == 2.5
    assert CoefficientFunction.linear(3.0)(2.0) == 6.0
    assert CoefficientFunction.affine(2.0, 1.0)(3.0) == 7.0
    assert CoefficientFunction.exponential()(0.0) == 1.0
    assert CoefficientFunction.monomial_power(3)(2.0) == 8.0


def test_coefficient_constructors_validate():
    with pytest.raises(BadSpec):
        CoefficientFunction.linear(0.0)
    with pytest.raises(BadSpec):
        CoefficientFunction.affine(0.0, 1.0)
    with pytest.raises(BadSpec):
        CoefficientFunction.monomial_power(0)
    assert not CoefficientFunction.constant(0.0).nowhere_vanishing
    assert not CoefficientFunction.monomial_power(2).nowhere_vanishing
    assert CoefficientFunction.linear(2.0).nowhere_vanishing


def test_exponential_preimage_is_the_logarithm():
    f = CoefficientFunction.exponential()
    assert f.preimage(2.0) == 0.6931471805599453
    with pytest.raises(NoPreimage):
        f.preimage(-1.0)
    with pytest.raises(NoPreimage):
        f.preimage(1.0 + 0.5j)


def test_power_preimage_takes_principal_roots():
    f = CoefficientFunction.monomial_power(2)
    assert f.preimage(9.0) == pytest.approx(3.0)
    assert f.preimage(0.0) == 0.0
    assert f.preimage(-1.0) == pytest.approx(1j)


def test_preimages_respect_the_declared_domain():
    lin = CoefficientFunction.linear(1.0, domain="nonneg")
    with pytest.raises(NoPreimage):
        lin.preimage(-2.0)
    real = CoefficientFunction.linear(1.0, domain="real")
    with pytest.raises(NoPreimage):
        real.preimage(1.0 + 1.0j)
    assert real.preimage(2.5) == 2.5


def test_constant_preimage_only_hits_its_value():
    f = CoefficientFunction.constant(4.0, domain="real")
    assert f.preimage(4.0) == 0.0
    with pytest.raises(NoPreimage):
        f.preimage(5.0)


@given(st.floats(min_value=-10.0, max_value=10.0,
                 allow_nan=False, allow_infinity=False))
def test_affine_preimage_round_trips(x):
    f = CoefficientFunction.affine(2.0, -1.0, domain="real")
    assert f.preimage(f(x)) == pytest.approx(x, abs=1e-9)


def test_describe_is_json_ready():
    desc = CoefficientFunction.affine(2.0, 1.0, domain="real").describe()
    assert desc == {"kind": "affine", "domain": "real",
                    "nowhere_vanishing": True,
                    "params": [[2.0, 0.0], [1.0, 0.0]]}
