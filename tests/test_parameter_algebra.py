"""Parameter carriers: ring laws, square-root branches, orbit recovery."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from emergence import (BadSpec, BooleanComplex, CentralizerDiagonal,
                       CoefficientFunction, ComplexScalars, DegreeMismatch,
                       NonnegativeReals, NoPreimage, NoSquareRoot,
                       NotInIdentityOrbit, Operator,
                       ProductAlgebra, RealScalars, TuplePower,
                       check_action_compatibility,
                       grid_space, identity_operator, plain_space,
                       solve_action_on_identity)
from emergence import operator_core
from emergence.operator_core import (_int64_sums, diagonal_operator,
                                     distance_to_diagonal, exact_sum,
                                     exact_sums, frobenius, stack_operators)
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


# --- leaf carrier arithmetic ------------------------------------------------------


def _c(*values):
    return np.array(values, dtype=complex)


def _f(*values):
    return np.array(values, dtype=float)


# carrier, operands (a, b, c), then the expected zero, one, add(a, b),
# mul(a, b), scale(c, b), row_scale(a) and to_vector(a)
LEAF_ARITHMETIC = [
    (ComplexScalars(), (2, 1.5 + 0.5j, 3),
     (0j, 1 + 0j, 3.5 + 0.5j, 3 + 1j, 4.5 + 1.5j, 2 + 0j, _c(2))),
    (RealScalars(), (2, np.float64(1.5), 3),
     (0.0, 1.0, 3.5, 3.0, 4.5, 2.0, _f(2))),
    (NonnegativeReals(), (2, np.float64(1.5), 3),
     (0.0, 1.0, 3.5, 3.0, 4.5, 2.0, _f(2))),
    (CentralizerDiagonal(_coupling_pattern()),
     ([2, 2, 3, 5], _f(1, 1, 0.5, 2), 3),
     (_f(0, 0, 0, 0), _f(1, 1, 1, 1), _f(3, 3, 3.5, 7), _f(2, 2, 1.5, 10),
      _f(3, 3, 1.5, 6), _f(2, 2, 3, 5), _f(2, 2, 3, 5))),
    (BooleanComplex(masks=2, block=3), ([1, 0], _c(2 + 1j, 0.5), 2),
     (_c(0, 0), _c(1, 1), _c(3 + 1j, 0.5), _c(2 + 1j, 0), _c(4 + 2j, 1),
      _c(1, 1, 1, 0, 0, 0), _c(1, 0))),
]

NEGATIVE = "nonnegative-real carrier got a negative value"
NOT_CONSTANT = "diagonal is not constant on a coupled component"
LEAF_REFUSALS = [
    (NonnegativeReals(), "add", (-1.0, 2.0), NEGATIVE),
    (NonnegativeReals(), "mul", (2.0, -1.0), NEGATIVE),
    (NonnegativeReals(), "scale", (2.0, -1.0), NEGATIVE),  # element
    (NonnegativeReals(), "scale", (-1.0, 2.0), NEGATIVE),  # factor
    (NonnegativeReals(), "row_scale", (-1.0,), NEGATIVE),
    (BooleanComplex(masks=2), "add", ([1, 0, 1], [1, 1]),
     "boolean element has the wrong length"),
    (BooleanComplex(masks=2, block=3), "row_scale", ([1, 0, 1],),
     "boolean element has the wrong length"),
    (CentralizerDiagonal(_coupling_pattern()), "mul",
     ([1.0, 2.0, 3.0, 4.0], np.ones(4)), NOT_CONSTANT),
    (CentralizerDiagonal(_coupling_pattern()), "to_vector",
     ([1.0, 2.0, 3.0, 4.0],), NOT_CONSTANT),
    (CentralizerDiagonal(_coupling_pattern()), "scale",
     (2.0, [1.0, 1.0, 3.0]), "centralizer element has the wrong length"),
]


def _same(got, want):
    """Same type, and the same bits (a zero's sign included)."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert repr(got) == repr(want)


@pytest.mark.parametrize("algebra, operands, expected", LEAF_ARITHMETIC,
                         ids=lambda x: getattr(x, "name", None))
def test_leaf_carrier_arithmetic_keeps_values_and_types(algebra, operands,
                                                        expected):
    a, b, c = operands
    got = (algebra.zero(), algebra.one(), algebra.add(a, b),
           algebra.mul(a, b), algebra.scale(c, b), algebra.row_scale(a),
           algebra.to_vector(a))
    for value, want in zip(got, expected):
        _same(value, want)


@pytest.mark.parametrize("algebra, method, args, message", LEAF_REFUSALS)
def test_leaf_carrier_refusals_keep_type_and_message(algebra, method, args,
                                                     message):
    with pytest.raises(BadSpec) as info:
        getattr(algebra, method)(*args)
    assert type(info.value) is BadSpec
    assert str(info.value) == message


def test_cone_coordinates_are_read_unchecked():
    # a solved coordinate may sit a rounding error below the cone
    _same(NonnegativeReals().to_vector(-1e-17), _f(-1e-17))


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


# --- exact span sums against fsum and the rational sum -------------------------


@st.composite
def span_rows(draw):
    """A row of 1-300 floats of one kind, around one binade, some of them
    zeros of either sign when ``zeros`` is drawn."""
    length = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["narrow", "ties", "cancel", "subnormal",
                                 "huge", "mixed"]))
    base = draw(st.sampled_from([0, -30, 40, -960, -969, -970, -1020,
                                 990, 1000, 1001, 1022]))
    zeros = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signs = rng.choice([-1.0, 1.0], length)
    mantissas = 1.0 + rng.integers(0, 2**52, length) * 2.0**-52
    if kind == "narrow":  # a few binades: where the int64 sums answer
        row = signs * np.ldexp(mantissas, base - rng.integers(0, 4, length))
    elif kind == "ties":  # sums half an ulp off: round half to even
        row = np.ldexp(signs * rng.choice([1.0, 1.0 + 2.0**-52, 1.5, 3.0],
                                          length), base - 2)
    elif kind == "cancel":  # pairs that cancel, with a small remainder
        half = signs[:(length + 1) // 2] * np.ldexp(
            mantissas[:(length + 1) // 2], base)
        row = np.concatenate([half, -half])[:length]
        row[-1] += np.ldexp(1.0, base - 40)
    elif kind == "subnormal":
        row = signs * rng.integers(1, 2**20, length) * 5e-324
    elif kind == "huge":  # near 2**1023: sums may overflow
        row = signs * np.ldexp(mantissas, 1023 - rng.integers(0, 3, length))
    else:  # binades far apart
        row = signs * np.ldexp(mantissas, rng.integers(-1074, 1023, length))
    if zeros:
        row[rng.random(length) < 0.5] = signs[0] * 0.0
    return row


def _rational_sum(row, repeats=1) -> float:
    """The reference: ``repeats`` times the exact rational sum, rounded
    once; NaN where that is not a finite float."""
    if not np.isfinite(row).all():
        return math.nan
    try:
        return float(repeats * sum(map(Fraction, np.ravel(row).tolist())))
    except OverflowError:
        return math.nan


@settings(max_examples=400, deadline=None)
@given(span_rows())
def test_exact_span_sums_are_fsum_to_the_bit(row):
    sums, answered = _int64_sums(row[None, :])
    event(f"answered {bool(answered[0])}")
    if answered[0]:
        try:
            want = math.fsum(row.tolist())
        except OverflowError:  # pragma: no cover - answered sums never do
            pytest.fail("an answered span overflows fsum")
        # hex keeps the sign of zero too
        assert sums[0].hex() == want.hex()
        assert exact_sums(row[None, :])[0].hex() == want.hex()
    else:
        assert sums[0] == 0.0


@settings(max_examples=400, deadline=None)
@given(span_rows(), st.sampled_from([1, 3, 64, 576, 2**18]), st.data())
def test_exact_sums_are_the_rational_sum_to_the_bit(row, repeats, data):
    # hex keeps the sign of zero, and NaN where the sum is not finite
    assert exact_sum(row, repeats).hex() == _rational_sum(row, repeats).hex()
    # 1-D gives a 0-d sum; N-D one sum per row of the last axis, and the
    # imaginary parts apart
    assert exact_sums(row).shape == ()
    assert float(exact_sums(row)).hex() == _rational_sum(row).hex()
    other = data.draw(span_rows())[:len(row)]
    other = np.concatenate([other, np.zeros(len(row) - len(other))])
    rows = np.stack([row, other, -row, other[::-1]]).reshape(2, 2, -1)
    got = exact_sums(rows)
    assert got.shape == (2, 2)
    assert [x.hex() for x in got.ravel().tolist()] == [
        _rational_sum(r).hex() for r in rows.reshape(4, -1)]
    mixed = exact_sums(rows + 1j * rows[::-1])
    assert (mixed.real.tobytes(), mixed.imag.tobytes()) == (
        got.tobytes(), got[::-1].tobytes())


def test_exact_sums_are_nan_where_the_sum_is_not_a_finite_float():
    assert exact_sum([1e308, 1e308, -1e308]) == 1e308  # a partial overflows
    assert exact_sum([1e306, -1e306, 0.5], 576) == 288.0
    assert exact_sum([0.1, 0.2], 2**60) == _rational_sum([0.1, 0.2], 2**60)
    assert exact_sum([-0.0, -0.0]).hex() == exact_sum([]).hex() == "0x0.0p+0"
    for row, repeats in (([1e308, 1e308], 1), ([1e306], 576),
                         ([1.0, math.inf], 1), ([math.inf, -math.inf], 1),
                         ([math.nan], 3)):
        assert math.isnan(exact_sum(row, repeats))
    sums = exact_sums(np.array([[1.0, math.inf], [1.0, 2.0], [1e308, 1e308]]))
    assert math.isnan(sums[0]) and sums[1] == 3.0 and math.isnan(sums[2])
    assert exact_sums(np.zeros((3, 0))).tolist() == [0.0] * 3


def test_exact_span_sums_answer_narrow_spans_and_refuse_the_edges():
    rng = np.random.default_rng(3)
    narrow = (1.0 + rng.standard_normal((50, 8, 32)) * 1e-3) * 1.5
    sums, answered = _int64_sums(narrow)
    assert answered.all()
    assert [x.hex() for x in sums.ravel().tolist()] == [
        math.fsum(span).hex() for span in narrow.reshape(-1, 32).tolist()]
    # 2 + 2**-52 is a tie at its binade; so is 1 + 2**-53, which the int64
    # sums leave to exact_sum: its binades are 53 apart
    ties, answered = _int64_sums(np.array([[1.0, 1.0 + 2.0**-52],
                                           [1.0, 2.0**-53]]))
    assert ties[0] == 2.0 == math.fsum([1.0, 1.0 + 2.0**-52])
    assert answered.tolist() == [True, False]
    edges = np.array([[1.0, -1.0],  # a zero sum: exact_sum gives +0.0
                      [0.0, -0.0],
                      [5e-324, 1e-320],  # subnormal
                      [2.0**-1000, 2.0**-1000],  # scales not normal
                      [1e308, 1e308],  # overflows
                      [1.0, math.inf],
                      [math.nan, 1.0],
                      [1.0, 2.0**-53]])  # binades too far apart
    _, answered = _int64_sums(edges)
    assert not answered.any()


def _diagonal_stack(algebra, n, rng, spikes):
    """Diagonal targets near the orbit, in narrow binades, plus ``spikes``:
    entries that make one span's sum overflow or not finite."""
    ident = identity_operator(plain_space(n, algebra.scalar_kind))
    targets = []
    for _ in range(6):
        entries = np.diagonal(algebra.act(algebra.sample(rng),
                                          ident).matrix).copy()
        entries = entries * (1.0 + 1e-9 * rng.standard_normal(n))
        targets.append(entries)
    for value in spikes:
        entries = targets[1].copy()
        entries[:2] = value
        targets.append(entries)
    return stack_operators(diagonal_operator(ident.space, t) for t in targets)


@pytest.mark.parametrize("algebra,n", [
    (BooleanComplex(masks=4, block=8), 32), (RealScalars(), 16),
    (ComplexScalars(), 7), (CentralizerDiagonal(np.eye(5)), 5)],
    ids=["boolean", "real", "complex", "centralizer"])
def test_orbit_solve_with_int64_sums_keeps_the_fsum_bits(algebra, n,
                                                        monkeypatch):
    rng = np.random.default_rng(41)
    stack = _diagonal_stack(algebra, n, rng,
                            (1.7e308, -1.7e308, math.inf, math.nan))

    def each(target):
        return [_outcome(solve_action_on_identity, algebra, one)
                for one in target]

    def whole(target):
        try:
            return [np.asarray(v).tobytes() for v in
                    solve_action_on_identity(algebra, target, tol=1.0)]
        except NotInIdentityOrbit as exc:
            return ("refused", exc.residual.hex())

    kept = stack_operators(list(stack)[:6])
    exact, answered = operator_core._int64_sums, []

    def recorded(spans):
        sums, done = exact(spans)
        answered.extend(done.ravel().tolist())
        return sums, done

    def unanswered(spans):
        return (np.zeros(spans.shape[:-1]), np.zeros(spans.shape[:-1], bool))

    outcomes = []
    # int64 where it answers, then exact_sum for every span
    for sums in (recorded, unanswered):
        monkeypatch.setattr(operator_core, "_int64_sums", sums)
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes.append((each(stack), whole(stack), whole(kept)))
    assert outcomes[0] == outcomes[1]
    # the overflowing and non-finite spans are refused either way
    assert [o[0] for o in outcomes[0][0]] == ["value"] * 6 + ["refused"] * 4
    assert outcomes[0][1][0] == "refused"
    assert sum(answered) > len(answered) / 2


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


def test_a_nan_compatibility_residual_fails():
    # inf entries make every required residual NaN (inf - inf)
    space = plain_space(4)
    ops = [diagonal_operator(space, [1.0, math.inf, 2.0, 3.0])]
    with np.errstate(invalid="ignore"):
        report = check_action_compatibility(RealScalars(), ops, n_samples=5)
    assert math.isnan(report.required_residual)
    assert not report.ok


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
    # an array value hits it only when every entry does
    assert np.array_equal(f.preimage(np.full(3, 4.0)), np.zeros(3))
    with pytest.raises(NoPreimage):
        f.preimage(np.array([4.0, 5.0, 4.0]))


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
