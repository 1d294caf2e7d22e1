"""Operator layer: stencils, circulance, pairings, right inverses."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emergence import (BadSpec, BooleanComplex, CentralizerDiagonal,
                       ComplexScalars,
                       NotRightInvertible, Operator, RealScalars,
                       SpaceMismatch, add, adjoint_wrt_pairing, compose,
                       grid_space, identity_operator, lagrangian_value,
                       make_discrete_operator, operator_residual, plain_space,
                       right_inverse, scale, solve_action_on_identity,
                       sym_part, zero_operator)
from emergence import operator_core
from emergence.operator_core import (FieldBlock, OperatorStack,
                                     PairingForm, circulant,
                                     diagonal_operator,
                                     distance_to_diagonal, frobenius,
                                     frobenius_coordinates,
                                     is_idempotent_power, plane_wave, power,
                                     scale_rows, stack_operators, subtract)
from emergence.scenarios import build_gravity_background

from conftest import central_difference, sample_field

# --- spaces -----------------------------------------------------------------


def test_grid_space_rejects_degenerate_axes():
    with pytest.raises(BadSpec):
        grid_space((1,))
    with pytest.raises(BadSpec):
        grid_space((8,), spacing=(0.0,))
    with pytest.raises(BadSpec):
        grid_space(())


@pytest.mark.parametrize("build,value,name", [
    (plain_space, 0, "dim"), (plain_space, -1, "dim"),
    (plain_space, 2.5, "dim"), (plain_space, True, "dim"),
    (plain_space, "3", "dim"),
    (grid_space, (8.5,), r"dims\[0\]"), (grid_space, ("8",), r"dims\[0\]"),
    (grid_space, (8, np.True_), r"dims\[1\]"), (grid_space, 8, "dims"),
], ids=["dim_zero", "dim_negative", "dim_float", "dim_bool", "dim_str",
        "axis_float", "axis_str", "axis_np_bool", "dims_int"])
def test_space_sizes_are_positive_integers(build, value, name):
    # a size is never truncated or parsed: an 8.5-site axis is not 8 sites
    with pytest.raises(BadSpec, match=f"^{name} must be "):
        build(value)


def test_numpy_integer_sizes_build_the_same_space():
    assert plain_space(np.int64(3)).dim == 3
    assert type(plain_space(np.int64(3)).dim) is int
    assert grid_space(np.array([4, 6])).matches(grid_space((4, 6)))


def test_pairing_rejects_nonpositive_or_nonfinite_weight():
    for weight in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(BadSpec):
            PairingForm(weight, "symmetric")


def test_space_matching_is_structural(line8):
    assert line8.matches(grid_space((8,)))
    assert not line8.matches(grid_space((8,), spacing=(0.5,)))
    assert not line8.matches(plain_space(8))


def test_operator_shape_is_checked(line8):
    with pytest.raises(BadSpec):
        Operator(np.eye(3), line8)


def test_an_operator_body_is_read_only(torus8):
    # an operator's stack is gathered from its body once, so a write
    # through the body would be silently lost: it raises instead
    stencil = np.zeros(torus8.geometry.dims)
    stencil[0, 1] = 1.0
    shift = Operator(stencil, torus8, "stencil")
    assert len(shift.support.offsets) == 3
    built = (shift, add(shift, identity_operator(torus8)),
             compose(shift, shift), diagonal_operator(torus8, np.ones(64)),
             Operator(np.eye(64), torus8))
    for op in built:
        with pytest.raises(ValueError, match="read-only"):
            op.body[(0,) * op.body.ndim] = 5.0
        with pytest.raises(AttributeError):
            op.body = np.zeros_like(op.body)
    assert frobenius(shift) == math.sqrt(64)


# --- arithmetic and circulance -----------------------------------------------


def test_circulance_is_read_from_the_entries(line8):
    shift = make_discrete_operator(line8, "shift", axis=0)
    dense = Operator(np.arange(64.0).reshape(8, 8), line8)
    symbol = np.fft.fftn(shift.body)
    for op, expected in ((scale(2.5, shift), 2.5 * symbol),
                         (compose(shift, shift), symbol * symbol),
                         (add(shift, identity_operator(line8)), symbol + 1.0)):
        assert op.structure == "stencil"
        assert np.allclose(np.fft.fftn(op.body), expected, atol=1e-12)
    for op in (dense, add(shift, dense), compose(shift, dense)):
        assert op.structure == "dense"


def test_power_requires_nonnegative_integer(line8):
    shift = make_discrete_operator(line8, "shift", axis=0)
    assert np.array_equal(power(shift, 0).matrix, np.eye(8))
    with pytest.raises(BadSpec):
        power(shift, -1)


# --- stencils ----------------------------------------------------------------


def test_central_difference_squares_to_wide_stencil(line8):
    d = central_difference(line8, 0)
    row = compose(d, d).matrix[0]
    # (phi_{i+2} - 2 phi_i + phi_{i-2}) / 4h^2
    expected = np.zeros(8)
    expected[0], expected[2], expected[6] = -0.5, 0.25, 0.25
    assert np.array_equal(row, expected)


def test_box_spectrum_matches_sine_formula(line8):
    box = make_discrete_operator(line8, "box")
    # eigenvalues of the periodic second difference: -4 sin^2(pi k / N) / h^2
    expected = sorted(-4.0 * math.sin(math.pi * k / 8) ** 2 for k in range(8))
    got = sorted(np.linalg.eigvalsh(0.5 * (box.matrix + box.matrix.T)))
    assert np.allclose(got, expected, atol=1e-12)


def test_plane_wave_is_box_eigenvector():
    space = grid_space((8,), scalar_kind="complex")
    box = make_discrete_operator(space, "box")
    wave = plane_wave(space, (3,))
    lam = -4.0 * math.sin(math.pi * 3 / 8) ** 2
    assert np.allclose(box.matrix @ wave, lam * wave, atol=1e-12)


def test_box_respects_spacing():
    coarse = grid_space((8,), spacing=(2.0,))
    box = make_discrete_operator(coarse, "box")
    assert box.matrix[0, 0] == -0.5  # -2 / h^2 with h = 2


def test_mixed_second_partial_is_product_of_centrals(torus8):
    mixed = make_discrete_operator(torus8, "second_partial", mu=0, nu=1)
    d0, d1 = (central_difference(torus8, axis) for axis in (0, 1))
    assert np.array_equal(mixed.matrix, d0.matrix @ d1.matrix)


def _shift_oracle(geometry, axis, step):
    # the permutation matrix of phi(x) -> phi(x + step e_axis), row by row
    n = geometry.size
    cols = np.roll(np.arange(n).reshape(geometry.dims), -step, axis=axis)
    m = np.zeros((n, n))
    m[np.arange(n), cols.ravel()] = 1.0
    return m


def _stencil_oracles(space, eta):
    """Every builder kind rebuilt from shift matrices: (kind, params, M);
    kind ``"d2"`` is the gravity background's ``D2``."""
    g = space.geometry
    d = len(g.dims)
    eye = np.eye(g.size)

    def central(axis):
        return (_shift_oracle(g, axis, 1)
                - _shift_oracle(g, axis, -1)) / (2.0 * g.spacing[axis])

    def second(mu, nu):
        if mu != nu:
            return central(mu) @ central(nu)
        h = g.spacing[mu]
        return (_shift_oracle(g, mu, 1) - 2.0 * eye
                + _shift_oracle(g, mu, -1)) / (h * h)

    def box(coeff):
        out = np.zeros((g.size, g.size))
        for mu in range(d):
            for nu in range(d):
                if coeff[mu, nu] != 0.0:
                    out = out + coeff[mu, nu] * second(mu, nu)
        return out

    oracles = [("box", {}, box(np.eye(d)))]
    for axis in range(d):
        for step in (1, -1, 3):
            oracles.append(("shift", {"axis": axis, "step": step},
                            _shift_oracle(g, axis, step)))
    for mu in range(d):
        for nu in range(d):
            oracles.append(("second_partial", {"mu": mu, "nu": nu},
                            second(mu, nu)))
    if d == 2:
        oracles.append(("box", {"eta": eta}, box(eta)))
    if d == 2 and g.spacing == (1.0, 1.0):
        # the gravity background's D2 at field strength 0.7 (its grids are
        # unit spaced)
        eps2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        eta_up = np.linalg.inv(eta)
        coeff = 2.0 * (eps2 @ (0.7 * eps2) @ eta_up)
        box_up = box(eta_up)
        out = np.zeros((g.size, g.size))
        for mu in range(2):
            for nu in range(2):
                if coeff[mu, nu] != 0.0:
                    out = out + coeff[mu, nu] * (second(mu, nu)
                                                 - 0.25 * eta[mu, nu] * box_up)
        oracles.append(("d2", {}, out))
    return oracles


@pytest.mark.parametrize("dims,spacing", [((8,), (1.0,)),
                                          ((2, 8), (1.0, 1.0)),
                                          ((4, 4), (0.5, 2.0))])
def test_stencils_match_the_shift_matrix_oracle(dims, spacing):
    # on (2, 8) the two neighbours along axis 0 coincide, so central
    # differences along it cancel
    space = grid_space(dims, spacing=spacing)
    sheared = np.array([[1.3, 0.4], [0.4, 0.9]])
    for kind, params, expected in _stencil_oracles(space, sheared):
        built = (build_gravity_background(dims, sheared, 0.7)["d2"]
                 if kind == "d2"
                 else make_discrete_operator(space, kind, **params))
        assert np.array_equal(built.matrix, expected), (kind, params)


def test_circulant_gathers_from_the_first_column():
    space = grid_space((3, 4))
    stencil = np.arange(12.0).reshape(3, 4)
    m = circulant(space.geometry, stencil)
    assert np.array_equal(m[:, 0], stencil.ravel())
    shift = make_discrete_operator(space, "shift", axis=1)
    assert np.array_equal(m @ shift.matrix, shift.matrix @ m)
    with pytest.raises(BadSpec):
        circulant(space.geometry, np.zeros(5))


def test_antisymmetric_background_equals_minus_box():
    # with the flat metric and unit field strength the trace-adjusted
    # background collapses onto the negated laplacian, exactly
    background = build_gravity_background((8, 8), np.eye(2), 1.0)
    assert np.array_equal(background["d2"].body,
                          -background["box_eta"].body)
    assert np.array_equal(background["d2"].matrix,
                          -background["box_eta"].matrix)


@pytest.mark.parametrize("eta,refusal", [
    (np.diag([1.0, -1.0]), "metric must be positive definite"),
    # singular: refused before numpy's inverse raises LinAlgError
    (((1.0, 1.0), (1.0, 1.0)), "metric must be positive definite"),
    (((1.0, 0.2), (0.0, 1.0)), "metric must be a symmetric 2x2 matrix"),
    (np.eye(3), "metric must be a symmetric 2x2 matrix"),
])
def test_background_metric_must_be_positive_definite(eta, refusal):
    with pytest.raises(BadSpec, match=refusal):
        build_gravity_background((8, 8), eta, 1.0)


def test_unknown_kind_and_stray_parameters_rejected(line8):
    with pytest.raises(BadSpec):
        make_discrete_operator(line8, "laplace_beltrami")
    with pytest.raises(BadSpec):
        make_discrete_operator(line8, "shift", axis=0, extra=1)
    with pytest.raises(BadSpec, match="axis 3 out of range"):
        make_discrete_operator(line8, "shift", axis=3)
    for gone in ("constant", "d1_basis", "partial"):
        with pytest.raises(BadSpec, match="unknown discrete operator kind"):
            make_discrete_operator(line8, gone)


@pytest.mark.parametrize("kind,params,name", [
    ("shift", {"axis": 0, "step": 1.5}, "step"),
    ("shift", {"axis": 0.9}, "axis"),
    ("shift", {"axis": "0"}, "axis"),
    ("shift", {"axis": True}, "axis"),
    ("shift", {"axis": 1, "step": np.True_}, "step"),
    ("shift", {}, "axis"),
    ("second_partial", {"mu": 0.5, "nu": 0}, "mu"),
    ("second_partial", {"mu": 0, "nu": np.float64(1.0)}, "nu"),
], ids=["step_float", "axis_float", "axis_str", "axis_bool", "step_np_bool",
        "axis_missing", "mu_float", "nu_np_float"])
def test_stencil_parameters_must_be_integers(torus8, kind, params, name):
    # a parameter is never truncated or parsed: step 1.5 is not a shift by 1
    with pytest.raises(BadSpec, match=f"^{name} must be an integer, not "):
        make_discrete_operator(torus8, kind, **params)


@pytest.mark.parametrize("kind,params,name", [
    ("projection", {}, "basis"),
    ("projection", {"basis": []}, "basis"),
    ("projection", {"basis": [np.ones(4)]}, "basis"),
    ("box", {"eta": "x"}, "eta"),
    ("box", {"eta": [[1.0, 2.0]]}, "eta"),
], ids=["basis_missing", "basis_empty", "basis_short", "eta_str",
        "eta_shape"])
def test_malformed_operator_parameters_are_refused_by_name(line8, kind,
                                                           params, name):
    with pytest.raises(BadSpec, match=f"^{name} must be "):
        make_discrete_operator(line8, kind, **params)


def test_numpy_integer_parameters_build_the_same_stencil(torus8):
    for kind, params in (("shift", {"axis": 1, "step": -3}),
                         ("second_partial", {"mu": 1, "nu": 0})):
        numpy_params = {k: np.int32(v) for k, v in params.items()}
        assert np.array_equal(
            make_discrete_operator(torus8, kind, **numpy_params).matrix,
            make_discrete_operator(torus8, kind, **params).matrix)


# --- pairing, adjoints, quadratic forms ---------------------------------------


def test_adjoint_identity_under_quadrature_pairing(rng):
    space = grid_space((6,), spacing=(0.5,))
    a = Operator(rng.standard_normal((6, 6)), space)
    phi = sample_field(space, rng)
    psi = sample_field(space, rng)
    gram = space.pairing.weight * np.eye(6)
    lhs = phi @ gram @ (a.matrix @ psi)
    rhs = (adjoint_wrt_pairing(a).matrix @ phi) @ gram @ psi
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("dims,spacing", [((6,), (0.5,)),
                                          ((3, 4), (0.5, 2.0))])
@pytest.mark.parametrize("scalar_kind", ["real", "complex"])
def test_adjoint_agrees_with_dense_gram_formula(rng, dims, spacing,
                                                scalar_kind):
    space = grid_space(dims, spacing=spacing, scalar_kind=scalar_kind)
    m = rng.standard_normal((space.dim, space.dim))
    if scalar_kind == "complex":
        m = m + 1j * rng.standard_normal((space.dim, space.dim))
    gram = space.pairing.weight * np.eye(space.dim)
    star = m.conj().T if scalar_kind == "complex" else m.T
    reference = np.linalg.solve(gram, star @ gram)
    assert np.max(np.abs(adjoint_wrt_pairing(Operator(m, space)).matrix
                         - reference)) <= 1e-12


def test_lagrangian_scales_with_the_volume_element(rng):
    m = rng.standard_normal((6, 6))
    phi = rng.standard_normal(6)
    unit = lagrangian_value(Operator(m, grid_space((6,))), phi)
    half = lagrangian_value(Operator(m, grid_space((6,), spacing=(0.5,))), phi)
    assert half == 0.5 * unit


def test_sym_part_preserves_lagrangian(rng, line8):
    a = Operator(rng.standard_normal((8, 8)), line8)
    for _ in range(5):
        phi = sample_field(line8, rng)
        assert abs(lagrangian_value(a, phi)
                   - lagrangian_value(sym_part(a), phi)) < 1e-10


def test_equal_quadratic_forms_iff_equal_sym_parts(rng, line8):
    a = Operator(rng.standard_normal((8, 8)), line8)
    skew = a.matrix - adjoint_wrt_pairing(a).matrix
    b = Operator(a.matrix + 3.0 * skew, line8)  # same quadratic form
    shifted = Operator(a.matrix + np.eye(8), line8)
    assert operator_residual(a, b) < 1e-12
    assert operator_residual(a, shifted) > 1.0


def test_hermitian_pairing_conjugates_left_argument(rng):
    space = grid_space((4,), scalar_kind="complex")
    ident = identity_operator(space)
    phi = sample_field(space, rng)
    value = lagrangian_value(ident, phi)
    assert abs(value.imag) < 1e-12
    assert value.real > 0.0


def test_lagrangian_checks_field_dimension(line8, line4):
    ident = identity_operator(line8)
    for ops, phi in ((ident, np.zeros(5)), (ident, np.zeros((3, 5))),
                     (ident, np.zeros((2, 4, 2))), (ident, np.zeros(())),
                     ([ident] * 3, np.zeros((2, 8)))):
        with pytest.raises(SpaceMismatch):
            lagrangian_value(ops, phi)
    with pytest.raises(SpaceMismatch):
        lagrangian_value([ident, identity_operator(line4)], np.zeros((2, 8)))


# --- idempotent powers ---------------------------------------------------------


def test_idempotent_power_detection(line8):
    space_c = grid_space((8,), scalar_kind="complex")
    proj = make_discrete_operator(space_c, "projection",
                                  basis=[plane_wave(space_c, (1,))])
    shift = make_discrete_operator(line8, "shift", axis=0)
    assert is_idempotent_power(proj, 1)
    assert is_idempotent_power(shift, 8)  # S^8 = I on eight sites
    assert not is_idempotent_power(scale(2.0, identity_operator(line8)), 1)


@pytest.mark.parametrize("size", [1e155, 1e200, 1e300])
def test_a_norm_that_overflows_verifies_nothing(line8, size):
    # finite entries whose Frobenius norm overflows: no bound, and no
    # numpy warning (any warning is an error, as pytest is configured)
    for op in (scale(size, identity_operator(line8)),
               diagonal_operator(line8, [size] * 8),
               Operator(size * np.eye(8), line8)):
        assert not is_idempotent_power(op, 1)
        with pytest.raises(NotRightInvertible, match="norm overflows"):
            right_inverse(op)


# --- right inverses ------------------------------------------------------------


def test_spectral_right_inverse_of_shift_is_exact(line8):
    shift = make_discrete_operator(line8, "shift", axis=0)
    r = right_inverse(shift)
    assert frobenius(Operator(shift.matrix @ r.matrix - np.eye(8), line8)) < 1e-12
    assert np.array_equal(r.matrix, circulant(line8.geometry, r.matrix[:, 0]))


def test_massive_box_inverts_massless_does_not(line8):
    box = make_discrete_operator(line8, "box")
    massive = add(box, identity_operator(line8))
    r = right_inverse(massive)
    assert frobenius(Operator(massive.matrix @ r.matrix - np.eye(8), line8)) < 1e-10
    with pytest.raises(NotRightInvertible) as info:
        right_inverse(box)
    assert info.value.frequency == (0,)


def test_massless_box_2d_reports_zero_frequency(torus8):
    box = make_discrete_operator(torus8, "box")
    with pytest.raises(NotRightInvertible) as info:
        right_inverse(box)
    assert info.value.frequency == (0, 0)


def test_pseudoinverse_route_verifies_the_product(flat4, rng):
    m = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    a = Operator(m, flat4)
    r = right_inverse(a)
    assert np.allclose(a.matrix @ r.matrix, np.eye(4), atol=1e-10)
    rank_deficient = Operator(np.diag([1.0, 1.0, 0.0, 0.0]), flat4)
    with pytest.raises(NotRightInvertible) as info:
        right_inverse(rank_deficient)
    assert info.value.residual is not None and info.value.residual > 0.1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_operators_are_refused(flat4, line8, bad):
    for a in (Operator(np.diag([1.0, bad, 1.0, 1.0]), flat4),
              Operator(np.diag([1.0] * 7 + [bad]), line8),
              Operator(np.full((8, 8), bad), line8),
              diagonal_operator(flat4, [1.0, bad, 1.0, 1.0]),
              Operator(np.array([1.0] * 7 + [bad]), line8, "stencil")):
        with pytest.raises(NotRightInvertible, match="non-finite"):
            right_inverse(a)


def test_nan_residual_fails_verification(flat4, monkeypatch):
    monkeypatch.setattr(np.linalg, "pinv",
                        lambda m: np.full(m.shape, np.nan))
    with pytest.raises(NotRightInvertible) as info:
        right_inverse(Operator(np.eye(4), flat4))
    assert math.isnan(info.value.residual)


def test_spectral_route_needs_tags_and_geometry(line8):
    # a dense matrix with circulant entries takes the pseudoinverse route:
    # the refusal carries the verification residual, not a frequency
    box = make_discrete_operator(line8, "box")
    with pytest.raises(NotRightInvertible, match="pseudoinverse") as info:
        right_inverse(Operator(box.matrix.copy(), line8))
    assert info.value.frequency is None
    assert math.isfinite(info.value.residual)
    massive = add(box, identity_operator(line8))
    assert right_inverse(massive).structure == "stencil"
    assert right_inverse(Operator(massive.matrix, line8)).structure == "dense"


def test_hand_built_circulant_takes_the_spectral_route(line8):
    # a circulant built by hand from a copied first column, tagged as a
    # stencil, is inverted spectrally: the refusal names the vanishing
    # frequency
    box = make_discrete_operator(line8, "box")
    column = box.matrix[:, 0].copy().reshape(line8.geometry.dims)
    hand_built = Operator(column, line8, "stencil")
    assert np.array_equal(hand_built.matrix, box.matrix)
    with pytest.raises(NotRightInvertible) as info:
        right_inverse(hand_built)
    assert info.value.frequency == (0,)


def test_diagonal_right_inverse_is_the_reciprocal(flat4, line8):
    for space in (flat4, line8):
        d = diagonal_operator(space, np.linspace(-2.0, 3.0, space.dim) + 0.1)
        r = right_inverse(d)
        assert r.structure == "diagonal"
        assert np.array_equal(r.body, 1.0 / d.body)
    with pytest.raises(NotRightInvertible, match="diagonal entry 2 is zero"):
        right_inverse(diagonal_operator(flat4, [1.0, 1.0, 0.0, 1.0]))


def test_zero_operator_annihilates(line8, rng):
    z = zero_operator(line8)
    phi = sample_field(line8, rng)
    assert lagrangian_value(z, phi) == 0.0


# --- structured bodies against the dense oracle ------------------------------


def _random_body(space, structure, density, rng):
    """Gaussian entries, each kept with probability ``density``."""
    shape = space.geometry.dims if structure == "stencil" else (space.dim,)
    body = rng.standard_normal(shape)
    if space.scalar_kind == "complex":
        body = body + 1j * rng.standard_normal(shape)
    return Operator(body * (rng.random(shape) < density), space, structure)


def _random_operator(space, structure, density, rng):
    if structure != "dense":
        return _random_body(space, structure, density, rng)
    return Operator(_random_body(space, "stencil", density, rng).matrix
                    + np.diag(rng.standard_normal(space.dim)), space)


def _agree(got, expected):
    gap = np.linalg.norm(np.asarray(got) - np.asarray(expected))
    assert gap <= 1e-12 * max(1.0, float(np.linalg.norm(expected)))


@settings(max_examples=60, deadline=None)
@given(dims=st.sampled_from([(8, 8), (16, 16), (64,), (4, 4, 6)]),
       scalar_kind=st.sampled_from(["real", "complex"]),
       symmetry=st.sampled_from(["symmetric", "hermitian"]),
       structures=st.tuples(*[st.sampled_from(["stencil", "diagonal"])] * 2),
       density=st.sampled_from([0.02, 0.3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_structured_algebra_agrees_with_the_dense_oracle(
        dims, scalar_kind, symmetry, structures, density, seed):
    spacing = (0.5, 2.0, 1.5)[:len(dims)]
    space = grid_space(dims, spacing, scalar_kind, symmetry)
    rng = np.random.default_rng(seed)
    a, b = (_random_body(space, s, density, rng) for s in structures)
    da, db = Operator(a.matrix, space), Operator(b.matrix, space)
    c = complex(rng.standard_normal(), rng.standard_normal()) \
        if scalar_kind == "complex" else float(rng.standard_normal())
    kept = a.structure if a.structure == b.structure else "dense"
    for got, expected, structure in (
            (compose(a, b), compose(da, db), kept),
            (add(a, b), add(da, db), kept),
            (scale(c, a), scale(c, da), a.structure),
            (power(a, 3), power(da, 3), a.structure),
            (sym_part(a), sym_part(da), a.structure),
            (adjoint_wrt_pairing(a), adjoint_wrt_pairing(da), a.structure)):
        assert got.structure == structure
        _agree(got.matrix, expected.matrix)
    phi = sample_field(space, rng)
    _agree(lagrangian_value(a, phi), lagrangian_value(da, phi))
    _agree(operator_residual(a, b), operator_residual(da, db))
    _agree(frobenius(a), frobenius(da))
    _agree(np.linalg.norm(frobenius_coordinates(a)), frobenius(da))
    # diagonally dominant, so every symbol and entry stays away from zero
    unit = identity_operator(space) if a.structure == "stencil" \
        else diagonal_operator(space, np.ones(space.dim))
    massive = add(a, scale(1.0 + float(np.sum(np.abs(a.body))), unit))
    r = right_inverse(massive)
    assert r.structure == a.structure
    _agree(r.matrix, right_inverse(Operator(massive.matrix, space)).matrix)
    algebra = ComplexScalars() if scalar_kind == "complex" else RealScalars()
    acted = algebra.act(c, a)
    assert acted.structure == a.structure
    _agree(acted.matrix, algebra.act(c, da).matrix)
    masks = BooleanComplex(8, space.dim // 8)
    eps = masks.sample(rng)
    acted = masks.act(eps, a)
    assert acted.structure == ("diagonal" if a.structure == "diagonal"
                               else "dense")
    _agree(acted.matrix, masks.act(eps, da).matrix)


def _hexes(values):
    return [(x.real.hex(), x.imag.hex())
            for x in np.asarray(values, dtype=complex).tolist()]


@settings(max_examples=40, deadline=None)
@given(dims=st.sampled_from([(5,), (7, 3), (6, 10), (4, 4, 6)]),
       scalar_kind=st.sampled_from(["real", "complex"]),
       symmetry=st.sampled_from(["symmetric", "hermitian"]),
       structures=st.sampled_from([("stencil",) * 2, ("diagonal",) * 2,
                                   ("dense",) * 2, ("stencil", "dense")]),
       seed=st.integers(0, 2**32 - 1))
def test_a_stack_takes_each_draws_bits(dims, scalar_kind, symmetry,
                                       structures, seed):
    # odd sizes put every other row of a real stack 8 bytes off alignment
    space = grid_space(dims, (0.5, 2.0, 1.5)[:len(dims)], scalar_kind,
                       symmetry)
    rng = np.random.default_rng(seed)
    s = 5
    left, right = ([_random_operator(space, kind, rng.choice([0.3, 1.0]), rng)
                    for _ in range(s)] for kind in structures)
    a, b = stack_operators(left), stack_operators(right)
    assert _hexes(operator_residual(a, b)) == _hexes(
        [operator_residual(x, y) for x, y in zip(left, right)])
    assert _hexes(frobenius(a)) == _hexes([frobenius(x) for x in left])
    for got, each in ((sym_part(a), map(sym_part, left)),
                      (adjoint_wrt_pairing(a), map(adjoint_wrt_pairing, left)),
                      (subtract(a, b), map(subtract, left, right)),
                      (compose(a, b), map(compose, left, right))):
        for draw, one in zip(got, each):
            assert np.array_equal(draw.body, one.body)
    fields = np.stack([sample_field(space, rng) for _ in range(s)])
    assert np.array_equal(lagrangian_value(a, fields),
                          lagrangian_value(left, fields))
    scalars = rng.standard_normal(s).astype(space.dtype)
    scalars[1] = a[1].body.flat[0] if structures[0] == "stencil" else 0.0
    per_row = rng.standard_normal((s, space.dim)).astype(space.dtype)
    for entries, each in ((scalars[:, None], scalars.tolist()),
                          (per_row, list(per_row))):
        assert _hexes(distance_to_diagonal(a, entries)) == _hexes(
            [distance_to_diagonal(x, e) for x, e in zip(left, each)])
        rows = scale_rows(entries, left[0])
        carrier = (CentralizerDiagonal(np.eye(space.dim))
                   if scalar_kind == "real" else BooleanComplex(space.dim))
        for draw, e in zip(rows, each):
            one = (scale(e, left[0]) if np.ndim(e) == 0 else
                   carrier.act(e, left[0]))
            assert (draw.structure, draw.body.dtype) == (one.structure,
                                                         one.body.dtype)
            assert np.array_equal(draw.body, one.body)


@pytest.mark.parametrize("structure", ["stencil", "diagonal", "dense"])
def test_a_one_draw_stack_broadcasts_and_other_counts_must_agree(structure):
    space = grid_space((6, 6))
    rng = np.random.default_rng(4)
    single, *ops = [_random_operator(space, structure, 0.3, rng)
                    for _ in range(4)]
    one, three = stack_operators([single]), stack_operators(ops)
    for fn in (compose, add, subtract):
        for a, b, each in ((one, three, [(single, op) for op in ops]),
                           (three, one, [(op, single) for op in ops])):
            got = fn(a, b)
            assert len(got) == 3
            for draw, (x, y) in zip(got, each):
                assert np.array_equal(draw.body, fn(x, y).body)
        with pytest.raises(SpaceMismatch):
            fn(stack_operators(ops[:2]), three)


@pytest.mark.parametrize("structure,shape", [
    ("stencil", (5, 7)), ("stencil", (9,)), ("stencil", (3, 5, 3)),
    ("diagonal", (7,)), ("diagonal", (33,)), ("dense", (5,)),
    ("dense", (21,))])
@pytest.mark.parametrize("scalar_kind,symmetry", [
    ("real", "symmetric"), ("complex", "symmetric"), ("complex", "hermitian")])
def test_single_operators_keep_the_bits_of_plain_numpy(structure, shape,
                                                      scalar_kind, symmetry):
    # the references are the arithmetic one operator's grid-shaped body
    # takes in numpy: whatever path the algebra runs, these values stay,
    # and a norm its bits (a zero off a stencil's support may lose its sign)
    space = grid_space(shape, (0.5, 2.0, 1.5)[:len(shape)], scalar_kind,
                       symmetry)
    rng = np.random.default_rng(sum(shape))
    ops = [_random_operator(space, structure, density, rng)
           for density in (0.3, 1.0, 0.3)]
    c = complex(rng.standard_normal(), rng.standard_normal()) \
        if scalar_kind == "complex" else float(rng.standard_normal())
    factor = math.sqrt(space.dim) if structure == "stencil" else 1.0
    for a, b in itertools.pairwise(ops):
        for got, want in ((add(a, b), a.body + b.body),
                          (subtract(a, b), a.body - b.body),
                          (scale(c, a), c * a.body)):
            assert got.structure == structure
            assert got.body.dtype == want.dtype
            assert np.array_equal(got.body, want)
        star = {"stencil": operator_core.reflect,
                "diagonal": lambda body: body,
                "dense": np.transpose}[structure](a.body)
        if symmetry == "hermitian":
            star = star.conj()
        assert np.array_equal(adjoint_wrt_pairing(a).body, star)
        assert np.array_equal(compose(a, b).body, {
            "stencil": operator_core._convolve, "diagonal": np.multiply,
            "dense": np.matmul}[structure](a.body, b.body))
        for x in (a, add(a, b), scale(c, a), sym_part(a)):
            norm = factor * float(np.linalg.norm(x.body))
            assert type(frobenius(x)) is float
            assert frobenius(x).hex() == norm.hex()


# --- the per-call paths: one roll, derived stacks ---------------------------


@pytest.mark.parametrize("dims", [(7,), (6, 10), (4, 5, 3)])
@pytest.mark.parametrize("leading", [(), (3,)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_roll_is_numpys_roll_bit_for_bit(dims, leading, kind):
    rng = np.random.default_rng(len(dims) + len(leading))
    a = rng.standard_normal(leading + dims)
    if kind == "complex":
        a = a + 1j * rng.standard_normal(leading + dims)
    axes = tuple(range(len(leading), a.ndim))
    offsets = {tuple(0 for _ in dims), tuple(1 for _ in dims),
               tuple(n - 1 for n in dims), tuple(-1 for _ in dims),
               tuple(-n - 2 for n in dims), tuple(range(len(dims))),
               tuple(-k for k in range(len(dims)))}
    for offset in sorted(offsets):
        got = operator_core._roll(a, offset)
        want = np.roll(a, offset, axis=axes)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), offset
        assert not np.shares_memory(got, a)
    # the slabs are kept per grid shape and offset, whatever leads
    assert operator_core._roll(a[:1], offset).tobytes() \
        == np.roll(a[:1], offset, axis=axes).tobytes()


def _derived_cases(space, structure, rng):
    """``(a, b, cases)``: a stack ``a`` of three draws of ``structure``, one
    operator ``b`` (a stencil on another support) and ``(name, stack)`` for
    each stack the algebra derives from them."""
    c = (0.5 - 1.5j) if space.scalar_kind == "complex" else -1.5
    if structure == "stencil":
        # supports of 9, 3 and 3 offsets, the last apart from the others
        a = stack_operators([
            make_discrete_operator(space, "box", eta=SKEW_ETA),
            scale(c, make_discrete_operator(space, "shift", axis=0, step=2)),
            make_discrete_operator(space, "box", eta=SKEW_ETA)])
        b = make_discrete_operator(space, "shift", axis=1, step=3)
    else:
        a = stack_operators([_random_operator(space, structure, 0.3, rng)
                             for _ in range(3)])
        b = _random_operator(space, structure, 0.6, rng)
    s = len(a)
    cases = [("scale", scale(c, a)),
             ("scale_rows", scale_rows(rng.standard_normal((s, 1)), a)),
             ("adjoint_wrt_pairing", adjoint_wrt_pairing(a)),
             ("sym_part", sym_part(a)),
             ("add", add(a, b)), ("subtract", subtract(b, a)),
             ("draw", a[1].stack)]
    if structure == "diagonal":
        cases += [("scale_rows per row", scale_rows(
                      rng.standard_normal((s, space.dim)), a)),
                  ("compose", compose(a, b))]
    return a, b, cases


@pytest.mark.parametrize("structure", ["stencil", "diagonal", "dense"])
@pytest.mark.parametrize("scalar_kind,symmetry", [
    ("real", "symmetric"), ("complex", "hermitian")])
def test_derived_stacks_pass_the_public_validation(structure, scalar_kind,
                                                   symmetry):
    space = grid_space((6, 10), (0.5, 2.0), scalar_kind, symmetry)
    rng = np.random.default_rng(12)
    a, b, cases = _derived_cases(space, structure, rng)
    if structure == "stencil":
        assert [len(x.support.offsets) for x in (a, b, add(a, b))] \
            == [11, 3, 13]
    for name, x in cases:
        checked = OperatorStack(x.body, x.space, x.structure, x.support)
        assert (checked.structure, checked.support) == (structure,
                                                        x.support), name
        assert np.array_equal(checked.body, x.body), name


@pytest.mark.parametrize("structure", ["stencil", "diagonal", "dense"])
def test_a_derived_body_of_the_wrong_shape_is_refused(structure):
    space = grid_space((6, 10), (0.5, 2.0))
    a, _, _ = _derived_cases(space, structure, np.random.default_rng(13))
    with pytest.raises(BadSpec, match="operands need"):
        a._derive(a.body[:, :-1])
    with pytest.raises(BadSpec, match="operands need"):
        a._derive(a.body[0])
    # a factor that broadcasts past one draw's body is refused, not kept
    with pytest.raises(BadSpec, match="operands need"):
        scale(np.ones((2,) + a.body.shape), a)
    if structure == "stencil":
        wide = operator_core._support((6, 10), None)
        with pytest.raises(BadSpec, match="operands need"):
            a._derive(a.body, wide)
        assert a._derive(a.entries_on(wide), wide).support is wide


#: the norms of odd-length real rows of a stack, each against a fresh copy
ALIGNMENT_SCRIPT = """
import numpy as np
from emergence import Operator, plain_space
from emergence.operator_core import frobenius, stack_operators
rng = np.random.default_rng(3)
for n in (3, 7, 21, 33, 101):
    ops = [Operator(rng.standard_normal(n), plain_space(n), "diagonal")
           for _ in range(6)]
    got = frobenius(stack_operators(ops)).tolist()
    assert got == [frobenius(Operator(op.body.copy(), op.space, "diagonal"))
                   for op in ops], n
"""


def test_stack_norms_keep_their_bits_where_a_kernel_reads_alignment():
    # OpenBLAS's SSE3 dot product sums a row that starts 8 bytes off a
    # 16-byte boundary in another order; every other row of an odd-length
    # real stack would start there
    import emergence
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=str(
        Path(emergence.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", ALIGNMENT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


#: a metric with an off-diagonal term: its box is a nine-point stencil
SKEW_ETA = ((2.0, 0.3), (0.3, 1.0))


def _as_stored(op, storage):
    """``op`` as a stack of one: on its support, as the full grid's stencil,
    or as its dense matrix."""
    if storage == "support":
        return op
    if storage == "full":
        return OperatorStack(op.body.reshape(1, -1), op.space, "stencil",
                             operator_core._support(op.body.shape, None))
    return OperatorStack(op.matrix[None], op.space)


def _stack_chain(box, shift, a_scales, b_scales):
    """Every stack function, on the draws of ``box`` and of ``shift``."""
    a, b = scale_rows(a_scales, box), scale_rows(b_scales, shift)
    total = add(a, b)
    return [a, b, total, subtract(a, b), adjoint_wrt_pairing(total),
            sym_part(total), sym_part(subtract(a, b)), compose(total, b)]


@pytest.mark.parametrize("scalar_kind,symmetry", [
    ("real", "symmetric"), ("complex", "symmetric"), ("complex", "hermitian")])
def test_support_stacks_agree_with_full_grid_and_dense_stacks(scalar_kind,
                                                              symmetry):
    space = grid_space((6, 10), (0.5, 2.0), scalar_kind, symmetry)
    rng = np.random.default_rng(4)
    s = 7

    def draws(shape):
        out = rng.standard_normal(shape)
        if scalar_kind == "complex":
            out = out + 1j * rng.standard_normal(shape)
        return out.astype(space.dtype)

    box = make_discrete_operator(space, "box", eta=SKEW_ETA)
    # two steps along axis 0: a support with zeros at the origin and at +2
    shift = make_discrete_operator(space, "shift", axis=0, step=2)
    assert (len(box.support.offsets), len(shift.support.offsets)) == (9, 3)
    a_scales, b_scales, fields = draws((s, 1)), draws((s, 1)), draws(
        (s, space.dim))
    chains = {storage: _stack_chain(_as_stored(box, storage),
                                    _as_stored(shift, storage),
                                    a_scales, b_scales)
              for storage in ("support", "full", "dense")}
    support, full, dense = chains.values()
    assert [x.body.shape[1] for x in support[:4]] == [9, 3, 11, 11]
    # a composition is stacked from each draw's operator, on its support
    assert all(x.support.full for x in full[:-1])
    for x, f, d in zip(support, full, dense):
        # the same entries; a composition's dense products round otherwise
        assert np.array_equal(x.matrix, f.matrix)
        for got, want in zip(x, f):
            assert np.array_equal(got.body, want.body)
        if x is support[-1]:
            _agree(x.matrix, d.body)
        else:
            assert np.array_equal(x.matrix, d.body)
        # norms and coordinates are taken in grid order: the full-grid
        # stack's bits, and the dense stack's up to rounding
        assert _hexes(frobenius(x)) == _hexes(frobenius(f))
        _agree(frobenius(x), frobenius(d))
        assert np.array_equal(frobenius_coordinates(x),
                              frobenius_coordinates(f))
        diagonal = x.body[:, :1].copy()
        diagonal[::2] += 0.5
        for entries in (diagonal, fields):
            assert _hexes(distance_to_diagonal(x, entries)) \
                == _hexes(distance_to_diagonal(f, entries))
            _agree(distance_to_diagonal(x, entries),
                   distance_to_diagonal(d, entries))
        assert _hexes(lagrangian_value(x, fields)) \
            == _hexes(lagrangian_value(f, fields))
        _agree(lagrangian_value(x, fields), lagrangian_value(d, fields))
    # the orbit solve reads entry 0 of a support as the grid's origin
    algebra = RealScalars() if scalar_kind == "real" else ComplexScalars()
    ident = identity_operator(space)
    got = [solve_action_on_identity(algebra, scale_rows(
        a_scales, _as_stored(ident, storage))).values
        for storage in ("support", "full", "dense")]
    assert _hexes(got[0]) == _hexes(got[1]) == _hexes(got[2])
    # an infinite draw: on the full grid 0 * inf fills it with NaN; its
    # support holds only infinite real entries, so its residual is inf (a
    # complex product with inf has a NaN part on the support too)
    a_scales[2] = math.inf
    with np.errstate(invalid="ignore"):
        norms = [frobenius(_stack_chain(_as_stored(box, storage),
                                        _as_stored(shift, storage),
                                        a_scales, b_scales)[6])
                 for storage in ("support", "full")]
    assert math.isnan(norms[1][2])
    assert (math.isinf if scalar_kind == "real" else math.isnan)(norms[0][2])
    assert _hexes(np.delete(norms[0], 2)) == _hexes(np.delete(norms[1], 2))


@settings(max_examples=40, deadline=None)
@given(dims=st.sampled_from([(8, 8), (6, 10), (64,), (4, 4, 6)]),
       scalar_kind=st.sampled_from(["real", "complex"]),
       symmetry=st.sampled_from(["symmetric", "hermitian"]),
       structures=st.sampled_from([
           ("stencil",) * 5, ("diagonal",) * 3, ("dense",) * 3,
           ("stencil", "zero", "stencil"),
           ("stencil", "diagonal", "dense", "stencil")]),
       seed=st.integers(0, 2**32 - 1))
def test_block_lagrangian_agrees_with_each_fields_dense_pairing(
        dims, scalar_kind, symmetry, structures, seed):
    spacing = (0.5, 2.0, 1.5)[:len(dims)]
    space = grid_space(dims, spacing, scalar_kind, symmetry)
    rng = np.random.default_rng(seed)
    # each operator its own density, so stencil supports differ; "zero" is
    # the all-zero stencil, whose support is empty
    ops = [zero_operator(space) if s == "zero" else
           _random_operator(space, s, rng.choice([0.05, 0.3, 1.0]), rng)
           for s in structures]
    fields = np.stack([sample_field(space, rng) for _ in ops])
    got = lagrangian_value(ops, fields)
    alone = [lagrangian_value(op, phi) for op, phi in zip(ops, fields)]
    for op, phi, value in zip(ops, fields, got):
        left = phi.conj() if symmetry == "hermitian" else phi
        _agree(value, space.pairing.weight * (left @ op.matrix @ phi))
    if len({op.structure for op in ops}) == 1:
        # a zero from another field's stencil support adds an exact 0 * y
        assert np.array_equal(got, alone)
    assert np.array_equal(lagrangian_value(ops[:1], fields[:1]), alone[:1])
    shared = lagrangian_value(ops[0], fields)
    for phi, value in zip(fields, shared):
        assert value == lagrangian_value(ops[0], phi)


@pytest.mark.parametrize("scalar_kind", ["real", "complex"])
def test_a_nan_field_is_nan_under_every_operator(rng, scalar_kind):
    space = grid_space((6, 10), scalar_kind=scalar_kind)
    ops = [zero_operator(space), identity_operator(space),
           central_difference(space, 1),
           make_discrete_operator(space, "box"),
           diagonal_operator(space, np.zeros(space.dim)),
           Operator(np.zeros((space.dim, space.dim)), space)]
    fields = np.stack([sample_field(space, rng) for _ in range(4)])
    fields[2, 17] = np.nan
    # each operator shared by the block, then one stencil per field
    for block in [[op] for op in ops] + [ops[:4]]:
        values = lagrangian_value(block, fields)
        assert np.isnan(values[2])
        assert np.isfinite(np.delete(values, 2)).all()


# --- field blocks ----------------------------------------------------------------


def _block_calls(space, rng):
    """Operator lists to evaluate on one block of 5 fields: shared and
    per-field stencils with different supports, diagonals, dense and mixed
    lists, and the all-zero stencil."""
    def op(structure, density):
        return _random_operator(space, structure, density, rng)

    return [
        [op("stencil", 0.05)],
        [op("stencil", 0.3) for _ in range(5)],
        [identity_operator(space)],
        [make_discrete_operator(space, "box")],
        [zero_operator(space)],
        [op("stencil", 1.0)],
        [op("diagonal", 0.5)],
        [op("diagonal", 1.0) for _ in range(5)],
        [op("dense", 0.3)],
        [op("stencil", 0.3), op("diagonal", 1.0), op("dense", 0.05),
         zero_operator(space), op("stencil", 0.05)],
    ]


@pytest.mark.parametrize("dims", [(64,), (6, 10), (4, 4, 6)])
@pytest.mark.parametrize("scalar_kind", ["real", "complex"])
@pytest.mark.parametrize("symmetry", ["symmetric", "hermitian"])
def test_a_shared_block_gives_the_bits_of_a_fresh_array(dims, scalar_kind,
                                                        symmetry):
    spacing = (0.5, 2.0, 1.5)[:len(dims)]
    space = grid_space(dims, spacing, scalar_kind, symmetry)
    rng = np.random.default_rng(31)
    calls = _block_calls(space, rng)
    fields = np.stack([sample_field(space, rng) for _ in range(5)])
    fresh = [lagrangian_value(ops, fields) for ops in calls]
    # each call order fills the correlations in a different order
    for order in (range(len(calls)), reversed(range(len(calls))),
                  rng.permutation(len(calls)), [5, 5, 0, 1, 0, 9, 1]):
        block = FieldBlock(fields, space)
        for i in order:
            assert np.array_equal(lagrangian_value(calls[i], block), fresh[i])


@pytest.mark.parametrize("scalar_kind", ["real", "complex"])
def test_a_nan_field_stays_nan_after_other_calls_fill_the_block(rng,
                                                                scalar_kind):
    space = grid_space((6, 10), scalar_kind=scalar_kind)
    fields = np.stack([sample_field(space, rng) for _ in range(4)])
    fields[2, 17] = np.nan
    block = FieldBlock(fields, space)
    for op in (make_discrete_operator(space, "box"),
               central_difference(space, 1)):
        lagrangian_value(op, block)
    values = lagrangian_value(zero_operator(space), block)
    assert np.isnan(values[2])
    assert np.array_equal(np.delete(values, 2), np.zeros(3))


def test_a_block_from_another_space_is_refused(rng):
    space = grid_space((6, 10))
    fields = np.stack([sample_field(space, rng) for _ in range(3)])
    box = make_discrete_operator(space, "box")
    for other in (grid_space((10, 6)), grid_space((6, 10), spacing=(2.0, 1.0)),
                  grid_space((6, 10), symmetry="hermitian"), plain_space(60)):
        with pytest.raises(SpaceMismatch):
            lagrangian_value(box, FieldBlock(fields, other))
    for bad in (fields[:, :-1], fields[0], fields[None]):
        with pytest.raises(SpaceMismatch):
            FieldBlock(bad, space)
    with pytest.raises(SpaceMismatch):
        lagrangian_value([box] * 2, FieldBlock(fields, space))


def test_a_plain_array_reuses_no_correlation(rng, monkeypatch):
    space = grid_space((6, 10))
    fields = np.stack([sample_field(space, rng) for _ in range(3)])
    box = make_discrete_operator(space, "box")
    computed = []
    correlate = FieldBlock._correlate

    def counted(self, offset):
        computed.append(offset)
        return correlate(self, offset)

    monkeypatch.setattr(FieldBlock, "_correlate", counted)
    support = np.count_nonzero(box.body)
    lagrangian_value(box, fields)
    lagrangian_value(box, fields)
    assert len(computed) == 2 * support
    block = FieldBlock(fields, space)
    lagrangian_value(box, block)
    lagrangian_value(scale(2.0, box), block)
    assert len(computed) == 3 * support
    assert block.fields.flags.writeable is False


# --- distance to a diagonal ------------------------------------------------------


@pytest.mark.parametrize("body_kind", ["real", "complex"])
def test_diagonal_distance_matches_the_operator_composition(body_kind):
    n = 12
    rng = np.random.default_rng(41)
    space = plain_space(n, body_kind)
    body = sample_field(space, rng)
    site_real = rng.standard_normal(n)
    site_complex = site_real + 1j * rng.standard_normal(n)
    entries = [0.0, 1.5, -2.25j + 0.5, np.float64(0.75), math.nan, math.inf,
               -math.inf, complex(math.inf, 1.0), site_real, site_complex]
    for bad in (math.nan, math.inf, -math.inf):
        for site in (site_real, site_complex):
            spoiled = site.copy()
            spoiled[4] = bad
            entries.append(spoiled)
    targets = [diagonal_operator(space, body),
               diagonal_operator(space, np.where(np.arange(n) == 7, math.inf,
                                                 body))]
    for a in targets:
        for e in entries:
            with np.errstate(invalid="ignore", over="ignore"):
                got = distance_to_diagonal(a, e)
                want = frobenius(subtract(a, diagonal_operator(
                    space, np.broadcast_to(e, (n,)))))
            assert np.array_equal(got, want, equal_nan=True), e
