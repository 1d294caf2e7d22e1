"""Operator layer: stencils, circulance, pairings, right inverses."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emergence import (BadSpec, BooleanComplex, ComplexScalars,
                       NotRightInvertible, Operator, RealScalars,
                       SpaceMismatch, add, adjoint_wrt_pairing, compose,
                       grid_space, identity_operator, lagrangian_value,
                       make_discrete_operator, operator_residual, plain_space,
                       right_inverse, scale, sym_part, zero_operator)
from emergence.operator_core import (FieldBlock, PairingForm, circulant,
                                     diagonal_operator,
                                     distance_to_diagonal, frobenius,
                                     frobenius_coordinates,
                                     is_idempotent_power, plane_wave, power,
                                     subtract)

# --- spaces -----------------------------------------------------------------


def test_grid_space_rejects_degenerate_axes():
    with pytest.raises(BadSpec):
        grid_space((1,))
    with pytest.raises(BadSpec):
        grid_space((8,), spacing=(0.0,))
    with pytest.raises(BadSpec):
        grid_space(())


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


def test_central_difference_row(line4):
    # (phi_{i+1} - phi_{i-1}) / 2h with h = 1: row 0 is (0, 1/2, 0, -1/2)
    d = make_discrete_operator(line4, "partial", axis=0, scheme="central")
    assert d.matrix[0].tolist() == [0.0, 0.5, 0.0, -0.5]


def test_central_difference_squares_to_wide_stencil(line8):
    d = make_discrete_operator(line8, "partial", axis=0, scheme="central")
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
    d0 = make_discrete_operator(torus8, "partial", axis=0, scheme="central")
    d1 = make_discrete_operator(torus8, "partial", axis=1, scheme="central")
    assert np.array_equal(mixed.matrix, d0.matrix @ d1.matrix)


def _shift_oracle(geometry, axis, step):
    # the permutation matrix of phi(x) -> phi(x + step e_axis), row by row
    n = geometry.size
    cols = np.roll(np.arange(n).reshape(geometry.dims), -step, axis=axis)
    m = np.zeros((n, n))
    m[np.arange(n), cols.ravel()] = 1.0
    return m


def _stencil_oracles(space, eta):
    """Every builder kind rebuilt from shift matrices: (kind, params, M)."""
    g = space.geometry
    d = len(g.dims)
    eye = np.eye(g.size)

    def partial(axis, scheme):
        h = g.spacing[axis]
        if scheme == "central":
            return (_shift_oracle(g, axis, 1)
                    - _shift_oracle(g, axis, -1)) / (2.0 * h)
        return (_shift_oracle(g, axis, 1) - eye) / h

    def second(mu, nu):
        if mu != nu:
            return partial(mu, "central") @ partial(nu, "central")
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
        for scheme in ("central", "forward"):
            oracles.append(("partial", {"axis": axis, "scheme": scheme},
                            partial(axis, scheme)))
    for mu in range(d):
        for nu in range(d):
            for kind in ("second_partial", "d1_basis"):
                oracles.append((kind, {"mu": mu, "nu": nu}, second(mu, nu)))
    if d == 2:
        oracles.append(("box", {"eta": eta}, box(eta)))
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
        oracles.append(("d2_background", {"field_strength": 0.7, "eta": eta},
                        out))
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
        built = make_discrete_operator(space, kind, **params)
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


def test_antisymmetric_background_equals_minus_box(torus8):
    # with the flat metric and unit field strength the trace-adjusted
    # background collapses onto the negated laplacian, exactly
    d2 = make_discrete_operator(torus8, "d2_background", field_strength=1.0,
                                eta=np.eye(2))
    box = make_discrete_operator(torus8, "box", eta=np.eye(2))
    assert np.array_equal(d2.matrix, -box.matrix)


def test_background_metric_must_be_positive_definite(torus8):
    with pytest.raises(BadSpec):
        make_discrete_operator(torus8, "d2_background", field_strength=1.0,
                               eta=np.diag([1.0, -1.0]))


def test_unknown_kind_and_stray_parameters_rejected(line8):
    with pytest.raises(BadSpec):
        make_discrete_operator(line8, "laplace_beltrami")
    with pytest.raises(BadSpec):
        make_discrete_operator(line8, "shift", axis=0, extra=1)
    with pytest.raises(BadSpec):
        make_discrete_operator(line8, "partial", axis=3)


# --- pairing, adjoints, quadratic forms ---------------------------------------


def test_adjoint_identity_under_quadrature_pairing(rng):
    space = grid_space((6,), spacing=(0.5,))
    a = Operator(rng.standard_normal((6, 6)), space)
    phi = space.sample_field(rng)
    psi = space.sample_field(rng)
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
        phi = line8.sample_field(rng)
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
    phi = space.sample_field(rng)
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
    phi = line8.sample_field(rng)
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
@given(dims=st.sampled_from([(8, 8), (16, 16), (64,)]),
       scalar_kind=st.sampled_from(["real", "complex"]),
       symmetry=st.sampled_from(["symmetric", "hermitian"]),
       structures=st.tuples(*[st.sampled_from(["stencil", "diagonal"])] * 2),
       density=st.sampled_from([0.02, 0.3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_structured_algebra_agrees_with_the_dense_oracle(
        dims, scalar_kind, symmetry, structures, density, seed):
    spacing = (0.5, 2.0)[:len(dims)]
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
    phi = space.sample_field(rng)
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
    fields = np.stack([space.sample_field(rng) for _ in ops])
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
           make_discrete_operator(space, "partial", axis=1),
           make_discrete_operator(space, "box"),
           diagonal_operator(space, np.zeros(space.dim)),
           Operator(np.zeros((space.dim, space.dim)), space)]
    fields = np.stack([space.sample_field(rng) for _ in range(4)])
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
    fields = np.stack([space.sample_field(rng) for _ in range(5)])
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
    fields = np.stack([space.sample_field(rng) for _ in range(4)])
    fields[2, 17] = np.nan
    block = FieldBlock(fields, space)
    for op in (make_discrete_operator(space, "box"),
               make_discrete_operator(space, "partial", axis=1)):
        lagrangian_value(op, block)
    values = lagrangian_value(zero_operator(space), block)
    assert np.isnan(values[2])
    assert np.array_equal(np.delete(values, 2), np.zeros(3))


def test_a_block_from_another_space_is_refused(rng):
    space = grid_space((6, 10))
    fields = np.stack([space.sample_field(rng) for _ in range(3)])
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
    fields = np.stack([space.sample_field(rng) for _ in range(3)])
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
    body = space.sample_field(rng)
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
