"""Operator layer: stencils, circulance, pairings, right inverses."""

from __future__ import annotations

import math

import numpy as np
import pytest

from emergence import (BadSpec, NotRightInvertible, Operator, SpaceMismatch,
                       add, adjoint_wrt_pairing, compose, grid_space,
                       identity_operator, lagrangian_value,
                       make_discrete_operator, operator_residual, plain_space,
                       right_inverse, scale, sym_part, zero_operator)
from emergence.operator_core import (PairingForm, circulant,
                                     circulant_symbol, frobenius,
                                     is_idempotent_power, plane_wave, power)

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
    symbol = circulant_symbol(shift)
    for op, expected in ((scale(2.5, shift), 2.5 * symbol),
                         (compose(shift, shift), symbol * symbol),
                         (add(shift, identity_operator(line8)), symbol + 1.0),
                         (Operator(shift.matrix.copy(), line8), symbol)):
        assert np.allclose(circulant_symbol(op), expected, atol=1e-12)
    for op in (dense, add(shift, dense), compose(shift, dense)):
        with pytest.raises(BadSpec):
            circulant_symbol(op)


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


def test_lagrangian_checks_field_dimension(line8):
    with pytest.raises(SpaceMismatch):
        lagrangian_value(identity_operator(line8), np.zeros(5))


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


def test_spectral_route_needs_tags_and_geometry(flat4, line8):
    dense = Operator(np.eye(4), flat4)
    with pytest.raises(BadSpec):
        circulant_symbol(dense)
    # circulance is read from the entries: a varying diagonal is not
    not_circulant = Operator(np.diag(np.arange(1.0, 9.0)), line8)
    with pytest.raises(BadSpec):
        circulant_symbol(not_circulant)


def test_hand_built_circulant_takes_the_spectral_route(line8):
    # a copied matrix keeps no provenance; the refusal still names the
    # vanishing frequency
    box = make_discrete_operator(line8, "box")
    with pytest.raises(NotRightInvertible) as info:
        right_inverse(Operator(box.matrix.copy(), line8))
    assert info.value.frequency == (0,)


def test_zero_operator_annihilates(line8, rng):
    z = zero_operator(line8)
    phi = line8.sample_field(rng)
    assert lagrangian_value(z, phi) == 0.0
