"""Operator layer: stencils, pairings, right inverses, payload round trips."""

from __future__ import annotations

import math

import numpy as np
import pytest

from emergence import (BadSpec, NotRightInvertible, Operator, SpaceMismatch,
                       add, adjoint_wrt_pairing, compose, grid_space,
                       identity_operator, lagrangian_value,
                       make_discrete_operator, operator_residual, plain_space,
                       right_inverse, scale, sym_part, zero_operator)
from emergence.operator_core import (PairingForm, circulant_symbol,
                                     frobenius, is_idempotent_power,
                                     operator_from_payload,
                                     operator_to_payload, plane_wave, power)

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


# --- arithmetic and tags -----------------------------------------------------


def test_circulant_tag_propagation(line8):
    shift = make_discrete_operator(line8, "shift", axis=0)
    dense = Operator(np.arange(64.0).reshape(8, 8), line8)
    assert "circulant" in compose(shift, shift).tags
    assert "circulant" in add(shift, identity_operator(line8)).tags
    assert "circulant" in scale(2.5, shift).tags
    assert "circulant" not in add(shift, dense).tags
    assert "circulant" not in compose(shift, dense).tags


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
    assert "circulant" in r.tags


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
    untagged = Operator(np.eye(8), line8)
    with pytest.raises(BadSpec):
        circulant_symbol(untagged)


# --- payload round trips ---------------------------------------------------------


@pytest.mark.parametrize("kind,params", [
    ("shift", {"axis": 0, "step": 2}),
    ("partial", {"axis": 0, "scheme": "central"}),
    ("second_partial", {"mu": 0, "nu": 0}),
    ("box", {}),
    ("d1_basis", {"mu": 0, "nu": 1}),
])
def test_builder_payload_round_trip(kind, params):
    space = grid_space((4, 4)) if kind == "d1_basis" else grid_space((8,))
    op = make_discrete_operator(space, kind, **params)
    back = operator_from_payload(space, operator_to_payload(op))
    assert np.array_equal(op.matrix, back.matrix)
    assert op.tags == back.tags


def test_dense_payload_round_trip(flat4, rng):
    a = Operator(rng.standard_normal((4, 4)), flat4)
    back = operator_from_payload(flat4, operator_to_payload(a))
    assert np.array_equal(a.matrix, back.matrix)


def test_projection_payload_is_dense(rng):
    space = grid_space((8,), scalar_kind="complex")
    proj = make_discrete_operator(space, "projection",
                                  basis=[plane_wave(space, (1,))])
    payload = operator_to_payload(proj)
    assert payload["kind"] == "constant"
    back = operator_from_payload(space, payload)
    assert np.allclose(back.matrix, proj.matrix)


def test_zero_operator_annihilates(line8, rng):
    z = zero_operator(line8)
    phi = line8.sample_field(rng)
    assert lagrangian_value(z, phi) == 0.0
