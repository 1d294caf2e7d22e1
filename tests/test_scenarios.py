"""Shipped scenario runners: round trips, refusals, reproducibility."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math

import numpy as np
import pytest

from emergence import (BadSpec, BooleanComplex, HypothesisViolated,
                       InfeasibleTarget, NotScalarForm, Operator, ScenarioSpec,
                       build_gravity_background, run_scenario_spec, sym_part)
from emergence import engine, operator_core, scenarios
from emergence.scenarios import (check_feasible,
                                 feasible_metric_perturbation,
                                 gravity_operator,
                                 noncommutativity_coefficient,
                                 run_boolean_scenario,
                                 run_gravity_from_noncommutativity,
                                 run_idempotent_instance,
                                 run_noncommutativity_from_gravity)
from emergence.schema import _schema


def gravity_spec(**overrides):
    base = dict(name="gravity_from_noncommutativity", grid=(8, 8),
                theta_values=(0.1, 0.5), samples=10, seed=3)
    base.update(overrides)
    return ScenarioSpec(**base)


# --- background construction -------------------------------------------------------


def test_background_needs_a_two_dimensional_grid():
    with pytest.raises(BadSpec):
        build_gravity_background((8,))
    with pytest.raises(BadSpec):
        build_gravity_background((4, 4, 4))


def test_flat_background_is_minus_the_laplacian():
    background = build_gravity_background((8, 8))
    assert np.array_equal(background["d2"].matrix,
                          -background["box_eta"].matrix)


def test_the_regulated_surrogate_solves_one_right_inverse(monkeypatch):
    # its first slot appears only in the constant term, the offset: only
    # the second, -f box_m, is transported
    solved = []

    def counting(op, tol):
        solved.append(op)
        return operator_core.right_inverse(op, tol)

    monkeypatch.setattr("emergence.theories.right_inverse", counting)
    spec = gravity_spec(field_strength=0.5)
    assert run_gravity_from_noncommutativity(spec).passed
    box_m = build_gravity_background(spec.grid, mass=spec.mass)["box_m"]
    assert len(solved) == 1
    assert np.array_equal(solved[0].matrix, -0.5 * box_m.matrix)


def test_massless_background_is_permitted():
    background = build_gravity_background((8, 8), mass=0.0)
    assert np.array_equal(background["box_m"].matrix,
                          -background["box_eta"].matrix)


def test_every_positive_mass_is_right_invertible():
    from emergence import compose, identity_operator, operator_residual, \
        right_inverse
    for mass in (0.5, 1.0, 2.0):
        background = build_gravity_background((8, 8), mass=mass)
        box_m = background["box_m"]
        assert operator_residual(
            compose(box_m, right_inverse(box_m)),
            identity_operator(background["space"])) <= 1e-10


# --- feasibility ---------------------------------------------------------------------


def test_feasible_perturbation_is_the_isotropic_ray():
    background = build_gravity_background((8, 8))
    h, gap = feasible_metric_perturbation(background, 0.7)
    assert gap <= 1e-10
    assert h == pytest.approx((-0.7, 0.0, -0.7), abs=1e-10)


def test_constructed_rays_always_pass_the_feasibility_check():
    background = build_gravity_background((8, 8), field_strength=1.3)
    for theta in (0.1, 0.5, 1.0):
        h, _ = feasible_metric_perturbation(background, theta)
        recovered, gap = check_feasible(background, h)
        assert recovered == pytest.approx(theta, abs=1e-8)
        assert gap <= 1e-10


def test_a_background_builds_each_operator_once(monkeypatch):
    kinds = []
    build = scenarios.make_discrete_operator

    def counted(space, kind, **params):
        kinds.append(kind)
        return build(space, kind, **params)

    monkeypatch.setattr(scenarios, "make_discrete_operator", counted)
    eta = ((1.3, 0.4), (0.4, 0.9))
    background = build_gravity_background((6, 10), eta, 1.3, 0.7)
    assert kinds == ["box", *["second_partial"] * 3]
    assert np.array_equal(background["eta_up"], np.linalg.inv(eta))
    d1, space = background["d1"], background["space"]
    assert sorted(d1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # d_1 d_0 is d_0 d_1 bit for bit, so one operator serves both, and the
    # columns and h . D1 keep the bits of a second build
    d10 = build(space, "second_partial", mu=1, nu=0)
    assert np.array_equal(d10.matrix, d1[(0, 1)].matrix)
    columns = (d1[(0, 0)], operator_core.add(d1[(0, 1)], d10), d1[(1, 1)])
    for built, fresh in zip(background["columns"], columns):
        assert np.array_equal(built.matrix, fresh.matrix)
    h = (0.3, -0.2, 0.5)
    fresh = operator_core.add(operator_core.add(
        operator_core.scale(h[0], columns[0]),
        operator_core.scale(h[1], columns[1])),
        operator_core.scale(h[2], columns[2]))
    assert np.array_equal(gravity_operator(background, h).matrix,
                          fresh.matrix)


def test_generic_perturbations_are_refused():
    background = build_gravity_background((8, 8))
    with pytest.raises(InfeasibleTarget) as info:
        check_feasible(background, (1.0, 0.5, 0.25))
    assert info.value.gap > 1e-3
    assert "span gap" in str(info.value)


def test_coefficient_recovery_inverts_the_operator_build():
    background = build_gravity_background((8, 8))
    target = gravity_operator(background, (-0.4, 0.0, -0.4))
    theta, gap = noncommutativity_coefficient(background,
                                              (-0.4, 0.0, -0.4))
    assert theta == pytest.approx(0.4, abs=1e-10)
    assert gap <= 1e-10
    assert np.allclose(target.matrix, -0.4 * background["box_eta"].matrix)


def test_a_perturbation_has_exactly_three_entries():
    background = build_gravity_background((8, 8))
    with pytest.raises(BadSpec, match="3 entries, not 4"):
        noncommutativity_coefficient(background, (-0.4, 0.0, -0.4, 99.0))
    with pytest.raises(BadSpec, match="3 entries, not 2"):
        check_feasible(background, (1.0, 0.5))


@pytest.mark.parametrize("field_strength", [1.0, 1e200])
def test_the_fits_write_nothing_into_the_background(field_strength):
    # both plans are built with the background; a fit that passes, or that
    # refuses at its rhs or at a plan's Gram sum, changes no entry of it
    background = build_gravity_background((8, 8),
                                          field_strength=field_strength)
    assert {"feasible_fit", "coupling_fit"} <= set(background)
    before = {key: id(value) for key, value in background.items()}
    for theta, h in ((0.5, (-0.5, 0.0, -0.5)), (1e308, (1e308, 0.0, 1e308))):
        refused = (pytest.raises(HypothesisViolated)
                   if theta == 1e308 or field_strength == 1e200
                   else contextlib.nullcontext())
        for fit, coupling in ((feasible_metric_perturbation, theta),
                              (noncommutativity_coefficient, h)):
            with refused:
                fit(background, coupling)
    assert {key: id(value) for key, value in background.items()} == before


@pytest.mark.parametrize("dims,eta,field_strength", [
    ((24, 24), np.eye(2), 1.0),
    ((6, 10), np.array([[1.3, 0.4], [0.4, 0.9]]), 0.7),
    ((8, 8), np.eye(2), 1e200)], ids=["flat_24x24", "sheared_6x10",
                                      "overflowing_8x8"])
def test_the_feasible_fit_scales_the_stored_symmetric_d2(dims, eta,
                                                         field_strength,
                                                         monkeypatch):
    # the coupling fit's design is sym(D2), bit for bit and on one support,
    # so the feasible fit's rhs scales it and takes no symmetric part
    background = build_gravity_background(dims, eta, field_strength)
    stored, own = background["coupling_fit"][0], sym_part(background["d2"])
    assert np.array_equal(stored.body, own.stack.body, equal_nan=True)
    assert stored.support is own.stack.support
    calls = []
    monkeypatch.setattr(scenarios, "sym_part",
                        lambda op: calls.append(op) or sym_part(op))
    for theta in (0.1, 0.5, 1.0):
        # field strength 1e200 overflows the fit's residual past theta 0.1
        with contextlib.suppress(HypothesisViolated):
            feasible_metric_perturbation(background, theta)
    assert calls == []


def _sym_flat(op):
    return sym_part(op).matrix.ravel()


def _lapack_fits(background, theta, h):
    """The LAPACK least-squares fits the deterministic ones replace, over
    the dense matrices."""
    d1 = background["d1"]
    columns = np.stack([_sym_flat(d1[(0, 0)]),
                        _sym_flat(d1[(0, 1)]) + _sym_flat(d1[(1, 0)]),
                        _sym_flat(d1[(1, 1)])], axis=1)
    rhs = theta * _sym_flat(background["d2"])
    h_fit, *_ = np.linalg.lstsq(columns, rhs, rcond=None)
    build_gap = np.linalg.norm(columns @ h_fit - rhs)
    column = _sym_flat(background["d2"])[:, None]
    rhs = _sym_flat(gravity_operator(background, h))
    x, *_ = np.linalg.lstsq(column, rhs, rcond=None)
    span_gap = np.linalg.norm(column[:, 0] * x[0] - rhs)
    return h_fit, build_gap, x[0], span_gap


@pytest.mark.parametrize("grid,field_strength,eta", [
    ((8, 8), 1.0, ((1.0, 0.0), (0.0, 1.0))),
    ((8, 8), 1.3, ((2.0, 0.5), (0.5, 1.0))),
    ((16, 16), 1.0, ((1.0, 0.0), (0.0, 1.0))),
    ((16, 16), 0.7, ((1.5, -0.3), (-0.3, 0.8))),
    # a 2-site axis makes the mixed central difference vanish, so one
    # least-squares column is zero and only the minimum-norm answer is unique
    ((2, 8), 1.0, ((1.0, 0.0), (0.0, 1.0))),
])
def test_deterministic_fits_agree_with_lapack(grid, field_strength, eta):
    background = build_gravity_background(grid, eta, field_strength)
    for theta, h in [(0.1, (0.3, -0.2, 0.5)), (0.5, (1.0, 0.25, -0.5)),
                     (1.0, (-0.4, 0.0, -0.4))]:
        ref_h, ref_build_gap, ref_theta, ref_span_gap = _lapack_fits(
            background, theta, h)
        fit_h, build_gap = feasible_metric_perturbation(background, theta)
        fit_theta, span_gap = noncommutativity_coefficient(background, h)
        assert fit_h == pytest.approx(tuple(ref_h), abs=1e-12)
        assert build_gap == pytest.approx(ref_build_gap, abs=1e-12)
        assert fit_theta == pytest.approx(ref_theta, abs=1e-12)
        assert span_gap == pytest.approx(ref_span_gap, rel=1e-12, abs=1e-12)


def test_a_vanishing_background_gives_the_zero_coupling():
    background = build_gravity_background((8, 8), field_strength=0.0)
    theta, gap = noncommutativity_coefficient(background, (0.3, 0.0, 0.3))
    assert theta == 0.0
    rhs = _sym_flat(gravity_operator(background, (0.3, 0.0, 0.3)))
    assert gap == pytest.approx(np.linalg.norm(rhs), rel=1e-12)


# --- gravity runners -------------------------------------------------------------------


def test_gravity_round_trip_passes_at_reduced_sampling():
    result = run_gravity_from_noncommutativity(gravity_spec())
    assert result.passed
    assert result.round_trip_max <= 1e-8
    assert all(s["span_gap"] <= 1e-6 for s in result.samples)
    assert any(note.startswith("free_theory_residual=")
               for note in result.notes)
    assert all(c.passed for c in result.certificates)


def test_zero_coupling_is_flagged_degenerate():
    result = run_gravity_from_noncommutativity(
        gravity_spec(theta_values=(0.0, 0.5)))
    assert result.passed
    flags = [s["degenerate"] for s in result.samples]
    assert flags == [True, False]


def test_mirrored_round_trip_passes():
    spec = gravity_spec(name="noncommutativity_from_gravity",
                        theta_values=(), h_scales=(0.5, 1.0))
    result = run_noncommutativity_from_gravity(spec)
    assert result.passed
    assert result.round_trip_max <= 1e-8


@pytest.mark.parametrize("scale_", [-1.0, 0.0])
def test_mirrored_runner_rejects_indefinite_perturbations(scale_):
    # the scenario schema keeps every perturbation scale positive
    with pytest.raises(BadSpec, match="^h_scales/0: "):
        gravity_spec(name="noncommutativity_from_gravity",
                     theta_values=(), h_scales=(scale_,))


@pytest.fixture
def dense_builds(monkeypatch):
    """Records every expansion of an operator into its n x n matrix,
    through circulant() or the dense view."""
    builds = []
    expand = operator_core.circulant
    dense_view = Operator.matrix.fget

    def counted_circulant(geometry, stencil):
        builds.append("circulant")
        return expand(geometry, stencil)

    def counted_matrix(op):
        builds.append(f"{op.structure} matrix")
        return dense_view(op)

    monkeypatch.setattr(operator_core, "circulant", counted_circulant)
    monkeypatch.setattr(Operator, "matrix", property(counted_matrix))
    return builds


def test_gravity_scenarios_build_no_dense_matrix(dense_builds):
    # every gravity operator is a circulant: neither runner may expand one
    for spec in (gravity_spec(grid=(24, 24), samples=5),
                 gravity_spec(name="noncommutativity_from_gravity",
                              grid=(24, 24), theta_values=(),
                              h_scales=(0.5, 1.0), samples=5)):
        assert run_scenario_spec(spec).passed
    assert dense_builds == []


@pytest.mark.parametrize("spec", [
    ScenarioSpec(name="boolean", grid=(8,), masks=8, block=32, samples=5,
                 seed=1),
    ScenarioSpec(name="idempotent", grid=(64,), samples=5, seed=1),
], ids=["boolean", "idempotent"])
def test_oracle_checked_runners_build_no_dense_matrix(spec, dense_builds):
    # Boolean operators are diagonals and the identity runner's are
    # circulants; the brute-force oracle fits them on their bodies too
    assert run_scenario_spec(spec).passed
    assert dense_builds == []


def test_boolean_orbit_plan_is_built_once(monkeypatch):
    # synthesis and a 100-draw certificate recover a parameter on every
    # parameter-map call; the row supports come from a plan cached on the
    # algebra.  The brute-force oracle, outside this scope, reads the basis
    # itself on purpose.
    calls, inside = [], []
    basis, build = BooleanComplex.basis, scenarios._build_and_certify

    def counted_basis(self):
        if inside:
            calls.append(self)
        return basis(self)

    def scoped_build(*args, **kwargs):
        inside.append(True)
        try:
            return build(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(BooleanComplex, "basis", counted_basis)
    monkeypatch.setattr(scenarios, "_build_and_certify", scoped_build)
    spec = ScenarioSpec(name="boolean", grid=(8,), masks=8, block=32,
                        samples=100, seed=1)
    assert run_scenario_spec(spec).passed
    assert len(calls) <= 1


def test_gravity_lagrangians_are_evaluated_in_blocks(monkeypatch):
    # per-field evaluation would take about 2 x samples calls per check;
    # the byte budget holds 16 draws of the real 24x24 grid, each counted
    # as its field, five stencil arrays on the five-point support and the
    # norms' grid-ordered copy
    chunk = 16
    monkeypatch.setattr(operator_core, "BLOCK_BYTES",
                        chunk * (2 * 24 * 24 + 5 * 5) * 8)
    calls, budget, computed = [], [], []
    lagrangian = operator_core.lagrangian_value
    verify, residual = engine.verify_emergence, scenarios.functional_residual
    correlate = operator_core.FieldBlock._correlate

    def counted_lagrangian(a, phi):
        calls.append(len(phi))
        return lagrangian(a, phi)

    # a certification costs two block calls per chunk of the draws its
    # covered certificate leaves: the map's first 40, then the other 60
    def budgeted_verify(source, target, parameter_map, n_samples, *rest,
                        covered=None):
        done = covered.samples if covered is not None else 0
        budget.append(2 * math.ceil((n_samples - done) / chunk))
        return verify(source, target, parameter_map, n_samples, *rest,
                      covered=covered)

    def budgeted_residual(left, right, fields):
        budget.append(2)
        return residual(left, right, fields)

    def counted_correlate(block, offset):
        computed.append((block, offset))
        return correlate(block, offset)

    # the runners' residuals and the certificates' both evaluate in engine
    monkeypatch.setattr(engine, "lagrangian_value", counted_lagrangian)
    for module in (engine, scenarios):
        monkeypatch.setattr(module, "verify_emergence", budgeted_verify)
    monkeypatch.setattr(scenarios, "functional_residual", budgeted_residual)
    monkeypatch.setattr(operator_core.FieldBlock, "_correlate",
                        counted_correlate)
    for spec in (gravity_spec(grid=(24, 24), theta_values=(0.1, 0.5, 1.0),
                              samples=100),
                 gravity_spec(name="noncommutativity_from_gravity",
                              grid=(24, 24), theta_values=(),
                              h_scales=(0.1, 0.5, 1.0), samples=100)):
        del calls[:], budget[:], computed[:]
        assert run_scenario_spec(spec).passed
        assert budget.count(2 * math.ceil(40 / chunk)) == 1
        assert budget.count(2 * math.ceil(60 / chunk)) == 1
        assert 0 < len(calls) <= sum(budget) <= 28
        # every block computes each offset at most once: the runner's one
        # block of 100 fields serves all its checks, and a certification
        # chunk of 16 draws serves both sides
        keys = [(id(block), tuple(map(int, k))) for block, k in computed]
        assert len(set(keys)) == len(keys)
        sizes = [len(block) for block in {id(b): b for b, _ in computed}
                 .values()]
        assert sizes.count(100) == 1
        assert max(size for size in sizes if size != 100) == chunk
        # on a flat metric every runner operator is a five-point stencil
        assert sum(len(block) == 100 for block, _ in computed) == 5


def test_gravity_functional_residual_keeps_a_late_nan():
    background = build_gravity_background((8, 8))
    fields = np.random.default_rng(5).standard_normal((40, 64))
    free = background["box_m"]
    assert engine.functional_residual(free, free, fields) == 0.0
    fields[33, 7] = np.nan
    assert math.isnan(engine.functional_residual(free, free, fields))


# --- one-pass certification ----------------------------------------------------------

#: one spec per map-building runner; the idempotent runner builds two maps
ONE_PASS_SPECS = [
    dict(name="boolean", grid=(8,), masks=4, block=4),
    dict(name="gravity_from_noncommutativity", grid=(8, 8),
         theta_values=(0.5,)),
    dict(name="noncommutativity_from_gravity", grid=(8, 8), h_scales=(0.5,)),
    dict(name="idempotent", grid=(8,)),
]
ONE_PASS_MAPS = [spec["name"] for spec in ONE_PASS_SPECS] + ["idempotent"]


def _certificate_bits(cert):
    return (cert.samples, cert.max_functional_residual.hex(),
            cert.max_operator_residual.hex(), cert.tolerance, cert.passed,
            cert.seed)


@pytest.mark.parametrize("samples", [8, 100])
@pytest.mark.parametrize("seed", [1, 11])
def test_one_pass_certificates_match_separate_verification(monkeypatch, seed,
                                                           samples):
    build, checked = scenarios._build_and_certify, []

    def compared(source, poly, spec, *rest):
        emap, cert = build(source, poly, spec, *rest)
        m = min(spec.samples, 40)
        for got, n, tol in ((emap.certificate, m, scenarios.BUILD_TOL),
                            (cert, spec.samples, spec.tol)):
            # a new map object: nothing is kept from the calls above
            want = engine.verify_emergence(
                source, poly, lambda eps: emap.parameter_map(eps), n, tol,
                spec.seed)
            assert _certificate_bits(got) == _certificate_bits(want)
        checked.append(spec.name)
        return emap, cert

    monkeypatch.setattr(scenarios, "_build_and_certify", compared)
    for fields in ONE_PASS_SPECS:
        spec = ScenarioSpec(**fields, samples=samples, seed=seed)
        assert run_scenario_spec(spec).passed
    assert sorted(checked) == sorted(ONE_PASS_MAPS)


def test_a_scenario_certificate_resumes_after_its_maps_draws(monkeypatch):
    verify = engine.verify_emergence
    draw = operator_core.FieldSpace.fields_from_normals
    fields, calls = [], []

    def counted_draw(space, z):
        # a chunk draws its fields at once, a field alone is a block of one
        fields[-1] += len(z)
        return draw(space, z)

    def counted_verify(*args, **kwargs):
        fields.append(0)
        calls.append((args, kwargs))
        return verify(*args, **kwargs)

    monkeypatch.setattr(operator_core.FieldSpace, "fields_from_normals",
                        counted_draw)
    for module in (engine, scenarios):
        monkeypatch.setattr(module, "verify_emergence", counted_verify)
    spec = ScenarioSpec(name="boolean", grid=(8,), masks=4, block=4,
                        samples=100, seed=7)
    (cert,) = run_scenario_spec(spec).certificates
    # the map's 40 draws are resumed from its certificate, not redrawn
    assert fields == [40, 60]
    (source, poly, fmap, *_), _ = calls[-1]
    full = verify(source, poly, fmap, spec.samples, spec.tol, spec.seed)
    assert _certificate_bits(cert) == _certificate_bits(full)
    # two parameter normals for each of the 4 masks and two for each of
    # the 16 complex field entries
    assert cert.draw_normals == full.draw_normals == 40


@pytest.mark.parametrize("fields,n", [
    (dict(name="gravity_from_noncommutativity", grid=(8, 8),
          theta_values=(0.5,)), 64),
    (dict(name="noncommutativity_from_gravity", grid=(8, 8),
          h_scales=(0.5,)), 64),
    (dict(name="idempotent", grid=(8,)), 8)],
    ids=["gravity_from_noncommutativity", "noncommutativity_from_gravity",
         "idempotent"])
def test_a_run_draws_each_normal_of_its_seed_once(fields, n, monkeypatch):
    streams, seeds = [], []
    verify = engine.verify_emergence

    class Recorded(engine.Normals):
        def __init__(self, seed, **kwargs):
            super().__init__(seed, **kwargs)
            streams.append(self)

    def recorded_verify(source, target, parameter_map, n_samples, tol, seed,
                        *rest, **kwargs):
        seeds.append(seed)
        return verify(source, target, parameter_map, n_samples, tol, seed,
                      *rest, **kwargs)

    monkeypatch.setattr(scenarios, "Normals", Recorded)
    for module in (engine, scenarios):
        monkeypatch.setattr(module, "verify_emergence", recorded_verify)
    assert run_scenario_spec(ScenarioSpec(**fields, samples=100,
                                          seed=1)).passed
    # one stream: each draw takes a parameter normal and n field normals,
    # and a gravity runner's 100 fixed fields are the first 100 x n of
    # them (drawing both apart took 100 x n + 100 x (1 + n))
    (stream,) = streams
    assert stream.drawn == 100 * (1 + n)
    # every certificate read it: the maps' 40 draws and the later 60, per
    # map, and the idempotent runner certifies two maps
    assert len(seeds) == (4 if fields["name"] == "idempotent" else 2)
    assert all(seed is stream for seed in seeds)
    # it keeps what a later reader comes back to: a gravity runner's fixed
    # block, and every draw for the idempotent runner's second instance
    assert stream.keep == 100 * (1 + n if fields["name"] == "idempotent"
                                 else n)


@pytest.mark.parametrize("fields,fixed", [
    (dict(name="gravity_from_noncommutativity", grid=(8, 8),
          theta_values=(0.5,)), 100 * 64),
    (dict(name="noncommutativity_from_gravity", grid=(8, 8),
          h_scales=(0.5,)), 100 * 64),
    (dict(name="boolean", grid=(8,), masks=4, block=4), 0)],
    ids=["gravity_from_noncommutativity", "noncommutativity_from_gravity",
         "boolean"])
def test_a_forward_run_holds_nothing_past_its_fixed_block(fields, fixed,
                                                          monkeypatch):
    held = []
    read = engine.Normals.read

    def recorded_read(self, start, count):
        out = read(self, start, count)
        held.append(sum(len(piece) for _, piece in self._pieces))
        return out

    # one draw per certification chunk
    monkeypatch.setattr(operator_core, "BLOCK_BYTES", 1)
    monkeypatch.setattr(engine.Normals, "read", recorded_read)
    spec = ScenarioSpec(**fields, samples=100, seed=1)
    (cert,) = run_scenario_spec(spec).certificates
    # the gravity fixed block stays until certification reads past it;
    # otherwise a read's piece lives only in the chunk it returns
    # (keeping them all held 100 draws' normals)
    assert len(held) == 100 + (fixed > 0)
    assert max(held) == fixed
    assert held[-1] == 0


@pytest.mark.parametrize("fields", ONE_PASS_SPECS,
                         ids=[spec["name"] for spec in ONE_PASS_SPECS])
def test_chunk_size_does_not_change_a_certificate(fields, monkeypatch):
    spec = ScenarioSpec(**fields, samples=100, seed=1)
    outcomes = []
    # one draw (and one field) per block, then every draw of a call at once
    for budget in (1, 1 << 40):
        monkeypatch.setattr(operator_core, "BLOCK_BYTES", budget)
        result = run_scenario_spec(spec)
        outcomes.append(([_certificate_bits(c) for c in result.certificates],
                         json.dumps(result.to_json_dict(), sort_keys=True)))
    assert outcomes[0] == outcomes[1]


def _recording_solver(monkeypatch, spoil=lambda call, solve, eps: solve(eps)):
    """Route every per-term solve through ``spoil``; returns the list of
    parameters the solves were called with, in call order."""
    solver, calls = engine._monomial_solver, []

    def recording(*args, **kwargs):
        solve = solver(*args, **kwargs)

        def recorded(eps):
            calls.append(np.asarray(eps).tobytes())
            return spoil(len(calls), solve, eps)
        return recorded

    monkeypatch.setattr(engine, "_monomial_solver", recording)
    return calls


def test_each_draw_is_mapped_once_per_build(monkeypatch):
    # every target here has one active term: one solve per map call
    calls, counts = _recording_solver(monkeypatch), []
    build = scenarios._build_and_certify

    def counted(*args):
        del calls[:]
        out = build(*args)
        counts.append((len(calls), len(set(calls))))
        return out

    monkeypatch.setattr(scenarios, "_build_and_certify", counted)
    for fields in ONE_PASS_SPECS:
        run_scenario_spec(ScenarioSpec(**fields, samples=100, seed=1))
    assert counts == [(100, 100)] * len(ONE_PASS_MAPS)


def test_a_build_failure_refuses_before_any_later_draw(monkeypatch):
    # draw 10 breaks the map at BUILD_TOL; draw 50 would leave the orbit
    def spoil(call, solve, eps):
        if call == 50:
            raise NotScalarForm("a later draw leaves the orbit", residual=1.0)
        return 2.0 * solve(eps) if call == 10 else solve(eps)

    calls = _recording_solver(monkeypatch, spoil)
    spec = ScenarioSpec(name="idempotent", grid=(8,), samples=100, seed=1)
    with pytest.raises(HypothesisViolated) as info:
        run_idempotent_instance(spec)
    cert = info.value.evidence["certificate"]
    assert (cert.samples, cert.tolerance, cert.passed) \
        == (40, scenarios.BUILD_TOL, False)
    assert len(calls) == 40


# --- idempotent runner --------------------------------------------------------------


def test_idempotent_identity_variant_certifies():
    spec = ScenarioSpec(name="idempotent", grid=(8,), samples=10, seed=11)
    result = run_idempotent_instance(spec)
    assert result.passed
    assert len(result.certificates) == 2
    assert all(len(d) == 64 for d in result.provenance_digests)
    names = [s["instance"] for s in result.samples]
    assert names == ["univariate_identity", "bivariate_constant_monomial"]


def test_idempotent_probe_assignments_are_their_parameters_bit_for_bit():
    spec = ScenarioSpec(name="idempotent", grid=(8,), samples=100, seed=42)
    maps = run_idempotent_instance(spec).maps
    probes = [probe for m in maps for probe in m["probes"]]
    assert len(probes) == 6
    for probe in probes:
        (assignment,) = probe["assignment"].values()
        assert assignment == probe["parameter"]


@pytest.mark.parametrize("spec", [
    gravity_spec(theta_values=(0.0, 0.5, 1.0)),
    gravity_spec(name="noncommutativity_from_gravity", theta_values=(),
                 h_scales=(0.5, 1.0)),
    ScenarioSpec(name="idempotent", grid=(8,), samples=10, seed=11),
    ScenarioSpec(name="boolean", grid=(4,), masks=4, block=1, samples=10,
                 seed=2),
], ids=lambda spec: spec.name)
def test_round_trip_max_is_the_worst_sample_round_trip(spec):
    result = run_scenario_spec(spec)
    # the Boolean runner's round trip is its mask recovery
    errors = [s.get("round_trip_error", s.get("recovery_error"))
              for s in result.samples]
    assert None not in errors
    assert result.round_trip_max == max(errors)


def test_every_idempotent_instance_counts_toward_the_round_trip(monkeypatch):
    build = scenarios._build_and_certify

    def offset_bivariate(source, poly, *rest):
        emap, cert = build(source, poly, *rest)
        if poly.label != "bivariate_constant_monomial":
            return emap, cert

        def offset(eps):
            return {alpha: value + 0.25
                    for alpha, value in emap.parameter_map(eps).items()}
        return dataclasses.replace(emap, parameter_map=offset), cert

    monkeypatch.setattr(scenarios, "_build_and_certify", offset_bivariate)
    spec = ScenarioSpec(name="idempotent", grid=(8,), samples=10, seed=11)
    result = run_idempotent_instance(spec)
    uni, bi = result.samples
    assert uni["round_trip_error"] <= 1e-12
    assert bi["round_trip_error"] == pytest.approx(0.25, rel=1e-12)
    assert result.round_trip_max == bi["round_trip_error"]
    assert not result.passed


def test_idempotent_projector_variant_raises():
    spec = ScenarioSpec(name="idempotent", grid=(8,), variant="projector",
                        samples=8)
    with pytest.raises(NotScalarForm):
        run_idempotent_instance(spec)


def test_the_projector_on_two_sites_is_the_identity_and_is_refused():
    # mode 2 is mode 0 on two sites, so the two modes span the space: the
    # projector is the identity, emerge certifies, and the runner refuses
    # its negative instance
    spec = ScenarioSpec(name="idempotent", grid=(2,), variant="projector",
                        samples=8, seed=1)
    with pytest.raises(HypothesisViolated,
                       match="projector instance unexpectedly synthesized"):
        run_idempotent_instance(spec)


def test_idempotent_unknown_variant_is_rejected():
    # refused when the spec is built, so no runner sees it
    with pytest.raises(BadSpec, match="^variant: 'oblique' is not one of"):
        run_idempotent_instance(ScenarioSpec(name="idempotent", grid=(8,),
                                             variant="oblique"))


# --- boolean runner -------------------------------------------------------------------


def test_boolean_scenario_axioms_hold_exactly():
    spec = ScenarioSpec(name="boolean", grid=(4,), masks=4, block=1,
                        samples=10, seed=2)
    result = run_boolean_scenario(spec)
    assert result.passed
    (sample,) = result.samples
    assert sample["idempotent_residual"] == 0.0
    assert sample["disjoint_support_residual"] == 0.0
    assert sample["recovery_error"] <= 1e-8


# --- spec plumbing --------------------------------------------------------------------


def test_spec_rejects_unsupported_signatures():
    with pytest.raises(BadSpec):
        gravity_spec(signature="lorentzian")


def test_spec_rejects_degenerate_budgets():
    with pytest.raises(BadSpec):
        gravity_spec(samples=0)
    with pytest.raises(BadSpec):
        gravity_spec(tol=0.0)


@pytest.mark.parametrize("field,value", [
    ("samples", 2.5), ("seed", 1.5), ("grid", (8.5,)), ("masks", 2.5),
    ("block", 1.5), ("samples", True), ("seed", False), ("grid", (True,)),
    ("samples", "10"), ("seed", None), ("samples", math.nan),
    ("grid", (math.inf,))])
def test_spec_refuses_non_integers_in_integer_fields(field, value):
    fields = {"name": "idempotent", "grid": (8,), field: value}
    with pytest.raises(BadSpec, match=f"^{field}"):
        ScenarioSpec(**fields)


@pytest.mark.parametrize("field,value", [
    ("grid", 8), ("grid", None), ("grid", "8"), ("theta_values", 0.5),
    ("h_scales", 0.5), ("theta_values", None), ("h_scales", "0.5"),
    ("theta_values", np.float64(0.5)), ("eta", (1.0, 0.0)), ("eta", "I")])
def test_spec_refuses_a_list_field_that_is_no_list(field, value):
    fields = {"name": "idempotent", "grid": (8,), field: value}
    with pytest.raises(BadSpec, match=f"^{field}"):
        ScenarioSpec(**fields)
    with pytest.raises(BadSpec, match=f"^{field}"):
        ScenarioSpec.from_dict(fields)


#: values the schema refuses, which specs once built and ran or refused
#: with an untyped error; each is refused in jsonschema's words, after the
#: failing property's path
SCHEMA_REFUSALS = [
    ({"mass": -1.0}, "mass: -1.0 is less than the minimum of 0"),
    ({"name": "boolean", "variant": "weird"},
     "variant: 'weird' is not one of ['identity', 'projector']"),
    ({"name": "boolean", "masks": 9},
     "masks: 9 is greater than the maximum of 8"),
    ({"tol": "1e-8"}, "tol: '1e-8' is not of type 'number'"),
    ({"mass": "1"}, "mass: '1' is not of type 'number'"),
    ({"field_strength": None}, "field_strength: None is not of type 'number'"),
    ({"theta_values": ("a",)}, "theta_values/0: 'a' is not of type 'number'"),
    ({"mass": math.nan}, "mass: nan is not finite"),
    ({"eta": ((1.0, 0.0), (0.0, math.inf))}, "eta: inf is not finite"),
]


@pytest.mark.parametrize("fields,message", SCHEMA_REFUSALS,
                         ids=[m.split(":")[0] for _, m in SCHEMA_REFUSALS])
def test_spec_refuses_what_the_schema_refuses(fields, message):
    with pytest.raises(BadSpec) as info:
        gravity_spec(**fields)
    assert str(info.value) == message
    spec = gravity_spec()
    with pytest.raises(BadSpec) as info:
        dataclasses.replace(spec, **fields)
    assert str(info.value) == message


def test_the_schema_names_the_runners_and_the_spec_fields():
    properties = _schema("scenario.schema.json")["properties"]
    assert properties["name"]["enum"] == list(scenarios.SCENARIO_RUNNERS)
    assert list(properties) == [f.name for f in dataclasses.fields(
        ScenarioSpec)]
    # and the fields a spec holds integral floats of as ints
    assert scenarios._INTEGER_FIELDS == tuple(
        key for key, rule in properties.items()
        if "integer" in (rule.get("type"), rule.get("items", {}).get("type")))


def test_list_fields_are_held_as_tuples():
    listed = gravity_spec(grid=[8, 8], theta_values=[0.5, 1.0])
    assert listed == gravity_spec(grid=(8, 8), theta_values=(0.5, 1.0))
    assert listed.theta_values == (0.5, 1.0) and listed.h_scales == ()
    arrayed = gravity_spec(grid=(8, 8), theta_values=np.array([0.5, 1.0]))
    assert hash(listed) == hash(arrayed)


def test_integral_floats_give_the_int_spec():
    ints = ScenarioSpec(name="boolean", grid=(8,), masks=4, block=2,
                        samples=10, seed=3)
    floats = ScenarioSpec(name="boolean", grid=(8.0,), masks=4.0, block=2.0,
                          samples=10.0, seed=3.0)
    assert floats == ints
    assert floats.spec_hash() == ints.spec_hash()
    assert all(type(getattr(floats, key)) is int
               for key in ("masks", "block", "samples", "seed"))
    assert type(floats.grid[0]) is int
    # the library API runs it as the int spec, as the CLI does
    small = dataclasses.replace(ints, name="idempotent", samples=10.0)
    assert small.samples == 10 and small.spec_hash() == dataclasses.replace(
        ints, name="idempotent").spec_hash()
    assert run_scenario_spec(small).passed


def test_spec_round_trips_through_its_canonical_dict():
    spec = gravity_spec(theta_values=(0.1, 1.0), eta=((2.0, 0.0), (0.0, 1.0)))
    assert ScenarioSpec.from_dict(spec.canonical_dict()) == spec


def test_spec_hash_is_stable_and_sensitive():
    a, b = gravity_spec(), gravity_spec()
    assert a.spec_hash() == b.spec_hash()
    assert len(a.spec_hash()) == 64
    assert gravity_spec(seed=4).spec_hash() != a.spec_hash()


def test_unknown_scenario_names_are_rejected():
    with pytest.raises(BadSpec) as info:
        run_scenario_spec(gravity_spec(name="wormhole"))
    assert "wormhole" in str(info.value)


# --- reproducibility ------------------------------------------------------------------


def test_runs_are_reproducible_from_spec_and_seed():
    spec = gravity_spec()
    first = run_scenario_spec(spec).to_json_dict()
    second = run_scenario_spec(spec).to_json_dict()
    assert first == second
    assert json.dumps(first, sort_keys=True)
    assert first["spec_hash"] == spec.spec_hash()
