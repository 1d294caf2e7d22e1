"""Acceptance suite: one criterion per test, one visible pass/fail line each.

Thresholds and runtime budgets are asserted as stated; nothing is loosened.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from emergence import (BooleanComplex, CentralizerDiagonal,
                       CoefficientFunction, ComplexScalars, EmptyAccumulation,
                       HypothesisViolated, InfeasibleTarget, NoSquareRoot,
                       NonnegativeReals, NotMultiplicative,
                       NotRightInvertible, NotScalarForm, NotScalarInvariant,
                       Operator, ProductAlgebra, RealScalars, TuplePower,
                       add, brute_force_emerge, compose, emerge,
                       emerge_accumulate, emerge_composition, emerge_monomial,
                       emerge_sum, evaluate_family,
                       evaluate_polynomial, grid_space, identity_emergence,
                       identity_operator, make_discrete_operator,
                       operator_residual, plain_space, polynomial_family,
                       right_inverse, scalar_family, scale,
                       solve_action_on_identity, verify_structure)
from emergence.cli import main, shipped_config_path
from emergence.scenarios import (build_gravity_background, check_feasible,
                                 run_gravity_from_noncommutativity,
                                 run_noncommutativity_from_gravity)


def lin(slope=1.0, domain="real"):
    return CoefficientFunction.linear(slope, domain=domain)


def announce(capsys, index, label, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {index} ({label}): "
              f"{'PASS' if ok else 'FAIL'} - {detail}")


def gap(algebra, x, y):
    vx = np.asarray(algebra.to_vector(x), dtype=complex)
    vy = np.asarray(algebra.to_vector(y), dtype=complex)
    return float(np.max(np.abs(vx - vy))) if vx.size else 0.0


# --- criterion 1: algebra axioms ------------------------------------------------------


def test_criterion_1_algebra_axioms(capsys):
    started = time.perf_counter()
    pattern = np.array([[1.0, 1.0, 0.0, 0.0],
                        [1.0, 1.0, 0.0, 0.0],
                        [0.0, 0.0, 1.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0]])
    stations = [
        (RealScalars(), plain_space(4), False),
        (ComplexScalars(), plain_space(4, "complex"), False),
        (NonnegativeReals(), plain_space(4), False),
        (TuplePower(RealScalars(), 2), plain_space(4), False),
        (ProductAlgebra((RealScalars(), ComplexScalars())), None, False),
        (CentralizerDiagonal(pattern), plain_space(4), False),
        (BooleanComplex(4, 2), plain_space(8, "complex"), True),
    ]
    worst = 0.0
    boolean_worst = 0.0
    for algebra, space, exact in stations:
        rng = np.random.default_rng(1)
        draw = algebra.sample_idempotent if exact else algebra.sample
        local = 0.0
        for _ in range(100):
            a, b, c = draw(rng), draw(rng), draw(rng)
            local = max(local, gap(
                algebra, algebra.mul(algebra.mul(a, b), c),
                algebra.mul(a, algebra.mul(b, c))))
            local = max(local, gap(
                algebra, algebra.add(algebra.add(a, b), c),
                algebra.add(a, algebra.add(b, c))))
            local = max(local, gap(
                algebra, algebra.mul(a, algebra.add(b, c)),
                algebra.add(algebra.mul(a, b), algebra.mul(a, c))))
            square = algebra.mul(a, a)
            root = algebra.sqrt_select(square)
            local = max(local, gap(algebra, algebra.mul(root, root), square))
            if space is not None:
                ident = identity_operator(space)
                if isinstance(algebra, TuplePower):
                    probes = [algebra.base.act(component, ident)
                              for component in a]
                    recovered = solve_action_on_identity(algebra, probes)
                else:
                    recovered = solve_action_on_identity(
                        algebra, algebra.act(a, ident))
                local = max(local, gap(algebra, recovered, a))
        if exact:
            boolean_worst = max(boolean_worst, local)
        worst = max(worst, local)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and boolean_worst == 0.0 and elapsed < 5.0
    announce(capsys, 1, "algebra axioms", ok,
             f"worst residual {worst:.2e}, boolean exact "
             f"{boolean_worst == 0.0}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert boolean_worst == 0.0
    assert elapsed < 5.0


# --- criterion 2: right inverses ------------------------------------------------------


def test_criterion_2_right_inverses(capsys):
    started = time.perf_counter()
    worst = 0.0
    diagnostics = []
    for grid in ((8,), (16,), (8, 8)):
        space = grid_space(grid)
        # the massive wave operator m^2 - d^2 has symbol m^2 + 4 sin^2 > 0;
        # the shipped "box" stencil is d^2 itself, so negate it here
        laplacian = scale(-1.0, make_discrete_operator(space, "box"))
        ident = identity_operator(space)
        for m in (0.5, 1.0, 2.0):
            regulated = add(laplacian, scale(m * m, ident))
            inverse = right_inverse(regulated)
            worst = max(worst, operator_residual(
                compose(regulated, inverse), ident))
        for axis in range(len(grid)):
            shift = make_discrete_operator(space, "shift", axis=axis)
            worst = max(worst, operator_residual(
                compose(shift, right_inverse(shift)), ident))
        with pytest.raises(NotRightInvertible) as info:
            right_inverse(laplacian)
        diagnostics.append(tuple(info.value.frequency) == (0,) * len(grid))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and all(diagnostics) and elapsed < 5.0
    announce(capsys, 2, "right inverses", ok,
             f"worst residual {worst:.2e}, zero-frequency diagnostics "
             f"{sum(diagnostics)}/3, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert all(diagnostics)
    assert elapsed < 5.0


# --- criterion 3: constructor identities -----------------------------------------------


def test_criterion_3_constructor_identities(capsys):
    started = time.perf_counter()
    line8 = grid_space((8,))
    flat4 = plain_space(4)
    ident = identity_operator(line8)
    box_m = add(make_discrete_operator(line8, "box"), ident)
    shift = make_discrete_operator(line8, "shift", axis=0)
    worst = 0.0

    def identity_check(emap, eps):
        return operator_residual(evaluate_family(emap.target, emap(eps)),
                                 evaluate_family(emap.source, eps))

    examples = []
    examples.append((emerge_monomial(scalar_family(RealScalars(), ident),
                                     lin(), ident, 1), 0.7))
    examples.append((emerge_monomial(scalar_family(RealScalars(), box_m),
                                     lin(2.0), box_m, 1), 0.8))
    examples.append((emerge_monomial(
        scalar_family(RealScalars(), shift, exponent=2), lin(), shift, 2),
        1.3))
    nn_source, _ = verify_structure(
        scalar_family(NonnegativeReals(), ident)
        .with_claims("additive", "multiplicative", "homomorphic",
                     "scalar_invariant"))
    part = identity_emergence(nn_source)
    examples.append((emerge_composition(nn_source, part, part), 1.7))
    sum_source, _ = verify_structure(
        scalar_family(RealScalars(), box_m).with_claims("scalar_invariant"))
    sum_part = identity_emergence(sum_source)
    examples.append((emerge_sum(sum_source, sum_part, sum_part), 1.2))
    examples.append((emerge_accumulate(nn_source, [(part, part),
                                                   (part, part)]), 0.9))
    for emap, eps in examples:
        worst = max(worst, identity_check(emap, eps))
        worst = max(worst, emap.certificate.max_operator_residual)

    counterexamples = []
    proj = Operator(np.diag([1.0, 1.0, 0.0, 0.0]), flat4)
    with pytest.raises(NotScalarForm):
        emerge_monomial(scalar_family(RealScalars(), proj), lin(),
                        identity_operator(flat4), 1)
    counterexamples.append("monomial/NotScalarForm")
    with pytest.raises(NotRightInvertible):
        emerge_monomial(scalar_family(RealScalars(), identity_operator(flat4)),
                        lin(), proj, 1)
    counterexamples.append("monomial/NotRightInvertible")
    additive_only, _ = verify_structure(
        scalar_family(NonnegativeReals(), ident).with_claims("additive"))
    with pytest.raises(NotMultiplicative):
        emerge_composition(additive_only, identity_emergence(additive_only),
                           identity_emergence(additive_only))
    counterexamples.append("composition/NotMultiplicative")
    signed, _ = verify_structure(
        scalar_family(RealScalars(), ident).with_claims("multiplicative"))
    with pytest.raises(NoSquareRoot):
        emerge_composition(signed, identity_emergence(signed),
                           identity_emergence(signed))
    counterexamples.append("composition/NoSquareRoot")
    multiplicative_only, _ = verify_structure(
        scalar_family(RealScalars(), ident).with_claims("multiplicative"))
    with pytest.raises(NotScalarInvariant):
        emerge_sum(multiplicative_only,
                   identity_emergence(multiplicative_only),
                   identity_emergence(multiplicative_only))
    counterexamples.append("sum/NotScalarInvariant")
    with pytest.raises(HypothesisViolated):
        emerge_accumulate(additive_only, [(identity_emergence(additive_only),
                                           identity_emergence(additive_only))])
    counterexamples.append("accumulate/HypothesisViolated")
    with pytest.raises(EmptyAccumulation):
        emerge_accumulate(nn_source, [])
    counterexamples.append("accumulate/EmptyAccumulation")

    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and len(counterexamples) == 7 and elapsed < 10.0
    announce(capsys, 3, "constructor identities", ok,
             f"worst identity residual {worst:.2e}, "
             f"{len(counterexamples)} counterexamples fired, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert len(counterexamples) == 7
    assert elapsed < 10.0


# --- criterion 4: oracle equivalence ---------------------------------------------------


def test_criterion_4_oracle_equivalence(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    algebra = RealScalars()
    instances = []

    def dense(dim, space):
        return Operator(rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim),
                        space)

    for exponent, slope in ((1, 1.0), (1, 2.0), (2, 1.0), (2, 0.5),
                            (1, -1.0), (2, -2.0), (1, 0.25), (2, 4.0)):
        dim = int(rng.integers(3, 6))
        space = plain_space(dim)
        base = dense(dim, space)
        instances.append((
            scalar_family(algebra, base, exponent=exponent),
            polynomial_family([base], {(exponent,): lin(slope)}, algebra)))
    flat4 = plain_space(4)
    for _ in range(4):
        a, b = rng.uniform(0.5, 2.0, size=2)
        source, _ = verify_structure(
            scalar_family(algebra, identity_operator(flat4))
            .with_claims("additive"))
        instances.append((source, polynomial_family(
            [identity_operator(flat4)], {(1,): lin(a), (2,): lin(b)},
            algebra)))
    for _ in range(4):
        space = plain_space(3)
        a, b = dense(3, space), dense(3, space)
        instances.append((
            scalar_family(algebra, compose(a, b)),
            polynomial_family([a, b], {(1, 1): lin()}, algebra)))
    for _ in range(2):
        c, d = rng.uniform(0.5, 2.0, size=2)
        source, _ = verify_structure(
            scalar_family(algebra, identity_operator(flat4))
            .with_claims("additive"))
        instances.append((source, polynomial_family(
            [scale(c, identity_operator(flat4)),
             scale(d, identity_operator(flat4))],
            {(1, 0): lin(), (0, 1): lin()}, algebra)))
    line4 = grid_space((4,))
    for _ in range(2):
        base = dense(4, line4)
        instances.append((
            scalar_family(algebra, base),
            polynomial_family(
                [base, make_discrete_operator(line4, "shift", axis=0)],
                {(1, 0): lin()}, algebra)))
    line8 = grid_space((8,))
    instances.append((
        scalar_family(algebra, identity_operator(line8)),
        polynomial_family(
            [make_discrete_operator(line8, "shift", axis=0),
             add(make_discrete_operator(line8, "box"),
                 identity_operator(line8))],
            {(0, 0): lin()}, algebra)))

    worst = 0.0
    for source, poly in instances:
        emap = emerge(source, poly)
        for eps in rng.standard_normal(2):
            (fitted,) = brute_force_emerge(source, poly, [float(eps)])
            assert fitted is not None
            worst = max(worst, operator_residual(
                evaluate_polynomial(poly, emap(float(eps))),
                evaluate_polynomial(poly, fitted)))
    elapsed = time.perf_counter() - started
    ok = len(instances) >= 20 and worst <= 1e-8 and elapsed < 30.0
    announce(capsys, 4, "oracle equivalence", ok,
             f"{len(instances)} instances, worst form distance {worst:.2e}, "
             f"{elapsed:.2f}s")
    assert len(instances) >= 20
    assert worst <= 1e-8
    assert elapsed < 30.0


# --- criterion 5: recursion consistency -------------------------------------------------


def test_criterion_5_recursion_consistency(capsys):
    started = time.perf_counter()
    line8 = grid_space((8,))
    algebra = RealScalars()
    ident = identity_operator(line8)
    box_m = add(make_discrete_operator(line8, "box"), ident)
    shift = make_discrete_operator(line8, "shift", axis=0)
    cases = []
    source_i, _ = verify_structure(
        scalar_family(algebra, ident).with_claims("additive"))
    cases.append((source_i,
                  polynomial_family([ident], {(1,): lin(1.0), (2,): lin(2.0)},
                                    algebra),
                  polynomial_family([ident, shift],
                                    {(1, 0): lin(1.0), (2, 0): lin(2.0)},
                                    algebra)))
    source_b = scalar_family(algebra, box_m)
    cases.append((source_b,
                  polynomial_family([box_m], {(1,): lin()}, algebra),
                  polynomial_family([box_m, shift], {(1, 0): lin()},
                                    algebra)))
    worst = 0.0
    for source, uni, bi in cases:
        map_uni = emerge(source, uni)
        map_bi = emerge(source, bi)
        for eps in (0.4, -1.6, 2.3):
            table_uni = map_uni(eps)
            table_bi = map_bi(eps)
            for alpha, value in table_uni.items():
                worst = max(worst, abs(table_bi[alpha + (0,)] - value))
        worst = max(worst, abs(map_bi.certificate.max_operator_residual
                               - map_uni.certificate.max_operator_residual))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 10.0
    announce(capsys, 5, "recursion consistency", ok,
             f"worst reduced-vs-full difference {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


# --- criterion 6: gravity round trip ----------------------------------------------------


def test_criterion_6_gravity_round_trip(capsys):
    started = time.perf_counter()
    from emergence.cli import load_config
    spec = load_config(shipped_config_path("gravity_from_noncommutativity"))
    assert spec.grid == (8, 8) and spec.mass == 1.0
    assert spec.theta_values == (0.1, 0.5, 1.0)
    assert spec.samples == 100
    result = run_gravity_from_noncommutativity(spec)
    worst_fn = max(s["functional_residual"] for s in result.samples)
    mirrored = run_noncommutativity_from_gravity(
        load_config(shipped_config_path("noncommutativity_from_gravity")))
    elapsed = time.perf_counter() - started
    ok = (result.passed and result.round_trip_max <= 1e-8
          and worst_fn <= 1e-8 and mirrored.passed
          and mirrored.round_trip_max <= 1e-8 and elapsed < 60.0)
    announce(capsys, 6, "gravity round trip", ok,
             f"round trip {result.round_trip_max:.2e}, functional "
             f"{worst_fn:.2e}, mirrored {mirrored.round_trip_max:.2e}, "
             f"{elapsed:.2f}s")
    assert result.passed
    assert result.round_trip_max <= 1e-8
    assert worst_fn <= 1e-8
    assert mirrored.passed
    assert mirrored.round_trip_max <= 1e-8
    assert elapsed < 60.0


# --- criterion 7: negative-instance honesty ---------------------------------------------


def test_criterion_7_infeasibility_detector(capsys):
    started = time.perf_counter()
    background = build_gravity_background((8, 8))
    rng = np.random.default_rng(77)
    fired = 0
    smallest_gap = float("inf")
    for _ in range(10):
        h = tuple(rng.standard_normal(3))
        with pytest.raises(InfeasibleTarget) as info:
            check_feasible(background, h, threshold=1e-3)
        if info.value.gap > 1e-3:
            fired += 1
            smallest_gap = min(smallest_gap, info.value.gap)
    elapsed = time.perf_counter() - started
    ok = fired == 10 and elapsed < 10.0
    announce(capsys, 7, "infeasibility honesty", ok,
             f"{fired}/10 generic targets refused, smallest gap "
             f"{smallest_gap:.2e}, {elapsed:.2f}s")
    assert fired == 10
    assert elapsed < 10.0


# --- criterion 8: determinism -----------------------------------------------------------


def test_criterion_8_byte_identical_reports(capsys, tmp_path):
    started = time.perf_counter()
    names = ("gravity_from_noncommutativity", "noncommutativity_from_gravity",
             "idempotent", "boolean")
    identical = []
    for name in names:
        paths = [str(tmp_path / f"{name}-{i}.json") for i in (1, 2)]
        for out in paths:
            code = main(["--config", shipped_config_path(name), "--out", out])
            assert code == 0
        first, second = (Path(p).read_bytes() for p in paths)
        identical.append(first == second)
        report = json.loads(first)
        assert report["status"] == "passed"
    elapsed = time.perf_counter() - started
    ok = all(identical)
    announce(capsys, 8, "deterministic reports", ok,
             f"{sum(identical)}/4 scenarios byte-identical across reruns, "
             f"{elapsed:.2f}s")
    assert all(identical)
