"""End-to-end runnable instances with acceptance thresholds.

Four shipped scenarios on small periodic grids:

* ``gravity_from_noncommutativity``: a metric perturbation coupled to second
  derivatives is matched against the one-parameter family built on the
  antisymmetric background; the feasible perturbation for each coupling is
  found by least squares, and recovering the coupling from it is the round
  trip.  A mass-regulated engine synthesis runs alongside as a cross-check.
* ``noncommutativity_from_gravity``: the mirrored direction.
* ``idempotent``: a projector source against a declared polynomial; the
  identity variant certifies and matches the brute-force oracle, the
  Fourier-projector variant is the documented negative instance.
* ``boolean``: block masks acting through a diagonal representation;
  axioms, representation compatibility, and a small synthesis run.

Everything is reproducible bit for bit from ``(spec, seed)``, on any
machine and BLAS kernel: all sampling goes through one seeded generator per
run, the least-squares fits use correctly rounded sums instead of LAPACK,
and reports write residuals as kernel-independent bounds
(:func:`~emergence.engine.residual_bound`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .engine import (EmergenceMap, brute_force_emerge, emerge,
                     functional_residual, map_draws, residual_bound,
                     verify_emergence)
from .errors import BadSpec, HypothesisViolated, InfeasibleTarget
from .operator_core import (FieldBlock, Operator, add, diagonal_operator,
                            exact_sum, grid_space, identity_operator,
                            is_idempotent_power, make_discrete_operator,
                            operator_residual, plain_space, plane_wave, scale,
                            sym_part)
from .parameter_algebra import (BooleanComplex, CoefficientFunction,
                                ComplexScalars, RealScalars,
                                check_action_compatibility)
from .theories import (evaluate_polynomial, polynomial_family, scalar_family,
                       verify_structure)

#: construction-time tolerance; shipped results are re-verified at the
#: spec's own tolerance, so a strict --tol can fail a cert without making
#: synthesis itself refuse
BUILD_TOL = 1e-6

#: sample fields with these suffixes are agreement measures; reports write
#: them as bounds, the verdict uses the raw values
RESIDUAL_SUFFIXES = ("_residual", "_error", "_gap")

# --- specs and results -----------------------------------------------------------


def _as_lists(value):
    """JSON shape of a spec field: tuples become lists, recursively."""
    if isinstance(value, (tuple, list)):
        return [_as_lists(v) for v in value]
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully-resolved scenario description (what the CLI loads)."""

    name: str
    grid: tuple
    signature: str = "riemannian"
    mass: float = 1.0
    field_strength: float = 1.0
    eta: tuple = ((1.0, 0.0), (0.0, 1.0))
    theta_values: tuple = ()
    h_scales: tuple = ()
    masks: int = 4
    block: int = 1
    variant: str = "identity"
    samples: int = 100
    tol: float = 1e-8
    feasibility_threshold: float = 1e-6
    seed: int = 42

    def __post_init__(self):
        if self.signature != "riemannian":
            raise BadSpec("only riemannian signature is supported; the "
                          "Lorentzian case does not reduce to a periodic "
                          "grid faithfully")
        if self.samples < 1 or self.seed < 0:
            raise BadSpec("samples must be >= 1 and seed >= 0")
        if not (self.tol > 0 and self.feasibility_threshold > 0):
            raise BadSpec("tol and feasibility_threshold must be positive")
        try:  # the spec is written into every report, as strict JSON
            json.dumps(self.canonical_dict(), allow_nan=False)
        except ValueError:
            raise BadSpec("spec values must be finite (no NaN or infinity)")

    def canonical_dict(self) -> dict:
        return {f.name: _as_lists(getattr(self, f.name)) for f in fields(self)}

    def spec_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        kwargs = dict(data)
        for key in ("grid", "theta_values", "h_scales"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        if "eta" in kwargs:
            kwargs["eta"] = tuple(tuple(row) for row in kwargs["eta"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a report needs; every pass has a stored certificate."""

    name: str
    spec_hash: str
    seed: int
    passed: bool
    samples: tuple
    certificates: tuple
    provenance_digests: tuple
    maps: tuple
    round_trip_max: float
    notes: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "spec_hash": self.spec_hash,
            "seed": self.seed,
            "passed": self.passed,
            "round_trip_max": residual_bound(self.round_trip_max),
            "samples": [{k: residual_bound(v) if k.endswith(RESIDUAL_SUFFIXES)
                         else v for k, v in s.items()}
                        for s in self.samples],
            "certificates": [c.to_json_dict() for c in self.certificates],
            "provenance_digests": list(self.provenance_digests),
            "maps": [dict(m) for m in self.maps],
            "notes": list(self.notes),
        }


# --- gravity background ------------------------------------------------------------


def build_gravity_background(grid, eta=((1.0, 0.0), (0.0, 1.0)),
                             field_strength: float = 1.0,
                             mass: float = 1.0) -> dict:
    """Operators for the two coupled theories on a 2D periodic grid.

    Returns the metric Laplacian, its mass-regulated version (the grid
    surrogate for well-defined Green functions; ``mass = 0`` is permitted
    but leaves it non-invertible), the second-derivative basis, and the
    antisymmetric-background operator.
    """
    grid = tuple(int(n) for n in grid)
    if len(grid) != 2:
        raise BadSpec("the gravity scenarios need a 2D grid")
    eta_mat = np.asarray(eta, dtype=float)
    space = grid_space(grid)
    eta_up = np.linalg.inv(eta_mat)
    box_eta = make_discrete_operator(space, "box", eta=eta_up)
    # the regulated wave operator is m^2 - d^2: its circulant symbol is
    # m^2 + 4 sum sin^2 >= m^2, so every m > 0 is right-invertible (the raw
    # stencil's symbol m^2 - 4 sum sin^2 vanishes exactly at m = 2)
    box_m = add(scale(-1.0, box_eta),
                scale(mass * mass, identity_operator(space)))
    d1 = {(mu, nu): make_discrete_operator(space, "d1_basis", mu=mu, nu=nu)
          for mu in range(2) for nu in range(2)}
    d2 = make_discrete_operator(space, "d2_background",
                                field_strength=field_strength, eta=eta_mat)
    return {"space": space, "box_eta": box_eta, "box_m": box_m, "d1": d1,
            "d2": d2, "eta": eta_mat, "field_strength": float(field_strength),
            "mass": float(mass)}


def gravity_operator(background: dict, h) -> Operator:
    """``h . D1`` for a symmetric perturbation ``h = (h00, h01, h11)``."""
    d1 = background["d1"]
    return add(add(scale(h[0], d1[(0, 0)]),
                   scale(h[1], add(d1[(0, 1)], d1[(1, 0)]))),
               scale(h[2], d1[(1, 1)]))


def _sym_flat(op: Operator) -> np.ndarray:
    """The flattened stencil of a circulant's symmetric part."""
    return sym_part(op).body.ravel()


def _exact_sum(values: np.ndarray, repeats: int, operand: str) -> float:
    """``repeats * sum(values)``, correctly rounded, of products of the
    least squares' ``operand``; a product or a sum that overflows (an
    overflowing coupling) raises HypothesisViolated."""
    total = exact_sum(values, repeats)
    if math.isnan(total):
        bad = np.flatnonzero(~np.isfinite(values))[:1].tolist()
        raise HypothesisViolated(
            f"least-squares {operand} "
            f"{f'product entry {bad[0]}' if bad else 'sum'} is not finite; "
            "the couplings overflow",
            evidence={"operand": operand, **({"index": bad} if bad else {})})
    return total


def _least_squares(design: np.ndarray, rhs: np.ndarray, repeats: int):
    """Deterministic ``min |design @ x - rhs|`` for a design of few columns.

    The rows are stencil entries of circulants, each standing for the
    ``repeats`` matrix entries it fills, so every sum over the matrices is
    ``repeats`` times the sum over the stencils; that is summed exactly and
    rounded once, the same float as a correctly rounded sum over the
    matrices.  Solves the normal equations by Gaussian elimination in a
    fixed order, so the result is the same bits on every BLAS kernel.  A
    column that is (numerically) dependent on earlier ones gets coefficient
    zero; for an all-zero column that is the minimum-norm answer.  Returns
    ``(x, gap)`` with the gap the Frobenius norm of the fit's residual.
    A non-finite entry or product (an overflowing coupling) raises
    HypothesisViolated.
    """
    for name, data in (("design", design), ("rhs", rhs)):
        bad = np.argwhere(~np.isfinite(data))
        if bad.size:
            index = [int(i) for i in bad[0]]
            raise HypothesisViolated(
                f"least-squares {name} entry {index} is not finite; the "
                "couplings overflow",
                evidence={"operand": name, "index": index})
    k = design.shape[1]
    gram = [[_exact_sum(design[:, i] * design[:, j], repeats, "design")
             for j in range(k)] for i in range(k)]
    b = [_exact_sum(design[:, j] * rhs, repeats, "rhs") for j in range(k)]
    diagonal = [gram[i][i] for i in range(k)]
    pivots = []
    for p in range(k):
        if gram[p][p] <= 1e-13 * diagonal[p]:
            continue
        pivots.append(p)
        for i in range(p + 1, k):
            factor = gram[i][p] / gram[p][p]
            for j in range(p, k):
                gram[i][j] -= factor * gram[p][j]
            b[i] -= factor * b[p]
    x = [0.0] * k
    for p in reversed(pivots):
        x[p] = (b[p] - sum(gram[p][j] * x[j]
                           for j in range(p + 1, k))) / gram[p][p]
    residual = -rhs
    for j in range(k):
        residual = residual + x[j] * design[:, j]
    return tuple(x), math.sqrt(_exact_sum(residual * residual, repeats,
                                          "residual"))


def feasible_metric_perturbation(background: dict, theta: float):
    """Least-squares ``h`` with ``h . D1`` matching ``theta * D2``.

    Returns ``(h, gap)``; the gap is the Frobenius distance between the two
    quadratic forms at the minimizer.
    """
    d1 = background["d1"]
    design = np.stack([
        _sym_flat(d1[(0, 0)]),
        _sym_flat(d1[(0, 1)]) + _sym_flat(d1[(1, 0)]),
        _sym_flat(d1[(1, 1)]),
    ], axis=1)
    rhs = theta * _sym_flat(background["d2"])
    return _least_squares(design, rhs, background["space"].dim)


def noncommutativity_coefficient(background: dict, h):
    """Least-squares coupling with ``theta * D2`` matching ``h . D1``."""
    column = _sym_flat(background["d2"])[:, None]
    rhs = _sym_flat(gravity_operator(background, h))
    (theta,), gap = _least_squares(column, rhs, background["space"].dim)
    return theta, gap


def check_feasible(background: dict, h, threshold: float = 1e-6):
    """Raise ``InfeasibleTarget`` when ``h . D1`` leaves the affine span.

    Generic three-parameter perturbations cannot be matched by the
    one-parameter family; the constructed feasible ray always passes.
    """
    theta, gap = noncommutativity_coefficient(background, h)
    if gap > threshold:
        raise InfeasibleTarget(
            f"perturbation is not in the affine span of the one-parameter "
            f"family (span gap {gap:.3e} > {threshold:.1e})", gap=gap)
    return theta, gap


# --- synthesis and certification ---------------------------------------------------


def _build_and_certify(source, poly, spec: ScenarioSpec,
                       jobs: int | None = None):
    """Synthesize at :data:`BUILD_TOL` on at most 40 draws, then certify.

    The certificate at the spec's own ``tol`` over its ``samples`` (same
    seed) takes the map's as ``covered``: it evaluates only the later
    draws.  Returns the map and the certificate.
    """
    emap = emerge(source, poly, tol=BUILD_TOL,
                  n_samples=min(spec.samples, 40), seed=spec.seed)
    cert = verify_emergence(source, poly, emap.parameter_map, spec.samples,
                            spec.tol, spec.seed, jobs,
                            covered=emap.certificate)
    return emap, cert


# --- regulated engine cross-check ---------------------------------------------------


def _gravity_cross_check(background: dict, spec: ScenarioSpec,
                         jobs: int | None = None):
    """Engine synthesis on the mass-regulated surrogate slots.

    The physical antisymmetric-background operator has the constant zero
    mode, so the transported synthesis uses the regulated pair
    ``(box_m, -f * box_m)``; the recovered per-term coefficient is
    ``-(1 + eps)/f`` on the regulated ray.  Returns the report's
    certificates, provenance digests and maps: one each, or none when the
    field strength or the mass is zero.
    """
    f = background["field_strength"]
    if f == 0.0 or background["mass"] == 0.0:
        return (), (), ()
    algebra = RealScalars()
    slot_x = background["box_m"]
    slot_y = scale(-f, background["box_m"])
    source = scalar_family(algebra, slot_x, label="regulated_kinetic")
    source = source.with_claims("additive", "scalar_invariant")
    source, _ = verify_structure(source, n_samples=8, seed=spec.seed)
    poly = polynomial_family(
        [slot_x, slot_y],
        {(1, 0): CoefficientFunction.constant(-1.0, domain="real"),
         (0, 1): CoefficientFunction.linear(1.0, domain="real")},
        algebra, label="regulated_surrogate")
    emap, cert = _build_and_certify(source, poly, spec, jobs)
    return (cert,), (emap.provenance.digest(),), (emap.to_json_dict(),)


# --- gravity scenario runners ---------------------------------------------------------


def _field_block(space, rng, samples: int) -> FieldBlock:
    """The spec's fixed fields as one block, so every Lagrangian evaluated
    on them shares their self-correlations."""
    block = np.empty((samples, space.dim), space.dtype)
    for row in block:  # filled in place: one copy of the block at a time
        row[:] = space.sample_field(rng)
    return FieldBlock(block, space)


def run_gravity_from_noncommutativity(spec: ScenarioSpec,
                                      jobs: int | None = None) -> ScenarioResult:
    """Round trip coupling -> feasible perturbation -> recovered coupling."""
    background = build_gravity_background(spec.grid, spec.eta,
                                          spec.field_strength, spec.mass)
    space = background["space"]
    rng = np.random.default_rng(spec.seed)
    fields = _field_block(space, rng, spec.samples)
    free = scale(-1.0, background["box_m"])
    samples = []
    worst_round_trip = 0.0
    all_ok = True
    for theta in spec.theta_values:
        degenerate = theta == 0.0
        h, build_gap = feasible_metric_perturbation(background, theta)
        recovered, gap = noncommutativity_coefficient(background, h)
        left = add(free, gravity_operator(background, h))
        right = add(free, scale(recovered, background["d2"]))
        fn_res = functional_residual(left, right, fields)
        round_trip = abs(recovered - theta)
        ok = (gap <= spec.feasibility_threshold
              and round_trip <= spec.tol and fn_res <= spec.tol)
        samples.append({
            "theta": float(theta),
            "h": [float(x) for x in h],
            "build_gap": build_gap,
            "span_gap": gap,
            "recovered_theta": recovered,
            "round_trip_error": round_trip,
            "functional_residual": fn_res,
            "degenerate": bool(degenerate),
        })
        worst_round_trip = max(worst_round_trip, round_trip)
        all_ok = all_ok and ok
    # sanity: the zero perturbation reproduces the free theory
    free_res = functional_residual(
        add(free, gravity_operator(background, (0.0, 0.0, 0.0))), free, fields)
    del fields  # not alive during certification
    certificates, digests, maps = _gravity_cross_check(background, spec, jobs)
    passed = all_ok and free_res <= spec.tol \
        and all(c.passed for c in certificates)
    return ScenarioResult(spec.name, spec.spec_hash(), spec.seed, passed,
                          tuple(samples), certificates, digests, maps,
                          worst_round_trip,
                          notes=("free_theory_residual="
                                 f"{residual_bound(free_res):.3e}",))


def run_noncommutativity_from_gravity(spec: ScenarioSpec,
                                      jobs: int | None = None) -> ScenarioResult:
    """Mirrored round trip: perturbation -> coupling -> recovered perturbation."""
    background = build_gravity_background(spec.grid, spec.eta,
                                          spec.field_strength, spec.mass)
    space = background["space"]
    eta_up = np.linalg.inv(background["eta"])
    rng = np.random.default_rng(spec.seed)
    fields = _field_block(space, rng, spec.samples)
    free = scale(-1.0, background["box_m"])
    samples = []
    worst_round_trip = 0.0
    all_ok = True
    for c in spec.h_scales:
        if c <= 0:
            raise BadSpec("perturbation scales must keep h positive definite")
        h_mat = c * eta_up
        h = (float(h_mat[0, 0]), float(h_mat[0, 1]), float(h_mat[1, 1]))
        theta, gap = noncommutativity_coefficient(background, h)
        h_back, back_gap = feasible_metric_perturbation(background, theta)
        round_trip = max(abs(a - b) for a, b in zip(h, h_back))
        left = add(free, scale(theta, background["d2"]))
        right = add(free, gravity_operator(background, h_back))
        fn_res = functional_residual(left, right, fields)
        ok = (gap <= spec.feasibility_threshold
              and round_trip <= spec.tol and fn_res <= spec.tol)
        samples.append({
            "h_scale": float(c),
            "h": list(h),
            "recovered_theta": theta,
            "span_gap": gap,
            "h_round_trip": list(h_back),
            "round_trip_error": round_trip,
            "functional_residual": fn_res,
            "degenerate": False,
        })
        worst_round_trip = max(worst_round_trip, round_trip)
        all_ok = all_ok and ok
    del fields  # not alive during certification
    certificates, digests, maps = _gravity_cross_check(background, spec, jobs)
    passed = all_ok and all(c.passed for c in certificates)
    return ScenarioResult(spec.name, spec.spec_hash(), spec.seed, passed,
                          tuple(samples), certificates, digests, maps,
                          worst_round_trip)


# --- idempotent scenario -----------------------------------------------------------


def _oracle_agreement(source, poly, emap: EmergenceMap, eps_values) -> float:
    """Worst quadratic-form distance between synthesis and brute force."""
    residuals = []
    for eps, assignment in zip(eps_values, map_draws(emap.parameter_map,
                                                     eps_values)):
        fitted = brute_force_emerge(source, poly, eps)
        if fitted is None:
            return float("inf")
        residuals.append(operator_residual(evaluate_polynomial(poly, assignment),
                                           evaluate_polynomial(poly, fitted)))
    return float(np.max(residuals, initial=0.0))  # a NaN stays


def run_idempotent_instance(spec: ScenarioSpec,
                            jobs: int | None = None) -> ScenarioResult:
    """Projector sources against declared polynomials, oracle-checked.

    ``variant = "identity"`` runs the certifying instances (univariate and
    bivariate); ``variant = "projector"`` is the negative instance whose
    per-term solve leaves the identity orbit and raises.
    """
    grid = spec.grid if len(spec.grid) == 1 else (spec.grid[0],)
    if spec.variant == "projector":
        space = grid_space(grid, scalar_kind="complex")
        modes = [plane_wave(space, (1,)), plane_wave(space, (2,))]
        proj = make_discrete_operator(space, "projection", basis=modes)
        if not is_idempotent_power(proj, 1):
            raise HypothesisViolated("declared operator is not idempotent")
        algebra = ComplexScalars()
        source = scalar_family(algebra, proj, label="projector_theory")
        source, _ = verify_structure(
            source.with_claims("additive", "scalar_invariant"),
            n_samples=8, seed=spec.seed)
        poly = polynomial_family([identity_operator(space)],
                                 {(1,): CoefficientFunction.linear(1.0)},
                                 algebra, label="identity_slot")
        # the per-term solve leaves the identity orbit: NotScalarForm
        emerge(source, poly, tol=BUILD_TOL, n_samples=8, seed=spec.seed)
        raise HypothesisViolated(  # pragma: no cover - emerge always raises
            "projector instance unexpectedly synthesized")

    if spec.variant != "identity":
        raise BadSpec(f"unknown idempotent variant {spec.variant!r}")
    space = grid_space(grid)
    algebra = RealScalars()
    ident = identity_operator(space)
    if not is_idempotent_power(ident, 1):
        raise HypothesisViolated("declared operator is not idempotent")
    source = scalar_family(algebra, ident, label="idempotent_theory")
    source, _ = verify_structure(
        source.with_claims("additive", "multiplicative", "homomorphic",
                           "scalar_invariant"),
        n_samples=12, seed=spec.seed)
    rng = np.random.default_rng(spec.seed)
    eps_probe = [float(rng.uniform(0.2, 2.0)) for _ in range(3)]

    poly_uni = polynomial_family([ident],
                                 {(1,): CoefficientFunction.linear(1.0,
                                                                   domain="real")},
                                 algebra, label="linear_identity")
    map_uni, cert_uni = _build_and_certify(source, poly_uni, spec, jobs)
    oracle_uni = _oracle_agreement(source, poly_uni, map_uni, eps_probe)

    shift = make_discrete_operator(space, "shift", axis=0)
    box1 = add(make_discrete_operator(space, "box"),
               identity_operator(space))
    poly_bi = polynomial_family(
        [shift, box1],
        {(0, 0): CoefficientFunction.linear(1.0, domain="real")},
        algebra, label="bivariate_constant_monomial")
    map_bi, cert_bi = _build_and_certify(source, poly_bi, spec, jobs)
    oracle_bi = _oracle_agreement(source, poly_bi, map_bi, eps_probe)

    round_trips = [abs(map_uni(e)[(1,)] - e) for e in eps_probe]
    worst_rt = float(max(round_trips))
    samples = [{
        "instance": "univariate_identity",
        "oracle_residual": float(oracle_uni),
        "round_trip_error": float(max(round_trips)),
        "degenerate": False,
    }, {
        "instance": "bivariate_constant_monomial",
        "oracle_residual": float(oracle_bi),
        "round_trip_error": float(max(abs(map_bi(e)[(0, 0)] - e)
                                      for e in eps_probe)),
        "degenerate": False,
    }]
    passed = (cert_uni.passed and cert_bi.passed
              and oracle_uni <= spec.tol and oracle_bi <= spec.tol
              and worst_rt <= spec.tol)
    return ScenarioResult(spec.name, spec.spec_hash(), spec.seed, passed,
                          tuple(samples), (cert_uni, cert_bi),
                          (map_uni.provenance.digest(),
                           map_bi.provenance.digest()),
                          (map_uni.to_json_dict(), map_bi.to_json_dict()),
                          worst_rt)


# --- boolean scenario ----------------------------------------------------------------


def run_boolean_scenario(spec: ScenarioSpec,
                         jobs: int | None = None) -> ScenarioResult:
    """Block masks acting diagonally: axioms, compatibility, synthesis."""
    algebra = BooleanComplex(spec.masks, spec.block)
    dim = spec.masks * spec.block
    space = plain_space(dim, scalar_kind="complex")
    rng = np.random.default_rng(spec.seed)

    idems = [algebra.sample_idempotent(rng) for _ in range(8)]
    idem_res = 0.0
    sqrt_res = 0.0
    for a in idems:
        idem_res = max(idem_res, float(np.max(np.abs(
            algebra.mul(a, a) - np.asarray(a)))))
        sqrt_res = max(sqrt_res, float(np.max(np.abs(
            algebra.sqrt_select(a) - np.asarray(a)))))

    diag_ops = [diagonal_operator(space, rng.uniform(0.5, 2.0, dim)
                                  .astype(complex))
                for _ in range(2)]
    compat = check_action_compatibility(algebra, diag_ops, n_samples=12,
                                        seed=spec.seed)
    # representation compatibility on idempotents is exact for diagonal
    # operators: the mask square collapses onto the mask itself.  Masks and
    # operators are diagonal, so their row-scale vectors carry every entry
    d0, d1 = (op.body for op in diag_ops)
    rep_res = 0.0
    for a in idems:
        rho = algebra.row_scale(a)
        lhs = rho * (d0 * d1)
        rhs = (rho * d0) * (rho * d1)
        rep_res = max(rep_res, float(np.max(np.abs(lhs - rhs))))
    # disjoint supports multiply to the empty mask
    half = spec.masks // 2
    mask_a = np.array([1.0] * half + [0.0] * (spec.masks - half), dtype=complex)
    mask_b = 1.0 - mask_a
    disjoint = algebra.row_scale(algebra.mul(mask_a, mask_b))
    disjoint_res = float(np.max(np.abs(
        algebra.row_scale(mask_a) * algebra.row_scale(mask_b) - disjoint)))

    psi0 = diagonal_operator(space, rng.uniform(1.0, 2.0, dim).astype(complex))
    source = scalar_family(algebra, psi0, label="masked_theory")
    source, _ = verify_structure(
        source.with_claims("additive", "scalar_invariant"),
        n_samples=12, seed=spec.seed)
    poly = polynomial_family([psi0],
                             {(1,): CoefficientFunction.linear(1.0)},
                             algebra, label="mask_times_base")
    emap, cert = _build_and_certify(source, poly, spec, jobs)
    recovery = float(np.max([
        np.max(np.abs(np.asarray(table[(1,)]) - np.asarray(a)))
        for a, table in zip(idems, map_draws(emap.parameter_map, idems))],
        initial=0.0))
    oracle = _oracle_agreement(source, poly, emap,
                               [algebra.sample(rng) for _ in range(3)])
    samples = [{
        "instance": "mask_recovery",
        "idempotent_residual": idem_res,
        "sqrt_residual": sqrt_res,
        "representation_residual": rep_res,
        "disjoint_support_residual": disjoint_res,
        "recovery_error": recovery,
        "oracle_residual": float(oracle),
        "degenerate": False,
    }]
    passed = (compat.ok and cert.passed and idem_res == 0.0
              and sqrt_res <= 1e-12 and rep_res <= 1e-12
              and disjoint_res == 0.0 and recovery <= spec.tol
              and oracle <= spec.tol)
    return ScenarioResult(spec.name, spec.spec_hash(), spec.seed, passed,
                          tuple(samples), (cert,),
                          (emap.provenance.digest(),),
                          (emap.to_json_dict(),), float(recovery))


# --- registry ------------------------------------------------------------------------


SCENARIO_RUNNERS = {
    "gravity_from_noncommutativity": run_gravity_from_noncommutativity,
    "noncommutativity_from_gravity": run_noncommutativity_from_gravity,
    "idempotent": run_idempotent_instance,
    "boolean": run_boolean_scenario,
}


def run_scenario_spec(spec: ScenarioSpec,
                      jobs: int | None = None) -> ScenarioResult:
    runner = SCENARIO_RUNNERS.get(spec.name)
    if runner is None:
        raise BadSpec(f"unknown scenario {spec.name!r}; available: "
                      f"{sorted(SCENARIO_RUNNERS)}")
    return runner(spec, jobs=jobs)
