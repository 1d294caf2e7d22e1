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
machine and BLAS kernel: all sampling goes through generators seeded by the
spec's seed (a runner's fixed fields and its certificates read one
:class:`~emergence.engine.Normals` stream of it), the least-squares fits
use correctly rounded sums instead of LAPACK, and reports write residuals
as kernel-independent bounds (:func:`~emergence.engine.residual_bound`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .engine import (EmergenceMap, Normals, brute_force_emerge, emerge,
                     functional_residual, json_form, map_block,
                     residual_bound, verify_emergence)
from .errors import BadSpec, HypothesisViolated, InfeasibleTarget
from .operator_core import (FieldBlock, Operator, OperatorStack, add,
                            diagonal_operator, exact_sum, grid_space,
                            identity_operator, is_idempotent_power,
                            make_discrete_operator, operator_residual,
                            plain_space, plane_wave, scale, stack_operators,
                            subtract, sym_part, zero_operator)
from .parameter_algebra import (BooleanComplex, CoefficientFunction,
                                ComplexScalars, Draws, RealScalars,
                                check_action_compatibility)
from .schema import _validate
from .theories import (evaluate_polynomial, polynomial_family, scalar_family,
                       verify_structure)

#: construction-time tolerance; shipped results are re-verified at the
#: spec's own tolerance, so a strict --tol can fail a cert without making
#: synthesis itself refuse
BUILD_TOL = 1e-6

#: sample fields with these suffixes are agreement measures; reports write
#: them as bounds, the verdict uses the raw values
RESIDUAL_SUFFIXES = ("_residual", "_error", "_gap")

#: the default span-gap bound of :func:`_feasible`, the one feasibility rule
FEASIBILITY_THRESHOLD = 1e-6

# --- specs and results -----------------------------------------------------------


#: the spec's integer fields; the schema's integers count 2.0, which a spec
#: holds as 2, so that both forms give one spec, hash and report
_INTEGER_FIELDS = ("grid", "masks", "block", "samples", "seed")


def _plain(key: str, value):
    """Field ``key``'s ``value`` with numpy scalars and arrays as Python
    ones and every list or array as a tuple, at any depth, and an integer
    field's integral floats as ints.  A NaN or infinity, which Draft 7 lets
    pass its bounds, is refused: every report holds the spec as strict
    JSON.  The schema judges the rest."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return tuple(_plain(key, v) for v in value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise BadSpec(f"{key}: {value!r} is not finite")
        if key in _INTEGER_FIELDS and value.is_integer():
            return int(value)
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully-resolved scenario description (what the CLI loads); built,
    replaced or loaded, it meets the scenario schema or raises BadSpec."""

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
    feasibility_threshold: float = FEASIBILITY_THRESHOLD
    seed: int = 42

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name,
                               _plain(f.name, getattr(self, f.name)))
        _validate(self.canonical_dict(), "scenario.schema.json", BadSpec)

    def canonical_dict(self) -> dict:
        return {f.name: json_form(getattr(self, f.name)) for f in fields(self)}

    def spec_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """The spec of a dict such as a config holds.  Construction checks
        it; the schema sees the raw dict only to word what construction
        cannot, an unknown or missing key or data that is not a mapping,
        as a BadSpec."""
        try:
            return cls(**data)
        except TypeError:
            _validate(json_form(data), "scenario.schema.json", BadSpec)
            raise


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

    Returns the inverse metric, the metric Laplacian, its mass-regulated
    version (the grid surrogate for well-defined Green functions;
    ``mass = 0`` is permitted but leaves it non-invertible), the
    second-derivative basis ``d1``, the ``columns`` ``(D1_00, D1_01 + D1_10,
    D1_11)`` that a symmetric perturbation weights, and the
    antisymmetric-background operator ``d2``, composed from ``d1`` and the
    metric Laplacian.  The metric must be symmetric and positive definite.
    It holds the fits' plans too, ``"feasible_fit"`` and ``"coupling_fit"``,
    each a pair ``(design, gram)``: the design is its columns' symmetric
    parts as one ``OperatorStack``, and the Gram their sums, NaN where one
    overflows.  The coupling fit's design is ``sym(D2)`` as a stack of one,
    which :func:`feasible_metric_perturbation` scales into its rhs.
    """
    grid = tuple(int(n) for n in grid)
    if len(grid) != 2:
        raise BadSpec("the gravity scenarios need a 2D grid")
    eta_mat = np.asarray(eta, dtype=float)
    if eta_mat.shape != (2, 2) or not np.allclose(eta_mat, eta_mat.T):
        raise BadSpec("metric must be a symmetric 2x2 matrix")
    if np.any(np.linalg.eigvalsh(eta_mat) <= 0):
        raise BadSpec("metric must be positive definite")
    space = grid_space(grid)
    eta_up = np.linalg.inv(eta_mat)
    box_eta = make_discrete_operator(space, "box", eta=eta_up)
    # the regulated wave operator is m^2 - d^2: its circulant symbol is
    # m^2 + 4 sum sin^2 >= m^2, so every m > 0 is right-invertible (the raw
    # stencil's symbol m^2 - 4 sum sin^2 vanishes exactly at m = 2)
    mass = float(mass)
    box_m = add(scale(-1.0, box_eta),
                scale(mass * mass, identity_operator(space)))
    if not np.isfinite(box_m.stack.body).all():
        raise HypothesisViolated(
            "the regulated wave operator is not finite; the mass overflows",
            evidence={"operand": "box_m"})
    d1 = {(mu, nu): make_discrete_operator(space, "second_partial",
                                           mu=mu, nu=nu)
          for mu, nu in ((0, 0), (0, 1), (1, 1))}
    # each entry of a mixed second partial is one product, so d_1 d_0 is
    # d_0 d_1 bit for bit
    d1[(1, 0)] = d1[(0, 1)]
    columns = (d1[(0, 0)], add(d1[(0, 1)], d1[(1, 0)]), d1[(1, 1)])
    # D2: the antisymmetric background contracted against the inverse
    # metric, trace-adjusted; an overflowing field strength leaves entries
    # that are not finite, which the fits refuse, so numpy need not warn
    eps2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    d2 = zero_operator(space)
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = 2.0 * (eps2 @ (float(field_strength) * eps2) @ eta_up)
        for (mu, nu), c in np.ndenumerate(coeff):
            if c != 0.0:
                d2 = add(d2, scale(c, subtract(
                    d1[(mu, nu)], scale(0.25 * eta_mat[mu, nu], box_eta))))
        plans = {}
        for fit, cols in (("feasible_fit", columns), ("coupling_fit", [d2])):
            design = sym_part(stack_operators(cols))
            plans[fit] = (design, [[exact_sum(a * b, space.dim) for b in
                                    design.body] for a in design.body])
    return {"space": space, "box_eta": box_eta, "box_m": box_m, "d1": d1,
            "columns": columns, "d2": d2, "eta_up": eta_up,
            "field_strength": float(field_strength), "mass": mass, **plans}


def gravity_operator(background: dict, h) -> Operator:
    """``h . D1`` for ``h = (h00, h01, h11)``; other lengths raise BadSpec."""
    if len(h) != 3:
        raise BadSpec(f"h = (h00, h01, h11) has 3 entries, not {len(h)}")
    (c00, c01, c11), (h00, h01, h11) = background["columns"], h
    return add(add(scale(h00, c00), scale(h01, c01)), scale(h11, c11))


def _least_squares(background: dict, fit: str,
                   rhs: Operator | OperatorStack):
    """Deterministic ``min_x |sum_j x_j sym(C_j) - rhs|_F`` for a few
    circulants ``C_j``, the columns of the background's plan ``fit``, and
    the symmetric circulant ``rhs`` (one operator, or a stack of one), a
    quadratic form to match.

    The columns' symmetric parts and ``rhs`` are lined up on one stencil
    support (:func:`~emergence.operator_core.stack_operators`), and every
    sum runs over its entries, each standing for the ``n`` matrix entries
    it fills: the sum over the matrices is ``n`` times the sum over the
    entries, summed exactly and rounded once, the same float as a
    correctly rounded sum over the matrices.  Solves the normal equations
    by Gaussian elimination in a fixed order, so the result is the same
    bits on every BLAS kernel.  A column that is (numerically) dependent on
    earlier ones gets coefficient zero; for an all-zero column that is the
    minimum-norm answer.  Returns ``(x, gap)`` with the gap the Frobenius
    norm of the fit's residual.  A non-finite entry, product or sum (an
    overflowing coupling) raises HypothesisViolated, naming the support
    offset (the grid row) where one is not finite; the plan's Gram sums are
    judged after the design's and the rhs's entries, NaN ones summed again.
    """
    design, plan_gram = background[fit]
    lined = stack_operators([design, rhs])
    offsets, entries, k = lined.support.offsets, lined.body, len(design)
    for name, data in (("design", entries[:k].T), ("rhs", entries[k])):
        bad = np.argwhere(~np.isfinite(data))
        if bad.size:
            index = [int(offsets[bad[0][0]]), *(int(i) for i in bad[0][1:])]
            raise HypothesisViolated(
                f"least-squares {name} entry {index} is not finite; the "
                "couplings overflow",
                evidence={"operand": name, "index": index})
    repeats = background["space"].dim

    def total(a: np.ndarray, b: np.ndarray, operand: str) -> float:
        """``repeats * sum(a * b)``, correctly rounded; a product or a sum
        that overflows raises HypothesisViolated, so numpy need not warn."""
        with np.errstate(over="ignore", invalid="ignore"):
            products = a * b
        out = exact_sum(products, repeats)
        if math.isnan(out):
            bad = offsets[~np.isfinite(products)][:1].tolist()
            raise HypothesisViolated(
                f"least-squares {operand} "
                f"{f'product entry {bad[0]}' if bad else 'sum'} is not "
                "finite; the couplings overflow",
                evidence={"operand": operand,
                          **({"index": bad} if bad else {})})
        return out

    gram = [[total(entries[i], entries[j], "design") if math.isnan(g) else g
             for j, g in enumerate(row)] for i, row in enumerate(plan_gram)]
    b = [total(entries[j], entries[k], "rhs") for j in range(k)]
    pivots = []
    for p in range(k):
        if gram[p][p] <= 1e-13 * plan_gram[p][p]:  # before elimination
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
    residual = -entries[k]
    with np.errstate(over="ignore", invalid="ignore"):  # total refuses it
        for j in range(k):
            residual = residual + x[j] * entries[j]
    return tuple(x), math.sqrt(total(residual, residual, "residual"))


def feasible_metric_perturbation(background: dict, theta: float):
    """Least-squares ``h`` with ``h . D1`` matching ``theta * D2``.

    Returns ``(h, gap)``; the gap is the Frobenius distance between the two
    quadratic forms at the minimizer.
    """
    # theta * sym(D2), the coupling fit's design: sym(theta * D2) doubles
    # before it halves, so it would overflow at half the coupling
    with np.errstate(over="ignore", invalid="ignore"):  # the fit refuses it
        rhs = scale(theta, background["coupling_fit"][0])
    return _least_squares(background, "feasible_fit", rhs)


def noncommutativity_coefficient(background: dict, h):
    """Least-squares coupling with ``theta * D2`` matching ``h . D1``."""
    with np.errstate(over="ignore", invalid="ignore"):  # the fit refuses it
        rhs = sym_part(gravity_operator(background, h))
    (theta,), gap = _least_squares(background, "coupling_fit", rhs)
    return theta, gap


def _feasible(gap: float, threshold: float) -> bool:
    return gap <= threshold


def check_feasible(background: dict, h, threshold=FEASIBILITY_THRESHOLD):
    """Raise ``InfeasibleTarget`` when ``h . D1`` leaves the affine span.

    Generic three-parameter perturbations cannot be matched by the
    one-parameter family; the constructed feasible ray always passes.
    """
    theta, gap = noncommutativity_coefficient(background, h)
    if not _feasible(gap, threshold):
        raise InfeasibleTarget(
            f"perturbation is not in the affine span of the one-parameter "
            f"family (span gap {gap:.3e} > {threshold:.1e})", gap=gap)
    return theta, gap


# --- synthesis and certification ---------------------------------------------------


def _build_and_certify(source, poly, spec: ScenarioSpec, normals: Normals,
                       jobs: int | None = None):
    """Synthesize at :data:`BUILD_TOL` on at most 40 draws, then certify.

    Both read ``normals``, the run's stream of the spec's seed.  The
    certificate at the spec's own ``tol`` over its ``samples`` takes the
    map's as ``covered``: it evaluates only the later draws.  Returns the
    map and the certificate.
    """
    emap = emerge(source, poly, tol=BUILD_TOL,
                  n_samples=min(spec.samples, 40), seed=normals)
    cert = verify_emergence(source, poly, emap.parameter_map, spec.samples,
                            spec.tol, normals, jobs,
                            covered=emap.certificate)
    return emap, cert


# --- regulated engine cross-check ---------------------------------------------------


def _gravity_cross_check(background: dict, spec: ScenarioSpec,
                         normals: Normals, jobs: int | None = None):
    """Engine synthesis on the mass-regulated surrogate slots.

    The physical antisymmetric-background operator has the constant zero
    mode, so the transported synthesis uses the regulated pair
    ``(box_m, -f * box_m)``; the recovered per-term coefficient is
    ``-(1 + eps)/f`` on the regulated ray.  Certification reads
    ``normals``, the run's stream of the spec's seed.  Returns the
    report's ``(map, certificate)`` pairs: one, or none when the field
    strength or the mass is zero.
    """
    f = background["field_strength"]
    if f == 0.0 or background["mass"] == 0.0:
        return ()
    algebra = RealScalars()
    slot_x = background["box_m"]
    with np.errstate(over="ignore"):  # right_inverse refuses it
        slot_y = scale(-f, background["box_m"])
    source = scalar_family(algebra, slot_x, label="regulated_kinetic")
    source = source.with_claims("additive", "scalar_invariant")
    source, _ = verify_structure(source, n_samples=8, seed=spec.seed)
    poly = polynomial_family(
        [slot_x, slot_y],
        {(1, 0): CoefficientFunction.constant(-1.0, domain="real"),
         (0, 1): CoefficientFunction.linear(1.0, domain="real")},
        algebra, label="regulated_surrogate")
    return (_build_and_certify(source, poly, spec, normals, jobs),)


def _result(spec: ScenarioSpec, samples, pairs, round_trip_max: float,
            passed: bool, notes=()) -> ScenarioResult:
    """A runner's report from its records and ``(map, certificate)`` pairs;
    it passes when the runner's own checks and every certificate do."""
    maps = tuple(emap.to_json_dict() for emap, _ in pairs)
    return ScenarioResult(
        spec.name, spec.spec_hash(), spec.seed,
        passed and all(cert.passed for _, cert in pairs), tuple(samples),
        tuple(cert for _, cert in pairs),
        tuple(m["provenance_digest"] for m in maps), maps, round_trip_max,
        tuple(notes))


# --- gravity scenario runners ---------------------------------------------------------


def _gravity_round_trip(spec: ScenarioSpec, jobs: int | None,
                        steps) -> ScenarioResult:
    """The round trip both gravity directions share.

    ``steps(background, free)`` yields ``(left, right, record)`` per
    coupling: two perturbations of the free theory ``free`` that should
    agree, and the sample's record.  Their functional residual on the
    spec's fixed fields joins the record; a record that is a string names a
    sanity check instead, which gates the verdict and is noted.
    """
    background = build_gravity_background(spec.grid, spec.eta,
                                          spec.field_strength, spec.mass)
    space = background["space"]
    # the spec's fixed fields as one block, so every Lagrangian evaluated on
    # them shares their self-correlations: the first normals of the run's
    # stream, which keeps them for certification to read again at its own
    # positions; real fields are a view of the stream, so one copy of them
    # is alive
    fixed = spec.samples * space.normals
    normals = Normals(spec.seed, keep=fixed)
    fields = FieldBlock(space.fields_from_normals(
        normals.read(0, fixed).reshape(spec.samples, -1)), space)
    samples, notes, worst_round_trip, all_ok = [], [], 0.0, True
    for left, right, record in steps(background,
                                     scale(-1.0, background["box_m"])):
        fn_res = functional_residual(left, right, fields)
        if isinstance(record, str):
            all_ok = all_ok and fn_res <= spec.tol
            notes.append(f"{record}={residual_bound(fn_res):.3e}")
            continue
        round_trip = record["round_trip_error"]
        all_ok = all_ok and round_trip <= spec.tol and fn_res <= spec.tol \
            and _feasible(record["span_gap"], spec.feasibility_threshold)
        # only a vanishing coupling is degenerate: the mirrored direction
        # starts from a positive-definite perturbation
        samples.append({**record, "functional_residual": fn_res,
                        "degenerate": record.get("theta") == 0.0})
        worst_round_trip = max(worst_round_trip, round_trip)
    # the block's correlations go; the stream keeps the normals until the
    # cross-check's certification reads past them
    del fields
    return _result(spec, samples,
                   _gravity_cross_check(background, spec, normals, jobs),
                   worst_round_trip, all_ok, notes)


def run_gravity_from_noncommutativity(spec: ScenarioSpec,
                                      jobs: int | None = None) -> ScenarioResult:
    """Round trip coupling -> feasible perturbation -> recovered coupling."""

    def steps(background, free):
        for theta in spec.theta_values:
            h, build_gap = feasible_metric_perturbation(background, theta)
            recovered, gap = noncommutativity_coefficient(background, h)
            yield (add(free, gravity_operator(background, h)),
                   add(free, scale(recovered, background["d2"])),
                   {"theta": float(theta), "h": [float(x) for x in h],
                    "build_gap": build_gap, "span_gap": gap,
                    "recovered_theta": recovered,
                    "round_trip_error": abs(recovered - theta)})
        # sanity: the zero perturbation reproduces the free theory
        yield (add(free, gravity_operator(background, (0.0, 0.0, 0.0))), free,
               "free_theory_residual")

    return _gravity_round_trip(spec, jobs, steps)


def run_noncommutativity_from_gravity(spec: ScenarioSpec,
                                      jobs: int | None = None) -> ScenarioResult:
    """Mirrored round trip: perturbation -> coupling -> recovered perturbation."""

    def steps(background, free):
        for c in spec.h_scales:
            h_mat = c * background["eta_up"]
            h = (float(h_mat[0, 0]), float(h_mat[0, 1]), float(h_mat[1, 1]))
            theta, gap = noncommutativity_coefficient(background, h)
            h_back, back_gap = feasible_metric_perturbation(background, theta)
            yield (add(free, scale(theta, background["d2"])),
                   add(free, gravity_operator(background, h_back)),
                   {"h_scale": float(c), "h": list(h),
                    "recovered_theta": theta, "span_gap": gap,
                    "h_round_trip": list(h_back),
                    "round_trip_error": max(abs(a - b)
                                            for a, b in zip(h, h_back))})

    return _gravity_round_trip(spec, jobs, steps)


# --- idempotent scenario -----------------------------------------------------------


def _oracle_agreement(source, poly, emap: EmergenceMap, eps_values) -> float:
    """Worst quadratic-form distance between synthesis and brute force.

    Both sides are the polynomial at every probe's per-term assignment,
    evaluated as one stack each, every draw with the bits it gets alone.
    """
    synthesized = map_block(emap.parameter_map, eps_values, poly.algebra)
    fitted = brute_force_emerge(source, poly, eps_values)
    if None in fitted:
        return float("inf")
    left, right = (evaluate_polynomial(poly, block)
                   for block in (synthesized, Draws.stack(fitted)))
    # a NaN stays
    return float(np.max(operator_residual(left, right), initial=0.0))


def _certified_instance(source, poly, spec: ScenarioSpec, normals: Normals,
                        jobs: int | None, probes, oracle_probes):
    """Build and certify ``poly``'s map on the run's stream ``normals``;
    return the ``(map, certificate)`` pair, the worst distance between a
    probe and the parameter the one term recovers there, and the oracle
    residual at ``oracle_probes``."""
    emap, cert = _build_and_certify(source, poly, spec, normals, jobs)
    ((alpha, _),) = poly.terms
    recovered = map_block(emap.parameter_map, probes,
                          poly.algebra)[alpha].values
    recovery = float(np.max(np.abs(recovered - Draws.stack(probes).values),
                            initial=0.0))
    return ((emap, cert), recovery,
            _oracle_agreement(source, poly, emap, oracle_probes))


def run_idempotent_instance(spec: ScenarioSpec,
                            jobs: int | None = None) -> ScenarioResult:
    """Projector sources against declared polynomials, oracle-checked.

    ``variant = "identity"`` runs the certifying instances (univariate and
    bivariate); ``variant = "projector"`` is the negative instance whose
    per-term solve leaves the identity orbit and raises.
    """
    if len(spec.grid) != 1:
        raise BadSpec("the idempotent scenario needs a 1D grid")
    if spec.variant == "projector":
        space = grid_space(spec.grid, scalar_kind="complex")
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
        # the per-term solve leaves the identity orbit: NotScalarForm.  On
        # 2 sites mode 2 is mode 0, so the projector is the identity and
        # emerge certifies; the negative instance is then refused here
        emerge(source, poly, tol=BUILD_TOL, n_samples=8, seed=spec.seed)
        raise HypothesisViolated(
            "projector instance unexpectedly synthesized")

    space = grid_space(spec.grid)
    algebra = RealScalars()
    ident = identity_operator(space)
    source = scalar_family(algebra, ident, label="idempotent_theory")
    source, _ = verify_structure(
        source.with_claims("additive", "multiplicative", "homomorphic",
                           "scalar_invariant"),
        n_samples=12, seed=spec.seed)
    rng = np.random.default_rng(spec.seed)
    eps_probe = [float(rng.uniform(0.2, 2.0)) for _ in range(3)]
    instances = {
        "univariate_identity": polynomial_family(
            [ident], {(1,): CoefficientFunction.linear(1.0, domain="real")},
            algebra, label="linear_identity"),
        "bivariate_constant_monomial": polynomial_family(
            [make_discrete_operator(space, "shift", axis=0),
             add(make_discrete_operator(space, "box"), ident)],
            {(0, 0): CoefficientFunction.linear(1.0, domain="real")},
            algebra, label="bivariate_constant_monomial"),
    }
    # both instances certify on one stream of the seed's normals, which
    # keeps each draw's parameter normal and field normals for the second
    normals = Normals(spec.seed,
                      keep=spec.samples * (algebra.normals + space.normals))
    samples, pairs, worst_round_trip, all_ok = [], [], 0.0, True
    for instance, poly in instances.items():
        pair, round_trip, oracle = _certified_instance(
            source, poly, spec, normals, jobs, eps_probe, eps_probe)
        samples.append({"instance": instance, "oracle_residual": oracle,
                        "round_trip_error": round_trip, "degenerate": False})
        pairs.append(pair)
        worst_round_trip = max(worst_round_trip, round_trip)
        all_ok = all_ok and oracle <= spec.tol and round_trip <= spec.tol
    return _result(spec, samples, pairs, worst_round_trip, all_ok)


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
    pair, recovery, oracle = _certified_instance(
        source, poly, spec, Normals(spec.seed), jobs, idems,
        algebra.samples(rng, 3))
    samples = [{
        "instance": "mask_recovery",
        "idempotent_residual": idem_res,
        "sqrt_residual": sqrt_res,
        "representation_residual": rep_res,
        "disjoint_support_residual": disjoint_res,
        "recovery_error": recovery,
        "oracle_residual": oracle,
        "degenerate": False,
    }]
    passed = (compat.ok and idem_res == 0.0 and sqrt_res <= 1e-12
              and rep_res <= 1e-12 and disjoint_res == 0.0
              and recovery <= spec.tol and oracle <= spec.tol)
    return _result(spec, samples, (pair,), recovery, passed)


# --- registry ------------------------------------------------------------------------


SCENARIO_RUNNERS = {
    "gravity_from_noncommutativity": run_gravity_from_noncommutativity,
    "noncommutativity_from_gravity": run_noncommutativity_from_gravity,
    "idempotent": run_idempotent_instance,
    "boolean": run_boolean_scenario,
}


def run_scenario_spec(spec: ScenarioSpec,
                      jobs: int | None = None) -> ScenarioResult:
    return SCENARIO_RUNNERS[spec.name](spec, jobs=jobs)
