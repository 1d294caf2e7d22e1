"""Carriers of fundamental parameters and their actions on operators.

A parameter algebra supplies addition, multiplication, scalar rescaling, a
selected square root, and an action ``act(eps, A)`` on operators.  A leaf
carrier states what one element is (``_element``, a cast that also
refuses non-elements) and :class:`ParameterAlgebra` does the arithmetic
once.  Every leaf carrier acts by scaling rows, by ``row_scale(eps)``: the
element itself, a scalar or one entry per row, except that a Boolean
element is repeated over its blocks.  Products act component by component.

The engine leans on three facts that are verified, not assumed, for each
shipped instance:

* the action is additive and multiplicative in the parameter (the two
  required compatibility identities, plus an optional product-composition
  identity whose joint validity forces commutative multiplication);
* the orbit map ``eps -> act(eps, I)`` is injective, so parameters can be
  recovered from operators: coordinate ``k`` is the mean of the operator's
  diagonal over the rows that basis element ``k`` scales;
* square roots split a parameter across a composition, halves split it
  across a sum.

Coefficient functions (the parameter-dependent weights of polynomial
theories) live here too, with analytic preimages per kind.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (BadSpec, DegreeMismatch, NoPreimage, NoSquareRoot,
                     NotInIdentityOrbit)
from .operator_core import (Operator, OperatorStack, add, compose,
                            distance_to_diagonal, exact_sums, frobenius,
                            plain_space, scale, scale_rows, subtract)

# --- blocks of draws ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Draws:
    """The parameters of a block of draws, in draw order.

    ``values[i]`` is draw ``i``'s parameter, so a scalar carrier's block is
    a vector and a Boolean or centralizer block a matrix.  A block is a
    type of its own because such a parameter is itself an array: a block is
    never told from an array's shape.  Iterating gives the per-draw
    parameters (Python numbers for a vector of scalars).
    """

    values: np.ndarray

    @classmethod
    def stack(cls, params) -> "Draws":
        return cls(np.array(list(params)))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values.tolist() if self.values.ndim == 1
                    else self.values)


# --- algebra instances --------------------------------------------------------


class ParameterAlgebra:
    """Base interface; see module docstring for the contract.

    A leaf carrier states what one element is: :meth:`_element` casts and
    checks it, and :meth:`_factor` casts a scalar factor where that differs
    from the scalar kind's cast.  The arithmetic (``zero`` is ``0 * one``),
    the row scales and the coordinates follow from those here, once for
    every carrier; the carrier adds its unit, square root, basis and
    sampler.
    """

    name: str = "abstract"
    scalar_kind: str = "complex"
    #: maximum tuple power the background declares usable, None = unbounded
    max_power: int | None = None
    #: whether act(eps, A) is linear in eps (true for every base carrier,
    #: false for tuple/product carriers whose action is successive)
    action_linear: bool = True

    def _element(self, a):
        """``a`` cast to the carrier's element type; refuses a non-element."""
        raise NotImplementedError

    def _factor(self, c):
        """A scalar factor of :meth:`scale`, cast to the scalar kind."""
        return complex(c) if self.scalar_kind == "complex" else float(c)

    def zero(self):
        return self.scale(0, self.one())

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        return self._element(a) + self._element(b)

    def mul(self, a, b):
        return self._element(a) * self._element(b)

    def scale(self, c, a):
        return self._factor(c) * self._element(a)

    def sqrt_select(self, a):
        raise NotImplementedError

    def row_scale(self, a):
        """What ``act(a, .)`` multiplies the rows by: a scalar or one per row."""
        return self._element(a)

    def row_scales(self, draws: Draws) -> np.ndarray:
        """:meth:`row_scale` of each draw, one row per draw: ``(s, 1)`` for
        scalars, ``(s, n)`` for one per row."""
        return np.array([np.atleast_1d(self.row_scale(a)) for a in draws])

    def act(self, a, op: Operator):
        """Scale the rows of ``op``; a scalar keeps its structure, and so
        does a diagonal, but scaling a circulant's rows unevenly makes it
        dense.  A :class:`Draws` gives an
        :class:`~emergence.operator_core.OperatorStack`, one draw each."""
        if isinstance(a, Draws):
            scales = self.row_scales(a)
            if scales.shape[1] not in (1, op.space.dim):
                raise BadSpec(f"{self.name} scales {scales.shape[1]} rows, "
                              f"the operator has {op.space.dim}")
            return scale_rows(scales, op)
        s = self.row_scale(a)
        if np.ndim(s) == 0:
            return scale(s, op)
        if s.shape != (op.space.dim,):
            raise BadSpec(f"{self.name} scales {s.shape[0]} rows, the operator "
                          f"has {op.space.dim}")
        if op.structure == "diagonal":
            return Operator(s * op.body, op.space, "diagonal")
        return Operator(s[:, None] * op.matrix, op.space)

    def basis(self) -> list:
        """Elements whose row scales are disjoint 0/1 row indicators.

        Their orbit at the identity spans the action image.
        """
        raise BadSpec(f"{self.name} has no identity-orbit basis")

    def from_coords(self, coords: np.ndarray):
        raise BadSpec(f"{self.name} has no identity-orbit basis")

    def block_from_coords(self, coords: np.ndarray) -> Draws:
        """:meth:`from_coords` of each row of ``coords``, as a block."""
        return Draws.stack(self.from_coords(c.tolist()) for c in coords)

    @cached_property
    def orbit_plan(self):
        """The basis' padded row supports, built on first use.

        ``(rows, order, lengths)``: basis element ``k`` scales rows
        ``order[k, :lengths[k]]`` of ``rows``, and each support is padded to
        the longest with ``rows``, one past the last row.  None when the row
        scales are scalars, which cover every row of any operator.
        """
        scales = [self.row_scale(e) for e in self.basis()]
        if all(np.ndim(s) == 0 for s in scales):
            return None
        supports = [np.flatnonzero(s) for s in scales]
        lengths = np.array([len(s) for s in supports])
        order = np.full((len(supports), lengths.max()), len(scales[0]))
        for k, support in enumerate(supports):
            order[k, :len(support)] = support
        return len(scales[0]), order, lengths

    def sample(self, rng: np.random.Generator):
        raise NotImplementedError

    def to_vector(self, a) -> np.ndarray:
        return np.atleast_1d(self._element(a))

    def distance(self, a, b) -> float:
        return float(np.linalg.norm(self.to_vector(a) - self.to_vector(b)))


class ComplexScalars(ParameterAlgebra):
    """The complex numbers with the principal square root."""

    name = "complex_scalars"
    scalar_kind = "complex"

    def _element(self, a):
        return complex(a)

    def one(self):
        return 1 + 0j

    def sqrt_select(self, a):
        return cmath.sqrt(complex(a))

    def basis(self):
        return [1 + 0j]

    def from_coords(self, coords):
        return complex(coords[0])

    def sample(self, rng):
        return complex(rng.standard_normal() + 1j * rng.standard_normal())


class RealScalars(ParameterAlgebra):
    """The real numbers; square roots exist only on the nonnegative half."""

    name = "real_scalars"
    scalar_kind = "real"

    def _element(self, a):
        return float(a)

    def one(self):
        return 1.0

    def sqrt_select(self, a):
        a = float(a)
        if a < 0:
            raise NoSquareRoot("negative real parameters have no real "
                               "square root")
        return math.sqrt(a)

    def row_scales(self, draws):
        if draws.values.dtype != np.float64:
            return super().row_scales(draws)
        return draws.values[:, None]

    def basis(self):
        return [1.0]

    def from_coords(self, coords):
        return float(np.real(coords[0]))

    def block_from_coords(self, coords):
        return Draws(np.real(coords[:, 0]).astype(float))

    def sample(self, rng):
        return float(rng.standard_normal())


class NonnegativeReals(ParameterAlgebra):
    """The cone of nonnegative reals: a semiring, no subtraction.

    A scalar factor must lie in the cone too.  Coordinates are read
    unchecked, since a solved one may sit a rounding error below it.
    """

    name = "nonnegative_reals"
    scalar_kind = "real"

    def _element(self, a):
        x = float(a)
        if x < 0:
            raise BadSpec("nonnegative-real carrier got a negative value")
        return x

    _factor = _element

    def one(self):
        return 1.0

    def sqrt_select(self, a):
        return math.sqrt(self._element(a))

    def basis(self):
        return [1.0]

    def from_coords(self, coords):
        x = float(np.real(coords[0]))
        # clamp to the cone; the orbit solve reports the residual honestly
        return max(x, 0.0)

    def sample(self, rng):
        return float(rng.uniform(0.05, 3.0))

    def to_vector(self, a):
        return np.array([float(a)])


class ProductAlgebra(ParameterAlgebra):
    """Heterogeneous product of parameter algebras; elements are tuples.

    This is the carrier of sum and composition family trees: one component
    per branch, componentwise arithmetic, successive action.
    """

    action_linear = False

    def __init__(self, components: tuple[ParameterAlgebra, ...]):
        if not components:
            raise BadSpec("product algebra needs at least one component")
        self.components = tuple(components)
        self.name = "product(" + ", ".join(c.name for c in self.components) + ")"
        kinds = {c.scalar_kind for c in self.components}
        self.scalar_kind = "complex" if "complex" in kinds else "real"

    def _as_tuple(self, a):
        a = tuple(a)
        if len(a) != len(self.components):
            raise BadSpec(f"{self.name} expects {len(self.components)}-tuples")
        return a

    def zero(self):
        return tuple(c.zero() for c in self.components)

    def one(self):
        return tuple(c.one() for c in self.components)

    def add(self, a, b):
        return tuple(c.add(x, y) for c, x, y in
                     zip(self.components, self._as_tuple(a), self._as_tuple(b)))

    def mul(self, a, b):
        return tuple(c.mul(x, y) for c, x, y in
                     zip(self.components, self._as_tuple(a), self._as_tuple(b)))

    def scale(self, s, a):
        return tuple(c.scale(s, x) for c, x in
                     zip(self.components, self._as_tuple(a)))

    def sqrt_select(self, a):
        return tuple(c.sqrt_select(x) for c, x in
                     zip(self.components, self._as_tuple(a)))

    def act(self, a, op: Operator) -> Operator:
        out = op
        for c, x in zip(reversed(self.components), reversed(self._as_tuple(a))):
            out = c.act(x, out)
        return out

    def sample(self, rng):
        return tuple(c.sample(rng) for c in self.components)

    def to_vector(self, a):
        return np.concatenate([c.to_vector(x) for c, x in
                               zip(self.components, self._as_tuple(a))])


class TuplePower(ProductAlgebra):
    """Componentwise tuple power of a base algebra.

    The action on operators is the successive action of the components
    (rightmost first), i.e. the product action for scalar bases.  Identity-
    orbit recovery is deliberately slot-by-slot: the product action alone is
    not injective, the per-slot probes are.
    """

    def __init__(self, base: ParameterAlgebra, degree: int):
        if degree < 1:
            raise BadSpec("tuple power needs degree >= 1")
        super().__init__((base,) * degree)
        self.base = base
        self.degree = int(degree)
        self.name = f"{base.name}^{degree}"


class CentralizerDiagonal(ParameterAlgebra):
    """Real diagonals commuting with a fixed idempotent-power operator.

    ``diag(d)`` commutes with ``P`` exactly when ``d`` is constant on the
    connected components of the nonzero pattern of ``P``; those component
    indicators are the basis.  Square roots are componentwise and exist only
    on the nonnegative part of the carrier.
    """

    name = "centralizer_diagonal"
    scalar_kind = "real"

    def __init__(self, projector, tol: float = 1e-12):
        p = projector.matrix if isinstance(projector, Operator) else np.asarray(projector)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise BadSpec("centralizer needs a square operator")
        self.dim = p.shape[0]
        self.components = self._pattern_components(p, tol)

    @staticmethod
    def _pattern_components(p: np.ndarray, tol: float) -> list[list[int]]:
        n = p.shape[0]
        scale_ = max(1.0, float(np.max(np.abs(p))))
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n):
            for j in range(i + 1, n):
                if max(abs(p[i, j]), abs(p[j, i])) > tol * scale_:
                    parent[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        return sorted(groups.values())

    def _element(self, a):
        d = np.asarray(a, dtype=float)
        if d.shape != (self.dim,):
            raise BadSpec("centralizer element has the wrong length")
        for comp in self.components:
            if np.max(d[comp]) - np.min(d[comp]) > 1e-12 * max(1.0, np.max(np.abs(d))):
                raise BadSpec("diagonal is not constant on a coupled component")
        return d

    def one(self):
        return np.ones(self.dim)

    def sqrt_select(self, a):
        d = self._element(a)
        if np.any(d < 0):
            raise NoSquareRoot("diagonal has a negative entry; no real square root")
        return np.sqrt(d)

    def basis(self):
        out = []
        for comp in self.components:
            e = np.zeros(self.dim)
            e[comp] = 1.0
            out.append(e)
        return out

    def from_coords(self, coords):
        d = np.zeros(self.dim)
        for comp, c in zip(self.components, coords):
            d[comp] = float(np.real(c))
        return d

    def sample(self, rng):
        return self.from_coords(rng.uniform(0.1, 2.5, size=len(self.components)))


class BooleanComplex(ParameterAlgebra):
    """Pointwise ``C^m`` containing the 0/1 idempotent masks.

    The principal componentwise square root fixes every idempotent, and the
    faithful representation expands each component over a block of the field
    space: ``rho(eps) = diag(eps_1 I_b, ..., eps_m I_b)``, so ``row_scale``
    repeats each component over its block of rows.
    """

    name = "boolean_complex"
    scalar_kind = "complex"

    def __init__(self, masks: int, block: int = 1):
        if masks < 1 or block < 1:
            raise BadSpec("boolean algebra needs masks >= 1 and block >= 1")
        self.masks = int(masks)
        self.block = int(block)

    def _element(self, a):
        v = np.asarray(a, dtype=complex)
        if v.shape != (self.masks,):
            raise BadSpec("boolean element has the wrong length")
        return v

    def one(self):
        return np.ones(self.masks, dtype=complex)

    def sqrt_select(self, a):
        return np.sqrt(self._element(a))

    def row_scale(self, a):
        return np.repeat(self._element(a), self.block)

    def row_scales(self, draws):
        v = np.asarray(draws.values, dtype=complex)
        if v.shape[1:] != (self.masks,):
            raise BadSpec("boolean element has the wrong length")
        return np.repeat(v, self.block, axis=1)

    def basis(self):
        return [np.eye(self.masks, dtype=complex)[i] for i in range(self.masks)]

    def from_coords(self, coords):
        return np.asarray(coords, dtype=complex)

    def block_from_coords(self, coords):
        return Draws(np.asarray(coords, dtype=complex))

    def sample(self, rng):
        return rng.standard_normal(self.masks) + 1j * rng.standard_normal(self.masks)

    def sample_idempotent(self, rng):
        return rng.integers(0, 2, size=self.masks).astype(complex)


# --- compatibility and recovery ------------------------------------------------


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of sampling the action-compatibility identities."""

    ok: bool
    vacuous: bool
    samples: int
    required_residual: float
    optional_residual: float
    optional_ok: bool
    commutativity_residual: float | None


def check_action_compatibility(algebra: ParameterAlgebra, operators,
                               n_samples: int, seed: int = 0,
                               tol: float = 1e-12) -> CompatibilityReport:
    """Verify additivity and multiplicativity of the action by sampling.

    The optional third identity ``act(ab, X o Y) = act(a, X) o act(b, Y)``
    is reported separately; when it passes alongside the required two, the
    multiplication must be commutative (the standard two-products argument)
    and the observed commutator residual is included.
    """
    operators = list(operators)
    if n_samples <= 0 or not operators:
        return CompatibilityReport(True, True, 0, 0.0, 0.0, True, None)
    rng = np.random.default_rng(seed)
    req, opt, comm = [], [], []
    for _ in range(n_samples):
        a, b = algebra.sample(rng), algebra.sample(rng)
        x = operators[int(rng.integers(len(operators)))]
        y = operators[int(rng.integers(len(operators)))]
        lhs = algebra.act(algebra.add(a, b), x)
        rhs = add(algebra.act(a, x), algebra.act(b, x))
        req.append(frobenius(subtract(lhs, rhs)))
        lhs = algebra.act(algebra.mul(a, b), x)
        rhs = algebra.act(a, algebra.act(b, x))
        req.append(frobenius(subtract(lhs, rhs)))
        lhs = algebra.act(algebra.mul(a, b), compose(x, y))
        rhs = compose(algebra.act(a, x), algebra.act(b, y))
        opt.append(frobenius(subtract(lhs, rhs)))
        comm.append(algebra.distance(algebra.mul(a, b), algebra.mul(b, a)))
    # np.max keeps a NaN, so a NaN residual fails
    req, opt, comm = (float(np.max(r)) for r in (req, opt, comm))
    optional_ok = opt <= tol
    return CompatibilityReport(req <= tol, False, n_samples, req, opt,
                               optional_ok, comm if optional_ok else None)


def solve_action_on_identity(algebra: ParameterAlgebra, target,
                             tol: float = 1e-10):
    """Recover ``c`` with ``act(c, I) = target`` in closed form.

    ``target`` is an operator (or dense matrix), or an
    :class:`~emergence.operator_core.OperatorStack` of one per draw, which
    gives a :class:`Draws`; one operator is solved as a stack of one, so
    every draw of a stack gets the bits it gets alone.  Coordinate ``k`` is
    the mean of the target's diagonal over the rows that
    ``row_scale(basis()[k])`` scales; for a basis of disjoint 0/1 row
    indicators that is the least-squares orbit element.  The diagonals are
    gathered once in the algebra's :attr:`~ParameterAlgebra.orbit_plan`
    order, padded with zeros to one length, and each mean is a correctly
    rounded sum over its span (:func:`~emergence.operator_core.exact_sums`),
    the same bits on every machine.  A stencil target's diagonal is one
    value ``v``, so it skips the gather: a span of ``L`` rows sums to the
    correctly rounded ``L * v``, one ``(L * v) / L`` over the draws, real
    and imaginary parts apart.  For tuple algebras pass a list with one
    probe operator per slot; recovery is slot-by-slot because the product
    action alone cannot separate the components.

    Raises
    ------
    BadSpec
        If the algebra scales a different number of rows than the target
        has.
    NotInIdentityOrbit
        If ``|target - act(c, I)|_F`` exceeds ``tol`` relative to the target
        norm; a target with a NaN or infinite entry, or whose support sums
        or norm overflow, always does.  A stack raises for its earliest
        failing draw, with that draw's residual.
    """
    if isinstance(algebra, TuplePower):
        if not isinstance(target, (list, tuple)):
            raise BadSpec("tuple recovery needs one probe operator per slot")
        probes = list(target)
        if len(probes) != algebra.degree:
            raise DegreeMismatch("probe count disagrees with the tuple degree")
        return tuple(solve_action_on_identity(algebra.base, p, tol) for p in probes)

    if isinstance(target, OperatorStack):
        return _solve_stack(algebra, target, tol)
    if not isinstance(target, Operator):
        matrix = np.asarray(target)
        target = Operator(matrix, plain_space(
            matrix.shape[0], "complex" if np.iscomplexobj(matrix) else "real"))
    (candidate,) = _solve_stack(algebra, OperatorStack(
        target.body[None], target.space, target.structure), tol)
    return candidate


def _solve_stack(algebra: ParameterAlgebra, target: OperatorStack,
                 tol: float) -> Draws:
    s, n = len(target), target.space.dim
    rows, order, lengths = algebra.orbit_plan or (n, None, np.array([n]))
    if rows != n:
        raise BadSpec(f"{algebra.name} scales {rows} rows, the operator "
                      f"has {n}")
    stencil = target.structure == "stencil"
    if stencil:
        spans = target.body.reshape(s, -1)[:, :1]
    else:
        values = (target.body if target.structure == "diagonal"
                  else np.diagonal(target.body, axis1=1, axis2=2))
        # the padding gathers a zero, which adds nothing to a sum
        spans = values[:, None] if order is None else np.concatenate(
            [values, np.zeros((s, 1), values.dtype)], axis=1)[:, order]
    # a stencil's span of L rows sums to the correctly rounded L * v
    means = [(lengths * part if stencil else exact_sums(part)) / lengths
             for part in ((spans.real, spans.imag) if np.iscomplexobj(spans)
                          else (spans,))]
    # the parts side by side, read as one coordinate
    coords = np.stack(means, axis=-1).view(spans.dtype)[..., 0]
    # a non-finite entry or an overflowing sum leaves NaN coordinates, which
    # the orbit check then refuses
    coords[~np.isfinite(coords).all(axis=1)] = math.nan
    candidate = algebra.block_from_coords(coords)
    residual = distance_to_diagonal(target, algebra.row_scales(candidate))
    norm = frobenius(target)
    # max(1.0, norm) as one draw takes it, so a NaN norm gives 1.0
    bound = tol * np.where(norm > 1.0, norm, 1.0)
    failed = np.flatnonzero(~((residual <= bound) & np.isfinite(bound)))
    if failed.size:
        raise NotInIdentityOrbit(
            f"operator is not in the identity orbit of {algebra.name}",
            residual=float(residual[failed[0]]))
    return candidate


# --- coefficient functions ------------------------------------------------------


@dataclass(frozen=True)
class CoefficientFunction:
    """A parameter-dependent coefficient with a partial analytic preimage.

    ``kind`` is one of ``constant | linear | affine | exp | power``;
    ``params`` holds the kind's numbers.  ``nowhere_vanishing`` is the
    instance author's claim that the function does not vanish on the working
    parameter range; synthesis preconditions consult it.
    """

    kind: str
    params: tuple
    nowhere_vanishing: bool
    domain: str = "complex"  # "complex" | "real" | "nonneg"

    # -- constructors

    @classmethod
    def constant(cls, value, domain="complex"):
        return cls("constant", (value,), value != 0, domain)

    @classmethod
    def linear(cls, slope, domain="complex"):
        if slope == 0:
            raise BadSpec("linear coefficient needs a nonzero slope")
        return cls("linear", (slope,), True, domain)

    @classmethod
    def affine(cls, slope, offset, domain="complex"):
        if slope == 0:
            raise BadSpec("affine coefficient needs a nonzero slope")
        return cls("affine", (slope, offset), True, domain)

    @classmethod
    def exponential(cls, domain="real"):
        return cls("exp", (), True, domain)

    @classmethod
    def monomial_power(cls, exponent: int, domain="complex"):
        if int(exponent) < 1:
            raise BadSpec("power coefficient needs exponent >= 1")
        return cls("power", (int(exponent),), False, domain)

    # -- evaluation / inversion

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def _numpy_exact(self, draws: Draws) -> bool:
        """Whether numpy's elementwise arithmetic on the block gives each
        draw's bits.  Per-draw arrays take numpy's arithmetic already, and
        real numbers round the same either way; a complex product or
        quotient of Python numbers follows CPython's formulas, which
        numpy's loops need not match."""
        return self.kind in ("constant", "linear", "affine") and (
            draws.values.ndim > 1 or (draws.values.dtype == np.float64 and
                                      not any(isinstance(p, complex)
                                              for p in self.params)))

    def __call__(self, delta):
        """The coefficient at ``delta``; a :class:`Draws` gives a block."""
        if isinstance(delta, Draws):
            if self.kind == "constant":
                return Draws(np.full(len(delta), self.params[0]))
            if self._numpy_exact(delta):
                return Draws(self(delta.values))
            return Draws.stack(self(d) for d in delta)
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "linear":
            return self.params[0] * delta
        if self.kind == "affine":
            return self.params[0] * delta + self.params[1]
        if self.kind == "exp":
            return math.exp(delta) if not isinstance(delta, complex) else cmath.exp(delta)
        if self.kind == "power":
            return delta ** self.params[0]
        raise BadSpec(f"unknown coefficient kind {self.kind!r}")

    def _check_domain(self, delta):
        """``delta`` cast into the coefficient's domain, as the kind it was
        given: a :class:`Draws`, an array, or a number for a number.
        Raises NoPreimage if an entry lies outside the domain."""
        x = np.asarray(delta.values if isinstance(delta, Draws) else delta)
        imag = np.abs(np.imag(x))
        if self.domain == "nonneg":
            if np.any(np.real(x) < -1e-15) or np.any(imag > 1e-12):
                raise NoPreimage("preimage falls outside the nonnegative cone")
            x = np.maximum(np.real(x), 0.0)
        elif self.domain == "real":
            if np.any(imag > 1e-12):
                raise NoPreimage("preimage falls outside the real carrier")
            x = np.real(x).astype(float)
        else:
            x = x.astype(complex)
        if isinstance(delta, Draws):
            return Draws(x)
        return x if np.ndim(delta) else x.item()

    def preimage(self, value):
        """A ``delta`` with ``f(delta) = value``; raises NoPreimage.

        A :class:`Draws` gives a block, and raises if any draw would.
        """
        if isinstance(value, Draws):
            if self.kind in ("linear", "affine") and self._numpy_exact(value):
                x = value.values
                if self.kind == "affine":
                    x = x - self.params[1]
                return self._check_domain(Draws(x / self.params[0]))
            return Draws.stack(self.preimage(v) for v in value)
        if self.kind == "constant":
            ref = max(1.0, abs(self.params[0]))
            # an array value (a Boolean or centralizer one) hits it entrywise
            if np.any(np.abs(value - self.params[0]) > 1e-12 * ref):
                raise NoPreimage("constant coefficient cannot reach the value")
            return self._check_domain(np.zeros_like(value) if np.ndim(value)
                                      else 0.0)
        if self.kind == "linear":
            return self._check_domain(value / self.params[0])
        if self.kind == "affine":
            return self._check_domain((value - self.params[1]) / self.params[0])
        if self.kind == "exp":
            v = complex(value)
            if abs(v.imag) > 1e-12 or v.real <= 0:
                raise NoPreimage("exponential preimage needs a positive value")
            return self._check_domain(math.log(v.real))
        if self.kind == "power":
            p = self.params[0]
            v = complex(value)
            if v == 0:
                return self._check_domain(0.0)
            root = cmath.exp(cmath.log(v) / p)
            return self._check_domain(root)
        raise BadSpec(f"unknown coefficient kind {self.kind!r}")

    def describe(self) -> dict:
        return {"kind": self.kind, "domain": self.domain,
                "nowhere_vanishing": self.nowhere_vanishing,
                "params": [[float(np.real(p)), float(np.imag(complex(p)))]
                           for p in self.params]}
