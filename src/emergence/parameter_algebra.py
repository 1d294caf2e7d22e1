"""Carriers of fundamental parameters and their actions on operators.

A parameter algebra supplies addition, multiplication, scalar rescaling, a
selected square root, and an action ``act(eps, A)`` on operators.  A leaf
carrier states what one element is (``_element``, a cast that also
refuses non-elements) and :class:`ParameterAlgebra` does the arithmetic
once.  Every leaf carrier acts by scaling rows, by ``row_scale(eps)``: the
element itself, a scalar or one entry per row, except that a Boolean
element is repeated over its blocks.  Products act component by component.

Every carrier makes its samples of standard normals alone: it states how
many one sample takes (``normals``) and builds a block of samples from the
rows of an array of them (``from_normals``), and one sample is a block of
one, so a certification chunk is one read of the run's stream of normals.
``NonnegativeReals`` and ``CentralizerDiagonal`` map a normal ``z`` to
``lo + w / (1 + z*z)`` in ``(lo, lo + w]``, IEEE operations alone; a product
carrier splits a row across its components, in order.  The compatibility
check evaluates its samples in blocks, one per pair of operator structures,
for every carrier: a leaf carrier's block is a :class:`Draws`, a product
carrier's a tuple of its components' blocks.

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
                            scale_rows, stack_operators, subtract)

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
    def stack(cls, params):
        """The per-draw values as a block: per-term tables by key, anything
        else, a tuple too, as one array.  A block stays as it is."""
        if isinstance(params, Draws):
            return params
        params = list(params)
        if params and isinstance(params[0], dict):
            return {key: cls.stack([p[key] for p in params])
                    for key in params[0]}
        return cls(np.array(params))

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
    #: whether act(eps, A) is linear in eps (true for every base carrier,
    #: false for tuple/product carriers whose action is successive)
    action_linear: bool = True
    #: standard normals one sample takes (see :meth:`from_normals`)
    normals: int

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

    #: the per-draw values as the block the carrier's families evaluate;
    #: a product carrier stacks its values by position
    stack = staticmethod(Draws.stack)

    def row_scale(self, a):
        """What ``act(a, .)`` multiplies the rows by: a scalar or one per row."""
        return self._element(a)

    def row_scales(self, draws: Draws) -> np.ndarray:
        """:meth:`row_scale` of each draw, one row per draw: ``(s, 1)`` for
        scalars, ``(s, n)`` for one per row."""
        return np.array([np.atleast_1d(self.row_scale(a)) for a in draws])

    @cached_property
    def per_row(self) -> bool:
        """Whether :meth:`row_scale` gives one factor per row, not a scalar."""
        return np.ndim(self.row_scale(self.one())) > 0

    def act(self, a, op: Operator):
        """Scale the rows of ``op``; a scalar keeps its structure, and so
        does a diagonal, but scaling a circulant's rows unevenly makes it
        dense.  A :class:`Draws` gives an
        :class:`~emergence.operator_core.OperatorStack`, one draw each, and
        acts on one operator or on a stack of one per draw; one element is
        draw 0 of its block of one.  A per-row carrier must scale exactly
        the operator's rows."""
        scales = self.row_scales(a if isinstance(a, Draws)
                                 else Draws.stack([a]))
        if scales.shape[1] != (op.space.dim if self.per_row else 1):
            raise BadSpec(f"{self.name} scales {scales.shape[1]} rows, "
                          f"the operator has {op.space.dim}")
        out = scale_rows(scales, op)
        return out if isinstance(a, Draws) else out[0]

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

    def from_normals(self, z: np.ndarray) -> Draws:
        """The samples drawn as the rows of ``z``, ``(s, normals)``: a
        :class:`Draws`, or per-draw tuples for a product carrier."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator):
        """One sample: a block of one."""
        return self.samples(rng, 1)[0]

    def samples(self, rng: np.random.Generator, count: int) -> list:
        """``count`` samples from one ``(count, normals)`` generator call,
        which draws the variates of ``count`` calls of one row each."""
        z = rng.standard_normal((count, self.normals))
        return list(self.from_normals(z))

    def to_vector(self, a) -> np.ndarray:
        return np.atleast_1d(self._element(a))

    def distance(self, a, b) -> float:
        return float(np.linalg.norm(self.to_vector(a) - self.to_vector(b)))


class ComplexScalars(ParameterAlgebra):
    """The complex numbers with the principal square root."""

    name = "complex_scalars"
    scalar_kind = "complex"
    normals = 2

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

    def from_normals(self, z):
        return Draws(z[:, 0] + 1j * z[:, 1])


class RealScalars(ParameterAlgebra):
    """The real numbers; square roots exist only on the nonnegative half."""

    name = "real_scalars"
    scalar_kind = "real"
    normals = 1

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

    def from_normals(self, z):
        return Draws(z[:, 0].copy())


class NonnegativeReals(ParameterAlgebra):
    """The cone of nonnegative reals: a semiring, no subtraction.

    A scalar factor must lie in the cone too.  Coordinates are read
    unchecked, since a solved one may sit a rounding error below it.
    """

    name = "nonnegative_reals"
    scalar_kind = "real"
    normals = 1

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

    def from_normals(self, z):
        return Draws(0.05 + 2.95 / (1.0 + z[:, 0] * z[:, 0]))

    def to_vector(self, a):
        return np.array([float(a)])


class ProductAlgebra(ParameterAlgebra):
    """Heterogeneous product of parameter algebras; elements are tuples.

    This is the carrier of sum and composition family trees: one component
    per branch, componentwise arithmetic, successive action.  A block of
    draws is a tuple of the components' blocks.
    """

    action_linear = False

    def __init__(self, components: tuple[ParameterAlgebra, ...]):
        if not components:
            raise BadSpec("product algebra needs at least one component")
        self.components = tuple(components)
        self.name = "product(" + ", ".join(c.name for c in self.components) + ")"
        kinds = {c.scalar_kind for c in self.components}
        self.scalar_kind = "complex" if "complex" in kinds else "real"
        self.normals = sum(c.normals for c in self.components)

    def stack(self, params):
        columns = zip(*map(self._as_tuple, params))
        return tuple(c.stack(v) for c, v in zip(self.components, columns))

    def _as_tuple(self, a):
        if isinstance(a, Draws):
            raise BadSpec(f"{self.name} takes one block per component")
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

    def row_scale(self, a):
        """Refused: the components act successively, not by one row scale;
        :meth:`row_scales` and :attr:`per_row` refuse through it."""
        raise BadSpec(f"{self.name} acts successively, component by "
                      f"component, and has no row scale")

    def from_normals(self, z):
        """One tuple per row: its normals split across the components."""
        ends = np.cumsum([c.normals for c in self.components])[:-1]
        return list(zip(*(c.from_normals(part) for c, part in
                          zip(self.components, np.split(z, ends, axis=1)))))

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

    def __init__(self, projector):
        p = projector.matrix if isinstance(projector, Operator) else np.asarray(projector)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise BadSpec("centralizer needs a square operator")
        self.dim = p.shape[0]
        self.components = self._pattern_components(p)
        self.normals = len(self.components)

    @staticmethod
    def _pattern_components(p: np.ndarray) -> list[list[int]]:
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
                if max(abs(p[i, j]), abs(p[j, i])) > 1e-12 * scale_:
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

    def from_normals(self, z):
        return self.block_from_coords(0.1 + 2.4 / (1.0 + z * z))


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
        self.normals = 2 * self.masks

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

    def from_normals(self, z):
        return Draws(z[:, :self.masks] + 1j * z[:, self.masks:])

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
                               n_samples: int,
                               seed: int = 0) -> CompatibilityReport:
    """Verify additivity and multiplicativity of the action by sampling,
    each within 1e-12.

    The optional third identity ``act(ab, X o Y) = act(a, X) o act(b, Y)``
    is reported separately; when it passes alongside the required two, the
    multiplication must be commutative (the standard two-products argument)
    and the observed commutator residual is included.

    Each sample draws ``a``, ``b`` and the indices of its two operators, in
    that order.  The samples whose two operators have the same structures
    are evaluated as one block, the carrier's stack of their parameters
    acting on stacks of their operators, each sample with the bits it gets
    alone; a product carrier's block is a tuple of its components' blocks.
    """
    operators = list(operators)
    if n_samples <= 0 or not operators:
        return CompatibilityReport(True, True, 0, 0.0, 0.0, True, None)
    rng = np.random.default_rng(seed)
    samples = [(*algebra.samples(rng, 2),
                operators[int(rng.integers(len(operators)))],
                operators[int(rng.integers(len(operators)))])
               for _ in range(n_samples)]
    # one row per sample: additive, multiplicative, composition residual
    residuals = np.empty((n_samples, 3))
    groups: dict = {}
    for k, (_, _, x, y) in enumerate(samples):
        groups.setdefault((x.structure, y.structure), []).append(k)
    for rows in groups.values():
        a, b, x, y = zip(*(samples[k] for k in rows))
        residuals[rows] = np.stack(_identity_residuals(
            algebra, a, b, stack_operators(x), stack_operators(y)), axis=1)
    comm = [algebra.distance(algebra.mul(a, b), algebra.mul(b, a))
            for a, b, _, _ in samples]
    # np.max keeps a NaN, so a NaN residual fails
    req, opt, comm = (float(np.max(r)) for r in (
        residuals[:, :2], residuals[:, 2], comm))
    optional_ok = opt <= 1e-12
    return CompatibilityReport(req <= 1e-12, False, n_samples, req, opt,
                               optional_ok, comm if optional_ok else None)


def _identity_residuals(algebra, a, b, x, y) -> tuple:
    """The Frobenius residuals of the three identities, one per draw, for
    the per-draw parameters ``a`` and ``b`` and stacks ``x`` and ``y`` of
    one operator per draw.  The sums and products are taken draw by draw,
    and every parameter acts as the block the carrier stacks."""
    total, product = (algebra.stack(map(op, a, b))
                      for op in (algebra.add, algebra.mul))
    a, b = algebra.stack(a), algebra.stack(b)
    ax, bx = algebra.act(a, x), algebra.act(b, x)
    additive = subtract(algebra.act(total, x), add(ax, bx))
    multiplicative = subtract(algebra.act(product, x), algebra.act(a, bx))
    composition = subtract(algebra.act(product, compose(x, y)),
                           compose(ax, algebra.act(b, y)))
    return tuple(frobenius(r) for r in (additive, multiplicative, composition))


def solve_action_on_identity(algebra: ParameterAlgebra, target,
                             tol: float = 1e-10):
    """Recover ``c`` with ``act(c, I) = target`` in closed form.

    ``target`` is an :class:`~emergence.operator_core.Operator`, or an
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
    value ``v``, entry 0 of its support, so it skips the gather: a span of
    ``L`` rows sums to the correctly rounded ``L * v`` (``+0.0`` for a zero
    of either sign, as a correctly rounded sum is), one ``(L * v) / L``
    over the draws, real and imaginary parts apart.  For tuple algebras
    pass a list with one probe operator per slot; recovery is slot-by-slot
    because the product action alone cannot separate the components.

    Raises
    ------
    BadSpec
        If the target is not an ``Operator`` or an ``OperatorStack`` (a
        tuple algebra's, not a list or tuple of them), or the algebra
        scales a different number of rows than the target has.
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

    if not isinstance(target, (Operator, OperatorStack)):
        raise BadSpec(f"the orbit solve takes an Operator or an "
                      f"OperatorStack, not {type(target).__name__}")
    stack = target.stack
    s, n = len(stack), stack.space.dim
    rows, order, lengths = algebra.orbit_plan or (n, None, np.array([n]))
    if rows != n:
        raise BadSpec(f"{algebra.name} scales {rows} rows, the operator "
                      f"has {n}")
    stencil = stack.structure == "stencil"
    if stencil:  # the origin is entry 0 of the support
        spans = stack.body[:, :1]
    else:
        values = (stack.body if stack.structure == "diagonal"
                  else np.diagonal(stack.body, axis1=1, axis2=2))
        # the padding gathers a zero, which adds nothing to a sum; the
        # spans are gathered transposed, the layout exact_sums runs on
        spans = values[:, None] if order is None else np.concatenate(
            [values, np.zeros((s, 1), values.dtype)], axis=1).T[order.T].T
    # a stencil's span of L rows sums to the correctly rounded L * v, and
    # + 0.0 makes a zero sum +0.0, as exact_sums gives it
    means = [(lengths * part + 0.0 if stencil else exact_sums(part))
             / lengths
             for part in ((spans.real, spans.imag) if np.iscomplexobj(spans)
                          else (spans,))]
    # the parts side by side, read as one coordinate
    coords = np.stack(means, axis=-1).view(spans.dtype)[..., 0]
    # a non-finite entry or an overflowing sum leaves NaN coordinates, which
    # the orbit check then refuses
    coords[~np.isfinite(coords).all(axis=1)] = math.nan
    candidate = algebra.block_from_coords(coords)
    residual = distance_to_diagonal(stack, algebra.row_scales(candidate))
    norm = frobenius(stack)
    # max(1.0, norm) as one draw takes it, so a NaN norm gives 1.0
    bound = tol * np.where(norm > 1.0, norm, 1.0)
    failed = np.flatnonzero(~((residual <= bound) & np.isfinite(bound)))
    if failed.size:
        raise NotInIdentityOrbit(
            f"operator is not in the identity orbit of {algebra.name}",
            residual=float(residual[failed[0]]))
    return (candidate if isinstance(target, OperatorStack)
            else next(iter(candidate)))


# --- coefficient functions ------------------------------------------------------


@dataclass(frozen=True)
class CoefficientFunction:
    """A parameter-dependent coefficient with a partial analytic preimage.

    ``kind`` is one of ``constant | linear | affine | exp``;
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
        raise BadSpec(f"unknown coefficient kind {self.kind!r}")

    def describe(self) -> dict:
        return {"kind": self.kind, "domain": self.domain,
                "nowhere_vanishing": self.nowhere_vanishing,
                "params": [[float(np.real(p)), float(np.imag(complex(p)))]
                           for p in self.params]}
