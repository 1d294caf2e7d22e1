"""Operator algebra on discretized field spaces, stored by structure.

A field configuration is a vector in ``C^n`` or ``R^n``; an operator is a
linear map on it, held in one of three bodies:

* ``"stencil"``: a circulant on a periodic grid, stored as its grid-shaped
  first column, ``M[i, j] = stencil[x_i - x_j]``.  Every constant-coefficient
  finite-difference operator is one (shifts, second differences, metric
  boxes and the sums and compositions of them), and so are their
  right inverses.
* ``"diagonal"``: a diagonal, stored as the vector of its entries.
* ``"dense"``: any other ``n x n`` matrix.

The algebra keeps a body wherever it closes: sums and scalings act on the
bodies, compositions convolve stencils and multiply diagonals, adjoints
reflect stencils, quadratic forms are convolutions and Frobenius norms are
``sqrt(n)`` times a stencil's norm.  Mixed structures fall back to dense
matrices, which :attr:`Operator.matrix` derives from any body.  Every
function is written once, on an :class:`OperatorStack`, the operators of a
block of draws; an :class:`Operator` is draw 0 of a stack of one, entering
and leaving that form in one place (:func:`_one_path`), so it takes the
bits each draw of a stack takes.  The physics enters through the pairing

    <phi, psi> = w phi^T psi        (symmetric bilinear)
    <phi, psi> = w conj(phi)^T psi  (hermitian sesquilinear)

with ``w > 0`` the volume element of one site (``prod(spacing)`` on a grid,
``1`` on a geometry-free space), so adjoints are plain or conjugate
transposes.  Circulants get right inverses exactly (up to rounding) from the
discrete Fourier symbol, and a vanishing symbol is reported with its
frequency instead of silently regularized.  Diagonals are inverted entry by
entry.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, NotRightInvertible, SpaceMismatch

DEFAULT_TOL = 1e-10

#: bytes that one block of draws or fields may take per array: certification
#: chunks and correlation row groups are sized by it (see :func:`block_rows`)
BLOCK_BYTES = 1 << 22

# --- spaces -----------------------------------------------------------------


def _integer(value, name: str, least=None) -> int:
    """``value`` as an int: an int or a numpy integer, not a bool, and not
    below ``least`` when that is given; anything else raises BadSpec
    naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise BadSpec(f"{name} must be an integer, not {value!r}")
    if least is not None and value < least:
        raise BadSpec(f"{name} must be at least {least}, not {value!r}")
    return int(value)


@dataclass(frozen=True)
class GridGeometry:
    """A periodic (toroidal) grid: axis lengths and lattice spacings."""

    dims: tuple[int, ...]
    spacing: tuple[float, ...]

    def __post_init__(self):
        if len(self.dims) == 0 or len(self.dims) != len(self.spacing):
            raise BadSpec("grid needs matching, nonempty dims and spacing")
        dims = tuple(_integer(d, f"dims[{i}]", 2)
                     for i, d in enumerate(self.dims))
        if any(not (h > 0) for h in self.spacing):
            raise BadSpec("grid spacing must be positive")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))

    @property
    def size(self) -> int:
        return int(np.prod(self.dims))


@dataclass(frozen=True)
class PairingForm:
    """The bilinear/sesquilinear form against which adjoints are taken.

    Parameters
    ----------
    weight : float
        Positive, finite volume element of one site; the Gram matrix is
        ``weight * I``.
    symmetry : {"symmetric", "hermitian"}
        "symmetric" means a bilinear form (no conjugation), "hermitian" a
        sesquilinear one.
    """

    weight: float
    symmetry: str

    def __post_init__(self):
        if self.symmetry not in ("symmetric", "hermitian"):
            raise BadSpec(f"unknown pairing symmetry {self.symmetry!r}")
        weight = float(self.weight)
        if not (0.0 < weight < math.inf):
            raise BadSpec("pairing weight must be positive and finite")
        object.__setattr__(self, "weight", weight)


@dataclass(frozen=True, eq=False)
class FieldSpace:
    """A finite-dimensional stand-in for the space of field configurations."""

    dim: int
    scalar_kind: str
    pairing: PairingForm
    geometry: GridGeometry | None = None

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dim", 1))
        if self.scalar_kind not in ("real", "complex"):
            raise BadSpec(f"unknown scalar kind {self.scalar_kind!r}")
        if self.geometry is not None and self.geometry.size != self.dim:
            raise BadSpec("grid size disagrees with the space dimension")

    @property
    def dtype(self):
        return np.complex128 if self.scalar_kind == "complex" else np.float64

    def matches(self, other: "FieldSpace") -> bool:
        return (self is other
                or (self.dim == other.dim
                    and self.scalar_kind == other.scalar_kind
                    and self.pairing == other.pairing
                    and self.geometry == other.geometry))

    @property
    def normals(self) -> int:
        """How many standard normals one field takes: ``n``, or ``2n`` for
        a complex field."""
        return self.dim * (2 if self.scalar_kind == "complex" else 1)

    def fields_from_normals(self, z: np.ndarray) -> np.ndarray:
        """The fields drawn as the rows of ``z``, ``(s, normals)``, as one
        C-contiguous ``(s, n)`` array: a complex field takes its real parts
        first, then its imaginary parts.  A contiguous real ``z`` is the
        block itself, not a copy."""
        if self.scalar_kind == "complex":
            return z[:, :self.dim] + 1j * z[:, self.dim:]
        return np.ascontiguousarray(z)


def _pairing(scalar_kind: str, symmetry, weight: float = 1.0) -> PairingForm:
    """A new space's pairing: by default hermitian on a complex space and
    symmetric on a real one."""
    if symmetry is None:
        symmetry = "hermitian" if scalar_kind == "complex" else "symmetric"
    return PairingForm(weight, symmetry)


def grid_space(dims, spacing=None, scalar_kind="real", symmetry=None) -> FieldSpace:
    """Field space over a periodic grid; the pairing weight is ``prod(spacing)``."""
    try:
        dims = tuple(dims)
    except TypeError:
        raise BadSpec(f"dims must be a sequence of axis lengths, not "
                      f"{dims!r}") from None
    geometry = GridGeometry(dims,
                            tuple(spacing) if spacing is not None
                            else (1.0,) * len(dims))
    return FieldSpace(geometry.size, scalar_kind, _pairing(
        scalar_kind, symmetry, math.prod(geometry.spacing)), geometry)


def plain_space(dim, scalar_kind="real") -> FieldSpace:
    """Geometry-free field space with the unit-weight default pairing."""
    return FieldSpace(dim, scalar_kind, _pairing(scalar_kind, None))


# --- operators ---------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _reflect_index(dims: tuple[int, ...]) -> np.ndarray:
    """Row-major index of ``-x`` for each site ``x`` of a grid of ``dims``."""
    index = np.ravel_multi_index(tuple(-np.indices(dims)), dims, mode="wrap")
    index.setflags(write=False)
    return index


@dataclass(frozen=True, eq=False)
class StencilSupport:
    """Where a stencil stack keeps its entries: ascending row-major flat
    offsets of a grid of ``dims`` that hold the origin, so entry 0 is the
    diagonal, and are closed under negation, so a reflected stencil stays
    inside.  A stack of supported stencils holds ``(s, k)`` entries instead
    of ``(s, n)``; a full stencil, or one on more than half the grid, has
    the support of all ``n`` offsets.  Supports are interned (see
    :func:`_support`), so equal ones are one object.
    """

    dims: tuple
    offsets: np.ndarray

    @property
    def full(self) -> bool:
        return len(self.offsets) == math.prod(self.dims)

    @functools.cached_property
    def reflection(self) -> np.ndarray:
        """The entry of ``-x`` for each entry ``x``."""
        index = _reflect_index(self.dims).ravel()
        return index if self.full else np.searchsorted(self.offsets,
                                                        index[self.offsets])


@functools.lru_cache(maxsize=64)
def _interned(dims: tuple, key: bytes | None) -> StencilSupport:
    offsets = (np.arange(math.prod(dims)) if key is None
               else np.frombuffer(key, dtype=np.intp))
    offsets.setflags(write=False)
    return StencilSupport(dims, offsets)


def _support(dims: tuple, offsets) -> StencilSupport:
    """The interned support of the ascending ``offsets``; None is all, and
    so is more than half the grid, where the entries save little and a
    full support needs no index arrays."""
    if offsets is not None and 2 * len(offsets) > math.prod(dims):
        offsets = None
    return _interned(dims, None if offsets is None else
                     np.asarray(offsets, dtype=np.intp).tobytes())


@functools.lru_cache(maxsize=256)
def _union(a: StencilSupport | None, b: StencilSupport | None):
    """Both supports' union, kept per pair (supports are interned)."""
    if a is b or b.full:
        return b
    return a if a.full else _support(a.dims, np.union1d(a.offsets, b.offsets))


@functools.lru_cache(maxsize=256)
def _positions(narrow: StencilSupport, wide: StencilSupport) -> np.ndarray:
    """Where the offsets of ``narrow`` sit among those of ``wide``."""
    return (narrow.offsets if wide.full
            else np.searchsorted(wide.offsets, narrow.offsets))


def _read_only(body) -> np.ndarray:
    body = np.asarray(body).view()
    body.flags.writeable = False
    return body


@dataclass(frozen=True, eq=False)
class OperatorStack:
    """The operators of a block of draws on one space, one body per draw:
    the form the algebra runs on.

    ``body[i]`` is draw ``i``'s matrix (``"dense"``) or diagonal entries
    (``"diagonal"``), or its stencil's entries on ``support`` (``"stencil"``,
    see :class:`StencilSupport`); indexing gives grid-shaped operators.
    Every function acts on all draws at once with the elementwise
    arithmetic of each, so draw ``i`` keeps the bits of a stack of one.

    The public constructor validates the body in full against the
    structure, the space and the support.  A stack the algebra derives from
    validated ones (a scaling, a sum, an adjoint, a draw) is built by
    :meth:`_derive`, which checks only the body's shape.
    """

    body: np.ndarray
    space: FieldSpace
    structure: str = "dense"
    support: StencilSupport | None = None

    def __post_init__(self):
        # the body after the draw axis against the structure: a stencil's
        # holds its entries on a support of its grid
        body, n = np.asarray(self.body), self.space.dim
        geometry = self.space.geometry
        shape = {"dense": (n, n), "diagonal": (n,)}.get(self.structure)
        if self.structure == "stencil":
            if geometry is None or self.support is None \
                    or self.support.dims != geometry.dims:
                raise BadSpec("a stencil stack needs a support on its grid")
            shape = (len(self.support.offsets),)
        if shape is None:
            raise BadSpec(f"unknown operator structure {self.structure!r}")
        if body.shape[1:] != shape or body.ndim != 1 + len(shape):
            raise BadSpec(f"{self.structure} operator body has shape "
                          f"{body.shape[1:]}, its space needs {shape}")
        object.__setattr__(self, "body", body)

    def __len__(self) -> int:
        return len(self.body)

    def __getitem__(self, i) -> Operator:
        return Operator.of(self._derive(self.body[i][None]))

    def _derive(self, body: np.ndarray,
                support: StencilSupport | None = None) -> OperatorStack:
        """A stack of this one's space and structure on ``body``, which the
        algebra built from validated stacks: only its shape after the draw
        axis is checked, against this stack's body or, given a union
        ``support`` for a stencil, against that support's entries."""
        if support is None:
            support, shape = self.support, self.body.shape[1:]
        else:
            shape = (len(support.offsets),)
        if body.shape[1:] != shape:
            raise BadSpec(f"{self.structure} operator body has shape "
                          f"{body.shape[1:]}, its operands need {shape}")
        out = OperatorStack.__new__(OperatorStack)
        fields = out.__dict__
        fields["body"] = body
        fields["space"] = self.space
        fields["structure"] = self.structure
        fields["support"] = support
        return out

    @property
    def stack(self) -> OperatorStack:
        """A stack is its own stack (see :attr:`Operator.stack`)."""
        return self

    @property
    def grids(self) -> np.ndarray:
        """The bodies as :class:`Operator` holds them: a stencil's entries
        scattered to grid-shaped stencils."""
        if self.support is None:
            return self.body
        return self.rows.reshape((len(self),) + self.support.dims)

    @property
    def rows(self) -> np.ndarray:
        """One row per draw: a stencil's entries scattered to every offset
        of its grid in row-major order, a diagonal's entries or a raveled
        matrix."""
        if self.support is None:
            return self.body.reshape(len(self), -1)
        return self.entries_on(_support(self.support.dims, None))

    @property
    def matrix(self) -> np.ndarray:
        """The dense ``(s, n, n)`` matrices."""
        if self.structure == "dense":
            return self.body
        return np.stack([np.diag(x) if self.structure == "diagonal"
                         else circulant(self.space.geometry, x)
                         for x in self.grids])

    def entries_on(self, support: StencilSupport | None) -> np.ndarray:
        """The body, a stencil's entries widened to ``support``, a superset
        of its own: the offsets it lacks hold zeros."""
        if support is self.support:
            return self.body
        out = np.zeros((len(self), len(support.offsets)), self.body.dtype)
        out[:, _positions(self.support, support)] = self.body
        return out


class Operator:
    """A linear map on a field space: draw 0 of :attr:`stack`, a one-draw
    :class:`OperatorStack`.

    ``body`` is the ``n x n`` matrix when ``structure`` is ``"dense"`` (the
    default), the grid-shaped first column of a circulant when it is
    ``"stencil"``, and the vector of diagonal entries when it is
    ``"diagonal"``: a read-only view of the body an operator is built from,
    or, for one the algebra returns, scattered from its stack when read.
    """

    def __init__(self, body, space: FieldSpace, structure: str = "dense"):
        body = _read_only(body)
        vars(self).update(body=body, space=space, structure=structure, stack=(
            _stencils(body[None], space) if structure == "stencil"
            else OperatorStack(body[None], space, structure)))

    @classmethod
    def of(cls, stack: OperatorStack) -> Operator:
        """Draw 0 of the one-draw ``stack``, held as it is."""
        op = cls.__new__(cls)
        fields = op.__dict__
        fields["space"] = stack.space
        fields["structure"] = stack.structure
        fields["stack"] = stack
        return op

    def __setattr__(self, name, value):
        raise AttributeError("an operator is immutable; build a new one")

    @functools.cached_property
    def body(self) -> np.ndarray:
        """The grid-shaped stencil, diagonal entries or matrix (read-only)."""
        return _read_only(self.stack.grids[0])

    @property
    def support(self) -> StencilSupport | None:
        """A stencil's support (see :func:`_stencils`); None otherwise."""
        return self.stack.support

    @property
    def matrix(self) -> np.ndarray:
        """The dense ``n x n`` matrix, derived from the body."""
        return self.stack.matrix[0]


def _stencils(grids: np.ndarray, space: FieldSpace) -> OperatorStack:
    """Grid-shaped stencils, one per draw, as a stack on their support: the
    offsets where some draw's entry is nonzero, their negatives and the
    origin."""
    dims = getattr(space.geometry, "dims", None)
    if grids.shape[1:] != dims:
        raise BadSpec(f"stencils on {dims} are not of shape {grids.shape[1:]}")
    flat = grids.reshape(len(grids), -1)
    used = np.logical_or.reduce(flat != 0, axis=0)
    used |= used[_reflect_index(dims).ravel()]
    used[0] = True
    support = _support(dims, used.nonzero()[0])
    return OperatorStack(flat if support.full else flat[:, support.offsets],
                         space, "stencil", support)


def _one_path(fn):
    """``fn``, written on stacks, for operators too: the one place an
    operator enters the stack form, as its stack of one, and leaves it:
    with no stack among the arguments, the result is its draw 0, an
    :class:`Operator`, a Python number for a norm, or a row.  Stacks pair
    draw by draw: a stack of one broadcasts against every draw, and other
    draw counts must agree, else ``SpaceMismatch``."""

    @functools.wraps(fn)
    def one_path(*args):
        stacked, operands, counts = False, [], {1}
        for x in args:
            if isinstance(x, Operator):
                x = x.stack
            elif isinstance(x, OperatorStack):
                stacked = True
                counts.add(len(x))
            operands.append(x)
        if len(counts) > 2:
            raise SpaceMismatch(f"operator stacks of {sorted(counts - {1})} "
                                f"draws do not pair draw by draw")
        out = fn(*operands)
        if stacked:
            return out
        if isinstance(out, OperatorStack):
            return Operator.of(out)
        return out[0] if out.ndim > 1 else out[0].item()

    return one_path


def stack_operators(ops) -> OperatorStack:
    """Per-draw operators as one stack: their bodies when they share a
    structure, stencils on the union of their supports, else their dense
    matrices."""
    stacks = [op.stack for op in ops]
    space = stacks[0].space
    if not all(x.space.matches(space) for x in stacks):
        raise SpaceMismatch("operators live on different field spaces")
    if len({x.structure for x in stacks}) > 1:
        return OperatorStack(np.concatenate([x.matrix for x in stacks]),
                             space)
    support = functools.reduce(_union, (x.support for x in stacks))
    return OperatorStack(np.concatenate([x.entries_on(support)
                                         for x in stacks]), space,
                         stacks[0].structure, support)


def scale_rows(scales: np.ndarray, a) -> OperatorStack:
    """The stack whose draw ``i`` is ``a`` with its rows scaled by
    ``scales[i]``; ``a`` is one operator, or a stack of one per draw.

    ``scales`` is ``(s, 1)``, one factor per draw, which keeps ``a``'s
    structure (and a stencil's support), or ``(s, n)``, one per row, which
    keeps a diagonal and makes anything else dense; each draw gets the
    products that :func:`scale` or a row scaling of that one draw takes.
    """
    a = a.stack
    if scales.shape[1] == 1:
        factors = scales.reshape(scales.shape + (1,) * (a.body.ndim - 2))
        return a._derive(factors * a.body)
    if a.structure == "diagonal":
        return a._derive(scales * a.body)
    return OperatorStack(scales[:, :, None] * a.matrix, a.space)


def block_rows(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` bytes one block holds: as many as
    :data:`BLOCK_BYTES` takes, and at least one."""
    return max(1, BLOCK_BYTES // max(1, row_bytes))


def _unit(space: FieldSpace, value: float) -> Operator:
    """``value`` times the identity: a stencil on a grid, else a diagonal."""
    if space.geometry is None:
        return Operator(np.full(space.dim, value, dtype=space.dtype), space,
                        "diagonal")
    return Operator.of(OperatorStack(np.full((1, 1), value, space.dtype),
                                     space, "stencil",
                                     _support(space.geometry.dims, [0])))


def identity_operator(space: FieldSpace) -> Operator:
    return _unit(space, 1.0)


def zero_operator(space: FieldSpace) -> Operator:
    return _unit(space, 0.0)


def diagonal_operator(space: FieldSpace, entries) -> Operator:
    """The diagonal operator with the given entries, one per site."""
    return Operator(np.asarray(entries), space, "diagonal")


def _require_same_space(a: Operator, b: Operator):
    if not a.space.matches(b.space):
        raise SpaceMismatch("operators live on different field spaces")


@functools.lru_cache(maxsize=256)
def _roll_slabs(dims: tuple, offset: tuple) -> tuple:
    """``(dst, src)`` index pairs that copy a block of grids of ``dims``
    rolled by ``offset``: at most two slabs per axis, after any leading
    axes."""
    cuts = []
    for n, k in zip(dims, offset):
        k = int(k) % n
        cuts.append(((slice(k, n), slice(0, n - k)),
                     (slice(0, k), slice(n - k, n)))[:1 + (k > 0)])
    return tuple(((Ellipsis, *dst), (Ellipsis, *src)) for dst, src in
                 (zip(*cut) for cut in itertools.product(*cuts)))


def _roll(a: np.ndarray, offset: tuple) -> np.ndarray:
    """``out[..., x + offset] = a[..., x]`` on the trailing ``len(offset)``
    axes, periodically: numpy's roll, the same copy, with its slabs kept
    per grid shape and offset.  Every roll in the package is this one."""
    out = np.empty_like(a)
    for dst, src in _roll_slabs(a.shape[a.ndim - len(offset):], offset):
        out[dst] = a[src]
    return out


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Periodic convolution ``c[x] = sum_y a[x - y] b[y]`` of grid arrays.

    Summed in row-major order over the nonzero entries of the sparser
    factor, one shifted pass over the other per entry: a finite-difference
    stencil has a handful, so composing two costs a few passes over the
    grid, and an entry made of one product is exact.
    """
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    out = np.zeros(a.shape, dtype=np.result_type(a, b))
    for index in zip(*np.nonzero(a)):
        out += a[index] * _roll(b, index)
    return out


def reflect(stencil: np.ndarray) -> np.ndarray:
    """``stencil[-x]``, the stencil of the transposed circulant; a stack's
    stencils are reflected on their support (see
    :attr:`StencilSupport.reflection`)."""
    return stencil.ravel()[_reflect_index(stencil.shape)]


@_one_path
def compose(a, b):
    """Operator composition ``(a o b)(phi) = a(b(phi))``, draw by draw:
    diagonals in one product, stencils convolved one draw at a time, and
    anything else as dense matrices."""
    _require_same_space(a, b)
    if a.structure == b.structure == "diagonal":
        return a._derive(a.body * b.body)
    if a.structure == b.structure == "stencil":
        return _stencils(np.stack([_convolve(x, y) for x, y in zip(
            *np.broadcast_arrays(a.grids, b.grids))]), a.space)
    return OperatorStack(np.matmul(a.matrix, b.matrix), a.space)


@_one_path
def _entrywise(ufunc, a, b):
    """``ufunc`` on two stacks draw by draw (a stack of one against every
    draw), stencils on the union of their supports."""
    _require_same_space(a, b)
    if a.structure != b.structure:
        return OperatorStack(ufunc(a.matrix, b.matrix), a.space)
    support = _union(a.support, b.support)
    return a._derive(ufunc(a.entries_on(support), b.entries_on(support)),
                     support)


def add(a: Operator, b: Operator) -> Operator:
    return _entrywise(np.add, a, b)


def subtract(a: Operator, b: Operator) -> Operator:
    return _entrywise(np.subtract, a, b)


@_one_path
def scale(c, a: Operator) -> Operator:
    return a._derive(c * a.body)


def power(a: Operator, n: int) -> Operator:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise BadSpec("operator powers take a nonnegative integer exponent")
    if n == 0:
        return identity_operator(a.space)
    out = a
    for _ in range(int(n) - 1):
        out = compose(out, a)
    return out


@_one_path
def adjoint_wrt_pairing(a):
    """Adjoint with respect to the space's pairing.

    The Gram matrix ``w I`` commutes with everything, so ``G^-1 A^* G = A^*``:
    the plain transpose for a symmetric bilinear pairing and the conjugate
    transpose for a hermitian one.  A circulant's transpose is its reflected
    stencil, its entries permuted on its support, and a diagonal is its own
    transpose.
    """
    if a.structure == "dense":
        star = np.swapaxes(a.body, -1, -2)
    elif a.structure == "stencil":
        star = a.body[:, a.support.reflection]
    else:
        star = a.body
    if a.space.pairing.symmetry == "hermitian":
        star = star.conj()
    return a._derive(star)


@_one_path
def sym_part(a):
    """Pairing-symmetric part; carries exactly the quadratic-form content."""
    return a._derive(0.5 * (a.body + adjoint_wrt_pairing(a).body))


class FieldBlock:
    """A block of fields on one space and their self-correlations.

    ``fields`` is ``(s, n)``; the block keeps a read-only view of it, not a
    copy, and ``left``, the fields conjugated for a hermitian pairing.  For a
    grid offset ``k``, :meth:`correlation` returns ``corr_k = sum_x left[x]
    phi[x - k]`` for every field, computed on first use and kept.  The
    correlations do not depend on any operator, so every stencil Lagrangian
    evaluated on one block shares them.  They live and die with the block:
    its builder decides how long they are reused, and no correlation is
    cached anywhere else.  The fields may be a view of a run's
    :class:`~emergence.engine.Normals` stream, which keeps them alive after
    the block until the certificates that read them again have passed.
    """

    def __init__(self, fields, space: FieldSpace):
        fields = _read_only(fields)
        if fields.ndim != 2 or fields.shape[1] != space.dim:
            raise SpaceMismatch("fields and operators do not share one space")
        self.fields = fields
        self.space = space
        self.left = (fields.conj() if space.pairing.symmetry == "hermitian"
                     else fields)
        self._correlations = {}

    def __len__(self) -> int:
        return len(self.fields)

    def correlation(self, offset: tuple) -> np.ndarray:
        """``corr_k`` per field for the grid offset ``k``, computed once."""
        corr = self._correlations.get(offset)
        if corr is None:
            corr = self._correlations[offset] = self._correlate(offset)
        return corr

    def _correlate(self, offset: tuple) -> np.ndarray:
        """One row group of :func:`block_rows` fields at a time: each rolled
        copy is multiplied in place, and each field's sum is its own row's,
        so the bits do not depend on the grouping."""
        dims = self.space.geometry.dims
        out = np.empty(len(self), np.result_type(self.left, self.fields))
        step = block_rows(self.fields[:1].nbytes)
        for start in range(0, len(self), step):
            rows = slice(start, start + step)
            grid = self.fields[rows].reshape(-1, *dims)
            products = _roll(grid, offset).reshape(len(grid), -1)
            np.multiply(self.left[rows], products, out=products)
            out[rows] = np.sum(products, axis=1)
        return out


def lagrangian_value(a, phi):
    """The Lagrangian density sum ``<phi, A phi>`` of a field or a block.

    ``phi`` is one field ``(n,)``, giving a number, or a block of ``s``
    fields, giving ``s`` values: a :class:`FieldBlock` or an ``(s, n)``
    array, which gets a fresh block of its own, so nothing is reused across
    calls unless the caller shares a block.  ``a`` is one operator, or an
    :class:`OperatorStack` (or a list, stacked here) of ``s``, one per
    field.  A stencil stack never applies its operators: the value is
    ``w sum_k s[k] corr_k`` over the offsets ``k`` of its support where
    some draw's entry is nonzero, and the origin, in row-major order, with
    the block's correlations, so a shared block gives the same bits as a
    fresh one.  As the origin is always among the offsets, a NaN field is
    NaN under every stencil, the zero one included.  Diagonal stacks take
    one product, dense ones one batched product; the pairing is a row sum,
    not a BLAS call.
    """
    a = stack_operators(a) if isinstance(a, (list, tuple)) else a.stack
    space = a.space
    block = phi if isinstance(phi, FieldBlock) else FieldBlock(
        np.reshape(phi, (1, -1)) if np.ndim(phi) == 1 else phi, space)
    if len(a) not in (1, len(block)) or not space.matches(block.space):
        raise SpaceMismatch("fields and operators do not share one space")
    fields = block.fields
    if a.structure == "stencil":
        used = np.any(a.body != 0, axis=0)
        used[0] = True
        used = np.flatnonzero(used)
        offsets = np.unravel_index(a.support.offsets[used],
                                   a.support.dims)
        values = np.zeros(len(fields), dtype=np.result_type(a.body, fields))
        for j, k in zip(used, zip(*offsets)):
            values += a.body[:, j] * block.correlation(k)
    else:
        if a.structure == "diagonal":
            applied = a.body * fields
        else:
            applied = np.matmul(a.body, fields[..., None])
        values = np.sum(block.left * applied.reshape(len(fields), -1), axis=1)
    values = space.pairing.weight * values
    return values if isinstance(phi, FieldBlock) or np.ndim(phi) == 2 \
        else values[0].item()


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a 2-D array, with the same bits.

    That norm is the square root of a BLAS dot product (of the real and the
    imaginary parts apart, added), and a row-times-column ``matmul`` takes
    the same dot product row by row.  Some kernels sum differently from an
    8-byte offset, so each row starts 16-byte aligned, as a freshly
    allocated body does; a C-contiguous array that owns its data is one,
    and only the others have their address read.
    """
    s, m = rows.shape
    pad = -m * rows.itemsize % 16 // rows.itemsize
    flags = rows.flags
    if pad or not flags.c_contiguous or (not flags.owndata
                                         and rows.ctypes.data % 16):
        padded = np.empty((s, m + pad), rows.dtype)
        padded[:, :m] = rows
        rows = padded[:, :m]
    square = None
    for part in ((rows.real, rows.imag) if np.iscomplexobj(rows)
                 else (rows,)):
        dot = np.matmul(part[:, None, :], part[:, :, None])[:, 0, 0]
        square = dot if square is None else square + dot
    return np.sqrt(square)


@_one_path
def frobenius(a):
    """Frobenius norm, one per draw; a circulant repeats its stencil in
    each of n rows.  A stencil is taken in grid order, as a BLAS dot sums
    by position: on its support's entries the bits would follow the
    support."""
    norm = _row_norms(a.rows)
    return math.sqrt(a.space.dim) * norm if a.structure == "stencil" else norm


@_one_path
def frobenius_coordinates(a) -> np.ndarray:
    """A row per draw whose 2-norm is the Frobenius norm of that draw, in
    the coordinates of the full grid or matrix.

    A stencil times ``sqrt(n)`` (each entry fills n matrix entries), a
    diagonal's entries (the zeros off it drop out) or the raveled matrix.
    """
    body = a.rows
    return math.sqrt(a.space.dim) * body if a.structure == "stencil" else body


@_one_path
def distance_to_diagonal(a, entries):
    """``|A - diag(entries)|_F``, one distance per draw.

    ``entries`` has one row per draw, ``(s, 1)`` or ``(s, n)`` as
    :func:`scale_rows` takes them; one operator takes a scalar or one entry
    per site.  A stencil's off-diagonal entries repeat in every row and its
    diagonal is entry 0 of its support; the diagonal term is an exact
    ``0.0`` when a scalar entry equals it, and the ``n`` repeated gaps are
    only made for the draws where it does not.
    """
    s, n = len(a), a.space.dim
    entries = np.reshape(entries, (s, -1))
    if a.structure == "diagonal":
        return _row_norms(a.body - entries)
    if a.structure != "stencil":
        diag = np.zeros((s, n, n), dtype=entries.dtype)
        diag[:, np.arange(n), np.arange(n)] = np.broadcast_to(entries, (s, n))
        return _row_norms((a.body - diag).reshape(s, -1))
    off = a.body.copy()
    off[:, 0] = 0
    off = frobenius(a._derive(off))
    v = a.body[:, 0]
    if entries.shape[1] == 1:
        # v != e also holds for a NaN
        miss = np.flatnonzero(v != entries[:, 0])
        gap = np.zeros(s)
        gap[miss] = _row_norms(v[miss, None] - np.broadcast_to(
            entries[miss], (len(miss), n)))
    else:
        gap = _row_norms(v[:, None] - entries)
    # math.hypot per draw: numpy's hypot may round otherwise
    return np.array([math.hypot(x, y) for x, y in zip(off.tolist(),
                                                       gap.tolist())])


def is_idempotent_power(a: Operator, n: int) -> bool:
    """Whether ``A^(2n) == A^n`` holds (relative Frobenius residual within
    :data:`DEFAULT_TOL`; a norm that overflows never verifies)."""
    an = power(a, int(n))
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(frobenius(subtract(compose(an, an), an))
                    <= DEFAULT_TOL * max(1.0, frobenius(an)) < math.inf)


# --- circulants and right inverses -------------------------------------------


def circulant(geometry: GridGeometry, stencil) -> np.ndarray:
    """Dense periodic convolution ``M[i, j] = stencil[x_i - x_j]``.

    ``stencil`` is the grid-shaped first column; every entry is gathered from
    it through one row-major index of ``x_i - x_j``, built axis by axis, so
    the result is exactly circulant.
    """
    stencil = np.asarray(stencil)
    if stencil.size != geometry.size:
        raise BadSpec("stencil size disagrees with the grid")
    index = np.zeros((geometry.size, geometry.size), dtype=np.intp)
    coords = np.indices(geometry.dims).reshape(len(geometry.dims), -1)
    for coord, n in zip(coords, geometry.dims):
        index *= n
        index += np.subtract.outer(coord, coord) % n
    return stencil.ravel()[index]


def right_inverse(a: Operator, tol: float = DEFAULT_TOL) -> Operator:
    """A verified right inverse: ``A o R = I`` within ``tol`` (Frobenius).

    Stencil operators (circulants) take the spectral route, which inverts the
    symbol and refuses exactly those operators whose symbol vanishes
    somewhere, reporting the offending frequency.  Diagonals are inverted
    entry by entry and a zero entry is refused with its index.  Every other
    operator takes the pseudoinverse route, which refuses rank-deficient
    inputs with the residual.  An operator with a NaN or infinite entry is
    refused before any route runs, and one whose norm overflows before its
    product is verified within ``tol * max(1, |A|_F)``.
    """
    finite = np.isfinite(a.body)
    if not finite.all():
        index = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise NotRightInvertible(f"operator has a non-finite entry at {index}")
    if a.structure == "diagonal":
        method = "reciprocal"
        zeros = np.flatnonzero(a.body == 0)
        if zeros.size:
            raise NotRightInvertible(
                f"diagonal entry {int(zeros[0])} is zero")
        r = Operator(1.0 / a.body, a.space, "diagonal")
    elif a.structure == "stencil":
        method = "spectral"
        geometry = a.space.geometry
        symbol = np.fft.fftn(a.body)
        scale_ = max(1.0, float(np.max(np.abs(symbol))))
        flat = np.abs(symbol).ravel()
        k = int(np.argmin(flat))
        if flat[k] <= tol * scale_:
            freq = tuple(int(x) for x in np.unravel_index(k, geometry.dims))
            raise NotRightInvertible(
                f"circulant symbol vanishes at frequency {freq}",
                frequency=freq, residual=float(flat[k]))
        inverse = np.fft.ifftn(1.0 / symbol)
        if a.space.scalar_kind == "real" and np.max(np.abs(inverse.imag)) <= 1e-12:
            inverse = inverse.real
        r = Operator(inverse, a.space, "stencil")
    else:
        method = "pseudoinverse"
        r = Operator(np.linalg.pinv(a.body), a.space)
    with np.errstate(over="ignore"):
        bound = tol * max(1.0, frobenius(a))
    if not math.isfinite(bound):
        raise NotRightInvertible(f"operator norm overflows, so the {method} "
                                 "inverse cannot be verified")
    residual = frobenius(subtract(compose(a, r), identity_operator(a.space)))
    if not residual <= bound:
        raise NotRightInvertible(
            f"candidate right inverse failed verification ({method})",
            residual=residual)
    return r


# --- discrete operator builders ----------------------------------------------
# Each returns a grid-shaped stencil: the first column of its circulant.


def _shift(geometry: GridGeometry, axis: int, step: int) -> np.ndarray:
    """``(S phi)(x) = phi(x + step e_axis)``; step 0 is the identity."""
    stencil = np.zeros(geometry.dims)
    index = [0] * len(geometry.dims)
    index[axis] = -step % geometry.dims[axis]
    stencil[tuple(index)] = 1.0
    return stencil


def _axis(geometry: GridGeometry, params: dict, name: str) -> int:
    axis = _integer(params.pop(name, None), name)
    if not 0 <= axis < len(geometry.dims):
        raise BadSpec(f"{name} {axis} out of range for a "
                      f"{len(geometry.dims)}-dimensional grid")
    return axis


def _partial(geometry: GridGeometry, axis: int) -> np.ndarray:
    """The central difference ``(phi(x + e) - phi(x - e)) / 2h``."""
    h = geometry.spacing[axis]
    return (_shift(geometry, axis, +1)
            - _shift(geometry, axis, -1)) / (2.0 * h)


def _second_partial(geometry: GridGeometry, mu: int, nu: int) -> np.ndarray:
    if mu == nu:
        h = geometry.spacing[mu]
        return (_shift(geometry, mu, +1)
                - 2.0 * _shift(geometry, mu, 0)
                + _shift(geometry, mu, -1)) / (h * h)
    # the stencil of the product of the two central-difference circulants
    return _convolve(_partial(geometry, mu), _partial(geometry, nu))


def _box(geometry: GridGeometry, eta: np.ndarray | None) -> np.ndarray:
    d = len(geometry.dims)
    try:
        eta = np.eye(d) if eta is None else np.asarray(eta, dtype=float)
    except (TypeError, ValueError):
        eta = None
    if eta is None or eta.shape != (d, d):
        raise BadSpec(f"eta must be a real {d}x{d} matrix")
    out = np.zeros(geometry.dims)
    for mu in range(d):
        for nu in range(d):
            if eta[mu, nu] != 0.0:
                out = out + eta[mu, nu] * _second_partial(geometry, mu, nu)
    return out


def make_discrete_operator(space: FieldSpace, kind: str, **params) -> Operator:
    """Build a named operator on a grid space.

    Kinds: ``shift(axis, step=1)``, ``second_partial(mu, nu)``,
    ``box(eta=None)`` and ``projection(basis)``; any other kind raises
    :class:`BadSpec`, and so does an axis, step, ``mu`` or ``nu`` that is
    not an integer (a bool included).  All but the dense projector are
    constant-coefficient stencils, stored as such.
    """
    geometry = space.geometry
    if geometry is None:
        raise BadSpec("discrete operators need a grid geometry")
    stencil = None
    if kind == "shift":
        axis = _axis(geometry, params, "axis")
        stencil = _shift(geometry, axis, _integer(params.pop("step", 1), "step"))
    elif kind == "second_partial":
        mu, nu = (_axis(geometry, params, name) for name in ("mu", "nu"))
        stencil = _second_partial(geometry, mu, nu)
    elif kind == "box":
        stencil = _box(geometry, params.pop("eta", None))
    elif kind == "projection":
        try:
            basis = np.column_stack([np.asarray(v)
                                     for v in params.pop("basis")])
        except (KeyError, TypeError, ValueError):
            basis = None
        if basis is None or basis.shape[0] != space.dim:
            raise BadSpec(f"basis must be one or more vectors of "
                          f"{space.dim} entries")
        q, _ = np.linalg.qr(basis)
        matrix = q @ q.conj().T
        if np.iscomplexobj(matrix) and np.max(np.abs(matrix.imag)) <= 1e-13:
            matrix = matrix.real
    else:
        raise BadSpec(f"unknown discrete operator kind {kind!r}")
    if params:
        raise BadSpec(f"unused parameters for kind {kind!r}: {sorted(params)}")
    if stencil is not None:
        return Operator(stencil, space, "stencil")
    return Operator(matrix, space)


# --- small conveniences used across the library -------------------------------


def operator_residual(a, b):
    """Frobenius distance between quadratic forms, ``|sym_part(a - b)|_F``.

    Two stacks give one distance per draw.
    """
    return frobenius(sym_part(subtract(a, b)))


def plane_wave(space: FieldSpace, freq: tuple[int, ...]) -> np.ndarray:
    """Complex plane wave ``exp(2 pi i k.x / N)`` on the space's grid."""
    if space.geometry is None:
        raise BadSpec("plane waves need a grid geometry")
    dims = space.geometry.dims
    coords = np.indices(dims)
    phase = np.zeros(dims, dtype=float)
    for k, n, c in zip(freq, dims, coords):
        phase = phase + 2.0 * math.pi * k * c / n
    return np.exp(1j * phase).ravel()


def exact_sum(values, repeats: int = 1) -> float:
    """``repeats * sum(values)`` rounded once; NaN if not a finite float.

    The exact sum of the real ``values`` is rounded to nearest even, so it
    does not depend on their order or the machine; a zero sum is ``+0.0``.
    A plain sum is ``math.fsum`` unless a partial sum overflows; otherwise
    the values are added as integer multiples of ``2**-1074``, times
    ``repeats``, and Python's int division by ``2**1074`` rounds once.
    """
    values = np.asarray(values, dtype=float)
    values = values[values != 0]
    if not np.isfinite(values).all():
        return math.nan
    values = values.tolist()
    if repeats == 1:
        with contextlib.suppress(OverflowError):  # a partial sum overflows
            return math.fsum(values)
    total = int(repeats) * sum(p << 1075 - q.bit_length() for p, q in
                               map(float.as_integer_ratio, values))
    try:
        return total / (1 << 1074)
    except OverflowError:
        return math.nan


def _int64_sums(rows: np.ndarray):
    """Correctly rounded sums of the last axis, exact in int64 where that
    provably holds: ``(sums, answered)``, ``sums`` 0 where not answered.

    Scaled by ``2**(53 - low)``, a row whose nonzero entries have ``frexp``
    exponents ``low..high`` is integers below ``2**(high - low + 53)``;
    where ``L`` of them sum below ``2**63`` the int64 sum is exact, and its
    rounding to float and the scaling back give :func:`exact_sum`'s bits.
    A zero sum, a subnormal or non-finite entry and scales that are not
    normal floats (``low < -969`` or ``high > 1000``) are not answered.

    The work runs on ``rows.T``, entry ``k`` of every row on slice ``k`` of
    its leading axis, so each reduction is over whole slices, not along
    short rows.  Rows held transposed in memory (``rows.T`` contiguous)
    are not copied.
    """
    entries = np.ascontiguousarray(rows.T, dtype=float)
    # the biased exponent field: frexp's exponent plus 1022 for a normal
    # entry, 0 for a zero or subnormal one, 2047 for inf or NaN
    biased = (entries.view(np.int64) >> 52) & 0x7FF
    low = np.min(np.where(entries != 0, biased, 0x7FF), axis=0, initial=0x7FF)
    high = np.max(biased, axis=0, initial=0)
    headroom = 63 - 53 - (len(entries) - 1).bit_length()
    answered = (low >= 53) & (high <= 2022) & (high - low <= headroom)
    shift = np.where(answered, 1075 - low, 0)
    integers = (np.where(answered, entries, 0.0)
                * np.ldexp(1.0, shift)).astype(np.int64)
    total = integers.sum(axis=0)
    answered &= total != 0
    sums = total.astype(float) * np.ldexp(1.0, -shift)
    return np.where(answered, sums, 0.0).T, answered.T


def exact_sums(rows) -> np.ndarray:
    """:func:`exact_sum` of each row of the last axis, real and imaginary
    parts apart: an array of the leading shape, NaN where a sum is not a
    finite float.  Rows the int64 route answers take it, the same bits;
    it is fastest on rows held transposed (see :func:`_int64_sums`)."""
    rows = np.asarray(rows)
    if np.iscomplexobj(rows):  # the parts side by side, read as complex
        return np.stack([exact_sums(rows.real), exact_sums(rows.imag)],
                        axis=-1).view(complex)[..., 0]
    sums, answered = _int64_sums(rows)
    out = sums.reshape(-1)
    missing = np.flatnonzero(~answered)
    if missing.size:
        flat = rows.reshape(out.size, rows.shape[-1])
        # a row of zeros sums to the 0.0 it holds
        for i in missing[flat[missing].any(axis=-1)].tolist():
            out[i] = exact_sum(flat[i])
    return out.reshape(rows.shape[:-1])
