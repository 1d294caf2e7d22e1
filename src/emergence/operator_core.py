"""Operator algebra on discretized field spaces, stored by structure.

A field configuration is a vector in ``C^n`` or ``R^n``; an operator is a
linear map on it, held in one of three bodies:

* ``"stencil"``: a circulant on a periodic grid, stored as its grid-shaped
  first column, ``M[i, j] = stencil[x_i - x_j]``.  Every constant-coefficient
  finite-difference operator is one (shifts, first/second differences,
  metric boxes and the curvature/noncommutativity backgrounds built from
  them), and so are their right inverses.
* ``"diagonal"``: a diagonal, stored as the vector of its entries.
* ``"dense"``: any other ``n x n`` matrix.

The algebra keeps a body wherever it closes: sums and scalings act on the
bodies, compositions convolve stencils and multiply diagonals, adjoints
reflect stencils, quadratic forms are convolutions and Frobenius norms are
``sqrt(n)`` times a stencil's norm.  Mixed structures fall back to dense
matrices, which :attr:`Operator.matrix` derives from any body.  The physics
enters through the pairing

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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, NotRightInvertible, SpaceMismatch

DEFAULT_TOL = 1e-10

# --- spaces -----------------------------------------------------------------


@dataclass(frozen=True)
class GridGeometry:
    """A periodic (toroidal) grid: axis lengths and lattice spacings."""

    dims: tuple[int, ...]
    spacing: tuple[float, ...]

    def __post_init__(self):
        if len(self.dims) == 0 or len(self.dims) != len(self.spacing):
            raise BadSpec("grid needs matching, nonempty dims and spacing")
        if any(int(d) < 2 for d in self.dims):
            raise BadSpec("every grid axis needs at least 2 sites")
        if any(not (h > 0) for h in self.spacing):
            raise BadSpec("grid spacing must be positive")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
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

    def sample_field(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a random field configuration (standard normal components)."""
        phi = rng.standard_normal(self.dim)
        if self.scalar_kind == "complex":
            phi = phi + 1j * rng.standard_normal(self.dim)
        return phi


def grid_space(dims, spacing=None, scalar_kind="real", symmetry=None) -> FieldSpace:
    """Field space over a periodic grid; the pairing weight is ``prod(spacing)``."""
    geometry = GridGeometry(tuple(dims),
                            tuple(spacing) if spacing is not None
                            else (1.0,) * len(dims))
    if symmetry is None:
        symmetry = "hermitian" if scalar_kind == "complex" else "symmetric"
    pairing = PairingForm(math.prod(geometry.spacing), symmetry)
    return FieldSpace(geometry.size, scalar_kind, pairing, geometry)


def plain_space(dim, scalar_kind="real", symmetry=None) -> FieldSpace:
    """Geometry-free field space with the unit-weight pairing."""
    if symmetry is None:
        symmetry = "hermitian" if scalar_kind == "complex" else "symmetric"
    return FieldSpace(dim, scalar_kind, PairingForm(1.0, symmetry))


# --- operators ---------------------------------------------------------------


def _check_body(op, lead: int):
    """Check ``op.body`` against its structure, after ``lead`` draw axes."""
    body = np.asarray(op.body)
    n = op.space.dim
    if op.structure == "dense":
        shape = (n, n)
    elif op.structure == "stencil":
        if op.space.geometry is None:
            raise BadSpec("stencil operators need a grid geometry")
        shape = op.space.geometry.dims
    elif op.structure == "diagonal":
        shape = (n,)
    else:
        raise BadSpec(f"unknown operator structure {op.structure!r}")
    if body.ndim != lead + len(shape) or body.shape[lead:] != shape:
        raise BadSpec(f"{op.structure} operator body has shape "
                      f"{body.shape[lead:]}, its space needs {shape}")
    object.__setattr__(op, "body", body)


@dataclass(frozen=True, eq=False)
class Operator:
    """A linear map on a field space, stored by its structure.

    ``body`` is the ``n x n`` matrix when ``structure`` is ``"dense"`` (the
    default, so ``Operator(matrix, space)`` is dense), the grid-shaped first
    column of a circulant when it is ``"stencil"``, and the vector of
    diagonal entries when it is ``"diagonal"``.
    """

    body: np.ndarray
    space: FieldSpace
    structure: str = "dense"

    def __post_init__(self):
        _check_body(self, 0)

    @property
    def matrix(self) -> np.ndarray:
        """The dense ``n x n`` matrix, derived from the body."""
        if self.structure == "stencil":
            return circulant(self.space.geometry, self.body)
        if self.structure == "diagonal":
            return np.diag(self.body)
        return self.body


@dataclass(frozen=True, eq=False)
class OperatorStack:
    """The operators of a block of draws on one space, one body per draw.

    ``body[i]`` is what an :class:`Operator` of ``structure`` holds for
    draw ``i``.  Sums, differences, adjoints, symmetric parts, Frobenius
    norms, Lagrangians and residuals act on every draw at once, with the
    elementwise arithmetic each draw's operator would get, so draw ``i``
    keeps the bits it has on its own.
    """

    body: np.ndarray
    space: FieldSpace
    structure: str = "dense"

    def __post_init__(self):
        _check_body(self, 1)

    def __len__(self) -> int:
        return len(self.body)

    def __getitem__(self, i) -> Operator:
        return Operator(self.body[i], self.space, self.structure)

    @property
    def matrix(self) -> np.ndarray:
        """The dense ``(s, n, n)`` matrices."""
        if self.structure == "dense":
            return self.body
        return np.stack([op.matrix for op in self])


def stack_operators(ops) -> OperatorStack:
    """Per-draw operators as one stack: their bodies when they share a
    structure, else their dense matrices."""
    ops = list(ops)
    space = ops[0].space
    if not all(op.space.matches(space) for op in ops):
        raise SpaceMismatch("operators live on different field spaces")
    structures = {op.structure for op in ops}
    if len(structures) == 1:
        return OperatorStack(np.stack([op.body for op in ops]), space,
                             structures.pop())
    return OperatorStack(np.stack([op.matrix for op in ops]), space)


def scale_rows(scales: np.ndarray, a: Operator) -> OperatorStack:
    """The stack whose draw ``i`` is ``a`` with its rows scaled by
    ``scales[i]``.

    ``scales`` is ``(s, 1)``, one factor per draw, which keeps ``a``'s
    structure, or ``(s, n)``, one per row, which keeps a diagonal and makes
    anything else dense; each draw gets the products that :func:`scale` or
    a row scaling of that one draw takes.
    """
    if scales.shape[1] == 1:
        factors = scales.reshape((len(scales),) + (1,) * a.body.ndim)
        return OperatorStack(factors * a.body, a.space, a.structure)
    if a.structure == "diagonal":
        return OperatorStack(scales * a.body, a.space, "diagonal")
    return OperatorStack(scales[:, :, None] * a.matrix, a.space)


def _unit(space: FieldSpace, value: float) -> Operator:
    """``value`` times the identity: a stencil on a grid, else a diagonal."""
    if space.geometry is None:
        return Operator(np.full(space.dim, value, dtype=space.dtype), space,
                        "diagonal")
    stencil = np.zeros(space.geometry.dims, dtype=space.dtype)
    stencil.flat[0] = value
    return Operator(stencil, space, "stencil")


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
        coeff = a[index]
        # out[x] += coeff * b[x - index] in at most two slabs per axis
        for cut in itertools.product(*(
                ((slice(i, n), slice(0, n - i)),
                 (slice(0, i), slice(n - i, n)))[:1 + (i > 0)]
                for n, i in zip(a.shape, index))):
            dst, src = zip(*cut)
            out[dst] += coeff * b[src]
    return out


@functools.lru_cache(maxsize=16)
def _reflect_index(dims: tuple[int, ...]) -> np.ndarray:
    """Row-major index of ``-x`` for each site ``x`` of a grid of ``dims``."""
    index = np.ravel_multi_index(tuple(-np.indices(dims)), dims, mode="wrap")
    index.setflags(write=False)
    return index


def reflect(stencil: np.ndarray, dims: tuple | None = None) -> np.ndarray:
    """``stencil[-x]``, the stencil of the transposed circulant.

    ``dims`` are the grid's (default: the stencil's shape); any axes before
    them are draw axes, each reflected apart.
    """
    dims = stencil.shape if dims is None else dims
    flat = stencil.reshape(stencil.shape[:stencil.ndim - len(dims)] + (-1,))
    return flat[..., _reflect_index(dims)]


def compose(a: Operator, b: Operator) -> Operator:
    """Operator composition ``(a o b)(phi) = a(b(phi))``."""
    _require_same_space(a, b)
    if a.structure == b.structure == "stencil":
        return Operator(_convolve(a.body, b.body), a.space, "stencil")
    if a.structure == b.structure == "diagonal":
        return Operator(a.body * b.body, a.space, "diagonal")
    return Operator(a.matrix @ b.matrix, a.space)


def _entrywise(ufunc, a, b):
    """``ufunc`` on two operators; with a stack on either side, per draw."""
    _require_same_space(a, b)
    kind = OperatorStack if OperatorStack in (type(a), type(b)) else Operator
    if a.structure == b.structure:
        return kind(ufunc(a.body, b.body), a.space, a.structure)
    return kind(ufunc(a.matrix, b.matrix), a.space)


def add(a: Operator, b: Operator) -> Operator:
    return _entrywise(np.add, a, b)


def subtract(a: Operator, b: Operator) -> Operator:
    return _entrywise(np.subtract, a, b)


def scale(c, a: Operator) -> Operator:
    return Operator(c * a.body, a.space, a.structure)


def power(a: Operator, n: int) -> Operator:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise BadSpec("operator powers take a nonnegative integer exponent")
    if n == 0:
        return identity_operator(a.space)
    out = a
    for _ in range(int(n) - 1):
        out = compose(out, a)
    return out


def adjoint_wrt_pairing(a):
    """Adjoint with respect to the space's pairing.

    The Gram matrix ``w I`` commutes with everything, so ``G^-1 A^* G = A^*``:
    the plain transpose for a symmetric bilinear pairing and the conjugate
    transpose for a hermitian one.  A circulant's transpose is its reflected
    stencil and a diagonal is its own transpose.  A stack gets each draw's
    adjoint.
    """
    if a.structure == "dense":
        star = np.swapaxes(a.body, -1, -2)
    elif a.structure == "stencil":
        star = reflect(a.body, a.space.geometry.dims)
    else:
        star = a.body
    if a.space.pairing.symmetry == "hermitian":
        star = star.conj()
    return type(a)(star, a.space, a.structure)


def sym_part(a):
    """Pairing-symmetric part; carries exactly the quadratic-form content."""
    return type(a)(0.5 * (a.body + adjoint_wrt_pairing(a).body), a.space,
                   a.structure)


class FieldBlock:
    """A block of fields on one space and their self-correlations.

    ``fields`` is ``(s, n)``; the block keeps a read-only view of it, not a
    copy, and ``left``, the fields conjugated for a hermitian pairing.  For a
    grid offset ``k``, :meth:`correlation` returns ``corr_k = sum_x left[x]
    phi[x - k]`` for every field, computed on first use and kept.  The
    correlations do not depend on any operator, so every stencil Lagrangian
    evaluated on one block shares them.  They live and die with the block:
    its builder decides how long fields are reused, and nothing is cached
    anywhere else.
    """

    def __init__(self, fields, space: FieldSpace):
        fields = np.asarray(fields).view()
        if fields.ndim != 2 or fields.shape[1] != space.dim:
            raise SpaceMismatch("fields and operators do not share one space")
        fields.flags.writeable = False
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
        grid = self.fields.reshape(-1, *self.space.geometry.dims)
        products = np.roll(grid, offset, axis=tuple(range(1, grid.ndim)))
        # in place: one block-sized temporary, not two
        products = products.reshape(len(self), -1)
        np.multiply(self.left, products, out=products)
        return np.sum(products, axis=1)


def lagrangian_value(a, phi):
    """The Lagrangian density sum ``<phi, A phi>`` of a field or a block.

    ``phi`` is one field ``(n,)``, giving a number, or a block of ``s``
    fields, giving ``s`` values: a :class:`FieldBlock` or an ``(s, n)``
    array, which gets a fresh block of its own, so nothing is reused across
    calls unless the caller shares a block.  ``a`` is one operator, or an
    :class:`OperatorStack` (or a list, stacked here) of ``s``, one per
    field.  A stencil stack never applies its operators: the value is
    ``w sum_k s[k] corr_k`` over the offsets ``k`` of the stack's union
    stencil support, in row-major order, with the block's correlations, so
    a shared block gives the same bits as a fresh one.  The origin is always
    among the offsets, so a NaN field is NaN under every stencil, the zero
    one included.  Diagonal stacks take one product, dense ones one batched
    product; the pairing is a row sum, not a BLAS call.
    """
    if isinstance(a, Operator):
        a = OperatorStack(a.body[None], a.space, a.structure)
    elif not isinstance(a, OperatorStack):
        a = stack_operators(a)
    space = a.space
    block = phi if isinstance(phi, FieldBlock) else FieldBlock(
        np.reshape(phi, (1, -1)) if np.ndim(phi) == 1 else phi, space)
    if len(a) not in (1, len(block)) or not space.matches(block.space):
        raise SpaceMismatch("fields and operators do not share one space")
    fields = block.fields
    if a.structure == "stencil":
        support = np.any(a.body != 0, axis=0)
        support.flat[0] = True
        values = np.zeros(len(fields), dtype=np.result_type(a.body, fields))
        for k in zip(*np.nonzero(support)):
            values += a.body[(slice(None),) + k] * block.correlation(k)
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
    allocated body does.
    """
    s, m = rows.shape
    pad = -m * rows.itemsize % 16 // rows.itemsize
    if pad or rows.ctypes.data % 16 or not rows.flags.c_contiguous:
        padded = np.empty((s, m + pad), rows.dtype)
        padded[:, :m] = rows
        rows = padded[:, :m]
    square = None
    for part in ((rows.real, rows.imag) if np.iscomplexobj(rows)
                 else (rows,)):
        dot = np.matmul(part[:, None, :], part[:, :, None])[:, 0, 0]
        square = dot if square is None else square + dot
    return np.sqrt(square)


def frobenius(a):
    """Frobenius norm; a circulant repeats its stencil in each of n rows.

    A stack gets one norm per draw, each the bits of that draw's own.
    """
    if isinstance(a, OperatorStack):
        norm = _row_norms(a.body.reshape(len(a), -1))
    else:
        norm = float(np.linalg.norm(a.body))
    return math.sqrt(a.space.dim) * norm if a.structure == "stencil" else norm


def frobenius_coordinates(a: Operator) -> np.ndarray:
    """A vector whose 2-norm is the Frobenius norm of ``a``.

    A stencil times ``sqrt(n)`` (each entry fills n matrix entries), a
    diagonal's entries (the zeros off it drop out) or the raveled matrix.
    """
    if a.structure == "stencil":
        return math.sqrt(a.space.dim) * a.body.ravel()
    return a.body.ravel()


def distance_to_diagonal(a, entries):
    """``|A - diag(entries)|_F``; ``entries`` is a scalar or one per site.

    A stack takes ``entries`` with one row per draw, ``(s, 1)`` or
    ``(s, n)`` as :func:`scale_rows` takes them, and gives one distance per
    draw; one operator is a stack of one.  A stencil's off-diagonal entries
    repeat in every row and its diagonal is ``body[0]``; the diagonal term
    is an exact ``0.0`` when a scalar entry equals it.
    """
    if isinstance(a, Operator):
        stack = OperatorStack(a.body[None], a.space, a.structure)
        return float(distance_to_diagonal(stack, np.reshape(entries,
                                                            (1, -1)))[0])
    s, n = len(a), a.space.dim
    if a.structure == "diagonal":
        return _row_norms(a.body - entries)
    if a.structure != "stencil":
        diag = np.zeros((s, n, n), dtype=entries.dtype)
        diag[:, np.arange(n), np.arange(n)] = np.broadcast_to(entries, (s, n))
        return _row_norms((a.body - diag).reshape(s, -1))
    flat = a.body.reshape(s, -1)
    off = flat.copy()
    off[:, 0] = 0
    v = flat[:, 0]
    gap = _row_norms(v[:, None] - np.broadcast_to(entries, (s, n)))
    if entries.shape[1] == 1:
        gap = np.where(v == entries[:, 0], 0.0, gap)
    # math.hypot per draw: numpy's hypot may round otherwise
    return np.array([math.hypot(x, y) for x, y in zip(
        (math.sqrt(n) * _row_norms(off)).tolist(), gap.tolist())])


def is_idempotent_power(a: Operator, n: int, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``A^(2n) == A^n`` holds (relative Frobenius residual)."""
    an = power(a, int(n))
    return bool(frobenius(subtract(compose(an, an), an))
                <= tol * max(1.0, frobenius(an)))


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
    inputs with the residual.  Either way the product is verified.  An
    operator with a NaN or infinite entry is refused before any route runs.
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
    residual = frobenius(subtract(compose(a, r), identity_operator(a.space)))
    if not residual <= tol * max(1.0, frobenius(a)):
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


def _check_axis(geometry: GridGeometry, axis: int):
    if not 0 <= axis < len(geometry.dims):
        raise BadSpec(f"axis {axis} out of range for a "
                      f"{len(geometry.dims)}-dimensional grid")


def _partial(geometry: GridGeometry, axis: int, scheme: str) -> np.ndarray:
    h = geometry.spacing[axis]
    if scheme == "central":
        return (_shift(geometry, axis, +1)
                - _shift(geometry, axis, -1)) / (2.0 * h)
    if scheme == "forward":
        return (_shift(geometry, axis, +1)
                - _shift(geometry, axis, 0)) / h
    raise BadSpec(f"unknown difference scheme {scheme!r}")


def _second_partial(geometry: GridGeometry, mu: int, nu: int) -> np.ndarray:
    if mu == nu:
        h = geometry.spacing[mu]
        return (_shift(geometry, mu, +1)
                - 2.0 * _shift(geometry, mu, 0)
                + _shift(geometry, mu, -1)) / (h * h)
    # the stencil of the product of the two central-difference circulants
    return _convolve(_partial(geometry, mu, "central"),
                     _partial(geometry, nu, "central"))


def _box(geometry: GridGeometry, eta: np.ndarray | None) -> np.ndarray:
    d = len(geometry.dims)
    eta = np.eye(d) if eta is None else np.asarray(eta, dtype=float)
    if eta.shape != (d, d):
        raise BadSpec("box coefficient matrix has the wrong shape")
    out = np.zeros(geometry.dims)
    for mu in range(d):
        for nu in range(d):
            if eta[mu, nu] != 0.0:
                out = out + eta[mu, nu] * _second_partial(geometry, mu, nu)
    return out


def _d2(geometry: GridGeometry, field_strength: float,
        eta: np.ndarray) -> np.ndarray:
    # Constant antisymmetric background contracted against the inverse
    # metric; the quarter-trace removal keeps the operator trace-adjusted.
    if len(geometry.dims) != 2:
        raise BadSpec("the noncommutative background operator is 2-dimensional")
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (2, 2) or not np.allclose(eta, eta.T):
        raise BadSpec("metric must be a symmetric 2x2 matrix")
    if np.any(np.linalg.eigvalsh(eta) <= 0):
        raise BadSpec("metric must be positive definite")
    eps2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    fmat = field_strength * eps2
    eta_up = np.linalg.inv(eta)
    coeff = 2.0 * (eps2 @ fmat @ eta_up)
    box_eta = _box(geometry, eta_up)
    out = np.zeros(geometry.dims)
    for mu in range(2):
        for nu in range(2):
            if coeff[mu, nu] != 0.0:
                out = out + coeff[mu, nu] * (
                    _second_partial(geometry, mu, nu)
                    - 0.25 * eta[mu, nu] * box_eta)
    return out


def make_discrete_operator(space: FieldSpace, kind: str, **params) -> Operator:
    """Build a named operator on a grid space.

    Kinds: ``shift(axis, step=1)``, ``partial(axis, scheme)``,
    ``second_partial(mu, nu)``, ``box(eta=None)``, ``d1_basis(mu, nu)``,
    ``d2_background(field_strength, eta=None)``, ``projection(basis)``,
    ``constant(matrix)``.  Everything except ``projection``/``constant`` is a
    constant-coefficient stencil and is stored as one; those two are dense.
    """
    geometry = space.geometry
    if geometry is None:
        raise BadSpec("discrete operators need a grid geometry")
    stencil = None
    if kind == "shift":
        axis, step = int(params.pop("axis")), int(params.pop("step", 1))
        _check_axis(geometry, axis)
        stencil = _shift(geometry, axis, step)
    elif kind == "partial":
        axis = int(params.pop("axis"))
        scheme = str(params.pop("scheme", "central"))
        _check_axis(geometry, axis)
        stencil = _partial(geometry, axis, scheme)
    elif kind in ("second_partial", "d1_basis"):
        mu, nu = int(params.pop("mu")), int(params.pop("nu"))
        _check_axis(geometry, mu)
        _check_axis(geometry, nu)
        stencil = _second_partial(geometry, mu, nu)
    elif kind == "box":
        stencil = _box(geometry, params.pop("eta", None))
    elif kind == "d2_background":
        stencil = _d2(geometry, float(params.pop("field_strength")),
                      params.pop("eta", np.eye(2)))
    elif kind == "projection":
        basis = np.column_stack([np.asarray(v) for v in params.pop("basis")])
        if basis.size == 0:
            raise BadSpec("projection needs at least one basis vector")
        q, _ = np.linalg.qr(basis)
        matrix = q @ q.conj().T
        if np.iscomplexobj(matrix) and np.max(np.abs(matrix.imag)) <= 1e-13:
            matrix = matrix.real
    elif kind == "constant":
        matrix = np.asarray(params.pop("matrix"))
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
