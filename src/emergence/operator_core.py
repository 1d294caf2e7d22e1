"""Dense operator algebra on discretized field spaces.

A field configuration is a vector in ``C^n`` or ``R^n``; an operator is an
``n x n`` matrix acting on it.  The physics enters through the pairing

    <phi, psi> = w phi^T psi        (symmetric bilinear)
    <phi, psi> = w conj(phi)^T psi  (hermitian sesquilinear)

with ``w > 0`` the volume element of one site (``prod(spacing)`` on a grid,
``1`` on a geometry-free space), so adjoints are plain or conjugate
transposes, and through constant-coefficient finite-difference stencils on
periodic grids: shifts, first/second differences, metric boxes and the
curvature/noncommutativity backgrounds built from them.  All such stencils
are circulant, so right inverses are computed exactly (up to rounding) from
the discrete Fourier symbol; a vanishing symbol is reported with its
frequency instead of silently regularized.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class Operator:
    """A linear map on a field space, with provenance tags.

    ``tags`` is a set of structural facts established at construction time;
    the one the engine relies on is ``"circulant"`` (constant-coefficient
    periodic stencil), which unlocks the spectral right-inverse route.
    ``payload`` remembers how a built operator can be reconstructed from JSON.
    """

    matrix: np.ndarray
    space: FieldSpace
    tags: frozenset = frozenset()
    payload: dict | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape != (self.space.dim, self.space.dim):
            raise BadSpec("operator matrix shape disagrees with its space")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "tags", frozenset(self.tags))


def identity_operator(space: FieldSpace) -> Operator:
    return Operator(np.eye(space.dim, dtype=space.dtype), space,
                    tags={"circulant"} if space.geometry else frozenset())


def zero_operator(space: FieldSpace) -> Operator:
    return Operator(np.zeros((space.dim, space.dim), dtype=space.dtype), space,
                    tags={"circulant"} if space.geometry else frozenset())


def _require_same_space(a: Operator, b: Operator):
    if not a.space.matches(b.space):
        raise SpaceMismatch("operators live on different field spaces")


def compose(a: Operator, b: Operator) -> Operator:
    """Operator composition ``(a o b)(phi) = a(b(phi))``."""
    _require_same_space(a, b)
    tags = {"circulant"} if "circulant" in a.tags and "circulant" in b.tags else set()
    return Operator(a.matrix @ b.matrix, a.space, tags)


def add(a: Operator, b: Operator) -> Operator:
    _require_same_space(a, b)
    tags = {"circulant"} if "circulant" in a.tags and "circulant" in b.tags else set()
    return Operator(a.matrix + b.matrix, a.space, tags)


def scale(c, a: Operator) -> Operator:
    return Operator(c * a.matrix, a.space, a.tags)


def power(a: Operator, n: int) -> Operator:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise BadSpec("operator powers take a nonnegative integer exponent")
    return Operator(np.linalg.matrix_power(a.matrix, int(n)), a.space, a.tags)


def adjoint_wrt_pairing(a: Operator) -> Operator:
    """Adjoint with respect to the space's pairing.

    The Gram matrix ``w I`` commutes with everything, so ``G^-1 A^* G = A^*``:
    the plain transpose for a symmetric bilinear pairing and the conjugate
    transpose for a hermitian one.
    """
    star = a.matrix.T if a.space.pairing.symmetry == "symmetric" else a.matrix.conj().T
    return Operator(star, a.space)


def sym_part(a: Operator) -> Operator:
    """Pairing-symmetric part; carries exactly the quadratic-form content."""
    return Operator(0.5 * (a.matrix + adjoint_wrt_pairing(a).matrix), a.space)


def lagrangian_value(a: Operator, phi: np.ndarray):
    """The Lagrangian density sum ``<phi, A phi>`` for one configuration."""
    phi = np.asarray(phi)
    if phi.shape != (a.space.dim,):
        raise SpaceMismatch("field configuration has the wrong dimension")
    left = phi.conj() if a.space.pairing.symmetry == "hermitian" else phi
    value = a.space.pairing.weight * (left @ (a.matrix @ phi))
    return complex(value) if np.iscomplexobj(value) else float(value)


def frobenius(a: Operator) -> float:
    return float(np.linalg.norm(a.matrix, "fro"))


def is_idempotent_power(a: Operator, n: int, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``A^(2n) == A^n`` holds (relative Frobenius residual)."""
    an = np.linalg.matrix_power(a.matrix, int(n))
    a2n = an @ an
    return bool(np.linalg.norm(a2n - an, "fro")
                <= tol * max(1.0, np.linalg.norm(an, "fro")))


# --- right inverses ----------------------------------------------------------


def circulant_symbol(a: Operator) -> np.ndarray:
    """Discrete Fourier symbol of a circulant operator (shape = grid dims)."""
    if a.space.geometry is None:
        raise BadSpec("spectral route needs a grid geometry")
    if "circulant" not in a.tags:
        raise BadSpec("spectral route needs the circulant tag")
    dims = a.space.geometry.dims
    first_col = np.asarray(a.matrix)[:, 0].reshape(dims)
    return np.fft.fftn(first_col)


def right_inverse(a: Operator, tol: float = DEFAULT_TOL) -> Operator:
    """A verified right inverse: ``A o R = I`` within ``tol`` (Frobenius).

    Circulant operators on a grid take the spectral route, which inverts the
    symbol and refuses exactly those operators whose symbol vanishes
    somewhere, reporting the offending frequency.  Every other operator takes
    the pseudoinverse route, which refuses rank-deficient inputs with the
    residual.  Either way the product is verified.
    """
    n = a.space.dim
    if "circulant" in a.tags and a.space.geometry is not None:
        method = "spectral"
        symbol = circulant_symbol(a)
        scale_ = max(1.0, float(np.max(np.abs(symbol))))
        flat = np.abs(symbol).ravel()
        k = int(np.argmin(flat))
        if flat[k] <= tol * scale_:
            freq = tuple(int(x) for x in
                         np.unravel_index(k, a.space.geometry.dims))
            raise NotRightInvertible(
                f"circulant symbol vanishes at frequency {freq}",
                frequency=freq, residual=float(flat[k]))
        dims = a.space.geometry.dims
        cols = np.empty((n, n), dtype=np.complex128)
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            cols[:, j] = np.fft.ifftn(np.fft.fftn(e.reshape(dims)) / symbol).ravel()
        if a.space.scalar_kind == "real" and np.max(np.abs(cols.imag)) <= 1e-12:
            cols = cols.real
        r = Operator(cols, a.space, {"circulant"})
    else:
        method = "pseudoinverse"
        r = Operator(np.linalg.pinv(a.matrix), a.space)
    residual = float(np.linalg.norm(a.matrix @ r.matrix - np.eye(n), "fro"))
    if residual > tol * max(1.0, float(np.linalg.norm(a.matrix, "fro"))):
        raise NotRightInvertible(
            f"candidate right inverse failed verification ({method})",
            residual=residual)
    return r


# --- discrete operator builders ----------------------------------------------


def _shift_matrix(geometry: GridGeometry, axis: int, step: int) -> np.ndarray:
    n = geometry.size
    idx = np.arange(n).reshape(geometry.dims)
    cols = np.roll(idx, -step, axis=axis).ravel()
    m = np.zeros((n, n))
    m[np.arange(n), cols] = 1.0
    return m


def _check_axis(geometry: GridGeometry, axis: int):
    if not 0 <= axis < len(geometry.dims):
        raise BadSpec(f"axis {axis} out of range for a "
                      f"{len(geometry.dims)}-dimensional grid")


def _partial_matrix(geometry: GridGeometry, axis: int, scheme: str) -> np.ndarray:
    h = geometry.spacing[axis]
    if scheme == "central":
        return (_shift_matrix(geometry, axis, +1)
                - _shift_matrix(geometry, axis, -1)) / (2.0 * h)
    if scheme == "forward":
        return (_shift_matrix(geometry, axis, +1)
                - np.eye(geometry.size)) / h
    raise BadSpec(f"unknown difference scheme {scheme!r}")


def _second_partial_matrix(geometry: GridGeometry, mu: int, nu: int) -> np.ndarray:
    if mu == nu:
        h = geometry.spacing[mu]
        return (_shift_matrix(geometry, mu, +1)
                - 2.0 * np.eye(geometry.size)
                + _shift_matrix(geometry, mu, -1)) / (h * h)
    return _partial_matrix(geometry, mu, "central") @ _partial_matrix(geometry, nu, "central")


def _box_matrix(geometry: GridGeometry, eta: np.ndarray | None) -> np.ndarray:
    d = len(geometry.dims)
    if eta is None:
        out = np.zeros((geometry.size, geometry.size))
        for mu in range(d):
            out = out + _second_partial_matrix(geometry, mu, mu)
        return out
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (d, d):
        raise BadSpec("box coefficient matrix has the wrong shape")
    out = np.zeros((geometry.size, geometry.size))
    for mu in range(d):
        for nu in range(d):
            if eta[mu, nu] != 0.0:
                out = out + eta[mu, nu] * _second_partial_matrix(geometry, mu, nu)
    return out


def _d2_matrix(geometry: GridGeometry, field_strength: float,
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
    box_eta = _box_matrix(geometry, eta_up)
    out = np.zeros((geometry.size, geometry.size))
    for mu in range(2):
        for nu in range(2):
            if coeff[mu, nu] != 0.0:
                out = out + coeff[mu, nu] * (
                    _second_partial_matrix(geometry, mu, nu)
                    - 0.25 * eta[mu, nu] * box_eta)
    return out


def make_discrete_operator(space: FieldSpace, kind: str, **params) -> Operator:
    """Build a named operator on a grid space.

    Kinds: ``shift(axis, step=1)``, ``partial(axis, scheme)``,
    ``second_partial(mu, nu)``, ``box(eta=None)``, ``d1_basis(mu, nu)``,
    ``d2_background(field_strength, eta=None)``, ``projection(basis)``,
    ``constant(matrix)``.  Everything except ``projection``/``constant`` is a
    constant-coefficient circulant stencil and is tagged as such.
    """
    geometry = space.geometry
    if geometry is None:
        raise BadSpec("discrete operators need a grid geometry")
    payload: dict = {"kind": kind, "grid": {"dims": list(geometry.dims),
                                            "spacing": list(geometry.spacing)}}
    if kind == "shift":
        axis, step = int(params.pop("axis")), int(params.pop("step", 1))
        _check_axis(geometry, axis)
        matrix, tags = _shift_matrix(geometry, axis, step), {"circulant"}
        payload.update(axis=axis, step=step)
    elif kind == "partial":
        axis = int(params.pop("axis"))
        scheme = str(params.pop("scheme", "central"))
        _check_axis(geometry, axis)
        matrix, tags = _partial_matrix(geometry, axis, scheme), {"circulant"}
        payload.update(axis=axis, scheme=scheme)
    elif kind in ("second_partial", "d1_basis"):
        mu, nu = int(params.pop("mu")), int(params.pop("nu"))
        _check_axis(geometry, mu)
        _check_axis(geometry, nu)
        matrix, tags = _second_partial_matrix(geometry, mu, nu), {"circulant"}
        payload.update(mu=mu, nu=nu)
    elif kind == "box":
        eta = params.pop("eta", None)
        matrix, tags = _box_matrix(geometry, eta), {"circulant"}
        payload.update(eta=None if eta is None else np.asarray(eta).tolist())
    elif kind == "d2_background":
        strength = float(params.pop("field_strength"))
        eta = np.asarray(params.pop("eta", np.eye(2)), dtype=float)
        matrix, tags = _d2_matrix(geometry, strength, eta), {"circulant"}
        payload.update(field_strength=strength, eta=eta.tolist())
    elif kind == "projection":
        basis = np.column_stack([np.asarray(v) for v in params.pop("basis")])
        if basis.size == 0:
            raise BadSpec("projection needs at least one basis vector")
        q, _ = np.linalg.qr(basis)
        matrix = q @ q.conj().T
        if np.iscomplexobj(matrix) and np.max(np.abs(matrix.imag)) <= 1e-13:
            matrix = matrix.real
        tags = {"circulant"} if _commutes_with_shifts(space, matrix) else set()
        payload = None  # dense payload is authoritative for projections
    elif kind == "constant":
        matrix = np.asarray(params.pop("matrix"))
        tags = {"circulant"} if _commutes_with_shifts(space, matrix) else set()
        payload = None
    else:
        raise BadSpec(f"unknown discrete operator kind {kind!r}")
    if params:
        raise BadSpec(f"unused parameters for kind {kind!r}: {sorted(params)}")
    return Operator(matrix, space, tags, payload)


def _commutes_with_shifts(space: FieldSpace, matrix: np.ndarray,
                          tol: float = 1e-12) -> bool:
    if space.geometry is None:
        return False
    scale_ = max(1.0, float(np.linalg.norm(matrix, "fro")))
    for axis in range(len(space.geometry.dims)):
        s = _shift_matrix(space.geometry, axis, +1)
        if np.linalg.norm(matrix @ s - s @ matrix, "fro") > tol * scale_:
            return False
    return True


# --- JSON payloads ------------------------------------------------------------


def operator_to_payload(a: Operator) -> dict:
    """JSON-safe description: builder payload when known, dense otherwise."""
    if a.payload is not None:
        return dict(a.payload)
    m = np.asarray(a.matrix)
    payload = {
        "kind": "constant",
        "shape": list(m.shape),
        "real": np.real(m).tolist(),
        "imag": np.imag(m).tolist() if np.iscomplexobj(m) else None,
        "tags": sorted(a.tags),
    }
    if a.space.geometry is not None:
        payload["grid"] = {"dims": list(a.space.geometry.dims),
                           "spacing": list(a.space.geometry.spacing)}
    return payload


def operator_from_payload(space: FieldSpace, payload: dict) -> Operator:
    payload = dict(payload)
    kind = payload.pop("kind")
    if kind == "constant":
        real = np.array(payload["real"], dtype=float)
        imag = payload.get("imag")
        matrix = real if imag is None else real + 1j * np.array(imag, dtype=float)
        return Operator(matrix, space, payload.get("tags", ()))
    payload.pop("grid", None)
    return make_discrete_operator(space, kind, **payload)


# --- small conveniences used across the library -------------------------------


def operator_residual(a: Operator, b: Operator) -> float:
    """Frobenius distance between the quadratic forms of two operators."""
    _require_same_space(a, b)
    return float(np.linalg.norm(sym_part(a).matrix - sym_part(b).matrix, "fro"))


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
