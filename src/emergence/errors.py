"""Error taxonomy shared by every layer of the library.

Synthesis failures are first-class diagnostics, not crashes: each exception
carries the quantitative evidence (residuals, frequencies, indices) that a
caller needs to report the failure honestly.  The CLI maps this hierarchy to
exit code 2; a *failing certificate* is not an exception at all and maps to
exit code 1.
"""

from __future__ import annotations


class EmergenceError(Exception):
    """Base class for every library-raised error."""


# --- operator layer ---------------------------------------------------------

class SpaceMismatch(EmergenceError):
    """Two operators (or an operator and a field) live on different spaces."""


class BadSpec(EmergenceError):
    """A construction request is malformed (unknown kind, bad axis, ...)."""


class NotRightInvertible(EmergenceError):
    """No verified right inverse exists.

    ``residual`` is the verification residual when the pseudoinverse route
    was tried; ``frequency`` is the grid frequency tuple of a vanishing
    circulant symbol when the spectral route was tried.
    """

    def __init__(self, message: str, *, residual: float | None = None,
                 frequency: tuple[int, ...] | None = None):
        super().__init__(message)
        self.residual = residual
        self.frequency = frequency


# --- parameter layer --------------------------------------------------------

class NoSquareRoot(EmergenceError):
    """The algebra has no square root for the given element."""


class NotInIdentityOrbit(EmergenceError):
    """An operator is not of the form act(c, identity) for any c.

    ``residual`` is the least-squares distance to the orbit.
    """

    def __init__(self, message: str, *, residual: float):
        super().__init__(message)
        self.residual = residual


class NoPreimage(EmergenceError):
    """A coefficient function has no preimage for the requested value."""


class DegreeMismatch(EmergenceError):
    """Parameter degrees are incompatible (tuple probes or synthesis entry)."""


# --- theory layer -----------------------------------------------------------

class Univariate(EmergenceError):
    """Last-variable factoring was requested on a single-variable polynomial."""


# --- engine layer -----------------------------------------------------------

class NotScalarForm(EmergenceError):
    """The orbit solve behind the monomial construction failed.

    Wraps :class:`NotInIdentityOrbit`; ``residual`` is the off-orbit distance
    at the sample parameter where the solve failed.
    """

    def __init__(self, message: str, *, residual: float):
        super().__init__(message)
        self.residual = residual


class NotMultiplicative(EmergenceError):
    """The source family lacks a verified multiplicative structure flag."""


class NotScalarInvariant(EmergenceError):
    """The source family lacks a verified scalar-invariance structure flag."""


class EmptyAccumulation(EmergenceError):
    """An accumulation was requested over an empty list of pairs."""


class HypothesisViolated(EmergenceError):
    """A synthesis precondition failed; carries the checked evidence."""

    def __init__(self, message: str, *, evidence: dict | None = None):
        super().__init__(message)
        self.evidence = dict(evidence or {})


class DimensionTooLarge(EmergenceError):
    """The brute-force solver refuses parameter spaces above its cap."""


class InfeasibleTarget(EmergenceError):
    """The requested source is outside the target family's affine span.

    ``gap`` is the relative span-gap residual.
    """

    def __init__(self, message: str, *, gap: float):
        super().__init__(message)
        self.gap = gap


# --- configuration layer ----------------------------------------------------

class ParseError(EmergenceError):
    """A config file is not valid JSON; message carries position info."""


class SchemaError(EmergenceError):
    """A config parses but violates the schema; message names the field."""
