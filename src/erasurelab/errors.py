"""Exception taxonomy for erasurelab.

Every guard in the package raises one of these subclasses so callers (and the
CLI exit-code mapping) can tell a verified negative result from a misuse of
the API. All inherit from :class:`ErasureLabError`.
"""

from __future__ import annotations


class ErasureLabError(Exception):
    """Base class for all erasurelab errors."""


# --- field / polynomial / matrix layer ---------------------------------------


class NotPrimePower(ErasureLabError):
    """Requested field size is not a prime power (or exceeds the size cap)."""


class TooLarge(ErasureLabError):
    """A guarded enumeration or search space exceeds its hard cap."""


class DivisionByZero(ErasureLabError):
    """Inversion of, or a negative power of, the zero element."""


class FieldMismatch(ErasureLabError):
    """Two field-carrying objects over different fields were combined."""


class InvalidPolynomial(ErasureLabError):
    """Polynomial violates a structural precondition (e.g. zero constant term)."""


class SingularBlock(ErasureLabError):
    """The designated square block is singular; systematic form impossible."""


class DependentColumns(ErasureLabError):
    """Selected columns are linearly dependent."""


class DimensionMismatch(ErasureLabError):
    """Vector/matrix shapes do not line up."""


class InconsistentSyndrome(ErasureLabError):
    """Known symbols contradict the code: no solution exists."""


# --- code constructions -------------------------------------------------------


class LengthTooSmall(ErasureLabError):
    """Code length too small for the requested construction."""


class DivisibilityViolation(ErasureLabError):
    """A required divisibility relation between parameters fails."""


class BadFieldOverride(ErasureLabError):
    """Explicit field size is unusable for this construction."""


class NotCyclic(ErasureLabError):
    """The given polynomial does not divide X^n - 1 over the field."""


class BadReciprocal(ErasureLabError):
    """Banded parity-check polynomial violates h_0 != 0 or its degree bounds."""


# --- channel / patterns -------------------------------------------------------


class BadParameters(ErasureLabError):
    """Parameter combination violates the model invariants."""


class LengthMismatch(ErasureLabError):
    """Pattern/vector length does not match the code or window length."""


class Unrecoverable(ErasureLabError):
    """Erasure pattern is not recoverable by this code."""


# --- streaming ----------------------------------------------------------------


class NotSystematic(ErasureLabError):
    """Code admits no systematic generator in the required orientation."""


class UnsupportedDelay(ErasureLabError):
    """Decoding delay outside the range this verifier supports."""


class ParameterViolation(ErasureLabError):
    """Derived stream parameters violate a precondition."""


class BadProbability(ErasureLabError):
    """Probability outside [0, 1]."""


# --- analysis -----------------------------------------------------------------


class StructureViolation(ErasureLabError):
    """Matrix lacks the structure a check or reduction requires."""


class OutOfScope(ErasureLabError):
    """Requested bound or statement does not apply to these parameters."""


class WrongProvenance(ErasureLabError):
    """Operation requires a code produced by a specific construction."""
