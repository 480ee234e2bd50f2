"""Exception hierarchy and input rules shared across the package.

Each class marks a distinct failure mode so that the command-line front end
can emit a one-line diagnostic per class and exit nonzero.

Every scalar argument obeys one of two rules, and a refusal is a
``ValueError`` that names the argument.  A *whole number* (a count, an
order, a seed) is a Python or numpy integer, never a ``bool``, and at least
its minimum if it has one.  A *finite real* (a spacing, a parameter, a
level, a shift) is a finite Python or numpy real, never a ``bool``, string
or array, and non-negative, or positive where zero means nothing.
"""

from math import isfinite
from numbers import Integral, Real


class SurfrecError(Exception):
    """Base class for all package-specific failures."""


class DimensionError(SurfrecError, ValueError):
    """Grid, operator, or parameter shapes or spacings do not compose."""


class FormatError(SurfrecError, ValueError):
    """A grid file is malformed (bad magic, truncated payload, ragged rows,
    non-finite values, or implausible header dimensions)."""


class SingularSystemError(SurfrecError, ValueError):
    """:func:`~surfrec.sylvester.factor` refused a pencil: it is singular
    although the system names no null vectors, or the operator's null space
    has more than the one dimension the solve pins (malformed differential
    operator)."""


class SizeGuardError(SurfrecError, ValueError):
    """A brute-force code path refused an input above its size guard."""


def whole_number(name: str, value, minimum: int | None = None) -> int:
    """value as an int, refusing a bool, a non-integer, or one below minimum."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def finite_real(name: str, value, positive: bool = False) -> float:
    """value as a float, refusing a bool, a non-real, inf, NaN, a negative
    value and, with positive, zero."""
    # numpy registers its scalar types as Real, but not np.bool_ or 0-d arrays
    real = not isinstance(value, bool) and isinstance(value, Real)
    if not (real and isfinite(value) and (value > 0 if positive else value >= 0)):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be a finite, {kind} real, got {value!r}")
    return float(value)
