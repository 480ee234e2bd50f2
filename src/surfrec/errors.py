"""Exception hierarchy shared across the package.

Each class marks a distinct failure mode so that the command-line front end
can emit a one-line diagnostic per class and exit nonzero.
"""


class SurfrecError(Exception):
    """Base class for all package-specific failures."""


class DimensionError(SurfrecError, ValueError):
    """Grid, operator, or parameter shapes do not compose."""


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
