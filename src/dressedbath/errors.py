"""Exception hierarchy shared by every module in the package.

All failures raised by this package derive from :class:`DressedBathError`,
so callers can catch a single base class at API boundaries.  The leaf
classes distinguish *why* a computation refused to proceed, which the
command line tool maps onto distinct exit codes.
"""

__all__ = [
    "DressedBathError",
    "ParameterError",
    "InputError",
    "NumericalFailure",
    "SingularityError",
    "DimensionMismatch",
    "OverflowGuardError",
]


class DressedBathError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(DressedBathError, ValueError):
    """A physical parameter is out of its admissible range."""


class InputError(DressedBathError, ValueError):
    """Malformed user input: config files, CLI values, array shapes."""


class NumericalFailure(DressedBathError, ArithmeticError):
    """An iterative scheme failed to converge to its stated tolerance."""


class SingularityError(DressedBathError, ZeroDivisionError):
    """Evaluation was requested exactly at a pole or branch point."""


class DimensionMismatch(DressedBathError, ValueError):
    """Arrays describing the same mode set disagree about the mode count."""


class OverflowGuardError(DressedBathError, OverflowError):
    """A closed-form expression would overflow double precision."""
