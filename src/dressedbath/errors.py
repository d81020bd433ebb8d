"""Exception hierarchy shared by every module in the package.

All failures raised by this package derive from :class:`DressedBathError`,
so callers can catch a single base class at API boundaries.  There are two
kinds, one per command-line exit code: :class:`InputError` (exit 1) for an
input the computation refuses, and :class:`NumericalFailure` (exit 2) for
a computation that could not finish on an admissible input.
"""

__all__ = ["DressedBathError", "InputError", "NumericalFailure"]


class DressedBathError(Exception):
    """Base class for every error raised by this package."""


class InputError(DressedBathError, ValueError):
    """Malformed or out-of-range input: physical parameters, config files,
    CLI values, array shapes and mode counts that disagree."""


class NumericalFailure(DressedBathError, ArithmeticError):
    """A computation could not finish: an iterative scheme missed its
    tolerance, an evaluation sat exactly on a pole, or a closed form would
    overflow double precision."""
