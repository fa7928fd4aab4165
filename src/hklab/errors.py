"""Exception hierarchy shared by all modules.

ValidationError marks bad user input (non-prime characteristic, an ideal
that is not primary to the origin, a degenerate family fiber, ...) and maps
to CLI exit code 2; ExponentOverflow, a monomial exponent reaching 2^31,
is one.  StructuralError marks mixed-up objects (elements of different
fields, polynomials of different rings) and is a programming error at
the call site.  Plain ZeroDivisionError is raised for inversion
of zero.
"""


class HKLabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(HKLabError):
    """Input violates a documented precondition."""


class StructuralError(HKLabError):
    """Operands belong to incompatible algebraic structures."""


class ExponentOverflow(ValidationError, OverflowError):
    """A monomial exponent reached 2^31."""
