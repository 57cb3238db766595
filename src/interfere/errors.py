"""Exception types shared across the package, and how their messages show a
value."""

import sys


def shown(value) -> str:
    """repr(value) for an error message.  A value holding an integer longer
    than Python converts to text (4300 digits by default) is named by that
    limit instead, so reporting a bad input cannot itself raise."""
    try:
        return repr(value)
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        return f"<an exact value of more than {sys.get_int_max_str_digits()} digits>"


class InterfereError(Exception):
    """Base class for domain errors raised by this package."""


class ValidationError(InterfereError):
    """An input violates a documented precondition."""


class DegenerateContextError(InterfereError):
    """One alternative has probability (or amplitude) zero, so the
    normalized deviation, which divides by 2*sqrt(p1*p2), is undefined."""


class NotAProbabilityError(InterfereError):
    """A computed value escaped [0, 1]; the raw value is attached."""

    def __init__(self, value, what="result", component=None):
        self.value = value
        self.what = what
        self.component = component
        where = what if component is None else f"{what} (component {component})"
        super().__init__(f"{where} = {shown(value)} is not a probability")


class PrimeMismatchError(InterfereError):
    """Arithmetic attempted between values tagged with different primes."""


class NonPositiveNormError(InterfereError):
    """A split-complex operation needed norm_sq > 0 (polar form, inverse)."""


class ProfileError(InterfereError):
    """A brightness-profile request is invalid or has no valid window."""
