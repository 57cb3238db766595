"""Exception types shared across the package, how their messages show a
value, and the base of the package's records."""

import sys
from operator import attrgetter


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


class FrozenRecordError(AttributeError):
    """An assignment to, or a deletion of, a field of a frozen record."""


class _Record:
    """Base of the records: their fields, in order, are their __slots__ (or
    ``_fields``, beside private slots), and they compare, show, pickle and,
    when frozen, hash as those.  ``_replace()`` builds through the constructor,
    which checks again.  A frozen record, the default, refuses assignment: its
    constructor fills the writable subclass ``_draft`` and retypes it."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, frozen=True):
        own = vars(cls)
        cls._fields = own.get("_fields") or tuple(own.get("__slots__", ())) or cls._fields
        cls.__match_args__ = cls._fields
        cls._values = property(attrgetter(*cls._fields))  # a tuple: every record has 2+ fields
        if frozen:
            cls._draft = type(cls.__name__, (cls,), {"__slots__": ()}, frozen=False)
        else:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values == other._values if same else NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        shown_fields = (f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{self.__class__.__qualname__}({', '.join(shown_fields)})"

    def __reduce__(self):
        return self.__class__, self._values

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values))

    def _replace(self, **changes):
        return self.__class__(**{**self._asdict(), **changes})
