"""Numeric plumbing shared by the calculus modules.

Probabilities may be floats or exact rationals (int / Fraction).  The helpers
here keep exact inputs exact wherever the mathematics allows it, and
centralize the single tolerance used for every float comparison and boundary
snap in the package.
"""

import math
import sys
from fractions import Fraction

from .errors import NotAProbabilityError, ValidationError, shown

#: Single knob for float comparisons, reconstruction checks, boundary snaps.
TOLERANCE = 1e-10
_HALF_PI = math.pi / 2


def is_exact(value) -> bool:
    """True for values carried exactly (int or Fraction)."""
    # floats first: a miss on Fraction costs an ABCMeta.__instancecheck__
    return not isinstance(value, float) and isinstance(value, (int, Fraction))


def _exact_root(num, den):
    """(isqrt(num), isqrt(den)) when num/den, nonnegative and in lowest
    terms, is the square of a rational, else None.  The one perfect-square
    test on exact values."""
    a = math.isqrt(num)
    if a * a != num:
        return None
    b = math.isqrt(den)
    return (a, b) if b * b == den else None


def exact_sqrt(value):
    """Exact square root of a nonnegative int/Fraction, or None if irrational."""
    f = value if type(value) is Fraction else Fraction(value)
    if f.numerator < 0:
        raise ValueError(f"square root of negative value {shown(value)}")
    root = _exact_root(f.numerator, f.denominator)
    return None if root is None else Fraction(*root)


def sqrt_keeping_exact(value):
    """Square root that stays exact for perfect squares of exact inputs."""
    if is_exact(value):
        root = exact_sqrt(value)
        if root is not None:
            return root
    return math.sqrt(value)


def phase_cos(theta):
    """Cosine of a phase, computed as sin(pi/2 - theta).

    Agrees with math.cos to about one ulp for phases up to a few turns, but
    sends the float pi/2 to exactly 0.0 (and 0, pi to exactly +1.0, -1.0), so
    quarter-turn phases kill or saturate cross terms exactly instead of
    leaving ~1e-16 dust in results that should be clean.
    """
    return math.sin(_HALF_PI - theta)


def require_probability(value, name):
    """Validate an input probability in [0, 1]; returns it unchanged."""
    if 0 <= value <= 1:  # NaN and +/-inf fail this and reach the messages
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    raise ValidationError(f"{name} must lie in [0, 1], got {shown(value)}")


def as_probability(value, what="result", component=None):
    """Validate a computed probability, absorbing float roundoff at 0 and 1.

    Float results within TOLERANCE outside the unit interval are endpoint
    evaluations up to roundoff and snap to the boundary; anything further out
    raises NotAProbabilityError carrying the raw value.  Exact values are
    never snapped: if exact arithmetic says the value escaped [0, 1], it did.
    """
    if 0 <= value <= 1:
        return value
    if isinstance(value, float):
        if -TOLERANCE <= value < 0:
            return 0.0
        if 1 < value <= 1 + TOLERANCE:
            return 1.0
    raise NotAProbabilityError(value, what=what, component=component)


def fmt_float(value) -> str:
    """Deterministic 12-significant-digit rendering."""
    return f"{float(value):.12g}"


def round12(value) -> float:
    """Round to 12 significant digits (stable numbers for reports)."""
    return float(fmt_float(value))


def fmt_number(value) -> str:
    """Exact values as 'num/den' or plain integers, floats via fmt_float.

    An exact value too long for Python's int-to-text conversion raises
    ValidationError; the interpreter's limit stays as it is, since it guards
    against quadratic-time conversion."""
    if isinstance(value, float) or not isinstance(value, (int, Fraction)):
        return fmt_float(value)
    try:
        return str(value)
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        raise ValidationError(
            f"exact value has more than {sys.get_int_max_str_digits()} digits, "
            "more than Python converts an integer to text"
        ) from None
