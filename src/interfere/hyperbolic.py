"""Split-complex (hyperbolic) numbers.

The commutative two-dimensional real algebra spanned by 1 and j with
j*j = +1.  A number x + j*y carries the indefinite norm x**2 - y**2, which is
multiplicative but vanishes on the light cone x = +/-y, so the algebra has
zero divisors.  Unit-norm elements are +/-(cosh t + j sinh t), the hyperbolic
Euler formula, and every element of positive norm factors uniquely as
sign(x) * modulus * exp(j * phase).

A number whose components are both exact (int / Fraction) is held as three
integers, x = a/d and y = b/d with d > 0 and gcd(a, b, d) = 1, so each ring
operation and ``inverse`` costs one gcd and stays exact; ``x`` and ``y`` read
back as int or Fraction.  Any other number keeps its components as given and
takes the float formulas.  ``exp`` and the polar decomposition are
float-valued.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import NonPositiveNormError, ValidationError, _Record, shown

_EXACT = (int, Fraction)
_SCALARS = (int, float, Fraction)
_FLOAT_MAX = sys.float_info.max


class HyperbolicNumber(_Record):
    """x + j*y with j*j = +1; immutable."""

    # A float number sets x, y and _d = 0; an exact one sets _a, _b, _d and
    # is a _Exact, whose x and y are properties.  New numbers are filled in
    # the writable _draft and then retyped.
    __slots__ = ("x", "y", "_a", "_b", "_d")
    _fields = ("x", "y")

    def __new__(cls, x, y=0):
        # floats first: a miss on Fraction costs an ABCMeta.__instancecheck__
        if type(x) is float or type(y) is float:
            return _float(x, y)
        if isinstance(x, _EXACT) and isinstance(y, _EXACT):
            (a, m), (b, n) = x.as_integer_ratio(), y.as_integer_ratio()
            return _exact(a * n, b * m, m * n)
        return _float(x, y)

    def __repr__(self):
        return f"HyperbolicNumber(x={self.x!r}, y={self.y!r})"

    def __eq__(self, other):
        if not isinstance(other, HyperbolicNumber):
            return NotImplemented
        if self._d and other._d:
            return self._a == other._a and self._b == other._b and self._d == other._d
        return (self.x, self.y) == (other.x, other.y)

    __hash__ = _Record.__hash__  # of (x, y); defining __eq__ dropped the inherited one

    def __add__(self, other):
        if not isinstance(other, HyperbolicNumber):
            return NotImplemented
        d1, d2 = self._d, other._d
        if d1 and d2:
            return _exact(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)
        return _float(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        if not isinstance(other, HyperbolicNumber):
            return NotImplemented
        d1, d2 = self._d, other._d
        if d1 and d2:
            return _exact(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)
        return _float(self.x - other.x, self.y - other.y)

    def __neg__(self):
        if self._d:
            return _exact(-self._a, -self._b, self._d)
        return _float(-self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, HyperbolicNumber):
            if self._d and other._d:
                a1, b1, a2, b2 = self._a, self._b, other._a, other._b
                return _exact(a1 * a2 + b1 * b2, a1 * b2 + a2 * b1, self._d * other._d)
            return _float(
                self.x * other.x + self.y * other.y,
                self.x * other.y + other.x * self.y,
            )
        if isinstance(other, _SCALARS):
            if self._d and not isinstance(other, float):
                n = other.numerator
                return _exact(self._a * n, self._b * n, self._d * other.denominator)
            return _float(self.x * other, self.y * other)
        return NotImplemented

    # only scalars reach the reflected product
    __rmul__ = __mul__

    def conjugate(self) -> "HyperbolicNumber":
        if self._d:
            return _exact(self._a, -self._b, self._d)
        return _float(self.x, -self.y)

    def norm_sq(self):
        """The indefinite norm x**2 - y**2 (= z * conj(z)); may be negative."""
        d = self._d
        if d:
            n = self._a * self._a - self._b * self._b
            return n if d == 1 else Fraction(n, d * d)
        return self.x * self.x - self.y * self.y


class _Exact(HyperbolicNumber):
    """An exact number x = _a/_d, y = _b/_d with _d > 0, gcd(_a, _b, _d) = 1."""

    __slots__ = ()

    @property
    def x(self):
        return self._a if self._d == 1 else Fraction(self._a, self._d)

    @property
    def y(self):
        return self._b if self._d == 1 else Fraction(self._b, self._d)


_new = object.__new__
_Draft = HyperbolicNumber._draft


def _exact(a: int, b: int, d: int) -> HyperbolicNumber:
    """(a + j*b) / d for d > 0, reduced by one gcd."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    z = _new(_Draft)
    z._a, z._b, z._d = a, b, d
    z.__class__ = _Exact
    return z


def _float(x, y) -> HyperbolicNumber:
    z = _new(_Draft)
    z.x, z.y, z._d = x, y, 0
    z.__class__ = HyperbolicNumber
    return z


ZERO = HyperbolicNumber(0, 0)
ONE = HyperbolicNumber(1, 0)
J = HyperbolicNumber(0, 1)


def exp(theta: float) -> HyperbolicNumber:
    """cosh(theta) + j*sinh(theta): the unit-norm one-parameter group.

    exp(a) * exp(b) = exp(a + b) and norm_sq(exp(theta)) = 1.  Raises
    ValueError for non-finite theta and OverflowError once cosh leaves the
    float range (|theta| beyond ~710).
    """
    if not math.isfinite(theta):
        raise ValueError(f"phase must be finite, got {theta!r}")
    return _float(math.cosh(theta), math.sinh(theta))


class PolarForm(_Record):
    """Decomposition sign * modulus * exp(j * phase) of a positive-norm element."""

    __slots__ = ("sign", "modulus", "phase")

    def __new__(cls, sign: int, modulus: float, phase: float):
        form = _new(cls._draft)
        form.sign, form.modulus, form.phase = sign, modulus, phase
        form.__class__ = cls
        return form

    def to_number(self) -> HyperbolicNumber:
        scale = self.sign * self.modulus
        return HyperbolicNumber(scale * math.cosh(self.phase), scale * math.sinh(self.phase))


def _require_finite(z: HyperbolicNumber, what: str) -> None:
    """Raise ValidationError naming a float component of z that is nan or
    infinite, which no polar form or inverse has."""
    for name, part in (("x", z.x), ("y", z.y)):
        if isinstance(part, float) and not math.isfinite(part):
            raise ValidationError(f"{what} needs finite components, got {name} = {part!r}")


def polar(z: HyperbolicNumber) -> PolarForm:
    """Polar form of an element with norm_sq > 0.

    There x**2 > y**2 forces x != 0, so the sign factor sign(x) and the phase
    atanh(y/x) are uniquely determined; no tie-breaking is ever needed.
    ValidationError names an exact component, or an exact norm_sq, past the
    float range, which has no float polar form, and a float component that
    is not finite.
    """
    if not z._d:
        _require_finite(z, "polar form")
    try:
        n = z.norm_sq()
        if n <= 0:
            raise NonPositiveNormError(
                f"polar form needs norm_sq > 0, "
                f"got norm_sq({shown(z.x)} + j*{shown(z.y)}) = {shown(n)}"
            )
        sign = 1 if z.x > 0 else -1
        return PolarForm(sign, math.sqrt(n), math.atanh(z.y / z.x))
    except OverflowError:
        raise _past_float_range(z, "polar form") from None


def _past_float_range(z: HyperbolicNumber, what: str) -> ValidationError:
    """The error for a z whose float form overflowed: it names a component
    past the float range or, with both in it, the exact norm_sq."""
    for name, part in (("x", z.x), ("y", z.y)):
        if not -_FLOAT_MAX <= part <= _FLOAT_MAX:
            return ValidationError(
                f"{what} needs components in the float range (~1.8e308), "
                f"got {name} = {shown(part)}"
            )
    norm = z.norm_sq() if z._d else Fraction(z.x) ** 2 - Fraction(z.y) ** 2
    return ValidationError(
        f"{what} needs norm_sq in the float range (~1.8e308), got "
        f"norm_sq({shown(z.x)} + j*{shown(z.y)}) = {shown(norm)}"
    )


def inverse(z: HyperbolicNumber) -> HyperbolicNumber:
    """Multiplicative inverse conj(z) / norm_sq(z); exact for exact components.

    Only elements with norm_sq > 0 are invertible: the light cone consists of
    zero divisors and negative-norm elements fall outside the positive cone.
    ValidationError names a float component that is not finite, and an int
    component past the float range, as polar does.
    """
    d = z._d
    if d:
        n = z._a * z._a - z._b * z._b  # d*d * norm_sq
    else:
        _require_finite(z, "inverse")
        try:
            n = z.norm_sq()
        except OverflowError:  # an int component
            raise _past_float_range(z, "inverse") from None
    if n == 0:
        raise NonPositiveNormError(f"{shown(z)} is a zero divisor (light cone), not invertible")
    if n < 0:
        raise NonPositiveNormError(
            f"{shown(z)} has negative norm_sq {shown(z.norm_sq())}, not invertible here"
        )
    if d:
        return _exact(z._a * d, -z._b * d, n)
    return _float(z.x / n, -z.y / n)
