"""Exact p-adic valuation arithmetic on rationals.

For a prime p, the valuation |x|_p is p**(-v) where v is the net multiplicity
of p in x (negative when p divides the denominator), with |0|_p = 0.  The
valuation is multiplicative and non-Archimedean:

    |x + y|_p <= max(|x|_p, |y|_p),   with equality whenever |x|_p != |y|_p,

so the induced metric is an ultrametric, balls are clopen, and any member of
a ball can serve as its center.  Everything here is an exact Fraction tagged
with the prime; valuation comparisons are decisions, never approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PrimeMismatchError, ValidationError, shown

# Miller-Rabin bases: the first 13 primes.  No composite below
# psi_13 = 3317044064679887385961981 (about 3.3e24) passes them all; the first
# 12 alone pass psi_12 = 318665857834031151167461 = 399165290221 * 798330580441.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # no modulus at or above it is accepted


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, exact below psi_13 ~ 3.3e24.  At or above
    it, False is still proof of a composite, but True only means that n is a
    strong probable prime to the first 13 prime bases."""
    if n < 2:
        return False
    for w in _WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_multiplicity(p: int, n: int) -> int:
    """How many times p >= 2 divides the nonzero integer n."""
    if p < 2:
        raise ValueError(f"multiplicity needs a divisor p >= 2, got {p}")
    n = abs(n)
    if n == 0:
        raise ValueError("multiplicity of p in 0 is undefined (infinite)")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _require_prime(p) -> None:
    """A modulus must be a prime that is_prime proves prime: one below psi_13."""
    if isinstance(p, int) and p >= _PSI_13:
        raise ValidationError(
            f"modulus must be a prime below psi_13 = {_PSI_13}, where primality is "
            f"proven, got {shown(p)}"
        )
    if not isinstance(p, int) or not is_prime(p):
        raise ValidationError(f"modulus must be a prime number, got {shown(p)}")


def _fraction(value) -> Fraction:
    """An exact value as a Fraction; floats are refused."""
    if isinstance(value, float):
        # Fraction(0.1) is the exact dyadic 3602879701896397/2**55, almost
        # never the rational the caller had in mind; valuations built on it
        # would be silently wrong.
        raise ValidationError(
            f"refusing float {value!r}: pass an int, Fraction, or "
            f"string like '1/10' for exact values"
        )
    return value if isinstance(value, Fraction) else Fraction(value)


def _order(p: int, value: Fraction):
    """The p-order of value (math.inf for 0)."""
    num = value.numerator
    if not num:
        return math.inf
    if num % p == 0:
        return prime_multiplicity(p, num)
    den = value.denominator
    return -prime_multiplicity(p, den) if den % p == 0 else 0


@dataclass(frozen=True, repr=False)
class PadicRational:
    """An exact rational seen through the p-adic valuation.

    The p-order (the exponent v with |x|_p = p**-v) is computed once at
    construction; the order of zero is the explicit sentinel math.inf.
    Arithmetic results skip the validation, since their prime is already
    checked; products, quotients and negations also take their order from
    the operands' orders.
    """

    p: int
    value: Fraction
    order: float = field(init=False, compare=False)

    def __post_init__(self):
        _require_prime(self.p)
        value = _fraction(self.value)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "order", _order(self.p, value))

    # -- valuation ---------------------------------------------------------

    def abs(self) -> Fraction:
        """|x|_p = p**(-order), exactly (Fraction; 0 for x = 0)."""
        order = self.order
        if order == math.inf:
            return Fraction(0)
        return Fraction(1, self.p**order) if order >= 0 else Fraction(self.p**-order)

    def unit_part(self) -> "PadicRational":
        """The unit e in x = p**order * e (so |e|_p = 1); undefined for 0."""
        if self.value == 0:
            raise ValidationError("0 has no unit decomposition")
        return _trusted(self.p, self.value * self.abs(), 0)

    # -- field arithmetic ----------------------------------------------------

    def _lift(self, other):
        if isinstance(other, PadicRational):
            if other.p != self.p:
                raise PrimeMismatchError(f"mixed primes {self.p} and {other.p}")
            return other
        if isinstance(other, (int, Fraction)):
            return _trusted(self.p, Fraction(other))
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _trusted(self.p, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _trusted(self.p, self.value - other.value)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _trusted(self.p, other.value - self.value)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _trusted(self.p, self.value * other.value, self.order + other.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _trusted(self.p, self.value / other.value, self.order - other.order)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _trusted(self.p, other.value / self.value, other.order - self.order)

    def __neg__(self):
        return _trusted(self.p, -self.value, self.order)

    # -- canonical digits ----------------------------------------------------

    def digits(self, count: int) -> "PadicExpansion":
        """First `count` digits of the canonical expansion sum(a_k * p**k).

        Digits start at k = order (everything below is zero); each a_k is in
        {0, ..., p-1} and partial sums converge to x in |.|_p.  For x = 0 the
        expansion is the empty sentinel.
        """
        if count < 1:
            raise ValidationError(f"digit count must be >= 1, got {count}")
        if self.value == 0:
            return PadicExpansion(self.p, 0, ())
        p, start = self.p, int(self.order)
        # the residue x / p**start = num/den has den coprime to p, and den
        # stays fixed: subtracting a digit leaves a numerator divisible by p
        num, den = self.value.numerator, self.value.denominator
        if start >= 0:
            num //= p**start
        else:
            den //= p**-start
        inverse = pow(den, -1, p)
        out = []
        for _ in range(count):
            digit = num * inverse % p
            out.append(digit)
            num = (num - digit * den) // p
        return PadicExpansion(p, start, tuple(out))

    # -- housekeeping --------------------------------------------------------

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"PadicRational({self.p}, {self.value})"


_new = object.__new__


def _trusted(p: int, value: Fraction, order=None) -> PadicRational:
    """PadicRational(p, value) for a prime p already checked and a Fraction
    value, without the checks; the order is computed unless given."""
    x = _new(PadicRational)
    state = x.__dict__
    state["p"] = p
    state["value"] = value
    state["order"] = _order(p, value) if order is None else order
    return x


@dataclass(frozen=True)
class PadicExpansion:
    """Leading digits a_k of a canonical base-p series sum(a_k * p**k).

    `exponent` is the position k of digits[0]; an empty digit tuple is the
    sentinel for the expansion of zero.
    """

    p: int
    exponent: int
    digits: tuple

    @property
    def is_zero(self) -> bool:
        return not self.digits

    def partial_sum(self, count: int | None = None) -> Fraction:
        """Exact value of the first `count` digits (all of them by default)."""
        p, e = self.p, self.exponent
        total = 0  # Horner's rule on ints: sum(digit_i * p**i)
        for digit in reversed(self.digits[:count]):
            total = total * p + digit
        return Fraction(total * p**e) if e >= 0 else Fraction(total, p**-e)

    def __str__(self):
        """Right-to-left rendering '...a2a1a0.a-1...' of the known digits."""
        if self.is_zero:
            return "0"
        by_exp = {self.exponent + i: d for i, d in enumerate(self.digits)}
        high = max(max(by_exp), 0)
        integer = "".join(str(by_exp.get(k, 0)) for k in range(high, -1, -1))
        low = min(min(by_exp), 0)
        fractional = "".join(str(by_exp.get(k, 0)) for k in range(-1, low - 1, -1))
        return "…" + integer + "." + fractional


_BALL_KINDS = ("closed", "open", "sphere")


@dataclass(frozen=True)
class PadicBall:
    """Ball or sphere of radius p**radius_exponent around a center.

    Membership is the exact valuation comparison: <= r for closed, < r for
    open, == r for the sphere.  Balls are clopen, every member is a center,
    and two balls intersect only when one contains the other.
    """

    p: int
    center: PadicRational
    radius_exponent: int
    kind: str = "closed"

    def __post_init__(self):
        if self.kind not in _BALL_KINDS:
            raise ValidationError(f"kind must be one of {_BALL_KINDS}, got {self.kind!r}")
        if not isinstance(self.center, PadicRational):
            object.__setattr__(self, "center", PadicRational(self.p, self.center))
        if self.center.p != self.p:
            raise PrimeMismatchError(f"center prime {self.center.p} != ball prime {self.p}")

    @property
    def radius(self) -> Fraction:
        return Fraction(self.p) ** self.radius_exponent

    def contains(self, x) -> bool:
        if not isinstance(x, PadicRational):
            x = PadicRational(self.p, x)
        distance = (x - self.center).abs()
        if self.kind == "closed":
            return distance <= self.radius
        if self.kind == "open":
            return distance < self.radius
        return distance == self.radius

    __contains__ = contains
