"""Exact p-adic valuation arithmetic on rationals.

For a prime p, the valuation |x|_p is p**(-v) where v is the net multiplicity
of p in x (negative when p divides the denominator), with |0|_p = 0.  The
valuation is multiplicative and non-Archimedean:

    |x + y|_p <= max(|x|_p, |y|_p),   with equality whenever |x|_p != |y|_p,

so the induced metric is an ultrametric, balls are clopen, and any member of
a ball can serve as its center.  A value is held as a reduced numerator and
denominator, integers tagged with the prime and the order, and reads back as
an exact Fraction; valuation comparisons are decisions on orders, never
approximations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import PrimeMismatchError, ValidationError, _Record, shown

# Miller-Rabin bases: the first 13 primes.  No composite below
# psi_13 = 3317044064679887385961981 (about 3.3e24) passes them all; the first
# 12 alone pass psi_12 = 318665857834031151167461 = 399165290221 * 798330580441.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # no modulus at or above it is accepted


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, exact below psi_13 ~ 3.3e24.  At or above
    it, False is still proof of a composite, but True only means that n is a
    strong probable prime to the first 13 prime bases.  A non-int n raises
    ValueError."""
    if not isinstance(n, int):
        raise ValueError(f"primality needs an int, got {shown(n)}")
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
    """How many times the int p >= 2 divides the nonzero int n."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"multiplicity needs an int divisor p >= 2, got {shown(p)}")
    if not isinstance(n, int):
        raise ValueError(f"multiplicity needs an int n, got {shown(n)}")
    n = abs(n)
    if n == 0:
        raise ValueError("multiplicity of p in 0 is undefined (infinite)")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


_PROVEN = set()  # primes is_prime has proven here, each proven once
_PROVEN_MAX = 256  # primes past this many are proven on every call


def _require_prime(p) -> None:
    """A modulus must be a prime that is_prime proves prime: one below psi_13."""
    if type(p) is int and p in _PROVEN:  # not bool, nor a float equal to a prime
        return
    if isinstance(p, int) and p >= _PSI_13:
        raise ValidationError(
            f"modulus must be a prime below psi_13 = {_PSI_13}, where primality is "
            f"proven, got {shown(p)}"
        )
    if not isinstance(p, int) or not is_prime(p):
        raise ValidationError(f"modulus must be a prime number, got {shown(p)}")
    if type(p) is int and len(_PROVEN) < _PROVEN_MAX:
        _PROVEN.add(p)


# Powers with |k| <= _KEPT are cached, at most 1024 (p, k) pairs of them: the
# orders of the batches, sweeps and tables fall well inside, so nearly every
# call is a hit, and no power of a huge order outlives its caller.
_KEPT = 64


@lru_cache(maxsize=1024)
def _kept_power(p: int, k: int) -> Fraction:
    return Fraction(p) ** k


def _power(p: int, k: int) -> Fraction:
    """Fraction(p) ** k, an exact Fraction for any integer k: the valuations
    |x|_p and the probabilities p**(-2*order) are such powers.  A Fraction is
    immutable, so callers share the cached objects."""
    return _kept_power(p, k) if -_KEPT <= k <= _KEPT else Fraction(p) ** k


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


def _order(p: int, n: int, d: int):
    """The p-order of n/d in lowest terms (math.inf for 0)."""
    if not n:
        return math.inf
    if n % p == 0:
        return prime_multiplicity(p, n)
    return -prime_multiplicity(p, d) if d % p == 0 else 0


class PadicRational(_Record):
    """An exact rational seen through the p-adic valuation; immutable.

    The value is held as two integers n/d with d > 0 and gcd(n, d) = 1, and
    `value` reads it back as a Fraction.  The p-order (the exponent v with
    |x|_p = p**-v) is computed once at construction; the order of zero is the
    explicit sentinel math.inf.  Arithmetic results skip the prime check,
    since their prime is already checked, and take their order from the
    operands wherever the valuation decides it: products, quotients,
    negations, and sums of operands of different orders (the strong triangle
    equality).
    """

    __slots__ = ("p", "_n", "_d", "order")
    _fields = ("p", "value")

    def __new__(cls, p, value):
        x = _new(cls._draft)
        x.__post_init__(p, value)
        x.__class__ = cls
        return x

    def __post_init__(self, p, value):
        """Check the prime and fill the draft with the reduced value and its
        order; arithmetic results skip this.  Named as perfbench traces it."""
        _require_prime(p)
        n, d = _ratio(value)
        self.p, self._n, self._d = p, n, d
        self.order = _order(p, n, d)

    @property
    def value(self) -> Fraction:
        return Fraction(self._n, self._d)

    def __eq__(self, other):
        if other.__class__ is not PadicRational:
            return NotImplemented
        return self.p == other.p and self._n == other._n and self._d == other._d

    __hash__ = _Record.__hash__  # of (p, value); defining __eq__ dropped the inherited one

    # -- valuation ---------------------------------------------------------

    def abs(self) -> Fraction:
        """|x|_p = p**(-order), exactly (Fraction; 0 for x = 0)."""
        order = self.order
        return Fraction(0) if order == math.inf else _power(self.p, -order)

    def unit_part(self) -> "PadicRational":
        """The unit e in x = p**order * e (so |e|_p = 1); undefined for 0."""
        n, d, order = self._n, self._d, self.order
        if not n:
            raise ValidationError("0 has no unit decomposition")
        if order >= 0:
            return _make(self.p, n // self.p**order, d, 0)
        return _make(self.p, n, d // self.p**-order, 0)

    # -- field arithmetic ----------------------------------------------------

    def _lift(self, other):
        if isinstance(other, PadicRational):
            if other.p != self.p:
                raise PrimeMismatchError(f"mixed primes {self.p} and {other.p}")
            return other
        if isinstance(other, (int, Fraction)):
            return _make(self.p, other.numerator, other.denominator)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _sum(self, other._n, other._d, other.order)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _sum(self, -other._n, other._d, other.order)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _sum(other, -self._n, self._d, self.order)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _product(self, other._n, other._d, self.order + other.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _quotient(self, other)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _quotient(other, self)

    def __neg__(self):
        return _make(self.p, -self._n, self._d, self.order)

    # -- canonical digits ----------------------------------------------------

    def digits(self, count: int) -> "PadicExpansion":
        """First `count` digits of the canonical expansion sum(a_k * p**k).

        Digits start at k = order (everything below is zero); each a_k is in
        {0, ..., p-1} and partial sums converge to x in |.|_p.  For x = 0 the
        expansion is the empty sentinel.
        """
        if count < 1:
            raise ValidationError(f"digit count must be >= 1, got {count}")
        if not self._n:
            return PadicExpansion(self.p, 0, ())
        p, start = self.p, int(self.order)
        # the residue x / p**start = num/den has den coprime to p, and den
        # stays fixed: subtracting a digit leaves a numerator divisible by p
        num, den = self._n, self._d
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
        return str(self._n) if self._d == 1 else f"{self._n}/{self._d}"

    def __repr__(self):
        return f"PadicRational({self.p}, {self})"


_new = object.__new__
_Draft = PadicRational._draft


def _make(p: int, n: int, d: int, order=None) -> PadicRational:
    """n/d over the prime p, already checked, for d > 0 and gcd(n, d) = 1;
    the order is computed unless given."""
    x = _new(_Draft)
    x.p, x._n, x._d = p, n, d
    x.order = _order(p, n, d) if order is None else order
    x.__class__ = PadicRational
    return x


def _ratio(value) -> tuple:
    """An exact value as (numerator, denominator) in lowest terms; floats
    are refused."""
    if type(value) is int:
        return value, 1
    if type(value) is not Fraction:
        value = _fraction(value)
    return value.numerator, value.denominator


def _unchecked(p: int, value) -> PadicRational:
    """PadicRational(p, value) for a prime p already checked."""
    return _make(p, *_ratio(value))


def _sum(x: PadicRational, n: int, d: int, order) -> PadicRational:
    """x + n/d, where n/d has the given order, reduced by one gcd.  Terms of
    different orders sum to the smaller order; only a tie is factored."""
    d1 = x._d
    n, d = x._n * d + n * d1, d1 * d
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return _make(x.p, n, d, None if x.order == order else min(x.order, order))


def _product(x: PadicRational, n: int, d: int, order) -> PadicRational:
    """x * n/d, for n/d in lowest terms with d > 0, of the given order:
    cross-cancelling leaves the product in lowest terms."""
    g1, g2 = math.gcd(x._n, d), math.gcd(n, x._d)
    return _make(x.p, (x._n // g1) * (n // g2), (x._d // g2) * (d // g1), order)


def _quotient(x: PadicRational, y: PadicRational) -> PadicRational:
    """x / y: x times the reciprocal of y, its sign moved to the numerator."""
    n, d = y._n, y._d
    if not n:
        return x.value / y.value  # raises ZeroDivisionError, as Fraction does
    if n < 0:
        n, d = -n, -d
    return _product(x, d, n, x.order - y.order)


class PadicExpansion(_Record):
    """Leading digits a_k of a canonical base-p series sum(a_k * p**k).

    `exponent` is the position k of digits[0]; an empty digit tuple is the
    sentinel for the expansion of zero.
    """

    __slots__ = ("p", "exponent", "digits")

    def __new__(cls, p: int, exponent: int, digits: tuple):
        expansion = _new(cls._draft)
        expansion.p, expansion.exponent, expansion.digits = p, exponent, digits
        expansion.__class__ = cls
        return expansion

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


class PadicBall(_Record):
    """Ball or sphere of radius p**radius_exponent around a center.

    Membership is the exact valuation comparison: <= r for closed, < r for
    open, == r for the sphere, decided on the order of x - center.  Balls
    are clopen, every member is a center, and two balls intersect only when
    one contains the other.
    """

    __slots__ = ("p", "center", "radius_exponent", "kind")

    def __new__(cls, p: int, center: PadicRational, radius_exponent: int, kind: str = "closed"):
        if kind not in _BALL_KINDS:
            raise ValidationError(f"kind must be one of {_BALL_KINDS}, got {kind!r}")
        _require_prime(p)
        k = radius_exponent
        if isinstance(k, float) or getattr(k, "denominator", 1) != 1:  # p**k is then no Fraction
            raise ValidationError(f"radius_exponent must be an integer, got {k!r}")
        if not isinstance(center, PadicRational):
            center = PadicRational(p, center)
        if center.p != p:
            raise PrimeMismatchError(f"center prime {center.p} != ball prime {p}")
        ball = _new(cls._draft)
        ball.p, ball.center, ball.radius_exponent, ball.kind = p, center, k, kind
        ball.__class__ = cls
        return ball

    @property
    def radius(self) -> Fraction:
        return Fraction(self.p) ** self.radius_exponent

    def contains(self, x) -> bool:
        if not isinstance(x, PadicRational):
            x = PadicRational(self.p, x)
        # |x - center|_p = p**-order against p**radius_exponent, on exponents
        order, bound = (x - self.center).order, -self.radius_exponent
        if self.kind == "closed":
            return order >= bound
        if self.kind == "open":
            return order > bound
        return order == bound

    __contains__ = contains
