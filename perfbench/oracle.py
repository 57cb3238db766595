"""Reference computations for the benchmark, made apart from the program.

Nothing here imports ``interfere``.  The cos/cosh rules, profiles, window
endpoints and deviations are evaluated with ``mpmath`` at 50 digits;
split-complex products and p-adic valuations use plain ``Fraction``/``int``
arithmetic; the perturbed total probability uses Python's complex numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpf

DIGITS = 50
BITS = 200  # fixed-point scale of Rule.progression's recurrence


def _mp(value):
    """An exact mpf for an int, Fraction or float (floats are dyadic)."""
    if isinstance(value, Fraction):
        return mpf(value.numerator) / value.denominator
    return mpf(value)


# ---------------------------------------------------------------------------
# the deviation calculus, at 50 digits
# ---------------------------------------------------------------------------

def deviation(p1, p2, p):
    """lam = (p - p1 - p2) / (2*sqrt(p1*p2)) as a 50-digit mpf."""
    with mp.workdps(DIGITS):
        a, b = _mp(p1), _mp(p2)
        return (_mp(p) - a - b) / (2 * mp.sqrt(a * b))


def exact_root(value: Fraction):
    """sqrt of a nonnegative rational when it is rational, else None."""
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def exact_deviation(p1: Fraction, p2: Fraction, p: Fraction):
    """The exact rational lam when p1*p2 is a perfect square, else None."""
    root = exact_root(Fraction(p1) * Fraction(p2))
    if root is None:
        return None
    return (Fraction(p) - p1 - p2) / (2 * root)


class Rule:
    """p(theta) = p1 + p2 + 2*sqrt(p1*p2)*u(theta) for one (p1, p2).

    ``kind`` is "trig" (u = cos) or "hyp" (u = sign*cosh).
    """

    def __init__(self, p1, p2, kind, sign=1):
        with mp.workdps(DIGITS):
            a, b = _mp(p1), _mp(p2)
            self._base = a + b
            self._weight = (1 if kind == "trig" else sign) * 2 * mp.sqrt(a * b)
        self._func = mp.cos if kind == "trig" else mp.cosh

    def __call__(self, theta) -> float:
        with mp.workdps(DIGITS):
            return float(self._base + self._weight * self._func(_mp(theta)))

    def grid(self, top, n):
        """Values at the n points theta_i = top*i/(n-1), i = 0..n-1.  A float
        grid built as top*i/(n-1) differs from these points by at most an
        ulp."""
        with mp.workdps(DIGITS + 10):
            step = _mp(top) / (n - 1)
        return self.progression(0, step, n)

    def progression(self, start, step, n):
        """Values at the n points theta_i = start + i*step, i = 0..n-1.

        cos and cosh both obey u(x+h) = 2*u(h)*u(x) - u(x-h); the recurrence
        runs on integers scaled by 2**BITS (about 60 digits), seeded with
        u(h), u(start) and u(start-h) from mpmath, so a point costs a few
        integer operations rather than a 50-digit cos or cosh.
        """
        one = 1 << BITS
        with mp.workdps(DIGITS + 10):
            scale = mpf(one)
            a, h = _mp(start), _mp(step)
            cosine = int(self._func(h) * scale)
            previous, current = int(self._func(a - h) * scale), int(self._func(a) * scale)
            base = int(self._base * scale)
            weight = int(self._weight * scale)
        out = []
        for _ in range(n):
            out.append((base + (weight * current >> BITS)) / one)
            previous, current = current, (2 * cosine * current >> BITS) - previous
        return out


def theta_bounds(p1, p2):
    """(theta_max or None, theta_min) as 50-digit mpf values: where the plus
    branch reaches P = 1 and the minus branch P = 0."""
    with mp.workdps(DIGITS):
        a, b = _mp(p1), _mp(p2)
        weight = 2 * mp.sqrt(a * b)
        q_plus, q_minus = (1 - a - b) / weight, (a + b) / weight
        theta_max = mp.acosh(q_plus) if q_plus >= 1 else None
        return theta_max, mp.acosh(q_minus)


def phase(lam):
    """Canonical (phase, sign): arccos on |lam| <= 1, arccosh(|lam|) beyond."""
    with mp.workdps(DIGITS):
        x = _mp(lam) if not isinstance(lam, mpf) else lam
        if abs(x) <= 1:
            return float(mp.acos(x)), 1
        return float(mp.acosh(abs(x))), (1 if x > 0 else -1)


def regime(lam) -> str:
    magnitude = abs(lam)
    if magnitude < 1:
        return "trigonometric"
    if magnitude == 1:
        return "boundary"
    return "hyperbolic"


def close(a, b, tol=1e-12) -> bool:
    """|a - b| within tol on the probability scale max(1, |a|, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# split-complex numbers as (x, y) pairs of exact rationals
# ---------------------------------------------------------------------------

def split_mul(a, b):
    (x1, y1), (x2, y2) = a, b
    return x1 * x2 + y1 * y2, x1 * y2 + x2 * y1


def split_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def split_norm(a):
    return a[0] * a[0] - a[1] * a[1]


# ---------------------------------------------------------------------------
# p-adic valuations with plain integer arithmetic
# ---------------------------------------------------------------------------

def _multiplicity(p: int, n: int) -> int:
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def valuation(p: int, x) -> float:
    """v_p(x) for a rational x; math.inf for 0."""
    x = Fraction(x)
    if x == 0:
        return math.inf
    return _multiplicity(p, x.numerator) - _multiplicity(p, x.denominator)


def padic_abs(p: int, x) -> Fraction:
    """|x|_p = p**(-v_p(x)), 0 for x = 0."""
    v = valuation(p, x)
    if v == math.inf:
        return Fraction(0)
    return Fraction(p) ** -v


def padic_rule(p: int, alpha1, alpha2, eps):
    """(case, P, P1, P2, lam, c) of P = |alpha1 + eps*alpha2|_p**2.

    P = p**(-2*v_p(alpha1 + eps*alpha2)) and P_i = p**(-2*v_p(alpha_i)); the
    deviation is the rational that makes P = P1 + P2 + 2*sqrt(P1*P2)*lam.
    """
    alpha1, alpha2, eps = Fraction(alpha1), Fraction(alpha2), Fraction(eps)
    big_p = padic_abs(p, alpha1 + eps * alpha2) ** 2
    p1 = padic_abs(p, alpha1) ** 2
    p2 = padic_abs(p, alpha2) ** 2
    v1, v2 = valuation(p, alpha1), valuation(p, alpha2)
    if v1 == v2:
        cross = big_p / p1
        return "C", big_p, p1, p2, cross / 2 - 1, cross
    # P1*P2 = p**(-2*(v1 + v2)): the root is an exact power of p
    root = Fraction(p) ** -(v1 + v2)
    lam = (big_p - p1 - p2) / (2 * root)
    return ("A" if v1 < v2 else "B"), big_p, p1, p2, lam, None


def slit_probability(p: int, l: int, eps: int) -> Fraction:
    """Symmetric two-slit value P = p**(-2l - 2*v_p(1 + eps))."""
    return Fraction(1, p ** (2 * l + 2 * _multiplicity(p, 1 + eps)))


def digits_ok(p: int, x: Fraction, exponent: int, digits) -> bool:
    """The canonical expansion property: the digits lie in [0, p), start at
    v_p(x), and their partial sum agrees with x to p-adic order
    exponent + len(digits)."""
    if exponent != valuation(p, x) or not all(0 <= d < p for d in digits):
        return False
    partial = sum(
        (d * Fraction(p) ** (exponent + k) for k, d in enumerate(digits)), Fraction(0)
    )
    return valuation(p, x - partial) >= exponent + len(digits)


# ---------------------------------------------------------------------------
# total probability
# ---------------------------------------------------------------------------

def total_classical(prior, cond):
    return tuple(prior[0] * cond[0][j] + prior[1] * cond[1][j] for j in (0, 1))


def total_quantum(prior, cond, phases):
    """|sqrt(pb1*p1j) + e^{i theta_j} sqrt(pb2*p2j)|**2 with complex numbers."""
    out = []
    for j in (0, 1):
        first = complex(math.sqrt(prior[0] * cond[0][j]))
        second = complex(math.cos(phases[j]), math.sin(phases[j])) * math.sqrt(
            prior[1] * cond[1][j]
        )
        out.append(abs(first + second) ** 2)
    return tuple(out)


def total_hyperbolic(prior, cond, phases, signs):
    """Mixture plus sign_j * 2*sqrt(pb1*p1j*pb2*p2j) * cosh(theta_j), 50 digits."""
    out = []
    with mp.workdps(DIGITS):
        for j in (0, 1):
            a = _mp(prior[0]) * _mp(cond[0][j])
            b = _mp(prior[1]) * _mp(cond[1][j])
            out.append(float(a + b + signs[j] * 2 * mp.sqrt(a * b) * mp.cosh(_mp(phases[j]))))
    return tuple(out)
