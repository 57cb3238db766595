"""The p-adic amplitude rule for two alternatives.

Amplitudes are p-adic integers alpha_i = p**l_i * unit, so the individual
probabilities P_i = |alpha_i|_p**2 = p**(-2*l_i) are exact powers of p, and
the combined probability is P = |alpha_1 + eps*alpha_2|_p**2 for a unit eps.
The ultrametric decides everything:

  case A, P1 > P2:  P = P1 exactly, and lam = -sqrt(P2/P1) / 2;
  case B, P1 < P2:  symmetric, lam = -sqrt(P1/P2) / 2;
  case C, P1 = P2:  P = c * P1 with the unit cross factor
                    c = |e1 + eps*e2|_p**2 in [0, 1], and lam = c/2 - 1.

Hence lam always lies in [-1, 0]: cases A/B inside (-1/2, 0), case C inside
[-1, -1/2], so the equivalent phase angle arccos(lam) is confined to
[pi/2, pi].  All values here are exact rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegenerateContextError, ValidationError, _Record, shown
from .padic import PadicRational, _power, _require_prime, _unchecked, prime_multiplicity


def _lift(p: int, value, name: str) -> PadicRational:
    """value as a PadicRational of the prime p, which the caller has checked."""
    if isinstance(value, PadicRational):
        if value.p != p:
            raise ValidationError(f"{name} carries prime {value.p}, expected {p}")
        return value
    return _unchecked(p, value)


class PadicAmplitudePair(_Record):
    """Two nonzero p-adic integer amplitudes and a unit interference factor.

    Amplitudes must have order >= 0 so that their squared valuations are
    probabilities (<= 1); eps must sit on the unit sphere |eps|_p = 1.
    """

    __slots__ = ("p", "alpha1", "alpha2", "epsilon")

    def __new__(cls, p, alpha1, alpha2, epsilon):
        pair = _new(cls._draft)
        pair.__post_init__(p, alpha1, alpha2, epsilon)
        pair.__class__ = cls
        return pair

    def __post_init__(self, p, alpha1, alpha2, epsilon):
        _require_prime(p)
        self.p = p
        self.alpha1 = alpha1 = _lift(p, alpha1, "alpha1")
        self.alpha2 = alpha2 = _lift(p, alpha2, "alpha2")
        self.epsilon = epsilon = _lift(p, epsilon, "epsilon")
        for name, amp in (("alpha1", alpha1), ("alpha2", alpha2)):
            if amp.order == math.inf:
                raise DegenerateContextError(f"{name} must be nonzero")
            if amp.order < 0:
                raise ValidationError(
                    f"{name} must be a p-adic integer (order >= 0) so that "
                    f"|{name}|_p**2 is a probability; got order {amp.order}"
                )
        if epsilon.order != 0:
            raise ValidationError(
                f"epsilon must be a p-adic unit (|eps|_p = 1), got |eps|_p = {epsilon.abs()}"
            )


def _squared_abs(p: int, order) -> Fraction:
    """|x|_p**2 = p**(-2*order) for order >= 0 (0 when x = 0)."""
    return Fraction(0) if order == math.inf else _power(p, -2 * order)


_new = object.__new__
_MINUS_HALF = Fraction(-1, 2)  # where the case C range meets cases A/B


class PadicInterference(_Record):
    """Outcome of the p-adic rule: exact probabilities, case, and deviation.
    The case is "A" (P1 > P2), "B" (P1 < P2) or "C" (P1 = P2); the cross
    factor c is None outside case C."""

    __slots__ = ("p", "case", "probability", "p1", "p2", "lam", "cross_factor")

    def __new__(cls, p, case, probability, p1, p2, lam, cross_factor):
        rule = _new(cls._draft)
        rule.p, rule.case, rule.probability = p, case, probability
        rule.p1, rule.p2 = p1, p2
        rule.lam, rule.cross_factor = lam, cross_factor
        rule.__class__ = cls
        return rule

    @property
    def theta(self) -> float:
        """Equivalent trigonometric phase arccos(lam), in [pi/2, pi]."""
        return math.acos(self.lam)

    @property
    def within_claimed_range(self) -> bool:
        """lam in (-1/2, 0) for cases A/B and in [-1, -1/2] for case C, which
        pins theta = arccos(lam) inside [pi/2, pi]; True on every valid input."""
        if self.case == "C":
            return -1 <= self.lam <= _MINUS_HALF
        return _MINUS_HALF < self.lam < 0


def padic_interfere(pair: PadicAmplitudePair) -> PadicInterference:
    """Apply P = |alpha1 + eps*alpha2|_p**2 and classify the case.

    Everything is decided on orders; the deviation lam is the exact rational
    that makes P = P1 + P2 + 2*sqrt(P1*P2)*lam hold.
    """
    p, alpha1, alpha2, eps = pair.p, pair.alpha1, pair.alpha2, pair.epsilon
    o1, o2 = alpha1.order, alpha2.order
    p1, p2 = _squared_abs(p, o1), _squared_abs(p, o2)
    cross = None
    # alpha1 + eps*alpha2 has order min(o1, o2) when the orders differ
    if o1 < o2:
        case, probability = "A", p1
        lam = Fraction(-1, 2 * p ** (o2 - o1))  # -sqrt(P2/P1) / 2
    elif o1 > o2:
        case, probability = "B", p2
        lam = Fraction(-1, 2 * p ** (o1 - o2))  # -sqrt(P1/P2) / 2
    else:
        # the amplitudes are p-adic integers and eps a unit, so the sum's
        # denominator d1*de*d2 is prime to p: its order is its numerator's
        case = "C"
        top = alpha1._n * eps._d * alpha2._d + eps._n * alpha2._n * alpha1._d
        if top:
            order = prime_multiplicity(p, top)
            probability = _squared_abs(p, order)
            scale = p ** (2 * (order - o1))  # c = 1/scale
            cross, lam = _power(p, 2 * (o1 - order)), Fraction(1 - 2 * scale, 2 * scale)
        else:
            probability = cross = Fraction(0)
            lam = Fraction(-1)
    return PadicInterference(p, case, probability, p1, p2, lam, cross)


class SlitSample(_Record):
    """One symmetric two-slit sample: eps, v_p(1 + eps) and exact P."""

    __slots__ = ("epsilon", "multiplicity", "probability")

    def __new__(cls, epsilon: int, multiplicity: int, probability: Fraction):
        sample = _new(cls._draft)
        sample.epsilon, sample.multiplicity = epsilon, multiplicity
        sample.probability = probability
        sample.__class__ = cls
        return sample


def _slit_columns(p: int, l: int, eps_max: int):
    """Symmetric two-slit table with unit parts fixed to 1, as columns (eps, v, P).

    Both amplitudes are p**l (so P1 = P2 = A = p**(-2l)) and eps runs over
    the naturals not divisible by p, up to eps_max.  Then v = v_p(1 + eps) and

        P(eps) = A * p**(-2 * v),

    exactly: brightness drops precisely where 1 + eps is divisible by p, by
    two orders of magnitude in base p per power.  Each v has one Fraction.
    """
    _require_prime(p)
    if l < 0:
        raise ValidationError(f"l must be >= 0, got {l}")
    if eps_max < 1:
        raise ValidationError(f"eps_max must be >= 1, got {eps_max}")
    # v = v_p(r) for r = 1 + eps, sieved: each power q = p**k sets k at its
    # multiples.  Then every p-th eps, the ones divisible by p, is dropped.
    n = eps_max + 1
    try:
        v = [0] * (n + 1)  # v[r] = v_p(r)
    except (MemoryError, OverflowError):  # past the index range or the memory
        raise ValidationError(
            f"eps_max = {shown(eps_max)} is too large: the table holds one row per eps up to it"
        ) from None
    q, k = p, 1
    while q <= n:
        v[q::q] = [k] * (n // q)
        q, k = q * p, k + 1
    eps, v = list(range(1, n)), v[2:]
    del eps[p - 1::p], v[p - 1::p]
    if isinstance(l, float) or getattr(l, "denominator", 1) != 1:
        # p**(-2l) is then no exact probability
        raise ValidationError(f"l must be an integer, got {l!r}")
    level = {k: _squared_abs(p, l + k) for k in set(v)}
    return eps, v, [level[k] for k in v]


def padic_slit_profile(p: int, l: int, eps_max: int):
    """The symmetric two-slit table of _slit_columns, one SlitSample per eps."""
    return list(map(SlitSample, *_slit_columns(p, l, eps_max)))
