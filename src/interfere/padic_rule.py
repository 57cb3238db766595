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
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateContextError, ValidationError
from .padic import PadicRational, _require_prime, _unchecked, prime_multiplicity


def _lift(p: int, value, name: str) -> PadicRational:
    """value as a PadicRational of the prime p, which the caller has checked."""
    if isinstance(value, PadicRational):
        if value.p != p:
            raise ValidationError(f"{name} carries prime {value.p}, expected {p}")
        return value
    return _unchecked(p, value)


@dataclass(frozen=True)
class PadicAmplitudePair:
    """Two nonzero p-adic integer amplitudes and a unit interference factor.

    Amplitudes must have order >= 0 so that their squared valuations are
    probabilities (<= 1); eps must sit on the unit sphere |eps|_p = 1.
    """

    p: int
    alpha1: PadicRational
    alpha2: PadicRational
    epsilon: PadicRational

    def __post_init__(self):
        _require_prime(self.p)
        object.__setattr__(self, "alpha1", _lift(self.p, self.alpha1, "alpha1"))
        object.__setattr__(self, "alpha2", _lift(self.p, self.alpha2, "alpha2"))
        object.__setattr__(self, "epsilon", _lift(self.p, self.epsilon, "epsilon"))
        for name in ("alpha1", "alpha2"):
            amp = getattr(self, name)
            if amp.order == math.inf:
                raise DegenerateContextError(f"{name} must be nonzero")
            if amp.order < 0:
                raise ValidationError(
                    f"{name} must be a p-adic integer (order >= 0) so that "
                    f"|{name}|_p**2 is a probability; got order {amp.order}"
                )
        if self.epsilon.order != 0:
            raise ValidationError(
                f"epsilon must be a p-adic unit (|eps|_p = 1), got |eps|_p = {self.epsilon.abs()}"
            )


def _squared_abs(p: int, order) -> Fraction:
    """|x|_p**2 = p**(-2*order) for order >= 0 (0 when x = 0)."""
    return Fraction(0) if order == math.inf else Fraction(1, p ** (2 * order))


_MINUS_HALF = Fraction(-1, 2)  # where the case C range meets cases A/B


@dataclass(frozen=True)
class PadicInterference:
    """Outcome of the p-adic rule: exact probabilities, case, and deviation."""

    p: int
    case: str  # "A" (P1 > P2), "B" (P1 < P2), or "C" (P1 = P2)
    probability: Fraction
    p1: Fraction
    p2: Fraction
    lam: Fraction
    cross_factor: Fraction | None  # c, case C only

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
            cross, lam = Fraction(1, scale), Fraction(1 - 2 * scale, 2 * scale)
        else:
            probability = cross = Fraction(0)
            lam = Fraction(-1)
    return PadicInterference(p, case, probability, p1, p2, lam, cross)


@dataclass(frozen=True)
class SlitSample:
    """One symmetric two-slit sample: interference factor eps and exact P."""

    epsilon: int
    multiplicity: int  # v_p(1 + eps)
    probability: Fraction


def padic_slit_profile(p: int, l: int, eps_max: int):
    """Symmetric two-slit table with unit parts fixed to 1.

    Both amplitudes are p**l (so P1 = P2 = A = p**(-2l)) and eps runs over
    the naturals not divisible by p, up to eps_max.  Then

        P(eps) = A * p**(-2 * v_p(1 + eps)),

    exactly: brightness drops precisely where 1 + eps is divisible by p, by
    two orders of magnitude in base p per power.
    """
    _require_prime(p)
    if l < 0:
        raise ValidationError(f"l must be >= 0, got {l}")
    if eps_max < 1:
        raise ValidationError(f"eps_max must be >= 1, got {eps_max}")
    brightness = {}  # v -> p**(-2*(l + v)), built once per distinct v
    samples = []
    for eps in range(1, eps_max + 1):
        if eps % p == 0:
            continue
        v = prime_multiplicity(p, 1 + eps) if (1 + eps) % p == 0 else 0
        probability = brightness.get(v)
        if probability is None:
            probability = brightness[v] = _squared_abs(p, l + v)
        samples.append(SlitSample(eps, v, probability))
    return samples
