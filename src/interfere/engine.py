"""Interference of two probabilistic alternatives.

Writing a combined probability as

    p = p1 + p2 + 2*sqrt(p1*p2)*lam

defines the normalized deviation ``lam`` of p from the classical additive
rule.  |lam| <= 1 admits the trigonometric parameterization lam = cos(theta),
realized by complex amplitudes sqrt(p1) + e^{i theta} sqrt(p2); |lam| >= 1
admits the hyperbolic one lam = +/-cosh(theta), realized by split-complex
amplitudes sqrt(p1) +/- e^{j theta} sqrt(p2).  |lam| = 1 sits on the shared
boundary and fits both pictures.

Both are one rule, p = N(sqrt(p1) + sign * u(theta) * sqrt(p2)), in two
algebras.  ``TRIG`` and ``HYP`` are where the algebra is chosen; every step
here and in ``context``, ``profiles`` and ``checks`` is written once and takes
one of them.
"""

from __future__ import annotations

import cmath
import enum
import math
from fractions import Fraction
from typing import Callable, NamedTuple

from . import hyperbolic
from .hyperbolic import _float
from .errors import DegenerateContextError, ValidationError, _Record, shown
from .numeric import (
    _exact_root,
    as_probability,
    is_exact,
    phase_cos,
    require_probability,
    sqrt_keeping_exact,
)


class _Algebra(NamedTuple):
    """A reading of N(sqrt(p1) + sign*u(theta)*sqrt(p2)), cross term 2*sqrt(p1*p2)*sign*cross."""

    name: str  # as in the CLI
    what: str  # names a result in NotAProbabilityError
    cross: Callable  # theta -> cross factor
    unit: Callable  # (theta, k) -> k*u(theta) for a float k, as one amplitude
    lift: Callable  # float -> amplitude
    norm: Callable  # amplitude -> N(amplitude)
    overflow: str  # why a finite phase can be out of range


TRIG = _Algebra(
    "trig", "trigonometric interference", phase_cos, lambda theta, k: cmath.exp(1j * theta) * k,
    complex, lambda z: abs(z) ** 2, "it does not fit in a float",
)
# Each split-complex amplitude is built as one number: for floats theta, k and
# x, unit(theta, k) has the bits of hyperbolic.exp(theta) * k and lift(x) those
# of HyperbolicNumber(x).
HYP = _Algebra(
    "hyp", "hyperbolic interference", math.cosh,
    lambda theta, k: _float(math.cosh(theta) * k, math.sinh(theta) * k), lambda x: _float(x, 0),
    hyperbolic.HyperbolicNumber.norm_sq, "cosh overflows the float range beyond |theta| ~ 710",
)


def _at_phase(algebra: _Algebra, f, theta, name="theta"):
    """f(theta) for f = algebra.cross, with ValidationError naming the phase
    when theta is not finite or f(theta) overflows."""
    try:
        if math.isfinite(theta):
            return f(theta)
    except OverflowError:
        raise ValidationError(
            f"{name} = {shown(theta)} is out of range: {algebra.overflow}"
        ) from None
    raise ValidationError(f"{name} must be finite, got {shown(theta)}")


def _is_sign(sign) -> bool:
    """A real +1 or -1; a complex one would make the rule's value complex."""
    return sign in (1, -1) and not isinstance(sign, complex)


def _require_inputs(p1, p2, sign):
    require_probability(p1, "p1")
    require_probability(p2, "p2")
    if not _is_sign(sign):
        raise ValidationError(f"sign must be +1 or -1, got {shown(sign)}")


class Regime(enum.Enum):
    """Which parameterization of the normalized deviation applies."""

    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"
    BOUNDARY = "boundary"  # |lam| = 1: compatible with both parameterizations


# The members as module globals: reading Regime.X looks it up on the enum class,
# about ten times slower than reading a global.
_TRIGONOMETRIC, _HYPERBOLIC, _BOUNDARY = Regime

_EXACT = (int, Fraction)  # exactly these types, not bool or a subclass
_new = object.__new__


def lambda_of(p1, p2, p):
    """Normalized deviation (p - p1 - p2) / (2*sqrt(p1*p2)).

    Exact when the inputs are exact and p1*p2 is a perfect square; never
    clamped.  Undefined (DegenerateContextError) when p1*p2 = 0; out of reach
    (ValidationError) when p1 and p2 are nonzero but p1*p2 underflows in floats.
    """
    # Fast accept: ints and Fractions with p1, p2 in (0, 1] and p in [0, 1],
    # worked on their numerators and denominators.  Cross-gcds give p1*p2 =
    # num/den in lowest terms (a bare isqrt(n1*n2) misses 2/3 * 3/8 = 1/4).
    # A square gives one Fraction; any other p1*p2 gives the float the path
    # below gives, since int true division rounds correctly, as float(Fraction)
    # does.  Everything else (floats, bools, inputs out of range, a zero or
    # underflowing weight) takes the float lane or the validating path below.
    if type(p1) in _EXACT and type(p2) in _EXACT and type(p) in _EXACT:
        n1, d1, n2, d2 = p1.numerator, p1.denominator, p2.numerator, p2.denominator
        n, d = p.numerator, p.denominator
        if 0 < n1 <= d1 and 0 < n2 <= d2 and 0 <= n <= d:
            g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
            num, den = (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)
            top, bottom = (n * d1 - n1 * d) * d2 - n2 * d * d1, d * d1 * d2  # p - p1 - p2
            root = _exact_root(num, den)
            if root is not None:
                return Fraction(top * root[1], 2 * root[0] * bottom)
            weight = 2 * math.sqrt(num / den)
            if weight:
                return (top / bottom) / weight
    # Fast accept: plain floats with p1, p2 in (0, 1], p in [0, 1] and a
    # nonzero weight, computed as the path below computes them.  The
    # constants are floats because CPython compares and multiplies float with
    # float faster than float with int, to the same bits.  Everything else (a
    # float subclass, bools, mixed types, a zero or underflowing weight,
    # values out of range) takes the validating path.
    if type(p1) is float and type(p2) is float and type(p) is float:
        if 0.0 < p1 <= 1.0 and 0.0 < p2 <= 1.0 and 0.0 <= p <= 1.0:
            weight = 2.0 * math.sqrt(p1 * p2)
            if weight:
                return (p - (p1 + p2)) / weight
    require_probability(p1, "p1")
    require_probability(p2, "p2")
    require_probability(p, "p")
    return (p - (p1 + p2)) / nonzero_weight(p1, p2, "normalized deviation")


def nonzero_weight(p1, p2, what):
    """2*sqrt(p1*p2) for probabilities p1, p2, as the divisor of `what`.

    DegenerateContextError when p1 or p2 is 0; ValidationError when p1 and p2
    are nonzero but a float p1*p2, or the float root of an exact one,
    underflows to 0.
    """
    if p1 == 0 or p2 == 0:
        raise DegenerateContextError(f"{what} is undefined when p1*p2 = 0")
    weight = 2 * sqrt_keeping_exact(p1 * p2)
    if weight == 0:
        hint = "" if is_exact(p1 * p2) else "; --mode exact avoids it for a perfect square p1*p2"
        raise ValidationError(
            "p1*p2 underflows to 0 in floats although p1 and p2 are nonzero, so the "
            f"{what} cannot be computed" + hint
        )
    return weight


def classify(lam) -> Regime:
    """Regime of a finite deviation: |lam| < 1, = 1, or > 1."""
    if type(lam) is Fraction:  # exact: compare its integers
        magnitude, one = abs(lam.numerator), lam.denominator
    elif isinstance(lam, float):  # compared with 1.0, float with float
        if not math.isfinite(lam):
            raise ValidationError(f"deviation must be finite, got {lam!r}")
        magnitude, one = abs(lam), 1.0
    else:
        magnitude, one = abs(lam), 1
    if magnitude < one:
        return _TRIGONOMETRIC
    if magnitude == one:
        return _BOUNDARY
    return _HYPERBOLIC


def phase_of(lam):
    """Canonical (phase, sign) for a finite deviation.

    |lam| <= 1: (arccos(lam), +1) with phase in [0, pi]; |lam| > 1:
    (arccosh(|lam|), sign(lam)) with phase > 0.  On the boundary |lam| = 1 the
    trigonometric parameterization is returned (phase 0 or pi, sign +1); the
    hyperbolic reading there would be (0, sign(lam)).  An exact |lam| past the
    float range has no float phase and raises ValidationError.
    """
    if type(lam) is Fraction:  # exact: compare and divide its integers
        num, den = lam.numerator, lam.denominator
        if -den <= num <= den:
            return math.acos(num / den), 1
        try:
            return math.acosh(abs(num) / den), (1 if num > 0 else -1)
        except OverflowError:
            pass  # past the float range: named below
    elif isinstance(lam, float):  # compared with float constants
        if not math.isfinite(lam):
            raise ValidationError(f"deviation must be finite, got {lam!r}")
        if -1.0 <= lam <= 1.0:
            return math.acos(lam), 1
        return math.acosh(abs(lam)), (1 if lam > 0.0 else -1)
    if abs(lam) <= 1:
        return math.acos(lam), 1
    try:
        phase = math.acosh(abs(lam))
    except OverflowError:  # an exact lam past the float range
        raise ValidationError(
            "deviation |lam| exceeds the float range (~1.8e308), so its phase "
            "arccosh(|lam|) cannot be computed"
        ) from None
    return phase, (1 if lam > 0 else -1)


def combine(p1, p2, lam):
    """The deviation form p1 + p2 + 2*sqrt(p1*p2)*lam, unvalidated.

    This is the raw rule shared by both parameterizations; exactness is
    preserved for exact inputs with lam in {0, +1, -1} or a perfect-square
    p1*p2.
    """
    return _rule(p1 + p2, 2 * sqrt_keeping_exact(p1 * p2), lam)


def _rule(base, weight, lam):
    """The deviation kernel base + weight*lam, unvalidated (see combine).

    The cross term at lam = 0 and lam = +/-1 is 0 or +/-weight, so exact
    base and weight stay exact: phase_cos hits the float 0.0 and +/-1.0 at
    quarter turns exactly, and multiplying by those would make them floats.
    """
    # written as base + cross for cross in (0, weight, -weight), so a zero sum keeps its sign
    if lam == 0:
        return base + 0
    if lam == 1:
        return base + weight
    if lam == -1:
        return base + -weight
    return base + weight * lam


def _sweep(algebra: _Algebra, p1, p2, sign, phases):
    """Checked results of the rule for (p1, p2) at each phase of a sweep, with
    base and weight formed here once; the phases themselves are not checked."""
    base, weight = p1 + p2, 2 * sqrt_keeping_exact(p1 * p2)
    cross, what = algebra.cross, algebra.what
    if type(base) is float and type(weight) is float and type(sign) is int and base > 0.0:
        # The bare rule gives _rule's floats: (sign*weight)*c is weight*(sign*c),
        # and a nonzero base absorbs a zero cross term of either sign as base + 0
        # does.  Only a value outside [0, 1] needs as_probability.
        signed = sign * weight
        return tuple([
            v if 0.0 <= (v := base + signed * cross(r)) <= 1.0 else as_probability(v, what=what)
            for r in phases
        ])
    return tuple(as_probability(_rule(base, weight, sign * cross(r)), what=what) for r in phases)


def _interfere(algebra: _Algebra, p1, p2, theta, sign, name="theta"):
    """p1 + p2 + 2*sqrt(p1*p2) * sign * cross(theta) = N(sqrt(p1) + sign *
    u(theta) * sqrt(p2)).  A result outside [0, 1] raises NotAProbabilityError
    with the raw value attached, never a clamp; a theta that is not finite or
    whose cross factor overflows raises ValidationError naming it `name`."""
    # Fast accept: plain floats in range, a plain int sign of +/-1 and a result
    # in (0, 1], computed as _rule computes it, with float constants as in
    # lambda_of.  Everything else (exact inputs, a zero result and its sign,
    # snaps, errors) takes the validating path below.  This is _sweep's float
    # lane for one phase: a one-point _sweep made float-batch about 15 % slower.
    if (type(p1) is float and type(p2) is float and type(theta) is float
            and type(sign) is int and 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0
            and (sign == 1 or sign == -1) and math.isfinite(theta)):
        try:
            v = (p1 + p2) + 2.0 * math.sqrt(p1 * p2) * (sign * algebra.cross(theta))
        except OverflowError:  # _at_phase below names the phase
            pass
        else:
            if 0.0 < v <= 1.0:
                return v
    _require_inputs(p1, p2, sign)
    lam = sign * _at_phase(algebra, algebra.cross, theta, name)
    return as_probability(combine(p1, p2, lam), what=algebra.what)


def interfere_trig(p1, p2, theta):
    """Trigonometric rule p1 + p2 + 2*sqrt(p1*p2)*cos(theta), the squared
    modulus |sqrt(p1) + e^{i theta} sqrt(p2)|**2; see _interfere."""
    return _interfere(TRIG, p1, p2, theta, 1)


def interfere_hyp(p1, p2, theta, sign):
    """Hyperbolic rule p1 + p2 + sign * 2*sqrt(p1*p2)*cosh(theta), the
    split-complex norm_sq(sqrt(p1) + sign * e^{j theta} sqrt(p2)), which
    leaves [0, 1] outside the validity window; see _interfere."""
    return _interfere(HYP, p1, p2, theta, sign)


def _amplitudes(algebra: _Algebra, p1, p2, theta, sign, name="theta"):
    """(sqrt(p1), sign * u(theta) * sqrt(p2)), whose sum has norm _interfere."""
    # Fast accept: _interfere's lane test.  An overflow takes the validating
    # path below, which names the phase.
    if (type(p1) is float and type(p2) is float and type(theta) is float
            and type(sign) is int and 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0
            and (sign == 1 or sign == -1) and math.isfinite(theta)):
        try:
            return algebra.lift(math.sqrt(p1)), algebra.unit(theta, sign * math.sqrt(p2))
        except OverflowError:
            pass
    _require_inputs(p1, p2, sign)
    _at_phase(algebra, algebra.cross, theta, name)  # unit overflows where cross does
    return algebra.lift(math.sqrt(p1)), algebra.unit(theta, sign * math.sqrt(p2))


def amplitudes_trig(p1, p2, theta):
    """Complex amplitude pair (sqrt(p1), e^{i theta} * sqrt(p2))."""
    return _amplitudes(TRIG, p1, p2, theta, 1)


def amplitudes_hyp(p1, p2, theta, sign):
    """Split-complex amplitude pair (sqrt(p1), sign * e^{j theta} * sqrt(p2))."""
    return _amplitudes(HYP, p1, p2, theta, sign)


class InterferenceRecord(_Record):
    """A fitted triple (p1, p2, p) with its deviation, regime, and phase."""

    __slots__ = ("p1", "p2", "p", "lam", "regime", "phase", "sign")

    def __new__(cls, p1, p2, p, lam, regime, phase, sign):
        record = _new(cls._draft)
        record.p1, record.p2, record.p = p1, p2, p
        record.lam, record.regime = lam, regime
        record.phase, record.sign = phase, sign
        record.__class__ = cls
        return record

    def reconstruct(self):
        """Recompute p from the fitted phase; inverse of the fit.  The rule
        is checked as in interfere_trig/hyp, so a hand-built record with a
        bad probability, sign or phase raises ValidationError or
        NotAProbabilityError."""
        algebra = HYP if self.regime is _HYPERBOLIC else TRIG
        return _interfere(algebra, self.p1, self.p2, self.phase, self.sign)

    def residual(self) -> float:
        return abs(self.reconstruct() - self.p)


def fit_record(p1, p2, p) -> InterferenceRecord:
    """Fit the deviation form to a measured triple.

    Requires p1*p2 > 0 (DegenerateContextError otherwise: with one
    alternative missing there is nothing to interfere and lam is undefined).
    """
    lam = lambda_of(p1, p2, p)
    # Fast accept: a plain finite float lam off |lam| = 1 gets classify's and
    # phase_of's float results in one step.  Everything else (Fractions, ints,
    # +/-1.0, NaN and infinities) goes through them.
    if type(lam) is float:
        magnitude = abs(lam)
        if magnitude < 1.0:
            sign = 1
            return InterferenceRecord(p1, p2, p, lam, _TRIGONOMETRIC, math.acos(lam), sign)
        if 1.0 < magnitude < math.inf:
            sign = 1 if lam > 0.0 else -1
            return InterferenceRecord(p1, p2, p, lam, _HYPERBOLIC, math.acosh(magnitude), sign)
    regime = classify(lam)
    phase, sign = phase_of(lam)
    return InterferenceRecord(p1, p2, p, lam, regime, phase, sign)
