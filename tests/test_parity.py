"""Value parity of the shared rule with the separate trig and hyp spellings,
and of the float fast lane with the validating path it bypasses.

Each function below once had its own implementation per algebra.  Those
expressions are written out here, and on seeded float and exact inputs each
public function must return values that compare ``==`` to them and have the
same types and signs of zero, or raise the same error with the same message.
``InterferenceRecord.reconstruct`` once spelled the rule itself with only its
result checked; every record the fit builds must reconstruct as it did.

The fast lane accepts plain floats in range with one test and computes the
bare rule.  The validating spellings it bypasses are written out here too,
and on generated inputs (signed zeros, snaps, overflowing phases, NaN and
infinities, int, Fraction, bool and a float subclass) every result must be
the same in value, type and sign, or the same error.

The exact fit has an integer lane too: ints and Fractions in range are fitted
on their numerators and denominators.  The Fraction spellings of the fit and
of exact_sqrt it replaced are written out here, and the lane must agree with
them in the same way and accept every input in range that they fit.

The p-adic layer is held on integers too: a PadicRational is a reduced
numerator and denominator, and the rule and ball membership are decided on
orders.  The Fraction spellings they replaced are written out here, and every
operation, the rule and membership must agree with them in value, type,
order, text, hash and copies, or raise the same error with the same message.
"""

import cmath
import copy
import itertools
import math
import pickle
import random
from dataclasses import dataclass, field
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interfere import engine, hyperbolic, padic, profiles
from interfere.context import (
    ContextTransform,
    hyperbolic_sqrt_transform,
    raw_quantum_components,
    sqrt_linear_transform,
    total_prob_hyperbolic,
    total_prob_quantum,
)
from interfere.engine import (
    HYP,
    TRIG,
    Regime,
    InterferenceRecord,
    _at_phase,
    _require_inputs,
    _rule,
    amplitudes_hyp,
    amplitudes_trig,
    classify,
    combine,
    fit_record,
    interfere_hyp,
    interfere_trig,
    lambda_of,
    phase_of,
)
from interfere.errors import (
    DegenerateContextError,
    InterfereError,
    PrimeMismatchError,
    ValidationError,
    shown,
)
from interfere.numeric import (
    TOLERANCE,
    as_probability,
    exact_sqrt,
    is_exact,
    phase_cos,
    require_probability,
    sqrt_keeping_exact,
)
from interfere.padic import PadicBall, PadicExpansion, PadicRational, is_prime
from interfere.padic_rule import (
    PadicAmplitudePair,
    PadicInterference,
    _squared_abs,
    padic_interfere,
)
from interfere.profiles import profile_hyp, profile_piecewise, profile_trig, theta_bounds

H = hyperbolic.HyperbolicNumber


# -- the separate spellings --------------------------------------------------

def cross_term(weight, lam):
    """weight * lam, kept exact at lam = 0 and lam = +/-1."""
    if lam == 0:
        return 0
    if lam == 1:
        return weight
    if lam == -1:
        return -weight
    return weight * lam


def trig_rule(p1, p2, theta):
    weight = 2 * sqrt_keeping_exact(p1 * p2)
    return as_probability(
        (p1 + p2) + cross_term(weight, phase_cos(theta)), what="trigonometric interference"
    )


def hyp_rule(p1, p2, theta, sign):
    weight = 2 * sqrt_keeping_exact(p1 * p2)
    return as_probability(
        (p1 + p2) + cross_term(weight, sign * math.cosh(theta)), what="hyperbolic interference"
    )


def trig_amplitudes(p1, p2, theta):
    return complex(math.sqrt(p1)), cmath.exp(1j * theta) * math.sqrt(p2)


def hyp_amplitudes(p1, p2, theta, sign):
    return H(math.sqrt(p1), 0), hyperbolic.exp(theta) * (sign * math.sqrt(p2))


def separate_combine(p1, p2, lam):
    return p1 + p2 + cross_term(2 * sqrt_keeping_exact(p1 * p2), lam)


def mixture(t, j):
    return t.prior[0] * t.cond[0][j] + t.prior[1] * t.cond[1][j]


def cross_weight(t, j):
    return 2 * sqrt_keeping_exact(t.prior[0] * t.cond[0][j] * t.prior[1] * t.cond[1][j])


def raw_trig(t, j):
    return mixture(t, j) + cross_term(cross_weight(t, j), phase_cos(t.phases[j]))


def quantum_totals(t):
    return tuple(
        as_probability(raw_trig(t, j), what="perturbed total probability", component=j + 1)
        for j in (0, 1)
    )


def hyperbolic_totals(t):
    out = []
    for j in (0, 1):
        raw = mixture(t, j) + cross_term(cross_weight(t, j), t.signs[j] * math.cosh(t.phases[j]))
        out.append(as_probability(raw, what="hyperbolic total probability", component=j + 1))
    return tuple(out)


def trig_transform(t):
    x = (math.sqrt(t.prior[0]), math.sqrt(t.prior[1]))
    matrix = (
        (complex(math.sqrt(t.cond[0][0])), complex(math.sqrt(t.cond[0][1]))),
        (
            cmath.exp(1j * t.phases[0]) * math.sqrt(t.cond[1][0]),
            cmath.exp(1j * t.phases[1]) * math.sqrt(t.cond[1][1]),
        ),
    )
    outputs = tuple(x[0] * matrix[0][j] + x[1] * matrix[1][j] for j in (0, 1))
    return matrix, outputs


def hyp_transform(t):
    x = (math.sqrt(t.prior[0]), math.sqrt(t.prior[1]))
    matrix = (
        (H(math.sqrt(t.cond[0][0]), 0), H(math.sqrt(t.cond[0][1]), 0)),
        (
            hyperbolic.exp(t.phases[0]) * (t.signs[0] * math.sqrt(t.cond[1][0])),
            hyperbolic.exp(t.phases[1]) * (t.signs[1] * math.sqrt(t.cond[1][1])),
        ),
    )
    outputs = tuple(matrix[0][j] * x[0] + matrix[1][j] * x[1] for j in (0, 1))
    return matrix, outputs


# -- comparison ---------------------------------------------------------------

def typed(value):
    """value with the type of every leaf beside it, and the sign of a float."""
    if isinstance(value, tuple):
        return tuple(typed(v) for v in value)
    if isinstance(value, float):
        return type(value), value, math.copysign(1, value)
    return type(value), value


def outcome(func, *args, errors=InterfereError):
    """What func(*args) returns, or the type and message of the `errors` it
    raises; any other exception fails the test."""
    try:
        return "value", typed(func(*args))
    except errors as exc:
        return "raises", type(exc), str(exc)


def assert_same(shared, separate, *args, errors=InterfereError):
    assert outcome(shared, *args, errors=errors) == outcome(separate, *args, errors=errors), args


# -- inputs -------------------------------------------------------------------

RNG = random.Random(20260518)
QUARTERS = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
FLOAT_PAIRS = [(RNG.uniform(0.001, 0.3), RNG.uniform(0.001, 0.3)) for _ in range(150)]
EXACT_PAIRS = [
    (Fraction(1, 16), Fraction(1, 16)),
    (Fraction(1, 4), Fraction(1, 16)),
    (Fraction(9, 100), Fraction(4, 25)),
    (Fraction(1, 3), Fraction(1, 7)),
    (Fraction(2, 9), Fraction(0)),
    (0, 1),
]
THETAS = [RNG.uniform(0.0, 2 * math.pi) for _ in range(4)] + list(QUARTERS)
HYP_THETAS = [RNG.uniform(0.0, 3.0) for _ in range(4)] + [0.0, 0.5]


def transforms():
    rng = random.Random(7)
    out = []
    for k in range(120):
        if k % 3:
            pb1, r0, r1 = (rng.uniform(0.02, 0.98) for _ in range(3))
        else:
            pb1, r0, r1 = (Fraction(rng.randint(1, 9), 10) for _ in range(3))
        trig_phases = (rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        hyp_phases = (rng.uniform(0, 0.3), rng.uniform(0, 0.3))
        phases = rng.choice([QUARTERS[:2], QUARTERS[2:], trig_phases, hyp_phases, hyp_phases])
        out.append(
            ContextTransform(
                prior=(pb1, 1 - pb1),
                cond=((r0, 1 - r0), (r1, 1 - r1)),
                phases=phases,
                signs=(rng.choice((1, -1, -1)), rng.choice((1, -1, -1))),
            )
        )
    return out


TRANSFORMS = transforms()


# -- tests --------------------------------------------------------------------

@pytest.mark.parametrize("pairs", [FLOAT_PAIRS, EXACT_PAIRS], ids=["float", "exact"])
def test_rules_and_amplitudes(pairs):
    for (p1, p2), theta in itertools.product(pairs, THETAS):
        assert_same(interfere_trig, trig_rule, p1, p2, theta)
        assert_same(amplitudes_trig, trig_amplitudes, p1, p2, theta)
    for (p1, p2), theta, sign in itertools.product(pairs, HYP_THETAS, (1, -1)):
        assert_same(interfere_hyp, hyp_rule, p1, p2, theta, sign)
        assert_same(amplitudes_hyp, hyp_amplitudes, p1, p2, theta, sign)


@pytest.mark.parametrize("pairs", [FLOAT_PAIRS, EXACT_PAIRS], ids=["float", "exact"])
def test_combine(pairs):
    lams = (0, 1, -1, Fraction(1, 2), Fraction(-7, 3), 0.0, 1.0, -1.0, 0.3, -2.5)
    for (p1, p2), lam in itertools.product(pairs, lams):
        assert_same(combine, separate_combine, p1, p2, lam)


def test_totals_and_transforms():
    for t in TRANSFORMS:
        trig, hyp = t.with_mode("trig"), t.with_mode("hyp")
        assert_same(raw_quantum_components, lambda t: (raw_trig(t, 0), raw_trig(t, 1)), trig)
        assert_same(total_prob_quantum, quantum_totals, trig)
        assert_same(total_prob_hyperbolic, hyperbolic_totals, hyp)
        assert_same(sqrt_linear_transform, trig_transform, trig)
        assert_same(hyperbolic_sqrt_transform, hyp_transform, hyp)


def separate_residual(record):
    if record.regime.value == "hyperbolic":
        return abs(hyp_rule(record.p1, record.p2, record.phase, record.sign) - record.p)
    return abs(trig_rule(record.p1, record.p2, record.phase) - record.p)


@pytest.mark.parametrize("pairs", [FLOAT_PAIRS, EXACT_PAIRS], ids=["float", "exact"])
def test_fit_residuals(pairs):
    """Trig, hyp and boundary fits (|lam| = 1 at the sum and difference of
    the square roots), in float and exact mode."""
    for p1, p2 in pairs:
        if not p1 * p2:
            continue
        roots = (sqrt_keeping_exact(p1), sqrt_keeping_exact(p2))
        for p in (p1 + p2, (roots[0] + roots[1]) ** 2, (roots[0] - roots[1]) ** 2,
                  0.0, 1.0, 0.5, Fraction(1, 2), Fraction(0), Fraction(1)):
            if 0 <= p <= 1:
                record = fit_record(p1, p2, p)
                assert_same(type(record).residual, separate_residual, record)


# -- the fit reconstructs through the checked rule -----------------------------

def unchecked_reconstruct(record):
    """InterferenceRecord.reconstruct as it was spelled before it called the
    checked rule: the rule on the fitted phase, only its result checked."""
    algebra = HYP if record.regime is Regime.HYPERBOLIC else TRIG
    lam = record.sign * algebra.cross(record.phase)
    weight = 2 * sqrt_keeping_exact(record.p1 * record.p2)
    return as_probability(_rule(record.p1 + record.p2, weight, lam), what=algebra.what)


# floats, Fractions, and squares of Fractions, so that |lam| = 1 fits stay exact
FIT_PROBS = st.one_of(
    st.floats(0, 1),
    st.fractions(0, 1, max_denominator=64),
    st.fractions(0, 1, max_denominator=12).map(lambda f: f * f),
)


@st.composite
def fitted_triples(draw):
    """(p1, p2, p) with p drawn freely or at (sqrt(p1) +/- sqrt(p2))**2, |lam| = 1."""
    p1, p2 = draw(FIT_PROBS), draw(FIT_PROBS)
    kind = draw(st.sampled_from(("free", "sum", "difference")))
    if kind == "free":
        return p1, p2, draw(FIT_PROBS)
    root1, root2 = sqrt_keeping_exact(p1), sqrt_keeping_exact(p2)
    return p1, p2, (root1 + root2) ** 2 if kind == "sum" else (root1 - root2) ** 2


@settings(max_examples=300)
@given(triple=fitted_triples())
@example(triple=(0.25, 0.25, 1.0))  # boundary, lam = 1
@example(triple=(0.25, 0.25, 0.0))  # boundary, lam = -1, a zero result
@example(triple=(Fraction(1, 16), Fraction(1, 16), Fraction(1, 4)))
@example(triple=(Fraction(1, 16), Fraction(9, 16), Fraction(1, 4)))
@example(triple=(1 / 16, 1 / 16, 1.0))  # hyperbolic
@example(triple=(Fraction(1, 3), Fraction(1, 7), Fraction(1, 2)))
def test_reconstruct_matches_the_unchecked_spelling(triple):
    """Every record the fit builds reconstructs to the same value, type and
    sign of zero through the checked rule."""
    try:
        record = fit_record(*triple)
    except InterfereError:
        return
    assert_same(type(record).reconstruct, unchecked_reconstruct, record)


# -- the float fast lane ------------------------------------------------------

def validating_rule(algebra, p1, p2, theta, sign):
    """engine._interfere without its fast accept."""
    _require_inputs(p1, p2, sign)
    lam = sign * _at_phase(algebra, algebra.cross, theta)
    return as_probability(_rule(p1 + p2, 2 * sqrt_keeping_exact(p1 * p2), lam), what=algebra.what)


def assert_rules_same(p1, p2, theta, sign):
    """interfere_trig/hyp against validating_rule, where any exception the
    validating path raises, TypeError and ValueError too, is an outcome."""
    assert_same(interfere_trig, lambda *a: validating_rule(TRIG, *a, 1), p1, p2, theta,
                errors=Exception)
    assert_same(interfere_hyp, lambda *a: validating_rule(HYP, *a), p1, p2, theta, sign,
                errors=Exception)


def validating_sweep(algebra, base, weight, sign, phases):
    """engine._sweep without its float lane."""
    cross, what = algebra.cross, algebra.what
    return tuple(as_probability(_rule(base, weight, sign * cross(r)), what=what) for r in phases)


class ValidatingTransform(ContextTransform):
    """ContextTransform with every field made a tuple and every range tested
    by a loop, as before fields already held as tuples were kept."""

    def __post_init__(self):
        object.__setattr__(self, "prior", tuple(self.prior))
        object.__setattr__(self, "cond", tuple(tuple(row) for row in self.cond))
        object.__setattr__(self, "phases", tuple(self.phases))
        object.__setattr__(self, "signs", tuple(self.signs))
        if self.mode not in ("trig", "hyp"):
            raise ValidationError(f"mode must be one of ('trig', 'hyp'), got {self.mode!r}")
        if len(self.prior) != 2 or len(self.cond) != 2 or len(self.phases) != 2:
            raise ValidationError("prior, cond rows, and phases must all be pairs")
        for i, value in enumerate(self.prior):
            require_probability(value, f"prior[{i}]")
        prior_sum = self.prior[0] + self.prior[1]
        if abs(prior_sum - 1) > TOLERANCE:
            raise ValidationError(f"prior sums to {shown(prior_sum)}, expected 1")
        for i, row in enumerate(self.cond):
            if len(row) != 2:
                raise ValidationError(f"cond row {i} must have 2 entries")
            for j, value in enumerate(row):
                require_probability(value, f"cond[{i}][{j}]")
            row_sum = row[0] + row[1]
            if abs(row_sum - 1) > TOLERANCE:
                raise ValidationError(f"cond row {i} sums to {shown(row_sum)}, expected 1")
        for j, sign in enumerate(self.signs):
            if sign not in (1, -1):
                raise ValidationError(f"signs[{j}] must be +1 or -1, got {shown(sign)}")
        for j, theta in enumerate(self.phases):
            if isinstance(theta, float) and not math.isfinite(theta):
                raise ValidationError(f"phases[{j}] must be finite, got {theta!r}")


class Real(float):
    """A float subclass, which the fast lane leaves to the validating path."""


def fields(profile):
    return (profile.grid, profile.values, profile.warnings, profile.theta_max, profile.theta_min)


def assert_profiles_same(build, *args):
    """build(*args) against the same call with the validating sweep."""
    fast = outcome(lambda *a: fields(build(*a)), *args, errors=Exception)
    with mock.patch.object(profiles, "_sweep", validating_sweep):
        slow = outcome(lambda *a: fields(build(*a)), *args, errors=Exception)
    assert fast == slow, args


SPECIAL_FLOATS = (0.0, -0.0, 1.0, 0.25, 0.5, 1e-300, 5e-324, 1 - 2**-53, -1e-12, 1 + 1e-12,
                  1.5, -0.5, math.nan, math.inf, -math.inf)
PROBS = st.one_of(
    st.floats(0, 1),
    st.sampled_from(SPECIAL_FLOATS),
    st.fractions(0, 1, max_denominator=64),
    st.integers(-1, 2),
    st.booleans(),
    st.floats(0, 1).map(Real),
)
PHASES = st.one_of(
    st.floats(-8, 8),
    st.sampled_from((0.0, -0.0, math.pi / 2, math.pi, 709.0, 711.0, -711.0, 1e6,
                     math.nan, math.inf, -math.inf)),
    st.integers(-3, 3),
    st.fractions(-4, 4, max_denominator=8),
    st.booleans(),
    st.floats(-8, 8).map(Real),
)
SIGNS = st.sampled_from((1, -1, 1.0, -1.0, True, Fraction(-1), 1 + 0j, 0, 2))


@st.composite
def near_endpoints(draw):
    """(p1, p2, theta, sign) whose result lies within a few ulps of 0 or 1,
    where a float may land outside [0, 1] and snap, or be a signed zero."""
    a = draw(st.floats(0.01, 0.99))
    kind = draw(st.sampled_from(("trig top", "trig floor", "hyp bound")))
    if kind == "trig top":  # (sqrt(p1) + sqrt(p2))**2 = 1 at theta = 0
        return a * a, (1 - a) ** 2, draw(st.sampled_from((0.0, 2 * math.pi))), 1
    if kind == "trig floor":  # p1 = p2 cancels at theta = pi
        return a * a, draw(st.sampled_from((a * a, a * a * (1 + 2**-52)))), math.pi, 1
    p1, p2 = a * a / 2, draw(st.floats(0.001, 0.3))
    theta_max, theta_min = theta_bounds(p1, p2)
    sign = draw(st.sampled_from((1, -1))) if theta_max is not None else -1
    bound = theta_max if sign == 1 else theta_min
    return p1, p2, bound * (1 + draw(st.integers(-4, 4)) * 2**-52), sign


@settings(max_examples=150)
@given(p1=PROBS, p2=PROBS, theta=PHASES, sign=SIGNS)
@example(p1=0.25, p2=0.25, theta=math.inf, sign=1)  # sin(-inf) raises
@example(p1=0.25, p2=0.25, theta=711.0, sign=-1)  # cosh overflows
@example(p1=1.5, p2=0.25, theta=math.pi, sign=-1)  # in range only as a result
@example(p1=-0.0, p2=-0.0, theta=math.pi / 2, sign=1)
@example(p1=0.25, p2=0.25, theta=math.pi, sign=1)  # a zero result
@example(p1=0.25, p2=0.25, theta=0.0, sign=1 + 0j)  # equal to 1, and not real
def test_fast_rules_match_the_validating_path(p1, p2, theta, sign):
    assert_rules_same(p1, p2, theta, sign)


@settings(max_examples=100)
@given(case=near_endpoints())
def test_fast_rules_match_at_the_endpoints(case):
    p1, p2, theta, sign = case
    assert_rules_same(p1, p2, theta, sign)


GRID_POINTS = st.one_of(st.floats(0, 8), st.sampled_from((0.0, -0.0, math.pi, math.nan, 1e-9)),
                        st.integers(0, 3), st.fractions(0, 4, max_denominator=8))


@settings(max_examples=50)
@given(pair=st.one_of(st.tuples(PROBS, PROBS), near_endpoints().map(lambda case: case[:2])),
       sign=SIGNS, extra=st.lists(GRID_POINTS, max_size=6), n=st.integers(1, 12),
       stretch=st.sampled_from((1.0, 1 + 2**-52, 1 - 2**-52, 1.5)))
@example(pair=(0.36, 0.16), sign=1, extra=[], n=5, stretch=1.0)  # the trig peak snaps to 1
@example(pair=(1 / 16, 1 / 16), sign=1, extra=[], n=9, stretch=1.0)
def test_fast_profiles_match_the_validating_sweep(pair, sign, extra, n, stretch):
    """Grids run to each branch's window end, where values snap, and past it."""
    p1, p2 = pair
    try:
        theta_max, theta_min = theta_bounds(p1, p2)
    except InterfereError:
        theta_max, theta_min = 1.0, 1.0
    for hi in (theta_max or 1.0, theta_min or 1.0, 2 * math.pi):
        grid = tuple(hi * stretch * i / max(n - 1, 1) for i in range(n)) + tuple(extra)
        assert_profiles_same(profile_trig, p1, p2, grid)
        assert_profiles_same(profile_hyp, p1, p2, sign, grid)
        partition = [(0.0, hi / 3, -1), (hi / 2, hi, sign)]
        assert_profiles_same(profile_piecewise, p1, p2, partition, grid)


def as_transform(cls, prior, cond, phases, signs, mode):
    t = cls(prior, cond, phases, signs, mode)
    return t.prior, t.cond, t.phases, t.signs, t.mode


PAIRS = st.one_of(
    PROBS.map(lambda p: (p, 1 - p) if isinstance(p, (int, float, Fraction)) else (p, p)),
    st.tuples(PROBS, PROBS),
)


@settings(max_examples=120)
@given(prior=PAIRS, rows=st.tuples(PAIRS, PAIRS), phases=st.tuples(PHASES, PHASES),
       signs=st.tuples(SIGNS, SIGNS), mode=st.sampled_from(("trig", "hyp", "x")),
       shape=st.sampled_from(("tuples", "lists", "rows as lists")))
@example(prior=(0.5, math.nan), rows=((0.5, 0.5), (1.0, -1e-12)), phases=(0.0, 1.0),
         signs=(1, -1), mode="hyp", shape="tuples")  # out of range, and still summing to 1
@example(prior=(1.0, -1e-12), rows=((0.5, 0.5), (math.nan, 0.5)), phases=(0.0, 1.0),
         signs=(1, -1), mode="hyp", shape="rows as lists")
def test_fast_transforms_match_the_validating_fields(prior, rows, phases, signs, mode, shape):
    cond = rows if shape == "tuples" else tuple(list(row) for row in rows)
    if shape == "lists":
        prior, cond, phases, signs = list(prior), list(cond), list(phases), list(signs)
    args = (prior, cond, phases, signs, mode)
    assert outcome(as_transform, ContextTransform, *args, errors=Exception) == outcome(
        as_transform, ValidatingTransform, *args, errors=Exception
    )
    try:
        fast, slow = ContextTransform(*args), ValidatingTransform(*args)
    except Exception:
        return
    assert_same(total_prob_quantum, lambda t: total_prob_quantum(slow), fast.with_mode("trig"),
                errors=Exception)
    if mode == "hyp":
        assert_same(total_prob_hyperbolic, lambda t: total_prob_hyperbolic(slow), fast,
                    errors=Exception)


# -- the exact fit on integers ------------------------------------------------

def fraction_sqrt(value):
    """numeric.exact_sqrt as it was spelled on Fractions."""
    f = Fraction(value)
    if f < 0:
        raise ValueError(f"square root of negative value {shown(value)}")
    num = math.isqrt(f.numerator)
    den = math.isqrt(f.denominator)
    if num * num == f.numerator and den * den == f.denominator:
        return Fraction(num, den)
    return None


def fraction_lambda(p1, p2, p):
    """engine.lambda_of and nonzero_weight as they were spelled on Fractions."""
    require_probability(p1, "p1")
    require_probability(p2, "p2")
    require_probability(p, "p")
    what = "normalized deviation"
    if p1 == 0 or p2 == 0:
        raise DegenerateContextError(f"{what} is undefined when p1*p2 = 0")
    root = fraction_sqrt(p1 * p2) if is_exact(p1 * p2) else None
    weight = 2 * (root if root is not None else math.sqrt(p1 * p2))
    if weight == 0:
        hint = "" if is_exact(p1 * p2) else "; --mode exact avoids it for a perfect square p1*p2"
        raise ValidationError(
            "p1*p2 underflows to 0 in floats although p1 and p2 are nonzero, so the "
            f"{what} cannot be computed" + hint
        )
    return (p - (p1 + p2)) / weight


def fraction_classify(lam):
    if isinstance(lam, float) and not math.isfinite(lam):
        raise ValidationError(f"deviation must be finite, got {lam!r}")
    magnitude = abs(lam)
    if magnitude < 1:
        return Regime.TRIGONOMETRIC
    if magnitude == 1:
        return Regime.BOUNDARY
    return Regime.HYPERBOLIC


def fraction_phase_of(lam):
    if isinstance(lam, float) and not math.isfinite(lam):
        raise ValidationError(f"deviation must be finite, got {lam!r}")
    if abs(lam) <= 1:
        return math.acos(lam), 1
    try:
        phase = math.acosh(abs(lam))
    except OverflowError:
        raise ValidationError(
            "deviation |lam| exceeds the float range (~1.8e308), so its phase "
            "arccosh(|lam|) cannot be computed"
        ) from None
    return phase, (1 if lam > 0 else -1)


def fraction_fit(p1, p2, p):
    lam = fraction_lambda(p1, p2, p)
    return InterferenceRecord(p1, p2, p, lam, fraction_classify(lam), *fraction_phase_of(lam))


def record_fields(fit):
    def fields(*args):
        r = fit(*args)
        return r.p1, r.p2, r.p, r.lam, r.regime, r.phase, r.sign
    return fields


def refuse(*args):
    raise AssertionError(f"validating path taken for {args}")


TINY = Fraction(1, 10**400)  # p1*p2 ~ 1e-800: the float root of a non-square underflows
EXACT_PROBS = st.one_of(
    st.fractions(0, 1, max_denominator=10**6),
    st.fractions(0, 1, max_denominator=10**30),
    st.fractions(0, 1, max_denominator=64).map(lambda f: f * f),
    st.integers(-1, 2),
    st.booleans(),
    st.fractions(-2, 3, max_denominator=64),
    st.integers(1, 9).map(lambda k: k * TINY),
    st.integers(300, 4000).map(lambda e: Fraction(2, 10**e)),
    st.sampled_from((0.0, 0.25, 1.0, 1e-300, math.nan, -0.0)),
)


@st.composite
def exact_triples(draw):
    """(p1, p2, p) drawn freely, with p1*p2 a square of non-square factors,
    or with p at (sqrt(p1) +/- sqrt(p2))**2, |lam| = 1."""
    kind = draw(st.sampled_from(("free", "square product", "boundary")))
    if kind == "free":
        return draw(EXACT_PROBS), draw(EXACT_PROBS), draw(EXACT_PROBS)
    if kind == "square product":
        p1 = draw(st.fractions(0, 1, max_denominator=10**4).filter(bool))
        square = draw(st.fractions(0, 1, max_denominator=100)) ** 2
        return p1, min(square / p1, Fraction(1)), draw(EXACT_PROBS)
    r1, r2 = (draw(st.fractions(0, 1, max_denominator=40)) for _ in range(2))
    return r1 * r1, r2 * r2, draw(st.sampled_from(((r1 + r2) ** 2, (r1 - r2) ** 2)))


@settings(max_examples=400)
@given(triple=exact_triples())
@example(triple=(Fraction(2, 3), Fraction(3, 8), Fraction(1, 2)))  # p1*p2 = 1/4
@example(triple=(1, 1, 1))
@example(triple=(0, 1, 1))
@example(triple=(1, 0, 0))
@example(triple=(Fraction(1, 4), Fraction(1, 9), 0))  # p = 0
@example(triple=(True, Fraction(1, 4), 1))
@example(triple=(Fraction(1, 4), Fraction(1, 4), False))
@example(triple=(0.25, Fraction(1, 4), Fraction(1, 2)))
@example(triple=(Fraction(1, 4), Fraction(1, 9), 0.5))
@example(triple=(TINY, 2 * TINY, Fraction(1, 2)))  # the weight underflows
@example(triple=(TINY, TINY, Fraction(1, 2)))  # a square: the weight is exact
@example(triple=(Fraction(2, 10**4000), Fraction(2, 10**4000), 1))  # |lam| past the floats
@example(triple=(Fraction(1, 16), Fraction(9, 16), 1))  # lam = 1
@example(triple=(Fraction(1, 16), Fraction(9, 16), Fraction(1, 4)))  # lam = -1
@example(triple=(Fraction(1, 3), Fraction(1, 3), Fraction(0)))  # lam = -1, no square
@example(triple=(Fraction(-1, 3), Fraction(1, 4), Fraction(1, 2)))
@example(triple=(Fraction(1, 4), Fraction(4, 3), Fraction(1, 2)))
@example(triple=(Fraction(1, 4), Fraction(1, 4), Fraction(5, 4)))
@example(triple=(Fraction(1, 4), Fraction(1, 4), -1))
def test_exact_fit_matches_the_fraction_spelling(triple):
    """lambda_of and fit_record against the Fraction spellings in value, type
    and sign of zero, or error; and an exact triple they fit is fitted by the
    integer lane, without reaching require_probability."""
    assert_same(lambda_of, fraction_lambda, *triple, errors=Exception)
    assert_same(record_fields(fit_record), record_fields(fraction_fit), *triple,
                errors=Exception)
    if all(type(v) in (int, Fraction) for v in triple):
        expected = outcome(fraction_lambda, *triple, errors=Exception)
        if expected[0] == "value":
            with mock.patch.object(engine, "require_probability", refuse):
                assert outcome(lambda_of, *triple) == expected


DEVIATIONS = st.one_of(
    st.fractions(-3, 3, max_denominator=10**6),
    st.integers(-(10**400), 10**400).map(lambda n: Fraction(n, 7)),
    st.sampled_from((Fraction(1), Fraction(-1), Fraction(0), Fraction(7, 7 * 10**300 + 1),
                     1, -1, 0, True, 1.0, -1.0, -0.0, math.inf, math.nan)),
    st.floats(-1e6, 1e6),
    st.integers(-3, 3),
)


@settings(max_examples=300)
@given(lam=DEVIATIONS)
@example(lam=Fraction(1))
@example(lam=Fraction(-1))
@example(lam=Fraction(10**400 + 1, 3))  # past the float range
@example(lam=Fraction(-(10**400), 3))
def test_exact_regime_and_phase_match_the_fraction_spelling(lam):
    assert_same(classify, fraction_classify, lam, errors=Exception)
    assert_same(phase_of, fraction_phase_of, lam, errors=Exception)


@settings(max_examples=300)
@given(value=st.one_of(EXACT_PROBS, st.fractions(max_denominator=10**9), st.integers()))
@example(value=Fraction(1, 4))
@example(value=Fraction(6, 24))
@example(value=Fraction(-1, 4))
@example(value=-4)
@example(value=True)
@example(value=0)
def test_exact_sqrt_matches_the_fraction_spelling(value):
    assert_same(exact_sqrt, fraction_sqrt, value, errors=Exception)


# -- the p-adic layer on integers ---------------------------------------------

def fraction_require_prime(p):
    """padic._require_prime as it was, proving p at every call."""
    if isinstance(p, int) and p >= padic._PSI_13:
        raise ValidationError(
            f"modulus must be a prime below psi_13 = {padic._PSI_13}, where primality is "
            f"proven, got {shown(p)}"
        )
    if not isinstance(p, int) or not is_prime(p):
        raise ValidationError(f"modulus must be a prime number, got {shown(p)}")


def fraction_order(p, value):
    num = value.numerator
    if not num:
        return math.inf
    if num % p == 0:
        return padic.prime_multiplicity(p, num)
    den = value.denominator
    return -padic.prime_multiplicity(p, den) if den % p == 0 else 0


@dataclass(frozen=True, repr=False)
class FractionPadic:
    """padic.PadicRational as it was spelled: a frozen dataclass of the prime
    and a Fraction, its order computed from the value."""

    p: int
    value: Fraction
    order: float = field(init=False, compare=False)

    def __post_init__(self):
        fraction_require_prime(self.p)
        value = padic._fraction(self.value)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "order", fraction_order(self.p, value))

    def abs(self):
        order = self.order
        if order == math.inf:
            return Fraction(0)
        return Fraction(1, self.p**order) if order >= 0 else Fraction(self.p**-order)

    def unit_part(self):
        if self.value == 0:
            raise ValidationError("0 has no unit decomposition")
        return FractionPadic(self.p, self.value * self.abs())

    def _lift(self, other):
        if isinstance(other, FractionPadic):
            if other.p != self.p:
                raise PrimeMismatchError(f"mixed primes {self.p} and {other.p}")
            return other
        if isinstance(other, (int, Fraction)):
            return FractionPadic(self.p, Fraction(other))
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return FractionPadic(self.p, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return FractionPadic(self.p, self.value - other.value)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return FractionPadic(self.p, other.value - self.value)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return FractionPadic(self.p, self.value * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return FractionPadic(self.p, self.value / other.value)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return FractionPadic(self.p, other.value / self.value)

    def __neg__(self):
        return FractionPadic(self.p, -self.value)

    def digits(self, count):
        if count < 1:
            raise ValidationError(f"digit count must be >= 1, got {count}")
        if self.value == 0:
            return PadicExpansion(self.p, 0, ())
        p, start = self.p, int(self.order)
        unit = self.value / Fraction(p) ** start
        num, den = unit.numerator, unit.denominator
        inverse = pow(den, -1, p)
        out = []
        for _ in range(count):
            digit = num * inverse % p
            out.append(digit)
            num = (num - digit * den) // p
        return PadicExpansion(p, start, tuple(out))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"PadicRational({self.p}, {self.value})"


# named as the class it stands for, so that the TypeError Python raises for
# an unsupported operand reads the same
FractionPadic.__name__ = "PadicRational"


def fraction_lift(p, value, name):
    if isinstance(value, FractionPadic):
        if value.p != p:
            raise ValidationError(f"{name} carries prime {value.p}, expected {p}")
        return value
    return FractionPadic(p, value)


def fraction_interfere(p, alpha1, alpha2, epsilon):
    """PadicAmplitudePair and padic_interfere as they were spelled: the sum
    alpha1 + eps*alpha2 built as a Fraction value and its order read off."""
    fraction_require_prime(p)
    alpha1 = fraction_lift(p, alpha1, "alpha1")
    alpha2 = fraction_lift(p, alpha2, "alpha2")
    epsilon = fraction_lift(p, epsilon, "epsilon")
    for name, amp in (("alpha1", alpha1), ("alpha2", alpha2)):
        if amp.value == 0:
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
    o1, o2 = alpha1.order, alpha2.order
    p1, p2 = _squared_abs(p, o1), _squared_abs(p, o2)
    probability = _squared_abs(p, (alpha1 + epsilon * alpha2).order)
    cross = None
    if o1 < o2:
        case, lam = "A", Fraction(-1, 2 * p ** (o2 - o1))
    elif o1 > o2:
        case, lam = "B", Fraction(-1, 2 * p ** (o1 - o2))
    else:
        case = "C"
        cross = probability / p1
        lam = cross / 2 - 1
    return PadicInterference(p, case, probability, p1, p2, lam, cross)


def fraction_contains(p, center, radius_exponent, kind, x):
    """PadicBall(p, center, radius_exponent, kind).contains(x) as it was
    spelled: |x - center|_p against the Fraction power p**radius_exponent."""
    center = center if isinstance(center, FractionPadic) else FractionPadic(p, center)
    if not isinstance(x, FractionPadic):
        x = FractionPadic(p, x)
    distance = (x - center).abs()
    radius = Fraction(p) ** radius_exponent
    if kind == "closed":
        return distance <= radius
    if kind == "open":
        return distance < radius
    return distance == radius


def observed(value):
    """Everything a caller can see of a result: a p-adic value by its prime,
    value, order, text and hash, each leaf with its type."""
    if isinstance(value, (PadicRational, FractionPadic)):
        return (
            "padic", value.p, typed(value.value), typed(value.order), str(value), repr(value),
            hash(value), typed(value.abs()),
        )
    if isinstance(value, PadicExpansion):
        return "expansion", value.p, value.exponent, value.digits, str(value)
    if isinstance(value, PadicInterference):
        return tuple(typed(getattr(value, name)) for name in PadicInterference.__dataclass_fields__)
    if isinstance(value, tuple):
        return tuple(observed(v) for v in value)
    return typed(value)


def seen(func, *args):
    """What func(*args) returns, as observed, or the type and message of
    whatever it raises."""
    try:
        return "value", observed(func(*args))
    except Exception as exc:
        return "raises", type(exc), str(exc)


def assert_agree(new, old, *args):
    assert seen(new, *args) == seen(old, *args), args


def new_interfere(*args):
    return padic_interfere(PadicAmplitudePair(*args))


BIG_PRIME = 10**9 + 7
PADIC_PRIMES = (2, 3, 5, 7, BIG_PRIME)


@st.composite
def padic_values(draw, p):
    """An int or Fraction with a power of p drawn into it, or zero."""
    unit = draw(st.one_of(
        st.integers(-(10**6), 10**6),
        st.fractions(-(10**3), 10**3, max_denominator=10**6),
        st.sampled_from((0, 1, -1, p - 1, Fraction(1, p + 1))),
    ))
    return unit * Fraction(p) ** draw(st.integers(-4, 4))


@st.composite
def padic_operands(draw):
    """(p, x, y, q, n, f): two values x, y, the prime p of x and the prime q
    of y, which is sometimes another, an int n and a Fraction f."""
    p = draw(st.sampled_from(PADIC_PRIMES))
    x, y = draw(padic_values(p)), draw(padic_values(p))
    q = draw(st.sampled_from((p, p, p, p, 3 if p != 3 else 5)))
    n = draw(st.integers(-(10**4), 10**4))
    f = draw(padic_values(p))
    return p, x, y, q, n, f


OPERATIONS = {
    "x + y": lambda x, y, n, f: x + y,
    "x - y": lambda x, y, n, f: x - y,
    "x * y": lambda x, y, n, f: x * y,
    "x / y": lambda x, y, n, f: x / y,
    "y - x": lambda x, y, n, f: y - x,
    "y / x": lambda x, y, n, f: y / x,
    "x + n": lambda x, y, n, f: x + n,
    "n + x": lambda x, y, n, f: n + x,
    "x - n": lambda x, y, n, f: x - n,
    "n - x": lambda x, y, n, f: n - x,
    "n * x": lambda x, y, n, f: n * x,
    "x / n": lambda x, y, n, f: x / n,
    "n / x": lambda x, y, n, f: n / x,
    "x + f": lambda x, y, n, f: x + f,
    "f + x": lambda x, y, n, f: f + x,
    "f - x": lambda x, y, n, f: f - x,
    "x * f": lambda x, y, n, f: x * f,
    "f / x": lambda x, y, n, f: f / x,
    "x / f": lambda x, y, n, f: x / f,
    "x + True": lambda x, y, n, f: x + True,
    "x + 0.5": lambda x, y, n, f: x + 0.5,
    "0.5 * x": lambda x, y, n, f: 0.5 * x,
    "x - '1'": lambda x, y, n, f: x - "1",
    "-x": lambda x, y, n, f: -x,
    "abs": lambda x, y, n, f: x.abs(),
    "unit part": lambda x, y, n, f: x.unit_part(),
    "digits": lambda x, y, n, f: x.digits(1 + abs(n) % 7),
    "no digits": lambda x, y, n, f: x.digits(0),
    "x == y": lambda x, y, n, f: (x == y, x != y, y == x),
    "x == x + 0": lambda x, y, n, f: (x == x + 0, x == x.value, x.value == x),
    "copies": lambda x, y, n, f: (copy.copy(x), copy.deepcopy(x)),
    "in a set": lambda x, y, n, f: len({x, y, x + 0, y * 1}),
}


@settings(max_examples=300)
@given(operands=padic_operands())
@example(operands=(3, 0, 0, 3, 0, Fraction(0)))  # zero everywhere
@example(operands=(3, Fraction(5, 27), Fraction(-5, 27), 3, -3, Fraction(-1, 3)))  # x + y = 0
@example(operands=(3, 1, 2, 3, 2, Fraction(2)))  # a tie of orders: |1 + 2|_3 = 1/3
@example(operands=(2, Fraction(-3, 8), Fraction(5, 4), 2, -8, Fraction(-7, 16)))
@example(operands=(2, 12, 4, 2, 16, Fraction(1, 2)))
@example(operands=(BIG_PRIME, BIG_PRIME**2, Fraction(-1, BIG_PRIME), BIG_PRIME, -1,
                   Fraction(BIG_PRIME - 1, BIG_PRIME**3)))
@example(operands=(BIG_PRIME, -7, 0, BIG_PRIME, 0, Fraction(0)))  # division by zero
@example(operands=(5, Fraction(2, 5), 3, 3, 1, Fraction(3, 5)))  # mixed primes
@example(operands=(7, -49, Fraction(-1, 7), 7, -7, Fraction(-49)))
def test_padic_rational_matches_the_fraction_spelling(operands):
    """Each operation of the integer PadicRational against the Fraction
    dataclass it replaced, on the same exact operands."""
    p, x, y, q, n, f = operands
    assert_agree(PadicRational, FractionPadic, p, x)
    for name, op in OPERATIONS.items():
        def run(cls):
            return op(cls(p, x), cls(q, y), n, f)
        assert seen(run, PadicRational) == seen(run, FractionPadic), name
    new = PadicRational(p, x)
    assert observed(pickle.loads(pickle.dumps(new))) == observed(FractionPadic(p, x))
    assert pickle.loads(pickle.dumps(new)) == new


@settings(max_examples=100)
@given(p=st.sampled_from(PADIC_PRIMES), value=st.one_of(
    st.integers(), st.fractions(), st.floats(allow_nan=False), st.booleans(),
    st.sampled_from(("1/10", "-3/4", "x", "1/0", "0.5", 2.0, -0.0)),
))
@example(p=2, value=True)
@example(p=2, value=0.5)
@example(p=BIG_PRIME, value="1/0")
def test_padic_construction_matches_the_fraction_spelling(p, value):
    """Construction from every kind of value, refusals included."""
    assert_agree(PadicRational, FractionPadic, p, value)


@settings(max_examples=300)
@given(p=st.sampled_from(PADIC_PRIMES), orders=st.tuples(*[st.integers(0, 4)] * 2),
       data=st.data())
@example(p=3, orders=(0, 0), data=None)
@example(p=2, orders=(1, 1), data=None)
@example(p=BIG_PRIME, orders=(0, 2), data=None)
def test_padic_interfere_matches_the_fraction_spelling(p, orders, data):
    """The rule read from orders against the rule on the built sum, in all
    three cases; and its refusals: zero, non-integral and foreign amplitudes,
    non-unit and float eps."""
    if data is None:  # the examples: units chosen so that case C cancels
        units = [1, 1, -1]
    else:
        unit = st.one_of(
            st.integers(-(10**4), 10**4).filter(lambda u: u % p),
            st.fractions(-50, 50, max_denominator=10**3).filter(
                lambda u: u.numerator % p and u.denominator % p),
            st.sampled_from((1, -1, p - 1, p + 1)),
        )
        units = [data.draw(unit) for _ in range(3)]
    alpha1 = units[0] * p ** orders[0]
    alpha2 = units[1] * p ** orders[1]
    args = (p, alpha1, alpha2, units[2])
    assert_agree(new_interfere, fraction_interfere, *args)
    if data is None:
        return
    slot = data.draw(st.integers(1, 3))
    bad = data.draw(st.sampled_from((0, Fraction(1, p), p, 0.5, "foreign prime")))
    new, old = list(args), list(args)
    if bad == "foreign prime":
        q = 5 if p != 5 else 7
        new[slot], old[slot] = PadicRational(q, 1), FractionPadic(q, 1)
    else:
        new[slot] = old[slot] = bad
    assert seen(new_interfere, *new) == seen(fraction_interfere, *old), bad
    assert_agree(new_interfere, fraction_interfere, 4, *args[1:])  # a composite modulus


@settings(max_examples=300)
@given(operands=padic_operands(), radius=st.integers(-5, 5),
       kind=st.sampled_from(("closed", "open", "sphere")))
@example(operands=(3, 0, 0, 3, 0, Fraction(0)), radius=0, kind="sphere")  # x = center
@example(operands=(3, 0, 0, 3, 0, Fraction(0)), radius=0, kind="open")
@example(operands=(2, 1, 3, 2, 0, Fraction(0)), radius=-1, kind="closed")  # |2|_2 = 1/2
@example(operands=(2, 1, 3, 2, 0, Fraction(0)), radius=-1, kind="sphere")
@example(operands=(2, 1, 3, 2, 0, Fraction(0)), radius=-1, kind="open")
@example(operands=(BIG_PRIME, -1, BIG_PRIME - 1, BIG_PRIME, 0, Fraction(0)), radius=-1,
         kind="sphere")
@example(operands=(5, 1, 2, 3, 0, Fraction(0)), radius=0, kind="closed")  # mixed primes
def test_ball_membership_matches_the_fraction_spelling(operands, radius, kind):
    """Membership decided on orders against the Fraction powers, in all three
    kinds, for raw and p-adic members, foreign primes and floats."""
    p, x, y, q, n, f = operands
    ball = PadicBall(p, PadicRational(p, x), radius, kind)
    for new, old in ((y, y), (PadicRational(q, y), FractionPadic(q, y)), (f, f), (n, n),
                     (0.5, 0.5)):
        assert_agree(ball.contains, lambda _: fraction_contains(p, x, radius, kind, old), new)
