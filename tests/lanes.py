"""The fast lanes of interfere, each with the one validating spelling it bypasses.

A lane is a type-tested fast path in front of a validating path.  It must give
the same bits, types, signs of zero, errors and error order as the path it
skips.  Each entry of LANES names the calls a lane serves and their one
reference, the cases to draw, the examples and max_examples, the names its
refusal hook patches and the calls that must stay on the lane; typed is how
every result is observed.  test_parity.py tests each entry and each `also`
strategy, so a new lane is one entry here.  The p-adic records, the slit
columns and the CSV bodies are held to the spellings they replaced likewise.
"""

import cmath
import contextlib
import copy
import functools
import io
import math
import numbers
import operator
import pickle
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple
from unittest import mock

from hypothesis import strategies as st

from interfere import cli, context, engine, hyperbolic, padic, padic_rule, profiles
from interfere.context import (
    ContextTransform,
    _is_sign,
    total_prob_hyperbolic,
    total_prob_quantum,
)
from interfere.engine import (
    HYP,
    TRIG,
    InterferenceRecord,
    Regime,
    _at_phase,
    _require_inputs,
    classify,
    fit_record,
    phase_of,
)
from interfere.errors import (
    DegenerateContextError,
    InterfereError,
    NotAProbabilityError,
    PrimeMismatchError,
    ValidationError,
    shown,
)
from interfere.numeric import (
    TOLERANCE,
    as_probability,
    exact_sqrt,
    fmt_float,
    fmt_number,
    is_exact,
    phase_cos,
    require_probability,
    sqrt_keeping_exact,
)
from interfere.padic import PadicBall, PadicExpansion, PadicRational, _require_prime, is_prime
from interfere.padic_rule import (
    PadicAmplitudePair,
    PadicInterference,
    _squared_abs,
)
from interfere.profiles import (
    BrightnessProfile,
    profile_hyp,
    profile_piecewise,
    profile_trig,
    theta_bounds,
    write_csv,
)

H = hyperbolic.HyperbolicNumber


class Real(float):
    """A float subclass, which every float lane leaves to the validating path."""


# -- observing a result -------------------------------------------------------

class LaneLeft(AssertionError):
    """An input that must stay on its lane reached the validating path."""


def typed(value):
    """Everything a caller sees of value: each leaf with its type, a float
    with its sign, a complex or split-complex number by its parts, and a
    p-adic value by its prime, value, order, text and hash."""
    if isinstance(value, tuple):
        return tuple(typed(v) for v in value)
    if isinstance(value, list):
        return list, typed(tuple(value))
    if isinstance(value, float):
        return type(value), value, math.copysign(1, value)
    if isinstance(value, complex):
        return complex, typed(value.real), typed(value.imag)
    if isinstance(value, H):
        return type(value), typed(value.x), typed(value.y)
    if isinstance(value, (PadicRational, FractionPadic)):
        return ("padic", value.p, typed(value.value), typed(value.order), str(value),
                repr(value), hash(value), typed(value.abs()))
    if isinstance(value, PadicExpansion):
        return "expansion", value.p, value.exponent, value.digits, str(value)
    if isinstance(value, PadicInterference):
        return typed(tuple(getattr(value, name) for name in PadicInterference._fields))
    return type(value), value


def outcome(func, *args, **kwargs):
    """("value", typed(result)) of func, or the type and message of what it
    raises; LaneLeft, a refusal hook firing, goes through."""
    try:
        return "value", typed(func(*args, **kwargs))
    except LaneLeft:
        raise
    except Exception as exc:
        return "raises", type(exc), str(exc)


def floats(*values):
    return all(type(v) is float for v in values)


class Lane(NamedTuple):
    name: str  # named by the refusal hook and in every failure
    test: str  # the test test_parity.py makes of it
    fast: tuple  # calls of a case, each served by the lane
    reference: tuple  # the same calls through the validating spellings
    cases: object  # a strategy of cases, or None for the examples alone
    examples: tuple = ()
    max_examples: int = 100
    where: str = None  # module.function holding its '# Fast accept'; None: no lane
    hooks: tuple = ()  # module.name each refused while a call stays on the lane
    stays: Callable = None  # (outcome of a fast call, **case) -> whether it must stay
    errors: type = Exception  # what a call may raise
    also: tuple = ()  # (test, cases, max_examples) of each further test of the lane


def cases(**strategies):
    return st.fixed_dictionaries(strategies)


# -- the shared edge values -----------------------------------------------------

ONE_DOWN, ONE_UP = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
# signed zeros, values in [0, 1] and an ulp either side of 1, values just out
# of it, tiny floats (the least subnormal, one whose square is subnormal),
# NaN and infinities, quarter turns, phases where cosh overflows, the largest
# floats, a float subclass, bools, ints, Fractions and float and complex signs
EDGES = (0.0, -0.0, 0.25, 0.5, ONE_DOWN, 1.0, ONE_UP, 1 + 1e-12, -1e-12, 1.5, -0.5, 1e-300,
         5e-324, 1e-160, math.nan, math.inf, -math.inf, math.pi / 2, math.pi, 3 * math.pi / 2,
         709.0, 710.5, -710.5, 711.0, -711.0, 1e6, 1.7e308, Real(0.5), True, False, 0, 1, -1, 2,
         Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1), -1.0, 1 + 0j)


def edges(fits=lambda v: True):
    return st.sampled_from([v for v in EDGES if fits(v)])


FLOAT_EDGES = edges(lambda v: type(v) is float)

# -- the rule and its amplitudes --------------------------------------------------

def combined(p1, p2, lam):
    """engine.combine as it was spelled: the cross term exact at lam = 0, +/-1."""
    weight = 2 * sqrt_keeping_exact(p1 * p2)
    cross = 0 if lam == 0 else weight if lam == 1 else -weight if lam == -1 else weight * lam
    return p1 + p2 + cross


def rule(algebra, p1, p2, theta, sign):
    """engine._interfere without its fast accept."""
    _require_inputs(p1, p2, sign)
    lam = sign * _at_phase(algebra, algebra.cross, theta)
    return as_probability(combined(p1, p2, lam), what=algebra.what)


def both(trig, hyp):
    """trig(p1, p2, theta) and hyp(p1, p2, theta, sign), as calls of a case."""
    return (lambda p1, p2, theta, sign: trig(p1, p2, theta)), hyp


def plain(p1, p2, theta, sign):
    """The inputs every float lane of the rule accepts by type and range."""
    return (floats(p1, p2, theta) and type(sign) is int and 0.0 <= p1 <= 1.0
            and 0.0 <= p2 <= 1.0 and sign in (1, -1) and math.isfinite(theta))


UNITS = {"trig": lambda theta: cmath.exp(1j * theta), "hyp": hyperbolic.exp}


def validating_amplitudes(algebra, p1, p2, theta, sign, name="theta"):
    """engine._amplitudes as it was spelled, each amplitude built in two
    steps: the lift of sqrt(p1), and u(theta) times sign*sqrt(p2)."""
    _require_inputs(p1, p2, sign)
    unit = _at_phase(algebra, UNITS[algebra.name], theta, name)
    lift = complex if algebra is TRIG else H
    return lift(math.sqrt(p1)), unit * (sign * math.sqrt(p2))


def validating(func):
    """func with engine's and context's _amplitudes spelled as validating_amplitudes."""
    def run(*args):
        with mock.patch.object(engine, "_amplitudes", validating_amplitudes), \
                mock.patch.object(context, "_amplitudes", validating_amplitudes):
            return func(*args)
    return run


RULES = both(engine.interfere_trig, engine.interfere_hyp)
SPELLED_RULES = both(lambda *a: rule(TRIG, *a, 1), functools.partial(rule, HYP))
AMPLITUDES = both(engine.amplitudes_trig, engine.amplitudes_hyp)
SPELLED_AMPLITUDES = both(lambda *a: validating_amplitudes(TRIG, *a, 1),
                          functools.partial(validating_amplitudes, HYP))


def sqrt_transforms(fast):
    """The square-root transform, in trig and in hyp mode, of a transform that
    holds the case's pair."""
    build = context.sqrt_linear_transform if fast else validating(context.sqrt_linear_transform)

    def transform(mode):
        def run(p1, p2, theta, sign):
            t = ContextTransform((0.5, 0.5), ((p1, 1 - p1), (p2, 1 - p2)), (theta, 0.5),
                                 (sign, 1), "hyp")
            return build(t._replace(mode=mode))
        return run
    return transform("trig"), transform("hyp")


PROBS = st.one_of(
    st.floats(0, 1),
    st.fractions(0, 1, max_denominator=64),
    st.integers(-1, 2),
    st.booleans(),
    st.floats(0, 1).map(Real),
    edges(),
)
PHASES = st.one_of(
    st.floats(-8, 8),
    st.integers(-3, 3),
    st.fractions(-4, 4, max_denominator=8),
    st.booleans(),
    st.floats(-8, 8).map(Real),
    edges(),
)
SIGNS = st.one_of(st.sampled_from((1, -1)), edges())


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


# -- profiles and their windows ---------------------------------------------------

def validating_sweep(algebra, p1, p2, sign, phases):
    """engine._sweep without its float lane."""
    return tuple(as_probability(combined(p1, p2, sign * algebra.cross(r)), what=algebra.what)
                 for r in phases)


def hyp_window_points(p1, p2, sign, grid):
    """profile_hyp's kept grid as it was spelled, the slack added per point."""
    theta_max, theta_min = theta_bounds(p1, p2)
    hi = theta_max if sign == 1 else theta_min
    return tuple(r for r in grid if 0 <= r <= hi + TOLERANCE)


def piecewise_points(partition, grid):
    """profile_piecewise's grid as it was spelled, the slack added per point."""
    out, taken = [], set()
    for lo, hi, _ in partition:
        lo, hi = float(lo), float(hi)
        mine = [i for i, r in enumerate(grid) if lo - TOLERANCE <= r <= hi + TOLERANCE]
        out += [grid[i] for i in mine if i not in taken]
        taken.update(mine)
    return tuple(out)


def profile_calls(fast):
    """profile_trig, profile_hyp and profile_piecewise on grids run to the end
    of each branch's window and past it, as calls of a case; on the 2*pi grid
    the partition's intervals lie in their branches' windows.  The reference
    sweeps without the float lane and keeps what the per-point filters kept."""
    def profile(end, kind):
        def run(pair, sign, extra, n, stretch):
            p1, p2 = pair
            try:
                theta_max, theta_min = theta_bounds(p1, p2)
            except InterfereError:
                theta_max = theta_min = None
            hi = (theta_max, theta_min, 2 * math.pi)[end] or 1.0
            grid = tuple(hi * stretch * i / max(n - 1, 1) for i in range(n)) + tuple(extra)
            partition = [(0.0, hi / 3, -1), (hi / 2, hi, sign)]
            if end == 2 and theta_min is not None:  # [pi, 2*pi] would leave every window
                top = (theta_max if sign == 1 else theta_min) or 1.0
                partition = [(0.0, theta_min / 3, -1), (top / 2, top, sign)]
            func, args, spelled = {
                "trig": (profile_trig, (p1, p2, grid), None),
                "hyp": (profile_hyp, (p1, p2, sign, grid), lambda: hyp_window_points(*args)),
                "piecewise": (profile_piecewise, (p1, p2, partition, grid),
                              lambda: piecewise_points(partition, grid)),
            }[kind]
            if fast:
                built = func(*args)
            else:
                with mock.patch.object(profiles, "_sweep", validating_sweep):
                    built = func(*args)
            grid = spelled() if spelled and not fast else built.grid
            return grid, built.values, built.warnings, built.theta_max, built.theta_min
        return run
    return tuple(profile(end, kind) for end in range(3) for kind in ("trig", "hyp", "piecewise"))


def sweep_stays(seen, pair, sign, **_):
    """Float probabilities, an int sign, and a profile refused before its
    sweep or with every value inside (0, 1), which no snap gives."""
    return floats(*pair) and type(sign) is int and (
        seen[1] is profiles.ProfileError if seen[0] == "raises"
        else all(0.0 < v[1] < 1.0 for v in seen[1][1]))


THETA_MIN_EDGE = theta_bounds(1 / 16, 1 / 64)[1]  # ln 2
# with sign -1, each at an edge of profile_hyp's window [0, theta_min] or of
# the partition [0, theta_min/3], [theta_min/2, theta_min]
WINDOW_EDGES = [
    THETA_MIN_EDGE + TOLERANCE,  # the window's end with its slack: kept
    math.nextafter(THETA_MIN_EDGE + TOLERANCE, math.inf),  # an ulp past it: dropped
    THETA_MIN_EDGE / 2 - TOLERANCE,  # the second interval's start less its slack: kept
    math.nextafter(THETA_MIN_EDGE / 2 - TOLERANCE, -math.inf),  # an ulp below it: dropped
    -TOLERANCE,  # kept by the partition, dropped by profile_hyp
]
GRID_POINTS = st.one_of(st.floats(0, 8), st.just(1e-9), st.integers(0, 3),
                        st.fractions(0, 4, max_denominator=8), edges())

# interval ends inside both windows of (1/16, 1/64), whose theta_min is ln 2
CUT, TOP = 0.5, 0.6
PIECES = [(0, CUT, -1), (CUT, TOP, 1)]  # two intervals sharing the end CUT
PIECE_ENDS = (0.0, TOLERANCE, 0.25, CUT, CUT + TOLERANCE, TOP)


@st.composite
def partitions(draw):
    """Valid partitions: sorted ends paired off, so that intervals share ends or
    shrink to a point, then given in any order."""
    ends = sorted(draw(st.lists(st.sampled_from(PIECE_ENDS), min_size=2, max_size=6)))
    pieces = [(lo, hi, draw(st.sampled_from((1, -1)))) for lo, hi in zip(ends[::2], ends[1::2])]
    return draw(st.permutations(pieces))


PIECE_POINTS = st.one_of(
    st.sampled_from(PIECE_ENDS + (CUT - TOLERANCE / 2, CUT + TOLERANCE / 2, -TOLERANCE,
                                  TOP + 2 * TOLERANCE, -0.0, math.nan)),
    st.floats(-0.1, 0.7), st.sampled_from((0, 1, Fraction(1, 2), Fraction(3, 5))),
)


def spelled_piecewise(partition, grid):
    """piecewise_points' grid, or profile_piecewise's error for an empty one."""
    kept = piecewise_points(partition, grid)
    if not kept:
        raise profiles.ProfileError("no grid points fall inside the partition")
    return kept


# -- the total-probability transform --------------------------------------------

class ValidatingTransform(ContextTransform):
    """ContextTransform with every field made a tuple and every range tested
    by a loop, as before fields already held as tuples were kept."""

    __slots__ = ()

    def __post_init__(self, prior, cond, phases, signs, mode):
        self.prior, self.cond = tuple(prior), tuple(tuple(row) for row in cond)
        self.phases, self.signs, self.mode = tuple(phases), tuple(signs), mode
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
        if len(self.signs) != 2:
            raise ValidationError(f"signs must have 2 entries, got {len(self.signs)}")
        for j, sign in enumerate(self.signs):
            if not _is_sign(sign):
                raise ValidationError(f"signs[{j}] must be +1 or -1, got {shown(sign)}")
        for j, theta in enumerate(self.phases):
            if not isinstance(theta, numbers.Real):
                raise ValidationError(f"phases[{j}] must be a real number, got {shown(theta)}")
            if isinstance(theta, float) and not math.isfinite(theta):
                raise ValidationError(f"phases[{j}] must be finite, got {theta!r}")


def shaped(prior, rows, phases, signs, mode, shape):
    """The transform's arguments as tuples, as lists, or with lists for rows."""
    cond = rows if shape == "tuples" else tuple(list(row) for row in rows)
    if shape == "lists":
        prior, cond, phases, signs = list(prior), list(cond), list(phases), list(signs)
    return prior, cond, phases, signs, mode


def transform_calls(cls):
    """The fields of cls(...), and its totals in each mode, as calls of a case."""
    def fields(**case):
        t = cls(*shaped(**case))
        return t.prior, t.cond, t.phases, t.signs, t.mode
    return (fields, lambda **case: context.total_prob_classical(cls(*shaped(**case))),
            lambda **case: total_prob_quantum(cls(*shaped(**case))._replace(mode="trig")),
            lambda **case: total_prob_hyperbolic(cls(*shaped(**case))._replace(mode="hyp")))


def transform_stays(seen, prior, rows, phases, signs, mode, shape):
    return (seen[0] == "value" and shape == "tuples"
            and floats(*prior, *rows[0], *rows[1], *phases) and {*map(type, signs)} == {int})


PAIRS = st.one_of(
    PROBS.map(lambda p: (p, 1 - p) if isinstance(p, (int, float, Fraction)) else (p, p)),
    st.tuples(PROBS, PROBS),
)
# how far a pair's sum is put off 1: within TOLERANCE, or past it
SUM_OFFSETS = st.sampled_from((0.0, 0.0, 0.0, 5e-11, -5e-11, 2e-10, -2e-10))


@st.composite
def lane_pairs(draw):
    """(x, 1 - x) put off by one of SUM_OFFSETS, or two free entries."""
    x = draw(PROBS)
    if draw(st.booleans()) or isinstance(x, (bool, complex)) or not 0 <= x <= 1:
        return x, draw(PROBS)
    return x, 1 - x + draw(SUM_OFFSETS)


# -- the totals are the pair rule ---------------------------------------------

def transform(pb1, r0, r1, phases, signs):
    return ContextTransform((pb1, 1 - pb1), ((r0, 1 - r0), (r1, 1 - r1)), phases, signs, "hyp")


def pair_totals(algebra, t):
    """total_prob_* spelled as the rule on each outcome's pair (pb1*p1j,
    pb2*p2j), with its errors named as the totals name them."""
    what = "perturbed total probability" if algebra is TRIG else "hyperbolic total probability"
    out = []
    for j in (0, 1):
        p1, p2 = t.prior[0] * t.cond[0][j], t.prior[1] * t.cond[1][j]
        sign = t.signs[j] if algebra is HYP else 1
        try:
            out.append(rule(algebra, p1, p2, t.phases[j], sign))
        except NotAProbabilityError as exc:
            raise NotAProbabilityError(exc.value, what=what, component=j + 1) from None
        except ValidationError as exc:
            raise ValidationError(f"phases[{j}]" + str(exc).removeprefix("theta")) from None
    return tuple(out)


def totals_calls(fast):
    """Both totals and the raw components; the reference spells each
    component as the rule, or as combined, on its pair."""
    def quantum(**case):
        t = transform(**case)._replace(mode="trig")
        return total_prob_quantum(t) if fast else pair_totals(TRIG, t)

    def hyp(**case):
        t = transform(**case)
        return total_prob_hyperbolic(t) if fast else pair_totals(HYP, t)

    def raw(**case):
        t = transform(**case)._replace(mode="trig")
        return context.raw_quantum_components(t) if fast else tuple(
            combined(t.prior[0] * t.cond[0][j], t.prior[1] * t.cond[1][j], phase_cos(t.phases[j]))
            for j in (0, 1))
    return quantum, hyp, raw


PAIR_PROBS = st.one_of(st.floats(0, 1), st.fractions(0, 1, max_denominator=64),
                       edges(lambda v: type(v) is float and 0 <= v <= 1))
PAIR_PHASES = st.one_of(st.floats(0, 2 * math.pi), st.floats(0, 3),
                        st.fractions(0, 4, max_denominator=8), FLOAT_EDGES)
PAIR_SIGNS = st.sampled_from((1, -1, 1.0, -1.0, True, Fraction(1), Fraction(-1)))


# -- theta_bounds -------------------------------------------------------------

def validating_theta_bounds(pair):
    """profiles.theta_bounds as spelled before its float lane."""
    p1, p2 = pair
    require_probability(p1, "p1")
    require_probability(p2, "p2")
    weight = spelled_weight(p1, p2, "hyperbolic validity window")
    q_plus = (1 - p1 - p2) / weight
    q_minus = (p1 + p2) / weight
    try:
        if q_plus >= 1:
            theta_max = math.acosh(q_plus)
        elif q_plus >= 1 - TOLERANCE:
            theta_max = 0.0
        else:
            theta_max = None
        theta_min = math.acosh(q_minus) if q_minus > 1 else 0.0
    except OverflowError:
        top = "1 - p1 - p2" if q_plus > sys.float_info.max else "p1 + p2"
        raise ValidationError(
            f"theta bounds: ({top}) / (2*sqrt(p1*p2)) exceeds the float range (~1.8e308), "
            "so its arccosh cannot be computed"
        ) from None
    return theta_max, theta_min


FLOAT_FIT_PROBS = st.one_of(PROBS, st.floats(0, 1e-150))  # p1*p2 underflows for two of these


@st.composite
def bound_pairs(draw):
    """(p1, p2) drawn freely, equal, or with sqrt(p1) + sqrt(p2) near 1, where
    q_plus lies within TOLERANCE of 1 on either side."""
    kind = draw(st.sampled_from(("free", "equal", "near the plus window")))
    if kind == "free":
        return draw(FLOAT_FIT_PROBS), draw(FLOAT_FIT_PROBS)
    if kind == "equal":
        p = draw(FLOAT_FIT_PROBS)
        return p, p
    r = draw(st.floats(0.05, 0.95))
    return r * r, (1 - r + draw(st.floats(-1e-10, 1e-10))) ** 2


# -- the fit ------------------------------------------------------------------

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


def spelled_weight(p1, p2, what):
    """engine.nonzero_weight as it was spelled on Fractions."""
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
    return weight


def fraction_lambda(p1, p2, p):
    """engine.lambda_of as it was spelled on Fractions."""
    require_probability(p1, "p1")
    require_probability(p2, "p2")
    require_probability(p, "p")
    return (p - (p1 + p2)) / spelled_weight(p1, p2, "normalized deviation")


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


def record_fields(r):
    return r.p1, r.p2, r.p, r.lam, r.regime, r.phase, r.sign


def fraction_fit(p1, p2, p):
    lam = fraction_lambda(p1, p2, p)
    return InterferenceRecord(p1, p2, p, lam, fraction_classify(lam), *fraction_phase_of(lam))


def fit_calls(fast, triple):
    """The deviation and the record of a triple, one case field or three."""
    lam, fit = (engine.lambda_of, fit_record) if fast else (fraction_lambda, fraction_fit)
    if triple:
        return (lambda triple: lam(*triple)), (lambda triple: record_fields(fit(*triple)))
    return lam, (lambda **case: record_fields(fit(**case)))


def unchecked_reconstruct(record):
    """InterferenceRecord.reconstruct as it was spelled before it called the
    checked rule: the rule on the fitted phase, only its result checked."""
    algebra = HYP if record.regime is Regime.HYPERBOLIC else TRIG
    lam = record.sign * algebra.cross(record.phase)
    return as_probability(combined(record.p1, record.p2, lam), what=algebra.what)


def fit_lane_calls(fast):
    """fit_record on a triple whose lambda_of gives lam, against a record
    carrying what classify and phase_of give lam."""
    def run(lam):
        if fast:
            with mock.patch.object(engine, "lambda_of", lambda p1, p2, p: lam):
                return record_fields(fit_record(0.25, 0.25, 0.5))
        return record_fields(InterferenceRecord(0.25, 0.25, 0.5, lam, classify(lam),
                                                *phase_of(lam)))
    return (run,)


FIT_LAMS = [
    0.5, -0.5, 0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
    math.nextafter(-1.0, 0.0), math.nextafter(-1.0, -2.0), 1e300, -1e300, 5e-324,
    math.nan, math.inf, -math.inf, Real(0.5), Real(2.0), Real(math.nan), Fraction(1, 2),
    Fraction(-3, 2), Fraction(1), 1, -1, 0, True,
]
# the edges the list lacks, and exact deviations past the float range, last,
# so that each earlier value keeps its test id
FIT_LAMS += [v for v in EDGES if (type(v), repr(v)) not in {(type(w), repr(w)) for w in FIT_LAMS}]
FIT_LAMS += [Fraction(10**400 + 1, 3), Fraction(-(10**400), 3)]

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
    edges(),
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


DEVIATIONS = st.one_of(
    st.fractions(-3, 3, max_denominator=10**6),
    st.integers(-(10**400), 10**400).map(lambda n: Fraction(n, 7)),
    st.just(Fraction(7, 7 * 10**300 + 1)),
    st.floats(-1e6, 1e6),
    st.integers(-3, 3),
    edges(),
)


# -- the p-adic records on integers -------------------------------------------

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

    def _apply(self, other, op):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return FractionPadic(self.p, op(self.value, other.value))

    __add__ = __radd__ = lambda self, other: self._apply(other, operator.add)
    __sub__ = lambda self, other: self._apply(other, operator.sub)
    __rsub__ = lambda self, other: self._apply(other, lambda a, b: b - a)
    __mul__ = __rmul__ = lambda self, other: self._apply(other, operator.mul)
    __truediv__ = lambda self, other: self._apply(other, operator.truediv)
    __rtruediv__ = lambda self, other: self._apply(other, lambda a, b: b / a)

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


def fraction_pair(p, alpha1, alpha2, epsilon):
    """PadicAmplitudePair as it was spelled, on FractionPadic values: the
    generated dataclass's checks, one field at a time."""
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
    return p, alpha1, alpha2, epsilon


def fraction_interfere(p, alpha1, alpha2, epsilon):
    """padic_interfere as it was spelled: the sum alpha1 + eps*alpha2 built
    as a Fraction value and its order read off."""
    p, alpha1, alpha2, epsilon = fraction_pair(p, alpha1, alpha2, epsilon)
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


OPERATIONS = [compile(op, op, "eval") for op in (
    "x + y", "x - y", "x * y", "x / y", "y - x", "y / x", "x + n", "n + x", "x - n", "n - x",
    "n * x", "x / n", "n / x", "x + f", "f + x", "f - x", "x * f", "f / x", "x / f", "x + True",
    "x + 0.5", "0.5 * x", "x - '1'", "-x", "x.abs()", "x.unit_part()", "x.digits(1 + abs(n) % 7)",
    "x.digits(0)", "(x == y, x != y, y == x)", "(x == x + 0, x == x.value, x.value == x)",
    "(copy.copy(x), copy.deepcopy(x))", "len({x, y, x + 0, y * 1})", "x",
    "pickle.loads(pickle.dumps(x))", "pickle.loads(pickle.dumps(x)) == x",
)]


def padic_operations(cls):
    """Each of OPERATIONS on x = cls(p, x) and y = cls(q, y), as calls of a case."""
    def operation(op):
        def run(operands):
            p, x, y, q, n, f = operands
            return eval(op, {"copy": copy, "pickle": pickle, "x": cls(p, x), "y": cls(q, y),
                             "n": n, "f": f})
        return run
    return tuple(map(operation, OPERATIONS))


def padic_rule_calls(fast):
    """The rule read from orders, with units that make case C cancel or drawn
    ones; with a bad entry in a drawn slot; and with a composite modulus."""
    def interfere(*args):
        if fast:
            return padic_rule.padic_interfere(PadicAmplitudePair(*args))
        return fraction_interfere(*args)

    def entries(p, orders, data):
        units, slot, bad = ((1, 1, -1), None, None) if data is None else data
        args = (p, units[0] * p ** orders[0], units[1] * p ** orders[1], units[2])
        if bad == "foreign prime":
            bad = (PadicRational if fast else FractionPadic)(5 if p != 5 else 7, 1)
        return args, slot, bad

    def good(**case):
        return interfere(*entries(**case)[0])

    def with_bad(**case):
        args, slot, bad = entries(**case)
        return slot and interfere(*args[:slot], bad, *args[slot + 1:])

    def composite(**case):
        args, slot, _ = entries(**case)
        return slot and interfere(4, *args[1:])
    return good, with_bad, composite


@st.composite
def padic_rule_cases(draw):
    """(p, orders, data): data the units, and a slot and the bad entry for it."""
    p = draw(st.sampled_from(PADIC_PRIMES))
    unit = st.one_of(
        st.integers(-(10**4), 10**4).filter(lambda u: u % p),
        st.fractions(-50, 50, max_denominator=10**3).filter(
            lambda u: u.numerator % p and u.denominator % p),
        st.sampled_from((1, -1, p - 1, p + 1)),
    )
    bad = st.sampled_from((0, Fraction(1, p), p, 0.5, "foreign prime"))
    return dict(p=p, orders=draw(st.tuples(*[st.integers(0, 4)] * 2)),
                data=(tuple(draw(unit) for _ in range(3)), draw(st.integers(1, 3)), draw(bad)))


def ball_calls(fast):
    """A ball's membership of raw and p-adic members, foreign primes and
    floats, as calls of a case."""
    def member(i):
        def run(operands, radius, kind):
            p, x, y, q, n, f = operands
            new, old = ((y, y), (PadicRational(q, y), FractionPadic(q, y)), (f, f), (n, n),
                        (0.5, 0.5))[i]
            if fast:
                return PadicBall(p, PadicRational(p, x), radius, kind).contains(new)
            return fraction_contains(p, x, radius, kind, old)
        return run
    return tuple(map(member, range(5)))


def power_calls(fast):
    """|x|_p, a ball's radius and |x|_p**2 read from the shared powers, or
    Fraction(p) ** k written out, on either side of 0 and far past the kept range."""
    def run(p, k, unit):
        k = max(-3000, min(k, 3000))  # st.integers() draws without bound
        if not fast:
            return (Fraction(p) ** -k, Fraction(p) ** k, Fraction(p) ** (-2 * abs(k)),
                    Fraction(0), Fraction(0))
        return (PadicRational(p, Fraction(p) ** k * unit).abs(), PadicBall(p, 0, k).radius,
                _squared_abs(p, abs(k)), PadicRational(p, 0).abs(), _squared_abs(p, math.inf))
    return (run,)


def pair_calls(fast):
    """The pair's fields, built from positional and from keyword entries."""
    def build(*args, **names):
        if fast:
            pair = PadicAmplitudePair(*args, **names)
            return tuple(getattr(pair, name) for name in ("p", "alpha1", "alpha2", "epsilon"))
        names |= dict(zip(("p", "alpha1", "alpha2", "epsilon"), args))
        return fraction_pair(**{k: FractionPadic(v.p, v.value) if isinstance(v, PadicRational)
                                else v for k, v in names.items()})

    def positional(p, entries):
        return build(p, *entries)

    def keywords(p, entries):
        return build(p=p, **dict(zip(("alpha1", "alpha2", "epsilon"), entries)))
    return positional, keywords


PAIR_MODULI = (3, 4, 1, 3.0, True, padic._PSI_13, "3")
PAIR_ENTRIES = (
    1, 2, -9, Fraction(2, 5), PadicRational(3, 7),  # good for p = 3
    0, 0.5, Fraction(1, 3), Fraction(5, 9), 3, PadicRational(5, 2), "x",
)


# -- the slit table and the CSV bodies ----------------------------------------

def sample_slit_profile(p, l, eps_max):
    """padic_slit_profile as it was spelled: one SlitSample per point, built
    in the loop, and one Fraction per distinct v."""
    _require_prime(p)
    if l < 0:
        raise ValidationError(f"l must be >= 0, got {l}")
    if isinstance(l, float) or getattr(l, "denominator", 1) != 1:
        raise ValidationError(f"l must be an integer, got {l!r}")
    if eps_max < 1:
        raise ValidationError(f"eps_max must be >= 1, got {eps_max}")
    if not isinstance(eps_max, int):
        raise ValidationError(f"eps_max must be an integer, got {eps_max!r}")
    brightness = {}
    samples = []
    for eps in range(1, eps_max + 1):
        if eps % p == 0:
            continue
        v = padic.prime_multiplicity(p, 1 + eps) if (1 + eps) % p == 0 else 0
        probability = brightness.get(v)
        if probability is None:
            probability = brightness[v] = _squared_abs(p, l + v)
        samples.append(padic_rule.SlitSample(eps, v, probability))
    return samples


def sample_profile_padic(p, l, eps_max):
    """profile_padic as it was spelled: the samples copied into two tuples."""
    samples = sample_slit_profile(p, l, eps_max)
    return BrightnessProfile(
        kind="padic",
        grid=tuple(1 + s.epsilon for s in samples),
        values=tuple(s.probability for s in samples),
        metadata={"p": p, "l": l, "A": _squared_abs(p, l)},
    )


def row_by_row_csv(profile, stream):
    """write_csv as it was spelled: on the exact path one cell lookup, one
    f-string and one write per row; on the float path one % per row, joined."""
    meta = dict(profile.metadata)
    if profile.theta_max is not None:
        meta["theta_max"] = profile.theta_max
    if profile.theta_min is not None:
        meta["theta_min"] = profile.theta_min
    for i, warning in enumerate(profile.warnings, 1):
        meta[f"warning{i}"] = warning
    profiles._write_header(stream, profile.kind, meta, "r,P_float,P_exact,kind")
    if {*map(type, profile.grid), *map(type, profile.values)} <= {float}:
        row = "%.12g,%.12g,," + profile.kind.replace("%", "%%") + "\n"
        stream.write("".join(map(row.__mod__, zip(profile.grid, profile.values))))
        return
    cells = {}
    for r, value in zip(profile.grid, profile.values):
        if isinstance(value, float):
            text = f"{fmt_float(value)},"
        else:
            text = cells.get(id(value))
            if text is None:
                exact = fmt_number(value) if is_exact(value) else ""
                text = cells[id(value)] = f"{fmt_float(value)},{exact}"
        stream.write(f"{fmt_number(r)},{text},{profile.kind}\n")


def csv_text(write, profile):
    """The text write(profile, stream) gives."""
    stream = io.StringIO()
    write(profile, stream)
    return stream.getvalue()


def table_run(p, l, eps_max):
    """`padic --p P --l L --table --eps-max N`: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["padic", "--p", str(p), "--l", str(l), "--table", "--eps-max", str(eps_max)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def sample_table_run(p, l, eps_max):
    """table_run for `padic --table` as it was spelled, one f-string per
    SlitSample, with cli.main's exit codes."""
    buffer = io.StringIO()
    try:
        cli._require_printable_head(p, l)
        rows = [f"{s.epsilon},{s.multiplicity},{fmt_number(s.probability)},"
                f"{fmt_float(s.probability)}\n" for s in sample_slit_profile(p, l, eps_max)]
        meta = {"A": _squared_abs(p, l), "l": l, "p": p}
        profiles._write_header(buffer, "padic-slit-table", meta,
                               "epsilon,v_p_of_1_plus_epsilon,P_exact,P_float")
    except InterfereError as exc:
        return 3, "", f"error: {exc}\n"
    buffer.writelines(rows)
    return 0, buffer.getvalue(), ""


def slit_samples(samples):
    """Each sample with its type, and which samples share a Fraction."""
    shared = {}
    return [(type(s), s.epsilon, s.multiplicity, s.probability,
             shared.setdefault(id(s.probability), len(shared))) for s in samples]


def profile_fields(profile):
    """A profile's fields, and how many distinct value objects it holds."""
    return (profile.kind, profile.grid, profile.values, sorted(profile.metadata.items()),
            profile.theta_max, profile.theta_min, profile.warnings,
            len({id(v) for v in profile.values}))


def slit_calls(fast):
    """The slit table, the p-adic profile and its CSV, and `padic --table`."""
    table, profile, run = (
        (padic_rule.padic_slit_profile, profiles.profile_padic, table_run) if fast else
        (sample_slit_profile, sample_profile_padic, sample_table_run))
    write = write_csv if fast else row_by_row_csv

    def slit(args):
        return slit_samples(table(*args))

    def padic_profile(args):
        built = profile(*args)
        return profile_fields(built), csv_text(write, built)

    def command(args):
        # cli.main takes text: a float --eps-max would be refused by argparse
        return run(*args) if all(type(a) is int for a in args) else None
    return slit, padic_profile, command


PSI_12 = 399165290221 * 798330580441  # composite, and strong to bases below 41
PSI_13 = 3317044064679887385961981  # past the bound where primality is proven


@st.composite
def slit_args(draw):
    """(p, l, eps_max) with eps_max up to 3*p**3, capped for a large p, so
    that v runs to 3 or 4; and now and then a modulus, l or eps_max refused."""
    p = draw(st.sampled_from(PADIC_PRIMES + (4, PSI_12, PSI_13)))
    return p, draw(st.integers(-1, 3)), draw(st.integers(0, min(3 * p**3, 1200)))


EXACT_PAIRS = [
    (Fraction(1, 16), Fraction(1, 16)),
    (Fraction(1, 4), Fraction(1, 16)),
    (Fraction(9, 100), Fraction(4, 25)),
    (Fraction(1, 3), Fraction(1, 7)),
    (Fraction(2, 9), Fraction(0)),
    (0, 1),
]


def csv_of(build, write):
    """The text write gives for the profile build makes of a case."""
    return (lambda **case: csv_text(write, build(**case)),)


def exact_profile(pair, kind, n, extra):
    """An exact profile, whose values mix Fractions and floats and whose grid
    may hold ints and Fractions."""
    p1, p2 = pair
    theta_max, theta_min = theta_bounds(p1, p2)
    sign = -1 if kind == "hyp -" or theta_max is None else 1
    hi = 2 * math.pi if kind == "trig" else (theta_max if sign == 1 else theta_min) or 1.0
    grid = profiles.uniform_grid(0.0, hi, n) + tuple(extra)
    if kind == "trig":
        return profile_trig(p1, p2, grid)
    if kind == "piecewise":
        return profile_piecewise(p1, p2, [(0.0, hi, sign)], grid)
    return profile_hyp(p1, p2, sign, grid)


def float_profile(kind, grid, values):
    """An all-float profile, whose CSV body is one format call."""
    return BrightnessProfile(kind, tuple(grid), tuple(values), {"p1": 0.25}, 1.5, 0.5, ("w",))


CSV_FLOATS = st.one_of(st.floats(), FLOAT_EDGES)


def like(case, **changes):
    return {**case, **changes}


HALVES = dict(prior=(0.5, 0.5), rows=((0.5, 0.5), (0.5, 0.5)), phases=(0.0, 1.0), signs=(1, -1),
              mode="hyp", shape="tuples")
ROWS = like(HALVES, rows=((0.3, 0.7), (0.25, 0.75)))
PAIR = dict(pb1=0.5, r0=0.5, r1=0.5, phases=(0.0, 0.0), signs=(1, 1))


# -- the table ------------------------------------------------------------------

LANES = (
    Lane("lambda_of exact", "test_exact_fit_matches_the_fraction_spelling",
         fit_calls(True, triple=True), fit_calls(False, triple=True),
         cases(triple=exact_triples()), examples=(
            dict(triple=(Fraction(2, 3), Fraction(3, 8), Fraction(1, 2))),  # p1*p2 = 1/4
            dict(triple=(1, 1, 1)),
            dict(triple=(0, 1, 1)),
            dict(triple=(1, 0, 0)),
            dict(triple=(Fraction(1, 4), Fraction(1, 9), 0)),  # p = 0
            dict(triple=(True, Fraction(1, 4), 1)),
            dict(triple=(Fraction(1, 4), Fraction(1, 4), False)),
            dict(triple=(0.25, Fraction(1, 4), Fraction(1, 2))),
            dict(triple=(Fraction(1, 4), Fraction(1, 9), 0.5)),
            dict(triple=(TINY, 2 * TINY, Fraction(1, 2))),  # the weight underflows
            dict(triple=(TINY, TINY, Fraction(1, 2))),  # a square: the weight is exact
            dict(triple=(Fraction(2, 10**4000), Fraction(2, 10**4000), 1)),  # |lam| past the floats
            dict(triple=(Fraction(1, 16), Fraction(9, 16), 1)),  # lam = 1
            dict(triple=(Fraction(1, 16), Fraction(9, 16), Fraction(1, 4))),  # lam = -1
            dict(triple=(Fraction(1, 3), Fraction(1, 3), Fraction(0))),  # lam = -1, no square
            dict(triple=(Fraction(-1, 3), Fraction(1, 4), Fraction(1, 2))),
            dict(triple=(Fraction(1, 4), Fraction(4, 3), Fraction(1, 2))),
            dict(triple=(Fraction(1, 4), Fraction(1, 4), Fraction(5, 4))),
            dict(triple=(Fraction(1, 4), Fraction(1, 4), -1)),
         ), max_examples=400, where="engine.lambda_of", hooks=("engine.require_probability",),
         stays=lambda seen, triple: seen[0] == "value" and {*map(type, triple)} <= {int, Fraction}),
    Lane("lambda_of float", "test_float_fit_matches_the_validating_spelling",
         fit_calls(True, triple=False), fit_calls(False, triple=False),
         cases(p1=FLOAT_FIT_PROBS, p2=FLOAT_FIT_PROBS, p=FLOAT_FIT_PROBS), examples=(
            dict(p1=math.nan, p2=0.25, p=0.5),
            dict(p1=0.25, p2=math.inf, p=0.5),
            dict(p1=0.25, p2=0.25, p=-math.inf),
            dict(p1=-0.0, p2=0.25, p=0.5),
            dict(p1=0.25, p2=0.25, p=-0.0),  # lam from a signed zero p
            dict(p1=0.0, p2=0.25, p=0.5),
            dict(p1=0.25, p2=0.0, p=0.5),
            dict(p1=5e-324, p2=5e-324, p=0.5),  # the weight underflows
            dict(p1=1e-200, p2=1e-200, p=0.0),
            dict(p1=5e-324, p2=1.0, p=1.0),  # the smallest weight that does not
            dict(p1=1.0, p2=0.25, p=0.0),  # each bound at its closed end
            dict(p1=0.25, p2=1.0, p=1.0),
            dict(p1=1.0, p2=1.0, p=1.0),
            dict(p1=1 + 1e-12, p2=0.25, p=0.5),
            dict(p1=0.25, p2=0.25, p=1 + 1e-12),
            dict(p1=Real(0.25), p2=0.25, p=0.5),
            dict(p1=0.25, p2=0.25, p=Real(0.5)),
            dict(p1=True, p2=0.25, p=0.5),
            dict(p1=0.25, p2=Fraction(1, 4), p=0.5),
            dict(p1=0.25, p2=0.25, p=1),
            dict(p1=0.0625, p2=0.5625, p=1.0),  # lam = 1
            dict(p1=0.25, p2=0.25, p=0.0),  # lam = -1
            dict(p1=0.015625, p2=0.03125, p=0.09106917382415923),  # lam = 1 + 1 ulp
            dict(p1=0.015625, p2=0.03125, p=0.09106917382415922),  # lam = 1 - 1 ulp
            dict(p1=0.015625, p2=0.03125, p=0.00268082617584078),  # lam = -1 + 1 ulp
            dict(p1=0.015625, p2=0.046875, p=0.008373412263472576),  # lam = -1 - 1 ulp
            dict(p1=math.inf, p2=0.0, p=0.5),  # p1*p2 is NaN
            dict(p1=0.25, p2=math.nan, p=math.nan),
            dict(p1=math.inf, p2=math.inf, p=math.inf),  # p - (p1 + p2) is NaN
            dict(p1=1e-160, p2=1e-160, p=0.5),  # a subnormal p1*p2: a huge hyperbolic lam
            dict(p1=1e-160, p2=1e-160, p=0.0),
            dict(p1=5e-324, p2=0.5, p=0.25),
            dict(p1=0.25, p2=Real(0.0625), p=1.0),
            dict(p1=Real(0.0625), p2=Real(0.5625), p=Real(1.0)),
         ), max_examples=400, where="engine.lambda_of", hooks=("engine.require_probability",),
         stays=lambda seen, **case: seen[0] == "value" and floats(*case.values())),
    Lane("_sweep", "test_fast_profiles_match_the_validating_sweep",
         profile_calls(True), profile_calls(False),
         cases(pair=st.one_of(st.tuples(PROBS, PROBS), near_endpoints().map(lambda c: c[:2])),
               sign=SIGNS, extra=st.lists(GRID_POINTS, max_size=6), n=st.integers(1, 12),
               stretch=st.sampled_from((1.0, 1 + 2**-52, 1 - 2**-52, 1.5))), examples=(
            dict(pair=(0.36, 0.16), sign=1, extra=[], n=5, stretch=1.0),  # the trig peak snaps to 1
            dict(pair=(1 / 16, 1 / 16), sign=1, extra=[], n=9, stretch=1.0),
            dict(pair=(1 / 16, 1 / 64), sign=-1, extra=WINDOW_EDGES, n=2, stretch=1.0),
            dict(pair=(1 / 16, 1 / 16), sign=1, n=1, stretch=1.0,  # Fraction and int points
                 extra=[Fraction(1, 3), Fraction(-1, 3), Fraction(0), 2, Fraction(7, 2), 0]),
            dict(pair=(Fraction(1, 16), Fraction(1, 16)), sign=1, n=3, stretch=1.0,
                 extra=[Fraction(1, 3), 0, Fraction(-1, 10**400), Fraction(5, 2)]),
            # no plus window: the partitions with a plus interval are refused
            dict(pair=(0.36, 0.36), sign=1, extra=[], n=7, stretch=1.0),
         ), max_examples=50, where="engine._sweep", hooks=("engine.as_probability",),
         stays=sweep_stays),
    Lane("_interfere", "test_fast_rules_match_the_validating_path",
         RULES, SPELLED_RULES, cases(p1=PROBS, p2=PROBS, theta=PHASES, sign=SIGNS),
         examples=(
            dict(p1=0.25, p2=0.25, theta=math.inf, sign=1),  # sin(-inf) raises
            dict(p1=0.25, p2=0.25, theta=711.0, sign=-1),  # cosh overflows
            dict(p1=1.5, p2=0.25, theta=math.pi, sign=-1),  # in range only as a result
            dict(p1=-0.0, p2=-0.0, theta=math.pi / 2, sign=1),
            dict(p1=0.25, p2=0.25, theta=math.pi, sign=1),  # a zero result
            dict(p1=0.25, p2=0.25, theta=0.0, sign=1 + 0j),  # equal to 1, and not real
            dict(p1=0.0, p2=0.25, theta=1.0, sign=1),  # lane edges: a zero weight
            dict(p1=0.25, p2=-0.0, theta=1.0, sign=-1),
            dict(p1=-0.0, p2=0.5, theta=2.0, sign=1),
            dict(p1=1.0, p2=0.0, theta=2.0, sign=1),  # exactly 1.0 with no cross term
            dict(p1=0.0, p2=1.0, theta=0.5, sign=-1),
            dict(p1=1.0, p2=-0.0, theta=3.0, sign=-1),
            dict(p1=0.36, p2=0.16, theta=0.0, sign=1),  # the trig peak (sqrt(p1) + sqrt(p2))**2 = 1
            # trig 1.0; minus branch 0.0 at theta_min = 0
            dict(p1=0.25, p2=0.25, theta=0.0, sign=-1),
            # minus branch at theta_min = ln 2
            dict(p1=1 / 16, p2=1 / 64, theta=math.log(2), sign=-1),
         ), max_examples=150, where="engine._interfere", hooks=("engine._require_inputs",),
         also=(("test_fast_rules_match_at_the_endpoints",
                near_endpoints().map(lambda c: dict(zip(("p1", "p2", "theta", "sign"), c))), 100),),
         stays=lambda seen, **case: (plain(**case) and seen[0] == "value"
                                     and 0.0 < seen[1][1] < 1.0)),
    # parity references with no lane: the amplitudes as validating_amplitudes
    # builds them, and below, the totals as the rule on each pair
    Lane("_amplitudes", "test_fast_amplitudes_match_the_validating_path",
         AMPLITUDES + sqrt_transforms(True), SPELLED_AMPLITUDES + sqrt_transforms(False),
         cases(p1=PROBS, p2=PROBS, theta=PHASES, sign=SIGNS), examples=(
            dict(p1=0.25, p2=0.5, theta=0.0, sign=1),
            dict(p1=0.25, p2=0.5, theta=-0.0, sign=-1),
            dict(p1=0.25, p2=0.5, theta=710.5, sign=1),  # cosh overflows
            dict(p1=0.25, p2=0.5, theta=-710.5, sign=-1),
            dict(p1=0.25, p2=0.5, theta=math.nan, sign=1),
            dict(p1=0.25, p2=0.5, theta=math.inf, sign=1),
            dict(p1=0.25, p2=0.5, theta=-math.inf, sign=-1),
            dict(p1=0.0, p2=1.0, theta=1.0, sign=-1),
            dict(p1=1.0, p2=0.0, theta=-1.0, sign=-1),  # k = -0.0
            dict(p1=Real(0.25), p2=Real(0.5), theta=Real(1.0), sign=1),  # a float subclass
            dict(p1=0.25, p2=0.5, theta=1.0, sign=True),
            dict(p1=0.25, p2=0.5, theta=1.0, sign=1.0),
            dict(p1=0.25, p2=0.5, theta=1.0, sign=Fraction(1)),
            dict(p1=0.25, p2=0.5, theta=1.0, sign=1 + 0j),  # equal to 1, and not real
         ), max_examples=200),
    Lane("fit_record", "test_fit_lane_gives_classify_and_phase_of",
         fit_lane_calls(True), fit_lane_calls(False), None,
         examples=tuple(dict(lam=lam) for lam in FIT_LAMS), where="engine.fit_record",
         hooks=("engine.classify", "engine.phase_of"),
         stays=lambda seen, lam: type(lam) is float and math.isfinite(lam) and abs(lam) != 1),
    Lane("ContextTransform", "test_float_transform_matches_the_validating_spelling",
         transform_calls(ContextTransform), transform_calls(ValidatingTransform),
         cases(prior=lane_pairs(), rows=st.tuples(lane_pairs(), lane_pairs()),
               phases=st.tuples(PHASES, PHASES), signs=st.tuples(SIGNS, SIGNS),
               mode=st.sampled_from(("trig", "hyp", "hyp", "x")),
               shape=st.sampled_from(("tuples", "tuples", "lists", "rows as lists"))),
         examples=(
            like(ROWS, signs=()),  # signs of every length but 2 are refused
            like(ROWS, signs=(1,), mode="trig", shape="lists"),
            like(ROWS, signs=(1, -1, 1)),
            # out of range, and still summing to 1
            like(HALVES, prior=(0.5, math.nan), rows=((0.5, 0.5), (1.0, -1e-12))),
            like(HALVES, prior=(1.0, -1e-12), rows=((0.5, 0.5), (math.nan, 0.5)),
                 shape="rows as lists"),
            like(HALVES, signs=(1 + 0j, -1)),  # equal to 1, and not real
            like(HALVES, prior=(0.5, math.nan)),
            like(HALVES, rows=((0.5, 0.5), (math.inf, 0.5))),
            like(HALVES, phases=(math.inf, 1.0)),  # a phase that is not finite
            like(HALVES, phases=(1j, 0.0)),  # a phase that is not real
            like(HALVES, phases=(0.0, -math.inf), signs=(1, 1), mode="trig"),
            like(HALVES, phases=(math.nan, 0.0), signs=(1, 1), mode="trig"),
            like(HALVES, prior=(-0.0, 1.0), phases=(-0.0, 0.0)),  # signed zeros
            like(HALVES, prior=(1.0, 0.0), rows=((0.0, 1.0), (1.0, 0.0)), phases=(1.0, 2.0),
                 signs=(-1, 1)),  # each bound at its closed end
            like(HALVES, prior=(5e-324, 1.0), rows=((5e-324, 1.0), (0.5, 0.5)), phases=(1.0, 2.0),
                 mode="trig"),  # a pair's weight underflows
            like(HALVES, prior=(Real(0.5), 0.5)),  # a float subclass
            like(HALVES, phases=(Real(0.5), 1.0)),
            like(HALVES, signs=(True, -1)),  # a bool sign
            like(HALVES, signs=(1.0, -1.0)),  # float signs
            like(HALVES, prior=(0.5, 0.5 + 2e-10)),  # sums off by more than TOLERANCE
            like(HALVES, rows=((0.3, 0.7), (0.25, 0.75 - 2e-10))),
            like(ROWS, prior=(0.5, 0.5 + 5e-11)),  # and within it
            like(ROWS, shape="lists"),
            like(ROWS, shape="rows as lists"),
            like(ROWS, prior=(Fraction(1, 2), 0.5),
                 rows=((0.3, 0.7), (0.25, Fraction(3, 4)))),  # mixed types
            like(ROWS, mode="x"),
         ), max_examples=300, where="context.ContextTransform.__post_init__",
         also=(("test_fast_transforms_match_the_validating_fields", cases(
             prior=PAIRS, rows=st.tuples(PAIRS, PAIRS), phases=st.tuples(PHASES, PHASES),
             signs=st.one_of(st.tuples(SIGNS, SIGNS), st.lists(SIGNS, max_size=3).map(tuple)),
             mode=st.sampled_from(("trig", "hyp", "x")),
             shape=st.sampled_from(("tuples", "lists", "rows as lists"))), 120),),
         hooks=("context._require_pair",), stays=transform_stays),
    Lane("_totals", "test_totals_are_the_pair_rule", totals_calls(True), totals_calls(False),
         cases(pb1=PAIR_PROBS, r0=PAIR_PROBS, r1=PAIR_PROBS,
               phases=st.tuples(PAIR_PHASES, PAIR_PHASES),
               signs=st.one_of(st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
                               st.tuples(PAIR_SIGNS, PAIR_SIGNS))), examples=(
            like(PAIR, pb1=0.09, r0=0.94, r1=0.53, phases=(1.5, 2.0)),  # the weight's grouping
            like(PAIR, pb1=0.3, r0=0.6, r1=0.2, phases=(math.pi / 2, math.pi / 2),
                 signs=(1, -1)),  # quarter
            like(PAIR, pb1=Fraction(1, 3), r0=Fraction(1, 5), r1=Fraction(1, 7),
                 phases=(0, math.pi / 2), signs=(-1, 1)),
            like(PAIR, r0=0.9, r1=0.9),  # component 1 > 1
            like(PAIR, r0=0.1, r1=0.1),  # component 2 > 1
            like(PAIR, pb1=Fraction(1, 2), r0=Fraction(1, 10), r1=Fraction(1, 10), phases=(0, 0)),
            like(PAIR, phases=(0.0, 800.0), signs=(-1, 1)),  # cosh overflows
            like(PAIR, signs=(1, -1)),  # components 1.0 and 0.0
            like(PAIR, phases=(math.pi, 0.0)),  # trig 0.0 and 1.0
            like(PAIR, r0=0.5 + 1e-13, r1=0.5 + 1e-13),  # snaps to 1
            # trig component 2 is -1.1e-16 and snaps to 0
            like(PAIR, r0=0.41733594947706254, r1=0.41733594921170003, phases=(0.0, math.pi)),
            like(PAIR, phases=(3.0, 0.0), signs=(-1, 1)),  # component 1 < 0
            like(PAIR, phases=(0.0, 3.0), signs=(1, -1)),  # component 2 < 0
            like(PAIR, phases=(710.5, 0.5), signs=(-1, -1)),  # cosh overflows at j = 0
            like(PAIR, phases=(0.5, 710.5), signs=(-1, -1)),  # and at j = 1
            like(PAIR, r0=0.9, r1=0.1, phases=(0.5, 0.25), signs=(-1.0, 1.0)),  # every sign the
            like(PAIR, r0=0.9, r1=0.1, phases=(0.5, 0.25), signs=(True, -1)),  # transform takes,
            like(PAIR, r0=0.9, r1=0.1, phases=(0.5, 0.25), signs=(Fraction(-1), Fraction(1))),
            like(PAIR, r0=0.9, r1=0.1, phases=(0.25, 0.5),
                 signs=(1.0, Fraction(-1))),  # give the int's bits
            like(PAIR, signs=(True, -1.0)),  # 1.0 and 0.0
            like(PAIR, signs=(Fraction(-1), True)),  # 0.0, 1.0
         ), max_examples=300, errors=InterfereError),
    Lane("theta_bounds", "test_theta_bounds_match_the_validating_spelling",
         (lambda pair: theta_bounds(*pair),), (validating_theta_bounds,),
         cases(pair=bound_pairs()), examples=(
            dict(pair=(0.25, 0.25)),  # q_plus = 1 exactly: theta_max = 0
            dict(pair=(0.25, 0.25 * (1 + 1e-11))),  # q_plus a hair below 1, within TOLERANCE
            dict(pair=(0.25, 0.25 * (1 + 1e-9))),  # below 1 by more than TOLERANCE: no theta_max
            dict(pair=(0.1, 0.1)),  # p1 == p2: q_minus may round a hair below 1
            dict(pair=(1.0, 0.25)),  # p1 = 1.0
            dict(pair=(1.0, 1.0)),
            dict(pair=(1e-200, 1e-200)),  # p1*p2 underflows
            dict(pair=(5e-324, 1.0)),  # the smallest weight that does not
            dict(pair=(0.0, 0.25)),
            dict(pair=(-0.0, 0.25)),
            dict(pair=(math.nan, 0.25)),
            dict(pair=(0.25, math.inf)),
            dict(pair=(1 + 1e-12, 0.25)),
            dict(pair=(Fraction(1, 4), Fraction(1, 9))),
            dict(pair=(Fraction(1, 4), Fraction(1, 4))),
            dict(pair=(Fraction(1, 10**400), Fraction(1, 10**400))),  # q past the float range
            dict(pair=(1, Fraction(1, 4))),
            dict(pair=(True, 0.25)),
            dict(pair=(0.25, False)),
            dict(pair=(Real(0.25), 0.04)),
            dict(pair=(0.25, Fraction(1, 25))),
         ), max_examples=400, where="profiles.theta_bounds",
         hooks=("profiles.require_probability",),
         stays=lambda seen, pair: seen[0] == "value" and floats(*pair)),
    Lane("reconstruct", "test_reconstruct_matches_the_unchecked_spelling",
         (lambda triple: fit_record(*triple).reconstruct(),),
         (lambda triple: unchecked_reconstruct(fit_record(*triple)),),
         cases(triple=fitted_triples()), examples=(
            dict(triple=(0.25, 0.25, 1.0)),  # boundary, lam = 1
            dict(triple=(0.25, 0.25, 0.0)),  # boundary, lam = -1, a zero result
            dict(triple=(Fraction(1, 16), Fraction(1, 16), Fraction(1, 4))),
            dict(triple=(Fraction(1, 16), Fraction(9, 16), Fraction(1, 4))),
            dict(triple=(1 / 16, 1 / 16, 1.0)),  # hyperbolic
            dict(triple=(Fraction(1, 3), Fraction(1, 7), Fraction(1, 2))),
         ), max_examples=300, errors=InterfereError),
    Lane("piecewise window", "test_piecewise_keeps_the_points_as_spelled",
         (lambda partition, grid: profile_piecewise(1 / 16, 1 / 64, partition, grid).grid,),
         (spelled_piecewise,),
         cases(partition=partitions(), grid=st.lists(PIECE_POINTS, max_size=10).map(tuple)),
         examples=(
            dict(partition=PIECES, grid=(0.0, 0.25, CUT, 0.55, TOP)),  # a shared end
            dict(partition=PIECES,  # within TOLERANCE of that end
                 grid=(CUT - TOLERANCE / 2, CUT + TOLERANCE / 2, CUT + TOLERANCE, CUT - TOLERANCE)),
            # values at two positions each
            dict(partition=PIECES, grid=(CUT, 0.25, 0.55, CUT, 0.25, Fraction(1, 2))),
            dict(partition=[(CUT, CUT, 1), (CUT, CUT, -1)],  # two degenerate intervals
                 grid=(0.0, CUT, CUT + TOLERANCE / 2, TOP, CUT)),
            dict(partition=[(CUT, TOP, 1), (0, CUT, -1)],  # in descending order
                 grid=(0.0, 0.25, CUT - TOLERANCE, CUT, 0.55, TOP)),
         ), max_examples=200),
    Lane("exact classify and phase_of", "test_exact_regime_and_phase_match_the_fraction_spelling",
         (classify, phase_of), (fraction_classify, fraction_phase_of),
         cases(lam=DEVIATIONS), examples=(
            dict(lam=Fraction(1)),
            dict(lam=Fraction(-1)),
            dict(lam=Fraction(10**400 + 1, 3)),  # past the float range
            dict(lam=Fraction(-(10**400), 3)),
         ), max_examples=300),
    Lane("exact_sqrt", "test_exact_sqrt_matches_the_fraction_spelling",
         (exact_sqrt,), (fraction_sqrt,),
         cases(value=st.one_of(EXACT_PROBS, st.fractions(max_denominator=10**9), st.integers())),
         examples=(
            dict(value=Fraction(1, 4)),
            dict(value=Fraction(6, 24)),
            dict(value=Fraction(-1, 4)),
            dict(value=-4),
            dict(value=True),
            dict(value=0),
         ), max_examples=300),
    Lane("PadicRational", "test_padic_rational_matches_the_fraction_spelling",
         padic_operations(PadicRational), padic_operations(FractionPadic),
         cases(operands=padic_operands()), examples=(
            dict(operands=(3, 0, 0, 3, 0, Fraction(0))),  # zero everywhere
            dict(operands=(3, Fraction(5, 27), Fraction(-5, 27), 3, -3,
                           Fraction(-1, 3))),  # x + y = 0
            dict(operands=(3, 1, 2, 3, 2, Fraction(2))),  # a tie of orders: |1 + 2|_3 = 1/3
            dict(operands=(2, Fraction(-3, 8), Fraction(5, 4), 2, -8, Fraction(-7, 16))),
            dict(operands=(2, 12, 4, 2, 16, Fraction(1, 2))),
            dict(operands=(BIG_PRIME, BIG_PRIME**2, Fraction(-1, BIG_PRIME), BIG_PRIME, -1,
                           Fraction(BIG_PRIME - 1, BIG_PRIME**3))),
            dict(operands=(BIG_PRIME, -7, 0, BIG_PRIME, 0, Fraction(0))),  # division by zero
            dict(operands=(5, Fraction(2, 5), 3, 3, 1, Fraction(3, 5))),  # mixed primes
            dict(operands=(7, -49, Fraction(-1, 7), 7, -7, Fraction(-49))),
         ), max_examples=300),
    Lane("PadicRational construction", "test_padic_construction_matches_the_fraction_spelling",
         (PadicRational,), (FractionPadic,),
         cases(p=st.sampled_from(PADIC_PRIMES), value=st.one_of(
             st.integers(), st.fractions(), st.floats(allow_nan=False), st.booleans(),
             st.sampled_from(("1/10", "-3/4", "x", "1/0", "0.5", 2.0, -0.0)))), examples=(
            dict(p=2, value=True),
            dict(p=2, value=0.5),
            dict(p=BIG_PRIME, value="1/0"),
         ), max_examples=100),
    Lane("padic_interfere", "test_padic_interfere_matches_the_fraction_spelling",
         padic_rule_calls(True), padic_rule_calls(False),
         padic_rule_cases(), examples=(
            dict(p=3, orders=(0, 0), data=None),
            dict(p=2, orders=(1, 1), data=None),
            dict(p=BIG_PRIME, orders=(0, 2), data=None),
         ), max_examples=300),
    Lane("PadicBall.contains", "test_ball_membership_matches_the_fraction_spelling",
         ball_calls(True), ball_calls(False),
         cases(operands=padic_operands(), radius=st.integers(-5, 5),
               kind=st.sampled_from(("closed", "open", "sphere"))), examples=(
            dict(operands=(3, 0, 0, 3, 0, Fraction(0)), radius=0, kind="sphere"),  # x = center
            dict(operands=(3, 0, 0, 3, 0, Fraction(0)), radius=0, kind="open"),
            dict(operands=(2, 1, 3, 2, 0, Fraction(0)), radius=-1, kind="closed"),  # |2|_2 = 1/2
            dict(operands=(2, 1, 3, 2, 0, Fraction(0)), radius=-1, kind="sphere"),
            dict(operands=(2, 1, 3, 2, 0, Fraction(0)), radius=-1, kind="open"),
            dict(operands=(BIG_PRIME, -1, BIG_PRIME - 1, BIG_PRIME, 0, Fraction(0)), radius=-1,
                 kind="sphere"),
            dict(operands=(5, 1, 2, 3, 0, Fraction(0)), radius=0, kind="closed"),  # mixed primes
         ), max_examples=300),
    Lane("padic powers", "test_cached_powers_match_the_fraction_power",
         power_calls(True), power_calls(False),
         cases(p=st.sampled_from(PADIC_PRIMES), k=st.one_of(st.integers(-40, 40), st.integers()),
               unit=st.sampled_from((1, -1, Fraction(11, 13), Fraction(-13, 11)))), examples=(
            dict(p=BIG_PRIME, k=0, unit=1),
            dict(p=BIG_PRIME, k=-1, unit=Fraction(11, 13)),
            dict(p=BIG_PRIME, k=2000, unit=-1),
            dict(p=2, k=-3000, unit=1),
         ), max_examples=300),
    Lane("PadicAmplitudePair", "test_pair_matches_the_fieldwise_dataclass",
         pair_calls(True), pair_calls(False),
         cases(p=st.sampled_from(PAIR_MODULI),
               entries=st.tuples(*[st.sampled_from(PAIR_ENTRIES)] * 3)), examples=(
            dict(p=4, entries=(0.5, 0, 3)),  # every input bad: the modulus is named first
            dict(p=3, entries=(Fraction(1, 3), 0.5, 3)),  # an order < 0 before a float alpha2
            dict(p=3, entries=(2, 0, Fraction(1, 3))),  # a zero alpha2 before a non-unit eps
            dict(p=3, entries=(1, 0.5, PadicRational(5, 2))),  # a float alpha2 before a foreign eps
            dict(p=3, entries=(PadicRational(5, 2), 0, 0)),  # a foreign alpha1 first
            dict(p=3, entries=(2, Fraction(2, 5), 3)),  # a non-unit eps alone
            dict(p=3, entries=(9, Fraction(2, 5), -1)),  # a good pair
         ), max_examples=400),
    Lane("slit columns", "test_slit_columns_match_the_per_sample_spelling",
         slit_calls(True), slit_calls(False), cases(args=slit_args()), examples=(
            dict(args=(5, 1, 4)),  # eps_max < p: nothing dimmed
            dict(args=(7, 0, 6)),
            dict(args=(2, 1, 40)),  # p = 2: every sample has v >= 1
            dict(args=(2, 0, 1)),
            dict(args=(3, 2, 81)),  # 1 + eps = 81 = 3**4
            dict(args=(BIG_PRIME, 3, 1200)),
            dict(args=(4, 0, 10)),  # a composite
            dict(args=(PSI_12, 0, 10)),
            dict(args=(PSI_13, 0, 10)),  # an unproven modulus
            dict(args=(3, -1, 10)),
            dict(args=(3, 0, 0)),
            dict(args=(3, -1, 0)),  # l is tested first
             dict(args=(3, 0, 2.5)),  # a float eps_max
             dict(args=(3, 0, 8.0)),
             dict(args=(3, 1.0, 10)),  # a float l, before the sieve
             dict(args=(3, 1.0, 0.5)),  # l's type before eps_max's range
         ), max_examples=150),
    Lane("exact CSV", "test_exact_csv_matches_the_row_by_row_spelling",
         csv_of(exact_profile, write_csv), csv_of(exact_profile, row_by_row_csv),
         cases(pair=st.sampled_from(EXACT_PAIRS[:4] + [(Fraction(1, 4), Fraction(1, 4))]),
               kind=st.sampled_from(("trig", "hyp +", "hyp -", "piecewise")),
               n=st.integers(1, 40), extra=st.lists(GRID_POINTS, max_size=4)), examples=(
            dict(pair=(Fraction(1, 4), Fraction(1, 4)), kind="trig", n=5, extra=[]),  # 1, floats, 0
            dict(pair=(Fraction(1, 16), Fraction(1, 16)), kind="hyp +", n=9,
                 extra=[Fraction(1, 3)]),
         ), max_examples=80),
    Lane("float CSV", "test_float_csv_matches_the_row_by_row_spelling",
         csv_of(float_profile, write_csv), csv_of(float_profile, row_by_row_csv),
         cases(kind=st.one_of(st.sampled_from(("trig", "hyp", "100%", "%s%%d")),
                              st.text(max_size=4)),
               grid=st.lists(CSV_FLOATS, max_size=20), values=st.lists(CSV_FLOATS, max_size=20)),
         examples=(
            dict(kind="trig", grid=[-0.0, 0.0], values=[-0.0, 0.0]),
            dict(kind="trig", grid=[math.nan, math.inf, -math.inf],
                 values=[-math.inf, math.nan, math.inf]),
            dict(kind="hyp", grid=[5e-324, 1.7e308], values=[1.7e308, 5e-324]),
            dict(kind="100%", grid=[0.5], values=[0.25]),
            dict(kind="%s%%d", grid=[0.5, 1.0], values=[0.25, 1.0]),
            dict(kind="trig", grid=[], values=[]),  # the head only
            dict(kind="trig", grid=[0.0, 1.0, 2.0], values=[0.5]),  # as many rows as zip makes
            dict(kind="hyp", grid=[0.0], values=[0.5, 0.25, 1.0]),
         ), max_examples=200),
)
LANE = {lane.name: lane for lane in LANES}
