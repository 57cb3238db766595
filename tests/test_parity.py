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

The symmetric two-slit table is computed once, as columns (eps, v, P), and
the exact CSV rows are joined and written once.  The per-sample loop, the
row-by-row exact CSV and the per-sample `padic --table` rows they replaced
are written out here, and the slit table, the p-adic profile, both CSVs and
the table must agree with them in value, type, sharing and bytes, or raise
the same error with the same message.  The v column is sieved by powers of
p, and it must agree with the per-point multiplicities at the edges where v
first reaches each power.

Float fits and float transforms have an accept lane too: plain floats in
range are fitted, and a transform of tuples of plain floats is accepted, by
one test.  On generated inputs (NaN, infinities, signed zeros, a zero or
underflowing weight, a float subclass, bool, float and complex signs, sums
off by more than TOLERANCE, lists and mixed float and Fraction entries) each
must agree with the validating spelling, and an input in range must not
reach require_probability or _require_pair.

The amplitude builders take the rules' float lane and build each amplitude
as one number.  The lift and the unit times sign*sqrt(p2) they were built
from are written out here, and on the same generated inputs the amplitudes
and both square-root transforms must agree with them part by part in value,
type and sign of zero, or raise the same error with the same message.

The float lanes compare and multiply with float constants, the hyperbolic
and piecewise window filters add their slack once, and an all-float CSV body
is one format call.  On the edges of each (zero, signed zero and unit
weights, results of exactly 0 and 1, grid points at a window end plus its
slack and an ulp past it, Fraction points, NaN, infinities, subnormals, a
'%' in the kind, empty and ragged columns) each must agree with the
spelling it replaced.

The fit reads a float deviation's regime and phase in one step, the totals
compute both components of a float transform at once, and theta_bounds
forms its window on floats with float constants.  On deviations at and one
ulp either side of +/-1, NaN, infinities and a float subclass, components
of exactly 0 and 1, snaps, errors in either component and overflowing
phases, and window pairs equal, at q_plus within TOLERANCE of 1,
underflowing, exact or bool, each must agree with classify and phase_of,
the per-component rule, and the validating theta_bounds written out here.
"""

import cmath
import contextlib
import copy
import io
import itertools
import math
import pickle
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interfere import cli, context, engine, hyperbolic, padic, padic_rule, profiles
from interfere.context import (
    ContextTransform,
    hyperbolic_sqrt_transform,
    raw_quantum_components,
    sqrt_linear_transform,
    total_prob_classical,
    total_prob_hyperbolic,
    total_prob_quantum,
)
from interfere.engine import (
    HYP,
    TRIG,
    Regime,
    InterferenceRecord,
    _at_phase,
    _is_sign,
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
    NotAProbabilityError,
    PrimeMismatchError,
    ProfileError,
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
from interfere.padic import (
    PadicBall,
    PadicExpansion,
    PadicRational,
    _require_prime,
    is_prime,
    prime_multiplicity,
)
from interfere.padic_rule import (
    PadicAmplitudePair,
    PadicInterference,
    SlitSample,
    _slit_columns,
    _squared_abs,
    padic_interfere,
    padic_slit_profile,
)
from interfere.profiles import (
    BrightnessProfile,
    profile_hyp,
    profile_padic,
    profile_piecewise,
    profile_trig,
    theta_bounds,
    uniform_grid,
    write_csv,
)

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
    """The weight of outcome j's pair, grouped as the pair rule groups it."""
    return 2 * sqrt_keeping_exact((t.prior[0] * t.cond[0][j]) * (t.prior[1] * t.cond[1][j]))


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


def validating_sweep(algebra, p1, p2, sign, phases):
    """engine._sweep without its float lane."""
    base, weight = p1 + p2, 2 * sqrt_keeping_exact(p1 * p2)
    cross, what = algebra.cross, algebra.what
    return tuple(as_probability(_rule(base, weight, sign * cross(r)), what=what) for r in phases)


def hyp_window_points(p1, p2, sign, grid):
    """profile_hyp's kept grid as it was spelled, the slack added per point,
    where profile_hyp finds the sign branch's window."""
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


def assert_windows_as_spelled(p1, p2, sign, partition, grid):
    """The grids profile_hyp and profile_piecewise keep, in value, type and
    order, against the filters they replaced, wherever the profile is built."""
    for build, spelled in (
        (lambda: profile_hyp(p1, p2, sign, grid), lambda: hyp_window_points(p1, p2, sign, grid)),
        (lambda: profile_piecewise(p1, p2, partition, grid),
         lambda: piecewise_points(partition, grid)),
    ):
        try:
            kept = build().grid
        except InterfereError:
            continue
        assert typed(kept) == typed(spelled()), (p1, p2, sign, partition, grid)


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
@example(p1=0.0, p2=0.25, theta=1.0, sign=1)  # lane edges: a zero weight
@example(p1=0.25, p2=-0.0, theta=1.0, sign=-1)
@example(p1=-0.0, p2=0.5, theta=2.0, sign=1)
@example(p1=1.0, p2=0.0, theta=2.0, sign=1)  # exactly 1.0 with no cross term
@example(p1=0.0, p2=1.0, theta=0.5, sign=-1)
@example(p1=1.0, p2=-0.0, theta=3.0, sign=-1)
@example(p1=0.36, p2=0.16, theta=0.0, sign=1)  # the trig peak (sqrt(p1) + sqrt(p2))**2 = 1
@example(p1=0.25, p2=0.25, theta=0.0, sign=-1)  # trig 1.0; minus branch 0.0 at theta_min = 0
@example(p1=1 / 16, p2=1 / 64, theta=math.log(2), sign=-1)  # minus branch at theta_min = ln 2
def test_fast_rules_match_the_validating_path(p1, p2, theta, sign):
    assert_rules_same(p1, p2, theta, sign)


@settings(max_examples=100)
@given(case=near_endpoints())
def test_fast_rules_match_at_the_endpoints(case):
    p1, p2, theta, sign = case
    assert_rules_same(p1, p2, theta, sign)


UNITS = {"trig": lambda theta: cmath.exp(1j * theta), "hyp": hyperbolic.exp}


def validating_amplitudes(algebra, p1, p2, theta, sign, name="theta"):
    """engine._amplitudes without its float lane, each amplitude built as it
    was: the lift of sqrt(p1), and u(theta) times sign*sqrt(p2)."""
    _require_inputs(p1, p2, sign)
    unit = _at_phase(algebra, UNITS[algebra.name], theta, name)
    lift = complex if algebra is TRIG else H
    return lift(math.sqrt(p1)), unit * (sign * math.sqrt(p2))


def parts(value):
    """value with each complex or split-complex leaf as (its type, its two
    parts), so that typed() sees the type and sign of each part."""
    if isinstance(value, tuple):
        return tuple(parts(v) for v in value)
    if isinstance(value, complex):
        return complex, value.real, value.imag
    if isinstance(value, H):
        return type(value), value.x, value.y
    return value


def refuse(*args):
    raise AssertionError(f"the float lane let {args} reach the validating path")


@settings(max_examples=200)
@given(p1=PROBS, p2=PROBS, theta=PHASES, sign=SIGNS)
@example(p1=0.25, p2=0.5, theta=0.0, sign=1)
@example(p1=0.25, p2=0.5, theta=-0.0, sign=-1)
@example(p1=0.25, p2=0.5, theta=710.5, sign=1)  # cosh overflows
@example(p1=0.25, p2=0.5, theta=-710.5, sign=-1)
@example(p1=0.25, p2=0.5, theta=math.nan, sign=1)
@example(p1=0.25, p2=0.5, theta=math.inf, sign=1)
@example(p1=0.25, p2=0.5, theta=-math.inf, sign=-1)
@example(p1=0.0, p2=1.0, theta=1.0, sign=-1)
@example(p1=1.0, p2=0.0, theta=-1.0, sign=-1)  # k = -0.0
@example(p1=Real(0.25), p2=Real(0.5), theta=Real(1.0), sign=1)  # a float subclass
@example(p1=0.25, p2=0.5, theta=1.0, sign=True)
@example(p1=0.25, p2=0.5, theta=1.0, sign=1.0)
@example(p1=0.25, p2=0.5, theta=1.0, sign=Fraction(1))
@example(p1=0.25, p2=0.5, theta=1.0, sign=1 + 0j)  # equal to 1, and not real
def test_fast_amplitudes_match_the_validating_path(p1, p2, theta, sign):
    """amplitudes_trig/hyp and the square-root transforms against the same
    calls with validating_amplitudes, part by part in value, type and sign,
    or in error type and message; plain floats in range take the lane."""
    cases = [(amplitudes_trig, p1, p2, theta), (amplitudes_hyp, p1, p2, theta, sign)]
    try:
        t = ContextTransform((0.5, 0.5), ((p1, 1 - p1), (p2, 1 - p2)), (theta, 0.5), (sign, 1),
                             "hyp")
    except Exception:
        pass  # only the transforms that can be built are compared
    else:
        cases += [(sqrt_linear_transform, t.with_mode("trig")), (hyperbolic_sqrt_transform, t)]
    for build, *args in cases:
        fast = outcome(lambda *a: parts(build(*a)), *args, errors=Exception)
        with mock.patch.object(engine, "_amplitudes", validating_amplitudes), \
                mock.patch.object(context, "_amplitudes", validating_amplitudes):
            slow = outcome(lambda *a: parts(build(*a)), *args, errors=Exception)
        assert fast == slow, (build.__name__, args)
    if (type(p1) is type(p2) is type(theta) is float and type(sign) is int
            and 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0 and sign in (1, -1) and abs(theta) < 700.0):
        with mock.patch.object(engine, "_require_inputs", refuse):
            amplitudes_trig(p1, p2, theta)
            amplitudes_hyp(p1, p2, theta, sign)


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
GRID_POINTS = st.one_of(st.floats(0, 8), st.sampled_from((0.0, -0.0, math.pi, math.nan, 1e-9)),
                        st.integers(0, 3), st.fractions(0, 4, max_denominator=8))


@settings(max_examples=50)
@given(pair=st.one_of(st.tuples(PROBS, PROBS), near_endpoints().map(lambda case: case[:2])),
       sign=SIGNS, extra=st.lists(GRID_POINTS, max_size=6), n=st.integers(1, 12),
       stretch=st.sampled_from((1.0, 1 + 2**-52, 1 - 2**-52, 1.5)))
@example(pair=(0.36, 0.16), sign=1, extra=[], n=5, stretch=1.0)  # the trig peak snaps to 1
@example(pair=(1 / 16, 1 / 16), sign=1, extra=[], n=9, stretch=1.0)
@example(pair=(1 / 16, 1 / 64), sign=-1, extra=WINDOW_EDGES, n=2, stretch=1.0)
@example(pair=(1 / 16, 1 / 16), sign=1, n=1, stretch=1.0,  # Fraction and int points
         extra=[Fraction(1, 3), Fraction(-1, 3), Fraction(0), 2, Fraction(7, 2), 0])
@example(pair=(Fraction(1, 16), Fraction(1, 16)), sign=1, n=3, stretch=1.0,
         extra=[Fraction(1, 3), 0, Fraction(-1, 10**400), Fraction(5, 2)])
def test_fast_profiles_match_the_validating_sweep(pair, sign, extra, n, stretch):
    """Grids run to each branch's window end, where values snap, and past it;
    the window filters keep what their per-point spellings kept."""
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
        assert_windows_as_spelled(p1, p2, sign, partition, grid)


# interval ends inside both windows of (1/16, 1/64), whose theta_min is ln 2
CUT, TOP = 0.5, 0.6
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


@settings(max_examples=200)
@given(partition=partitions(), grid=st.lists(PIECE_POINTS, max_size=10).map(tuple))
@example(partition=[(0, CUT, -1), (CUT, TOP, 1)], grid=(0.0, 0.25, CUT, 0.55, TOP))  # a shared end
@example(partition=[(0, CUT, -1), (CUT, TOP, 1)],  # within TOLERANCE of that end
         grid=(CUT - TOLERANCE / 2, CUT + TOLERANCE / 2, CUT + TOLERANCE, CUT - TOLERANCE))
@example(partition=[(0, CUT, -1), (CUT, TOP, 1)],  # values at two positions each
         grid=(CUT, 0.25, 0.55, CUT, 0.25, Fraction(1, 2)))
@example(partition=[(CUT, CUT, 1), (CUT, CUT, -1)],  # two degenerate intervals
         grid=(0.0, CUT, CUT + TOLERANCE / 2, TOP, CUT))
@example(partition=[(CUT, TOP, 1), (0, CUT, -1)],  # in descending order
         grid=(0.0, 0.25, CUT - TOLERANCE, CUT, 0.55, TOP))
def test_piecewise_keeps_the_points_as_spelled(partition, grid):
    """profile_piecewise keeps piecewise_points' grid in value, type and order:
    each interval in turn takes the points within TOLERANCE of it that no
    earlier interval took, and a repeated value is kept at each position."""
    spelled = piecewise_points(partition, grid)
    if not spelled:
        with pytest.raises(ProfileError, match="no grid points fall inside the partition"):
            profile_piecewise(1 / 16, 1 / 64, partition, grid)
        return
    assert typed(profile_piecewise(1 / 16, 1 / 64, partition, grid).grid) == typed(spelled)


def as_transform(cls, prior, cond, phases, signs, mode):
    t = cls(prior, cond, phases, signs, mode)
    return t.prior, t.cond, t.phases, t.signs, t.mode


PAIRS = st.one_of(
    PROBS.map(lambda p: (p, 1 - p) if isinstance(p, (int, float, Fraction)) else (p, p)),
    st.tuples(PROBS, PROBS),
)


@settings(max_examples=120)
@given(prior=PAIRS, rows=st.tuples(PAIRS, PAIRS), phases=st.tuples(PHASES, PHASES),
       signs=st.one_of(st.tuples(SIGNS, SIGNS), st.lists(SIGNS, max_size=3).map(tuple)),
       mode=st.sampled_from(("trig", "hyp", "x")),
       shape=st.sampled_from(("tuples", "lists", "rows as lists")))
@example(prior=(0.5, 0.5), rows=((0.3, 0.7), (0.25, 0.75)), phases=(0.0, 1.0),
         signs=(), mode="hyp", shape="tuples")  # signs of every length but 2 are refused
@example(prior=(0.5, 0.5), rows=((0.3, 0.7), (0.25, 0.75)), phases=(0.0, 1.0),
         signs=(1,), mode="trig", shape="lists")
@example(prior=(0.5, 0.5), rows=((0.3, 0.7), (0.25, 0.75)), phases=(0.0, 1.0),
         signs=(1, -1, 1), mode="hyp", shape="tuples")
@example(prior=(0.5, math.nan), rows=((0.5, 0.5), (1.0, -1e-12)), phases=(0.0, 1.0),
         signs=(1, -1), mode="hyp", shape="tuples")  # out of range, and still summing to 1
@example(prior=(1.0, -1e-12), rows=((0.5, 0.5), (math.nan, 0.5)), phases=(0.0, 1.0),
         signs=(1, -1), mode="hyp", shape="rows as lists")
@example(prior=(0.5, 0.5), rows=((0.5, 0.5), (0.5, 0.5)), phases=(0.0, 1.0),
         signs=(1 + 0j, -1), mode="hyp", shape="tuples")  # equal to 1, and not real
def test_fast_transforms_match_the_validating_fields(prior, rows, phases, signs, mode, shape):
    cond = rows if shape == "tuples" else tuple(list(row) for row in rows)
    if shape == "lists":
        prior, cond, phases, signs = list(prior), list(cond), list(phases), list(signs)
    args = (prior, cond, phases, signs, mode)
    assert outcome(as_transform, ContextTransform, *args, errors=Exception) == outcome(
        as_transform, ValidatingTransform, *args, errors=Exception
    )
    if len(signs) != 2:
        with pytest.raises(ValidationError):
            ValidatingTransform(*args)
    try:
        fast, slow = ContextTransform(*args), ValidatingTransform(*args)
    except Exception:
        return
    assert_same(total_prob_quantum, lambda t: total_prob_quantum(slow), fast.with_mode("trig"),
                errors=Exception)
    if mode == "hyp":
        assert_same(total_prob_hyperbolic, lambda t: total_prob_hyperbolic(slow), fast,
                    errors=Exception)


# -- the totals are the pair rule ---------------------------------------------

def pair_totals(rule, what):
    """total_prob_* spelled as `rule` on each outcome's pair (pb1*p1j,
    pb2*p2j), with its errors named as the totals name them."""
    def totals(t):
        out = []
        for j in (0, 1):
            p1, p2 = t.prior[0] * t.cond[0][j], t.prior[1] * t.cond[1][j]
            try:
                out.append(rule(p1, p2, t.phases[j], t.signs[j]))
            except NotAProbabilityError as exc:
                raise NotAProbabilityError(exc.value, what=what, component=j + 1) from None
            except ValidationError as exc:
                raise ValidationError(f"phases[{j}]" + str(exc).removeprefix("theta")) from None
        return tuple(out)
    return totals


def pair_components(t):
    """raw_quantum_components spelled as combine on each outcome's pair."""
    return tuple(combine(t.prior[0] * t.cond[0][j], t.prior[1] * t.cond[1][j],
                         phase_cos(t.phases[j])) for j in (0, 1))


PAIR_PROBS = st.one_of(st.floats(0, 1), st.fractions(0, 1, max_denominator=64))
PAIR_PHASES = st.one_of(st.floats(0, 2 * math.pi), st.floats(0, 3),
                        st.sampled_from(QUARTERS + (709.0, 711.0)),
                        st.fractions(0, 4, max_denominator=8))


PAIR_SIGNS = st.sampled_from((1, -1, 1.0, -1.0, True, Fraction(1), Fraction(-1)))


@settings(max_examples=300)
@given(pb1=PAIR_PROBS, r0=PAIR_PROBS, r1=PAIR_PROBS, phases=st.tuples(PAIR_PHASES, PAIR_PHASES),
       signs=st.one_of(st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
                       st.tuples(PAIR_SIGNS, PAIR_SIGNS)))
@example(pb1=0.09, r0=0.94, r1=0.53, phases=(1.5, 2.0), signs=(1, 1))  # the weight's grouping
@example(pb1=0.3, r0=0.6, r1=0.2, phases=(math.pi / 2, math.pi / 2), signs=(1, -1))  # quarter
@example(pb1=Fraction(1, 3), r0=Fraction(1, 5), r1=Fraction(1, 7), phases=(0, math.pi / 2),
         signs=(-1, 1))
@example(pb1=0.5, r0=0.9, r1=0.9, phases=(0.0, 0.0), signs=(1, 1))  # component 1 > 1
@example(pb1=0.5, r0=0.1, r1=0.1, phases=(0.0, 0.0), signs=(1, 1))  # component 2 > 1
@example(pb1=Fraction(1, 2), r0=Fraction(1, 10), r1=Fraction(1, 10), phases=(0, 0),
         signs=(1, 1))
@example(pb1=0.5, r0=0.5, r1=0.5, phases=(0.0, 800.0), signs=(-1, 1))  # cosh overflows
@example(pb1=0.5, r0=0.5, r1=0.5, phases=(0.0, 0.0), signs=(1, -1))  # components 1.0 and 0.0
@example(pb1=0.5, r0=0.5, r1=0.5, phases=(math.pi, 0.0), signs=(1, 1))  # trig 0.0 and 1.0
@example(pb1=0.5, r0=0.5 + 1e-13, r1=0.5 + 1e-13, phases=(0.0, 0.0), signs=(1, 1))  # snaps to 1
@example(pb1=0.5, r0=0.41733594947706254, r1=0.41733594921170003, phases=(0.0, math.pi),
         signs=(1, 1))  # trig component 2 is -1.1e-16 and snaps to 0
@example(pb1=0.5, r0=0.5, r1=0.5, phases=(3.0, 0.0), signs=(-1, 1))  # component 1 < 0
@example(pb1=0.5, r0=0.5, r1=0.5, phases=(0.0, 3.0), signs=(1, -1))  # component 2 < 0
@example(pb1=0.5, r0=0.5, r1=0.5, phases=(710.5, 0.5), signs=(-1, -1))  # cosh overflows at j = 0
@example(pb1=0.5, r0=0.5, r1=0.5, phases=(0.5, 710.5), signs=(-1, -1))  # and at j = 1
@example(pb1=0.5, r0=0.9, r1=0.1, phases=(0.5, 0.25), signs=(-1.0, 1.0))  # every sign the
@example(pb1=0.5, r0=0.9, r1=0.1, phases=(0.5, 0.25), signs=(True, -1))  # transform takes,
@example(pb1=0.5, r0=0.9, r1=0.1, phases=(0.5, 0.25), signs=(Fraction(-1), Fraction(1)))
@example(pb1=0.5, r0=0.9, r1=0.1, phases=(0.25, 0.5), signs=(1.0, Fraction(-1)))  # on the lane
@example(pb1=0.5, r0=0.5, r1=0.5, phases=(0.0, 0.0), signs=(True, -1.0))  # 1.0 and 0.0
@example(pb1=0.5, r0=0.5, r1=0.5, phases=(0.0, 0.0), signs=(Fraction(-1), True))  # 0.0, 1.0
def test_totals_are_the_pair_rule(pb1, r0, r1, phases, signs):
    """Component j of each total is interfere_trig/hyp on outcome j's pair,
    and the raw components are combine on the pairs, in value, type and sign
    of zero, or in error type and message; and plain-float totals clear of
    0 and 1, which no snap gives, are computed by the float lane, whatever
    the type of the signs."""
    t = ContextTransform((pb1, 1 - pb1), ((r0, 1 - r0), (r1, 1 - r1)), phases, signs, "hyp")
    trig = t.with_mode("trig")
    assert_same(total_prob_quantum, pair_totals(
        lambda p1, p2, theta, sign: interfere_trig(p1, p2, theta), "perturbed total probability"
    ), trig)
    assert_same(total_prob_hyperbolic, pair_totals(interfere_hyp, "hyperbolic total probability"),
                t)
    assert_same(raw_quantum_components, pair_components, trig, errors=Exception)
    if all(type(v) is float for v in (pb1, r0, r1, *phases)):
        for total, transform in ((total_prob_quantum, trig), (total_prob_hyperbolic, t)):
            expected = outcome(total, transform)
            if expected[0] == "value" and all(1e-9 <= v <= 1 - 1e-9 for v in total(transform)):
                with mock.patch.object(context, "_interfere", refuse):
                    assert outcome(total, transform) == expected


def validating_theta_bounds(p1, p2):
    """profiles.theta_bounds as spelled before its float lane."""
    require_probability(p1, "p1")
    require_probability(p2, "p2")
    weight = engine.nonzero_weight(p1, p2, "hyperbolic validity window")
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


BOUND_PROBS = st.one_of(
    st.floats(0, 1),
    st.floats(0, 1e-150),  # p1*p2 underflows for a pair of these
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(0, 1).map(Real),
    st.fractions(0, 1, max_denominator=64),
    st.integers(-1, 2),
    st.booleans(),
)


@st.composite
def bound_pairs(draw):
    """(p1, p2) drawn freely, equal, or with sqrt(p1) + sqrt(p2) near 1, where
    q_plus lies within TOLERANCE of 1 on either side."""
    kind = draw(st.sampled_from(("free", "equal", "near the plus window")))
    if kind == "free":
        return draw(BOUND_PROBS), draw(BOUND_PROBS)
    if kind == "equal":
        p = draw(BOUND_PROBS)
        return p, p
    r = draw(st.floats(0.05, 0.95))
    return r * r, (1 - r + draw(st.floats(-1e-10, 1e-10))) ** 2


@settings(max_examples=400)
@given(pair=bound_pairs())
@example(pair=(0.25, 0.25))  # q_plus = 1 exactly: theta_max = 0
@example(pair=(0.25, 0.25 * (1 + 1e-11)))  # q_plus a hair below 1, within TOLERANCE
@example(pair=(0.25, 0.25 * (1 + 1e-9)))  # below 1 by more than TOLERANCE: no theta_max
@example(pair=(0.1, 0.1))  # p1 == p2: q_minus may round a hair below 1
@example(pair=(1.0, 0.25))  # p1 = 1.0
@example(pair=(1.0, 1.0))
@example(pair=(1e-200, 1e-200))  # p1*p2 underflows
@example(pair=(5e-324, 1.0))  # the smallest weight that does not
@example(pair=(0.0, 0.25))
@example(pair=(-0.0, 0.25))
@example(pair=(math.nan, 0.25))
@example(pair=(0.25, math.inf))
@example(pair=(1 + 1e-12, 0.25))
@example(pair=(Fraction(1, 4), Fraction(1, 9)))
@example(pair=(Fraction(1, 4), Fraction(1, 4)))
@example(pair=(Fraction(1, 10**400), Fraction(1, 10**400)))  # q past the float range
@example(pair=(1, Fraction(1, 4)))
@example(pair=(True, 0.25))
@example(pair=(0.25, False))
@example(pair=(Real(0.25), 0.04))
@example(pair=(0.25, Fraction(1, 25)))
def test_theta_bounds_match_the_validating_spelling(pair):
    """theta_bounds against the validating spelling in value, type and sign,
    or error; and a plain float pair in range with a nonzero weight takes the
    float lane, without reaching require_probability."""
    assert_same(theta_bounds, validating_theta_bounds, *pair, errors=Exception)
    expected = outcome(validating_theta_bounds, *pair, errors=Exception)
    if all(type(v) is float for v in pair) and expected[0] == "value":
        with mock.patch.object(profiles, "require_probability", refuse):
            assert outcome(theta_bounds, *pair) == expected


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


def refuse_validating(*args):
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
            with mock.patch.object(engine, "require_probability", refuse_validating):
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


# -- the float fit and transform lanes ----------------------------------------

FLOAT_FIT_PROBS = st.one_of(
    st.floats(0, 1),
    st.floats(0, 1e-150),  # p1*p2 underflows for a pair of these
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(0, 1).map(Real),
    st.fractions(0, 1, max_denominator=64),
    st.integers(-1, 2),
    st.booleans(),
)


@settings(max_examples=400)
@given(p1=FLOAT_FIT_PROBS, p2=FLOAT_FIT_PROBS, p=FLOAT_FIT_PROBS)
@example(p1=math.nan, p2=0.25, p=0.5)
@example(p1=0.25, p2=math.inf, p=0.5)
@example(p1=0.25, p2=0.25, p=-math.inf)
@example(p1=-0.0, p2=0.25, p=0.5)
@example(p1=0.25, p2=0.25, p=-0.0)  # lam from a signed zero p
@example(p1=0.0, p2=0.25, p=0.5)
@example(p1=0.25, p2=0.0, p=0.5)
@example(p1=5e-324, p2=5e-324, p=0.5)  # the weight underflows
@example(p1=1e-200, p2=1e-200, p=0.0)
@example(p1=5e-324, p2=1.0, p=1.0)  # the smallest weight that does not
@example(p1=1.0, p2=0.25, p=0.0)  # each bound at its closed end
@example(p1=0.25, p2=1.0, p=1.0)
@example(p1=1.0, p2=1.0, p=1.0)
@example(p1=1 + 1e-12, p2=0.25, p=0.5)
@example(p1=0.25, p2=0.25, p=1 + 1e-12)
@example(p1=Real(0.25), p2=0.25, p=0.5)
@example(p1=0.25, p2=0.25, p=Real(0.5))
@example(p1=True, p2=0.25, p=0.5)
@example(p1=0.25, p2=Fraction(1, 4), p=0.5)
@example(p1=0.25, p2=0.25, p=1)
@example(p1=0.0625, p2=0.5625, p=1.0)  # lam = 1
@example(p1=0.25, p2=0.25, p=0.0)  # lam = -1
@example(p1=0.015625, p2=0.03125, p=0.09106917382415923)  # lam = 1 + 1 ulp
@example(p1=0.015625, p2=0.03125, p=0.09106917382415922)  # lam = 1 - 1 ulp
@example(p1=0.015625, p2=0.03125, p=0.00268082617584078)  # lam = -1 + 1 ulp
@example(p1=0.015625, p2=0.046875, p=0.008373412263472576)  # lam = -1 - 1 ulp
@example(p1=math.inf, p2=0.0, p=0.5)  # p1*p2 is NaN
@example(p1=0.25, p2=math.nan, p=math.nan)
@example(p1=math.inf, p2=math.inf, p=math.inf)  # p - (p1 + p2) is NaN
@example(p1=1e-160, p2=1e-160, p=0.5)  # a subnormal p1*p2: a huge hyperbolic lam
@example(p1=1e-160, p2=1e-160, p=0.0)
@example(p1=5e-324, p2=0.5, p=0.25)
@example(p1=0.25, p2=Real(0.0625), p=1.0)
@example(p1=Real(0.0625), p2=Real(0.5625), p=Real(1.0))
def test_float_fit_matches_the_validating_spelling(p1, p2, p):
    """lambda_of and fit_record against the validating path in value, type
    and sign of zero, or error; a record's regime, phase and sign are what
    classify and phase_of give its lam; and a float triple it fits is fitted
    by the float lane, without reaching require_probability."""
    triple = (p1, p2, p)
    assert_same(lambda_of, fraction_lambda, *triple, errors=Exception)
    assert_same(record_fields(fit_record), record_fields(fraction_fit), *triple,
                errors=Exception)
    with contextlib.suppress(InterfereError):
        r = fit_record(*triple)
        assert typed((r.regime, r.phase, r.sign)) == typed((classify(r.lam), *phase_of(r.lam)))
    if all(type(v) is float for v in triple):
        expected = outcome(record_fields(fraction_fit), *triple, errors=Exception)
        if expected[0] == "value":
            with mock.patch.object(engine, "require_probability", refuse_validating):
                assert outcome(record_fields(fit_record), *triple) == expected


@pytest.mark.parametrize("lam", [
    0.5, -0.5, 0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
    math.nextafter(-1.0, 0.0), math.nextafter(-1.0, -2.0), 1e300, -1e300, 5e-324,
    math.nan, math.inf, -math.inf, Real(0.5), Real(2.0), Real(math.nan), Fraction(1, 2),
    Fraction(-3, 2), Fraction(1), 1, -1, 0, True,
])
def test_fit_lane_gives_classify_and_phase_of(lam):
    """Whatever deviation lambda_of hands the fit, the record carries what
    classify and phase_of give it, in value, type and sign, or their error;
    a plain finite float off |lam| = 1 reaches neither of them."""
    def spelled(*triple):
        return InterferenceRecord(*triple, lam, classify(lam), *phase_of(lam))

    with mock.patch.object(engine, "lambda_of", lambda p1, p2, p: lam):
        expected = outcome(record_fields(spelled), 0.25, 0.25, 0.5, errors=Exception)
        assert outcome(record_fields(fit_record), 0.25, 0.25, 0.5, errors=Exception) == expected
        if type(lam) is float and math.isfinite(lam) and abs(lam) != 1:
            with mock.patch.object(engine, "classify", refuse_validating), \
                    mock.patch.object(engine, "phase_of", refuse_validating):
                assert outcome(record_fields(fit_record), 0.25, 0.25, 0.5) == expected


def transform_fields(cls, *args):
    """The fields of cls(*args) and its totals in both modes, with the type
    and sign of every value, or the error of the first to raise."""
    t = cls(*args)
    trig, hyp = t.with_mode("trig"), t.with_mode("hyp")
    return (typed(t.prior), typed(t.cond), typed(t.phases), typed(t.signs), t.mode,
            outcome(total_prob_classical, t, errors=Exception),
            outcome(total_prob_quantum, trig, errors=Exception),
            outcome(total_prob_hyperbolic, hyp, errors=Exception))


LANE_PROBS = st.one_of(
    st.floats(0, 1),
    st.sampled_from((0.0, 1.0, -0.0, 5e-324, 1 + 1e-12, -1e-12, math.nan, math.inf)),
    st.floats(0, 1).map(Real),
    st.fractions(0, 1, max_denominator=64),
    st.booleans(),
)
# how far a pair's sum is put off 1: within TOLERANCE, or past it
SUM_OFFSETS = st.sampled_from((0.0, 0.0, 0.0, 5e-11, -5e-11, 2e-10, -2e-10))


@st.composite
def lane_pairs(draw):
    """(x, 1 - x) put off by one of SUM_OFFSETS, or two free entries."""
    x = draw(LANE_PROBS)
    if draw(st.booleans()) or isinstance(x, bool) or not 0 <= x <= 1:
        return x, draw(LANE_PROBS)
    return x, 1 - x + draw(SUM_OFFSETS)


LANE_PHASES = st.one_of(
    st.floats(-8, 8),
    st.sampled_from((0.0, -0.0, math.pi / 2, 711.0, math.nan, math.inf, -math.inf)),
    st.floats(-8, 8).map(Real),
    st.fractions(-4, 4, max_denominator=8),
    st.integers(-3, 3),
)
LANE_SIGNS = st.sampled_from((1, -1, -1, 1.0, -1.0, True, Fraction(-1), 1 + 0j, 0))


@settings(max_examples=300)
@given(prior=lane_pairs(), rows=st.tuples(lane_pairs(), lane_pairs()),
       phases=st.tuples(LANE_PHASES, LANE_PHASES), signs=st.tuples(LANE_SIGNS, LANE_SIGNS),
       mode=st.sampled_from(("trig", "hyp", "hyp", "x")),
       shape=st.sampled_from(("tuples", "tuples", "lists", "rows as lists")))
@example(prior=(0.5, math.nan), rows=((0.5, 0.5), (0.5, 0.5)), phases=(0.0, 1.0),
         signs=(1, -1), mode="hyp", shape="tuples")
@example(prior=(0.5, 0.5), rows=((0.5, 0.5), (math.inf, 0.5)), phases=(0.0, 1.0),
         signs=(1, -1), mode="hyp", shape="tuples")
@example(prior=(0.5, 0.5), rows=((0.5, 0.5), (0.5, 0.5)), phases=(math.inf, 1.0),
         signs=(1, -1), mode="hyp", shape="tuples")  # a phase that is not finite
@example(prior=(0.5, 0.5), rows=((0.5, 0.5), (0.5, 0.5)), phases=(0.0, -math.inf),
         signs=(1, 1), mode="trig", shape="tuples")
@example(prior=(0.5, 0.5), rows=((0.5, 0.5), (0.5, 0.5)), phases=(math.nan, 0.0),
         signs=(1, 1), mode="trig", shape="tuples")
@example(prior=(-0.0, 1.0), rows=((0.5, 0.5), (0.5, 0.5)), phases=(-0.0, 0.0),
         signs=(1, -1), mode="hyp", shape="tuples")  # signed zeros
@example(prior=(1.0, 0.0), rows=((0.0, 1.0), (1.0, 0.0)), phases=(1.0, 2.0),
         signs=(-1, 1), mode="hyp", shape="tuples")  # each bound at its closed end
@example(prior=(5e-324, 1.0), rows=((5e-324, 1.0), (0.5, 0.5)), phases=(1.0, 2.0),
         signs=(1, -1), mode="trig", shape="tuples")  # a pair's weight underflows
@example(prior=(Real(0.5), 0.5), rows=((0.5, 0.5), (0.5, 0.5)), phases=(0.0, 1.0),
         signs=(1, -1), mode="hyp", shape="tuples")  # a float subclass
@example(prior=(0.5, 0.5), rows=((0.5, 0.5), (0.5, 0.5)), phases=(Real(0.5), 1.0),
         signs=(1, -1), mode="hyp", shape="tuples")
@example(prior=(0.5, 0.5), rows=((0.5, 0.5), (0.5, 0.5)), phases=(0.0, 1.0),
         signs=(True, -1), mode="hyp", shape="tuples")  # a bool sign
@example(prior=(0.5, 0.5), rows=((0.5, 0.5), (0.5, 0.5)), phases=(0.0, 1.0),
         signs=(1.0, -1.0), mode="hyp", shape="tuples")  # float signs
@example(prior=(0.5, 0.5), rows=((0.5, 0.5), (0.5, 0.5)), phases=(0.0, 1.0),
         signs=(1 + 0j, -1), mode="hyp", shape="tuples")  # equal to 1, and not real
@example(prior=(0.5, 0.5 + 2e-10), rows=((0.5, 0.5), (0.5, 0.5)), phases=(0.0, 1.0),
         signs=(1, -1), mode="hyp", shape="tuples")  # sums off by more than TOLERANCE
@example(prior=(0.5, 0.5), rows=((0.3, 0.7), (0.25, 0.75 - 2e-10)), phases=(0.0, 1.0),
         signs=(1, -1), mode="hyp", shape="tuples")
@example(prior=(0.5, 0.5 + 5e-11), rows=((0.3, 0.7), (0.25, 0.75)), phases=(0.0, 1.0),
         signs=(1, -1), mode="hyp", shape="tuples")  # and within it
@example(prior=(0.5, 0.5), rows=((0.3, 0.7), (0.25, 0.75)), phases=(0.0, 1.0),
         signs=(1, -1), mode="hyp", shape="lists")
@example(prior=(0.5, 0.5), rows=((0.3, 0.7), (0.25, 0.75)), phases=(0.0, 1.0),
         signs=(1, -1), mode="hyp", shape="rows as lists")
@example(prior=(Fraction(1, 2), 0.5), rows=((0.3, 0.7), (0.25, Fraction(3, 4))),
         phases=(0.0, 1.0), signs=(1, -1), mode="hyp", shape="tuples")  # mixed types
@example(prior=(0.5, 0.5), rows=((0.3, 0.7), (0.25, 0.75)), phases=(0.0, 1.0),
         signs=(1, -1), mode="x", shape="tuples")
def test_float_transform_matches_the_validating_spelling(prior, rows, phases, signs, mode,
                                                        shape):
    """ContextTransform and the totals on it against ValidatingTransform in
    value, type and sign of zero, or error; and a float transform it accepts
    is accepted by the one accept test, without reaching _require_pair."""
    cond = rows if shape == "tuples" else tuple(list(row) for row in rows)
    if shape == "lists":
        prior, cond, phases, signs = list(prior), list(cond), list(phases), list(signs)
    args = (prior, cond, phases, signs, mode)
    expected = outcome(transform_fields, ValidatingTransform, *args, errors=Exception)
    assert outcome(transform_fields, ContextTransform, *args, errors=Exception) == expected
    plain = (shape == "tuples" and {*map(type, (*prior, *rows[0], *rows[1], *phases))} == {float}
             and {*map(type, signs)} == {int})
    if plain and expected[0] == "value":
        with mock.patch.object(context, "_require_pair", refuse_validating):
            t = ContextTransform(*args)
        assert (t.prior, t.cond, t.phases, t.signs, t.mode) == args


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
        return tuple(typed(getattr(value, name)) for name in PadicInterference._fields)
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


# -- cached powers and records built in one step -------------------------------

@settings(max_examples=300)
@given(p=st.sampled_from(PADIC_PRIMES), k=st.one_of(st.integers(-40, 40), st.integers()),
       unit=st.sampled_from((1, -1, Fraction(11, 13), Fraction(-13, 11))))  # units for PADIC_PRIMES
@example(p=BIG_PRIME, k=0, unit=1)
@example(p=BIG_PRIME, k=-1, unit=Fraction(11, 13))
@example(p=BIG_PRIME, k=2000, unit=-1)
@example(p=2, k=-3000, unit=1)
def test_cached_powers_match_the_fraction_power(p, k, unit):
    """|x|_p and |x|_p**2, read from the shared powers, and a ball's radius
    against Fraction(p) ** k written out, in value and type, on either side of
    0, inside the kept range and far past it."""
    k = max(-3000, min(k, 3000))  # st.integers() draws without bound
    x = PadicRational(p, Fraction(p) ** k * unit)
    assert typed(x.abs()) == typed(Fraction(p) ** -k)
    assert typed(PadicBall(p, 0, k).radius) == typed(Fraction(p) ** k)
    assert typed(_squared_abs(p, abs(k))) == typed(Fraction(p) ** (-2 * abs(k)))
    assert typed(PadicRational(p, 0).abs()) == typed(_squared_abs(p, math.inf)) == typed(
        Fraction(0))


def test_only_powers_of_small_order_are_kept():
    """A power of small order is one shared object; one of huge order is
    computed each time and outlives no caller."""
    padic._kept_power.cache_clear()  # a full cache would hide a kept huge power
    assert padic._power(3, -2) is padic._power(3, -2)
    huge = PadicRational(3, Fraction(1, 3**5000))
    assert typed(huge.abs()) == typed(Fraction(3) ** 5000)
    assert typed(_squared_abs(3, 10**4)) == typed(Fraction(3) ** -(2 * 10**4))
    assert padic._kept_power.cache_info().currsize == 1


@dataclass(frozen=True)
class FieldwisePair:
    """PadicAmplitudePair as the generated dataclass __init__ built it, one
    object.__setattr__ per field and per lifted amplitude."""

    p: int
    alpha1: object
    alpha2: object
    epsilon: object

    def __post_init__(self):
        _require_prime(self.p)
        object.__setattr__(self, "alpha1", padic_rule._lift(self.p, self.alpha1, "alpha1"))
        object.__setattr__(self, "alpha2", padic_rule._lift(self.p, self.alpha2, "alpha2"))
        object.__setattr__(self, "epsilon", padic_rule._lift(self.p, self.epsilon, "epsilon"))
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


PAIR_MODULI = (3, 4, 1, 3.0, True, padic._PSI_13, "3")
PAIR_ENTRIES = (
    1, 2, -9, Fraction(2, 5), PadicRational(3, 7),  # good for p = 3
    0, 0.5, Fraction(1, 3), Fraction(5, 9), 3, PadicRational(5, 2), "x",
)


@settings(max_examples=400)
@given(p=st.sampled_from(PAIR_MODULI), entries=st.tuples(*[st.sampled_from(PAIR_ENTRIES)] * 3))
@example(p=4, entries=(0.5, 0, 3))  # every input bad: the modulus is named first
@example(p=3, entries=(Fraction(1, 3), 0.5, 3))  # an order < 0 before a float alpha2
@example(p=3, entries=(2, 0, Fraction(1, 3)))  # a zero alpha2 before a non-unit eps
@example(p=3, entries=(1, 0.5, PadicRational(5, 2)))  # a float alpha2 before a foreign eps
@example(p=3, entries=(PadicRational(5, 2), 0, 0))  # a foreign alpha1 first
@example(p=3, entries=(2, Fraction(2, 5), 3))  # a non-unit eps alone
@example(p=3, entries=(9, Fraction(2, 5), -1))  # a good pair
def test_pair_matches_the_fieldwise_dataclass(p, entries):
    """The pair built in one update checks its inputs as the generated
    dataclass did: the same fields on success, and on bad inputs (a bad
    modulus, a float, a zero amplitude, an order < 0, a non-unit eps and a
    foreign prime) the same first error and message."""
    def fields(pair):
        return tuple(observed(getattr(pair, name)) for name in ("p", "alpha1", "alpha2", "epsilon"))

    assert seen(lambda *a: fields(PadicAmplitudePair(*a)), p, *entries) == seen(
        lambda *a: fields(FieldwisePair(*a)), p, *entries)
    names = dict(zip(("alpha1", "alpha2", "epsilon"), entries))
    assert seen(lambda: fields(PadicAmplitudePair(p=p, **names))) == seen(
        lambda: fields(FieldwisePair(p=p, **names)))


# -- the slit table as columns ------------------------------------------------

def sample_slit_profile(p, l, eps_max):
    """padic_slit_profile as it was spelled: one SlitSample per point, built
    in the loop, and one Fraction per distinct v."""
    _require_prime(p)
    if l < 0:
        raise ValidationError(f"l must be >= 0, got {l}")
    if eps_max < 1:
        raise ValidationError(f"eps_max must be >= 1, got {eps_max}")
    brightness = {}
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


def sample_table(p, l, eps_max):
    """`padic --table` as it was spelled, one f-string per SlitSample."""
    cli._require_printable_head(p, l)
    rows = (
        f"{s.epsilon},{s.multiplicity},{fmt_number(s.probability)},{fmt_float(s.probability)}\n"
        for s in sample_slit_profile(p, l, eps_max)
    )
    meta = {"A": _squared_abs(p, l), "l": l, "p": p}
    buffer = io.StringIO()
    profiles._write_header(
        buffer, "padic-slit-table", meta, "epsilon,v_p_of_1_plus_epsilon,P_exact,P_float"
    )
    buffer.writelines(rows)
    return buffer.getvalue()


def slit_samples(samples):
    """Each sample with its field types, and which samples share a Fraction."""
    shared = {}
    return [
        (type(s), typed(s.epsilon), typed(s.multiplicity), typed(s.probability),
         shared.setdefault(id(s.probability), len(shared)))
        for s in samples
    ]


def profile_fields(profile):
    return (
        profile.kind, typed(profile.grid), typed(profile.values),
        sorted((key, typed(value)) for key, value in profile.metadata.items()),
        profile.theta_max, profile.theta_min, profile.warnings,
        len({id(v) for v in profile.values}),
    )


def csv_text(write, profile):
    """The bytes write(profile, stream) gives, or the type and message of
    what it raises."""
    stream = io.StringIO()
    try:
        write(profile, stream)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    return "value", stream.getvalue()


def table_run(p, l, eps_max):
    """`padic --p P --l L --table --eps-max N`: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["padic", "--p", str(p), "--l", str(l), "--table", "--eps-max", str(eps_max)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def sample_table_run(p, l, eps_max):
    """table_run for the old spelling, with cli.main's exit codes."""
    try:
        return 0, sample_table(p, l, eps_max), ""
    except InterfereError as exc:
        return 3, "", f"error: {exc}\n"


PSI_12 = 399165290221 * 798330580441  # composite, and strong to bases below 41
PSI_13 = 3317044064679887385961981  # past the bound where primality is proven


@st.composite
def slit_args(draw):
    """(p, l, eps_max) with eps_max up to 3*p**3, capped for a large p, so
    that v runs to 3 or 4; and now and then a modulus, l or eps_max refused."""
    p = draw(st.sampled_from(PADIC_PRIMES + (4, PSI_12, PSI_13)))
    return p, draw(st.integers(-1, 3)), draw(st.integers(0, min(3 * p**3, 1200)))


@settings(max_examples=150)
@given(args=slit_args())
@example(args=(5, 1, 4))  # eps_max < p: nothing dimmed
@example(args=(7, 0, 6))
@example(args=(2, 1, 40))  # p = 2: every sample has v >= 1
@example(args=(2, 0, 1))
@example(args=(3, 2, 81))  # 1 + eps = 81 = 3**4
@example(args=(BIG_PRIME, 3, 1200))
@example(args=(4, 0, 10))  # a composite
@example(args=(PSI_12, 0, 10))
@example(args=(PSI_13, 0, 10))  # an unproven modulus
@example(args=(3, -1, 10))
@example(args=(3, 0, 0))
@example(args=(3, -1, 0))  # l is tested first
def test_slit_columns_match_the_per_sample_spelling(args):
    """The slit table, the p-adic profile, its CSV and the `padic --table`
    rows from the columns, against the per-sample loop they replaced."""
    new = outcome(lambda *a: slit_samples(padic_slit_profile(*a)), *args)
    assert new == outcome(lambda *a: slit_samples(sample_slit_profile(*a)), *args)
    new = outcome(lambda *a: profile_fields(profile_padic(*a)), *args)
    assert new == outcome(lambda *a: profile_fields(sample_profile_padic(*a)), *args)
    if new[0] == "value":
        profile = profile_padic(*args)
        assert csv_text(write_csv, profile) == csv_text(row_by_row_csv, profile)
        assert csv_text(write_csv, profile) == csv_text(
            row_by_row_csv, sample_profile_padic(*args)
        )
    assert table_run(*args) == sample_table_run(*args)


@pytest.mark.parametrize("p", PADIC_PRIMES)
def test_sieved_columns_match_the_per_point_spelling(p):
    """The sieved v column against prime_multiplicity at each sample, at
    every eps_max up to 59, around p**3, where v first reaches 3, and at
    30 000."""
    cubes = (p**3 - 1, p**3, p**3 + 1) if p**3 < 30_000 else ()
    for eps_max in (*range(1, 60), *cubes, 30_000):
        samples = sample_slit_profile(p, 1, eps_max)
        per_point = [[s.epsilon for s in samples], [s.multiplicity for s in samples],
                     [s.probability for s in samples]]
        sieved = _slit_columns(p, 1, eps_max)
        assert typed(tuple(map(tuple, sieved))) == typed(tuple(map(tuple, per_point)))


@settings(max_examples=80)
@given(pair=st.sampled_from(EXACT_PAIRS[:4] + [(Fraction(1, 4), Fraction(1, 4))]),
       kind=st.sampled_from(("trig", "hyp +", "hyp -", "piecewise")),
       n=st.integers(1, 40), extra=st.lists(GRID_POINTS, max_size=4))
@example(pair=(Fraction(1, 4), Fraction(1, 4)), kind="trig", n=5, extra=[])  # 1, floats, 0
@example(pair=(Fraction(1, 16), Fraction(1, 16)), kind="hyp +", n=9, extra=[Fraction(1, 3)])
def test_exact_csv_matches_the_row_by_row_spelling(pair, kind, n, extra):
    """write_csv on exact profiles, whose values mix Fractions and floats and
    whose grid may hold ints and Fractions, against one write per row."""
    p1, p2 = pair
    theta_max, theta_min = theta_bounds(p1, p2)
    sign = -1 if kind == "hyp -" or theta_max is None else 1
    hi = 2 * math.pi if kind == "trig" else (theta_max if sign == 1 else theta_min) or 1.0
    grid = uniform_grid(0.0, hi, n) + tuple(extra)
    try:
        if kind == "trig":
            profile = profile_trig(p1, p2, grid)
        elif kind == "piecewise":
            profile = profile_piecewise(p1, p2, [(0.0, hi, sign)], grid)
        else:
            profile = profile_hyp(p1, p2, sign, grid)
    except InterfereError:
        return
    assert csv_text(write_csv, profile) == csv_text(row_by_row_csv, profile)


@pytest.mark.parametrize("profile", [
    # an exact value too long for text, after an exact row that is not
    BrightnessProfile("padic", (2, 3), (Fraction(1, 4), Fraction(1, 10**5000))),
    BrightnessProfile("trig", (10**5000, 0.5), (0.25, Fraction(1, 2))),  # the radius
    BrightnessProfile("x%s", (1, 0.5), (0.25, True)),  # a bool value, a % in the kind
    # an all-int radius column with one int too long for text
    BrightnessProfile("padic", (10**5000, 2), (Fraction(1, 4), Fraction(1, 4))),
])
def test_exact_csv_edges_match_the_row_by_row_spelling(profile):
    assert csv_text(write_csv, profile) == csv_text(row_by_row_csv, profile)


CSV_FLOATS = st.one_of(
    st.floats(), st.sampled_from((-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7e308))
)


@settings(max_examples=200)
@given(kind=st.one_of(st.sampled_from(("trig", "hyp", "100%", "%s%%d")), st.text(max_size=4)),
       grid=st.lists(CSV_FLOATS, max_size=20), values=st.lists(CSV_FLOATS, max_size=20))
@example(kind="trig", grid=[-0.0, 0.0], values=[-0.0, 0.0])
@example(kind="trig", grid=[math.nan, math.inf, -math.inf], values=[-math.inf, math.nan, math.inf])
@example(kind="hyp", grid=[5e-324, 1.7e308], values=[1.7e308, 5e-324])
@example(kind="100%", grid=[0.5], values=[0.25])
@example(kind="%s%%d", grid=[0.5, 1.0], values=[0.25, 1.0])
@example(kind="trig", grid=[], values=[])  # the head only
@example(kind="trig", grid=[0.0, 1.0, 2.0], values=[0.5])  # as many rows as zip makes
@example(kind="hyp", grid=[0.0], values=[0.5, 0.25, 1.0])
def test_float_csv_matches_the_row_by_row_spelling(kind, grid, values):
    """write_csv on all-float profiles, whose body is one format call on the
    columns interleaved, against one % per row, joined."""
    profile = BrightnessProfile(kind, tuple(grid), tuple(values), {"p1": 0.25}, 1.5, 0.5, ("w",))
    assert csv_text(write_csv, profile) == csv_text(row_by_row_csv, profile)
