"""Parity of every fast lane with the one validating spelling it bypasses.

This module makes one test of each entry of lanes.LANES, and one of each
strategy in its `also`.  On the entry's examples and the cases drawn, the
lane's callables and its reference must give the same outcomes: the same
values with the same types and signs of zero, or the same error and message.  A case that must stay
on the lane is run again with the entry's refusal hooks installed, and any of
them firing fails the test with a message naming the lane.  A few seeded
sweeps hold the public rule, totals, transforms and fit to the same
references.
"""

import importlib
import inspect
import itertools
import math
import random
from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

import lanes
import pytest
from hypothesis import example, given, settings
from lanes import LANE, LaneLeft, outcome, typed

from interfere import padic
from interfere.context import sqrt_linear_transform
from interfere.engine import combine
from interfere.errors import InterfereError
from interfere.numeric import sqrt_keeping_exact
from interfere.padic import PadicRational
from interfere.padic_rule import _slit_columns, _squared_abs
from interfere.profiles import BrightnessProfile, write_csv


def refusing(lane, case):
    """The lane's refusal hooks, each raising LaneLeft naming the lane."""
    stack = ExitStack()
    for target in lane.hooks:
        module, name = target.rsplit(".", 1)

        def refuse(*args, target=target, **kwargs):
            raise LaneLeft(f"the {lane.name} lane let {case} reach {target}{args}")
        stack.enter_context(mock.patch.object(importlib.import_module(f"interfere.{module}"),
                                              name, refuse))
    return stack


def check(lane, case, errors=None):
    """The lane's calls against their references on one case, each raising
    nothing but `errors` (the lane's own by default); then each call that must
    stay on the lane again, under the lane's hooks."""
    fast = [outcome(call, **case) for call in lane.fast]
    assert fast == [outcome(call, **case) for call in lane.reference], (
        f"the {lane.name} lane differs on {case}")
    assert all(o[0] == "value" or issubclass(o[1], errors or lane.errors) for o in fast), (
        f"the {lane.name} lane raised on {case}: {fast}")
    for call, seen in zip(lane.fast, fast):
        if lane.stays and lane.stays(seen, **case):
            with refusing(lane, case):
                assert outcome(call, **case) == seen, f"the {lane.name} lane differs on {case}"


def lane_test(lane):
    if lane.cases is None:
        [name] = {key for case in lane.examples for key in case}
        values = [case[name] for case in lane.examples]

        def test(**case):
            check(lane, case)
        test.__signature__ = inspect.Signature(
            [inspect.Parameter(name, inspect.Parameter.KEYWORD_ONLY)])
        return pytest.mark.parametrize(name, values)(test)

    def test(case):
        check(lane, case)
    for case in reversed(lane.examples):
        test = example(case=case)(test)
    return settings(max_examples=lane.max_examples)(given(case=lane.cases)(test))


for _lane in lanes.LANES:
    globals()[_lane.test] = lane_test(_lane)
    for _test, _cases, _n in _lane.also:
        globals()[_test] = lane_test(_lane._replace(cases=_cases, examples=(), max_examples=_n))


# -- seeded sweeps ------------------------------------------------------------

RNG = random.Random(20260518)
QUARTERS = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
FLOAT_PAIRS = [(RNG.uniform(0.001, 0.3), RNG.uniform(0.001, 0.3)) for _ in range(150)]
THETAS = [RNG.uniform(0.0, 2 * math.pi) for _ in range(4)] + list(QUARTERS)
HYP_THETAS = [RNG.uniform(0.0, 3.0) for _ in range(4)] + [0.0, 0.5]
PAIR_SETS = pytest.mark.parametrize("pairs", [FLOAT_PAIRS, lanes.EXACT_PAIRS],
                                    ids=["float", "exact"])


@PAIR_SETS
def test_rules_and_amplitudes(pairs):
    phases = [(theta, 1) for theta in THETAS + HYP_THETAS] + [(t, -1) for t in HYP_THETAS]
    for (p1, p2), (theta, sign) in itertools.product(pairs, phases):
        case = dict(p1=p1, p2=p2, theta=theta, sign=sign)
        check(LANE["_interfere"], case, InterfereError)
        assert [outcome(call, **case) for call in lanes.AMPLITUDES] == [
            outcome(call, **case) for call in lanes.SPELLED_AMPLITUDES]


@PAIR_SETS
def test_combine(pairs):
    lams = (0, 1, -1, Fraction(1, 2), Fraction(-7, 3), 0.0, 1.0, -1.0, 0.3, -2.5)
    for (p1, p2), lam in itertools.product(pairs, lams):
        assert outcome(combine, p1, p2, lam) == outcome(lanes.combined, p1, p2, lam)


def transform_cases():
    rng = random.Random(7)
    for k in range(120):
        if k % 3:
            pb1, r0, r1 = (rng.uniform(0.02, 0.98) for _ in range(3))
        else:
            pb1, r0, r1 = (Fraction(rng.randint(1, 9), 10) for _ in range(3))
        trig_phases = (rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        hyp_phases = (rng.uniform(0, 0.3), rng.uniform(0, 0.3))
        phases = rng.choice([QUARTERS[:2], QUARTERS[2:], trig_phases, hyp_phases, hyp_phases])
        yield dict(pb1=pb1, r0=r0, r1=r1, phases=phases,
                   signs=(rng.choice((1, -1, -1)), rng.choice((1, -1, -1))))


def test_totals_and_transforms():
    for case in transform_cases():
        check(LANE["_totals"], case)
        t = lanes.transform(**case)
        for mode in ("trig", "hyp"):
            t = t._replace(mode=mode)
            assert (outcome(sqrt_linear_transform, t)
                    == outcome(lanes.validating(sqrt_linear_transform), t))


@PAIR_SETS
def test_fit_residuals(pairs):
    """Trig, hyp and boundary fits (|lam| = 1 at the sum and difference of
    the square roots), in float and exact mode, reconstruct as spelled."""
    for p1, p2 in pairs:
        roots = (sqrt_keeping_exact(p1), sqrt_keeping_exact(p2))
        for p in (p1 + p2, (roots[0] + roots[1]) ** 2, (roots[0] - roots[1]) ** 2,
                  0.0, 1.0, 0.5, Fraction(1, 2), Fraction(0), Fraction(1)):
            check(LANE["reconstruct"], dict(triple=(p1, p2, p)))


def test_only_powers_of_small_order_are_kept():
    """A power of small order is one shared object; one of huge order is
    computed each time and outlives no caller."""
    padic._kept_power.cache_clear()  # a full cache would hide a kept huge power
    assert padic._power(3, -2) is padic._power(3, -2)
    huge = PadicRational(3, Fraction(1, 3**5000))
    assert typed(huge.abs()) == typed(Fraction(3) ** 5000)
    assert typed(_squared_abs(3, 10**4)) == typed(Fraction(3) ** -(2 * 10**4))
    assert padic._kept_power.cache_info().currsize == 1


@pytest.mark.parametrize("p", lanes.PADIC_PRIMES)
def test_sieved_columns_match_the_per_point_spelling(p):
    """The sieved v column against prime_multiplicity at each sample, at
    every eps_max up to 59, around p**3, where v first reaches 3, and at
    30 000."""
    cubes = (p**3 - 1, p**3, p**3 + 1) if p**3 < 30_000 else ()
    for eps_max in (*range(1, 60), *cubes, 30_000):
        samples = lanes.sample_slit_profile(p, 1, eps_max)
        per_point = [[s.epsilon for s in samples], [s.multiplicity for s in samples],
                     [s.probability for s in samples]]
        sieved = _slit_columns(p, 1, eps_max)
        assert typed(tuple(map(tuple, sieved))) == typed(tuple(map(tuple, per_point)))


@pytest.mark.parametrize("profile", [
    # an exact value too long for text, after an exact row that is not
    BrightnessProfile("padic", (2, 3), (Fraction(1, 4), Fraction(1, 10**5000))),
    BrightnessProfile("trig", (10**5000, 0.5), (0.25, Fraction(1, 2))),  # the radius
    BrightnessProfile("x%s", (1, 0.5), (0.25, True)),  # a bool value, a % in the kind
    # an all-int radius column with one int too long for text
    BrightnessProfile("padic", (10**5000, 2), (Fraction(1, 4), Fraction(1, 4))),
])
def test_exact_csv_edges_match_the_row_by_row_spelling(profile):
    assert outcome(lanes.csv_text, write_csv, profile) == outcome(
        lanes.csv_text, lanes.row_by_row_csv, profile)
