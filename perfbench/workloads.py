"""The four workloads: seeded inputs, one timed round, and its checks.

A round is a fixed list of operations built once per run from the seed.  Its
timed phases call the program's public functions and keep their results; the
checks run after the clock stops and compare every result with ``oracle`` or
with a property the method must have.  Later rounds must reproduce the first
round's results exactly.  The amount of work in a round does not depend on
the seed, only the values do, so runs with different seeds are comparable.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import oracle
from interfere import cli, context, engine, hyperbolic, padic, padic_rule, profiles

clock = time.perf_counter

SMALL_PRIMES = (2, 3, 5, 7)
BIG_PRIME = 1_000_000_007
BIG_PRIME_SHARE = 0.1  # of p-adic values and amplitude pairs
BOUNDARY_MARGIN = 1e-6  # float triples keep |lam| at least this far from 1
PROFILE_POINTS = 100_000


class Round:
    """What one round did: timed phases, operation counts, problems found."""

    def __init__(self):
        self.phases = {}  # phase -> [seconds, items]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.latencies = []  # seconds per documented CLI command

    def time(self, phase, seconds, items):
        self.phases[phase] = [seconds, items]

    @property
    def run_s(self) -> float:
        return sum(seconds for seconds, _ in self.phases.values())

    def rate(self, *phases) -> float:
        seconds = sum(self.phases[p][0] for p in phases)
        return sum(self.phases[p][1] for p in phases) / seconds

    def problem(self, text):
        if len(self.problems) < 20:
            self.problems.append(text)


def _settle(workload, out, results, verify):
    """Check the first round's results with `verify`, which returns the
    number of failed operations; every later round must equal the first."""
    if workload._first is None:
        workload._first = (results, verify(out, results))
    elif results != workload._first[0]:
        out.problem(f"{workload.name}: a round differs from the first round")
    out.failed = workload._first[1]


def _median_rate(rounds, *phases):
    return statistics.median(r.rate(*phases) for r in rounds)


def _shares(rng, count, kinds):
    """A shuffled list with a fixed number of each kind: [(kind, share)]."""
    out = []
    for kind, share in kinds:
        out.extend([kind] * round(count * share))
    out.extend([kinds[0][0]] * (count - len(out)))
    rng.shuffle(out)
    return out


class Failure(str):
    """An operation that raised, kept as its message so that rounds compare."""


def _partition(grid, partition, tol=1e-10):
    """[(index, sign)] in the documented order of a piecewise profile: each
    interval in turn takes the grid points, within tol of its ends, that no
    earlier interval took; points in no interval drop out."""
    taken, picks = set(), []
    for lo, hi, sign in partition:
        for i, r in enumerate(grid):
            if i not in taken and lo - tol <= r <= hi + tol:
                taken.add(i)
                picks.append((i, sign))
    return picks


def _read_csv(text):
    """(metadata dict, data rows) of the program's profile CSV."""
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return meta, header, rows


def _check_float_csv(out, name, text, kind, grid, expected):
    meta, header, rows = _read_csv(text)
    if meta.get("kind") != kind or header != "r,P_float,P_exact,kind" or len(rows) != len(grid):
        out.problem(f"{name}: CSV header or row count wrong ({len(rows)} rows for {len(grid)})")
        return
    for (r, p_float, p_exact, row_kind), x, want in zip(rows, grid, expected):
        if (
            row_kind != kind
            or p_exact
            or not oracle.close(float(r), x, 1e-11)
            or not oracle.close(float(p_float), want, 1e-11)
        ):
            out.problem(f"{name}: CSV row {r},{p_float} does not match r={x}, P={want}")
            return


# ---------------------------------------------------------------------------
# float-batch
# ---------------------------------------------------------------------------

def _float_triple(rng, kind):
    """(p1, p2, p) whose deviation lies in the regime `kind`, kept at least
    BOUNDARY_MARGIN away from |lam| = 1."""
    margin = BOUNDARY_MARGIN
    while True:
        p1, p2 = rng.uniform(0.001, 0.5), rng.uniform(0.001, 0.5)
        weight = 2 * math.sqrt(p1 * p2)
        lo, hi = -(p1 + p2) / weight, (1 - p1 - p2) / weight
        if kind == "trig":
            a, b = max(lo, -1 + margin), min(hi, 1 - margin)
        elif kind == "hyp+":
            a, b = 1 + margin, hi
        else:
            a, b = lo, -1 - margin
        if b - a < 1e-3:
            continue
        p = p1 + p2 + weight * rng.uniform(a, b)
        if 0 <= p <= 1:
            return p1, p2, p


def _trig_pair(rng, low=0.03):
    """(p1, p2) whose trigonometric curve stays a probability: sqrt(p1) +
    sqrt(p2) <= 1."""
    s1 = rng.uniform(low, 0.9)
    s2 = rng.uniform(low, 1 - s1)
    return s1 * s1, s2 * s2


def _windows(p1, p2):
    """(q_plus, q_minus): cosh at the ends of the two hyperbolic windows."""
    weight = 2 * math.sqrt(p1 * p2)
    return (1 - p1 - p2) / weight, (p1 + p2) / weight


def _hyp_pair(rng):
    """(p1, p2, theta_max, theta_min) with both hyperbolic windows open and
    not tiny."""
    while True:
        p1 = rng.uniform(0.01, 0.1)
        p2 = p1 * rng.uniform(2.0, 6.0)
        q_plus, q_minus = _windows(p1, p2)
        if q_plus > 1.01 and q_minus > 1.01:
            return p1, p2, math.acosh(q_plus), math.acosh(q_minus)


def _transform(rng):
    """A trig-mode (prior, cond, phases) whose perturbed components stay in
    [1e-9, 1 - 1e-9], and hyp-mode (phases, signs) inside each component's
    window."""
    while True:
        pb1, r0, r1 = rng.uniform(0.05, 0.95), rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
        prior, cond = (pb1, 1 - pb1), ((r0, 1 - r0), (r1, 1 - r1))
        phases = (rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        if all(1e-9 <= v <= 1 - 1e-9 for v in oracle.total_quantum(prior, cond, phases)):
            break
    hyp_phases, signs = [], []
    for j in (0, 1):
        a, b = prior[0] * cond[0][j], prior[1] * cond[1][j]
        weight = 2 * math.sqrt(a * b)
        if rng.random() < 0.5 and (1 - a - b) / weight > 1.001:
            signs.append(1)
            hyp_phases.append(rng.uniform(0, 0.999) * math.acosh((1 - a - b) / weight))
        else:
            signs.append(-1)
            hyp_phases.append(rng.uniform(0, 0.999) * math.acosh(max(1.0, (a + b) / weight)))
    return prior, cond, phases, tuple(hyp_phases), tuple(signs)


PROFILE_PHASES = ("profile_trig", "profile_hyp", "profile_piecewise")


class FloatBatch:
    """Float inputs only: fits, direct rules, window endpoints, 1e5-point
    profiles emitted as CSV, and total-probability transforms.

    Each phase but `bounds` is sized to take about the time of one 1e5-point
    profile at the commit the benchmark was added to, so that each carries a
    similar share of a round (README, "How a round is weighted").  `bounds`
    is held to about a tenth of that by the cost of its 50-digit oracle.
    """

    name = "float-batch"
    FITS = 60_000
    RULE_RUNS = 2_000  # per branch kind
    RULE_STEPS = 50  # evenly spaced angles per (p1, p2)
    BOUNDS = 20_000
    TRANSFORMS = 15_000

    def __init__(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        kinds = _shares(rng, self.FITS, [("trig", 0.5), ("hyp+", 0.25), ("hyp-", 0.25)])
        self.fits = [_float_triple(rng, kind) for kind in kinds]
        self.fit_expect = []
        for (p1, p2, p), kind in zip(self.fits, kinds):
            lam = float(oracle.deviation(p1, p2, p))
            sign = -1 if kind == "hyp-" else 1
            regime = "trigonometric" if kind == "trig" else "hyperbolic"
            self.fit_expect.append((lam, regime, sign))

        # Rules run along seeded arithmetic progressions of angles, which the
        # oracle follows with a recurrence instead of one 50-digit cos or
        # cosh per angle.
        steps = self.RULE_STEPS
        self.trig_points, self.trig_expect = [], []
        for _ in range(self.RULE_RUNS):
            p1, p2 = _trig_pair(rng)
            start, step = rng.uniform(0, 2 * math.pi), rng.uniform(0.01, 0.2)
            self.trig_points += [(p1, p2, start + j * step) for j in range(steps)]
            self.trig_expect += oracle.Rule(p1, p2, "trig").progression(start, step, steps)
        self.hyp_points, self.hyp_expect = [], []
        for _ in range(self.RULE_RUNS):
            p1, p2, theta_max, theta_min = _hyp_pair(rng)
            sign = rng.choice((1, -1))
            step = (theta_max if sign == 1 else theta_min) * (1 - 1e-9) / steps
            start = rng.uniform(0, step)
            self.hyp_points += [(p1, p2, start + j * step, sign) for j in range(steps)]
            self.hyp_expect += oracle.Rule(p1, p2, "hyp", sign).progression(start, step, steps)

        self.bound_pairs = []
        while len(self.bound_pairs) < self.BOUNDS:
            p1, p2 = rng.uniform(0.001, 0.6), rng.uniform(0.001, 0.6)
            q_plus, q_minus = _windows(p1, p2)
            if abs(q_plus - 1) > 1e-3 and q_minus - 1 > 1e-3:
                self.bound_pairs.append((p1, p2))
        self.bound_expect = []
        for p1, p2 in self.bound_pairs:
            theta_max, theta_min = oracle.theta_bounds(p1, p2)
            self.bound_expect.append(
                (None if theta_max is None else float(theta_max), float(theta_min))
            )

        n = PROFILE_POINTS
        p1, p2 = _trig_pair(rng, low=0.1)
        top = rng.uniform(4 * math.pi, 8 * math.pi)
        trig_grid = tuple(top * i / (n - 1) for i in range(n))
        self.trig_profile = (p1, p2, trig_grid)
        self.trig_profile_expect = oracle.Rule(p1, p2, "trig").grid(top, n)

        p1, p2, theta_max, theta_min = _hyp_pair(rng)
        sign = rng.choice((1, -1))
        hi = theta_max if sign == 1 else theta_min
        hyp_grid = tuple(hi * i / (n - 1) for i in range(n))
        self.hyp_profile = (p1, p2, sign, hyp_grid)
        self.hyp_profile_expect = oracle.Rule(p1, p2, "hyp", sign).grid(hi, n)

        p1, p2, theta_max, theta_min = _hyp_pair(rng)
        cut = rng.uniform(0.4, 0.6) * min(theta_min, theta_max)
        top = rng.uniform(0.9, 0.99) * theta_max
        partition = ((0.0, cut, -1), (cut + 0.01 * top, top, 1))
        grid = tuple(top * i / (n - 1) for i in range(n))
        self.piece_profile = (p1, p2, partition, grid)
        kept = _partition(grid, partition)
        self.piece_grid = tuple(grid[i] for i, _ in kept)
        branch = {s: oracle.Rule(p1, p2, "hyp", s).grid(top, n) for s in (1, -1)}
        self.piece_expect = [branch[s][i] for i, s in kept]

        self.transforms = [_transform(rng) for _ in range(self.TRANSFORMS)]
        self.transform_expect = [
            (
                oracle.total_classical(prior, cond),
                oracle.total_quantum(prior, cond, phases),
                oracle.total_hyperbolic(prior, cond, hyp_phases, signs),
            )
            for prior, cond, phases, hyp_phases, signs in self.transforms
        ]
        self._first = None

    @property
    def operations(self):
        rules = 2 * self.RULE_RUNS * self.RULE_STEPS
        return self.FITS + rules + self.BOUNDS + 3 + self.TRANSFORMS

    def run_round(self, in_process=False):
        out = Round()
        results = {}

        fit_record = engine.fit_record
        fits = []
        start = clock()
        for p1, p2, p in self.fits:
            try:
                record = fit_record(p1, p2, p)
                fits.append((record.lam, record.regime.value, record.sign, record.residual()))
            except Exception as exc:  # counted as a failed operation
                fits.append(Failure(repr(exc)))
        out.time("fits", clock() - start, self.FITS)
        results["fits"] = fits

        interfere_trig, interfere_hyp = engine.interfere_trig, engine.interfere_hyp
        trig, hyp = [], []
        start = clock()
        for p1, p2, theta in self.trig_points:
            try:
                trig.append(interfere_trig(p1, p2, theta))
            except Exception as exc:
                trig.append(Failure(repr(exc)))
        for p1, p2, theta, sign in self.hyp_points:
            try:
                hyp.append(interfere_hyp(p1, p2, theta, sign))
            except Exception as exc:
                hyp.append(Failure(repr(exc)))
        out.time("rules", clock() - start, len(trig) + len(hyp))
        results["trig"], results["hyp"] = trig, hyp

        theta_bounds = profiles.theta_bounds
        bounds = []
        start = clock()
        for p1, p2 in self.bound_pairs:
            try:
                bounds.append(theta_bounds(p1, p2))
            except Exception as exc:
                bounds.append(Failure(repr(exc)))
        out.time("bounds", clock() - start, self.BOUNDS)
        results["bounds"] = bounds

        emitted = {}
        for label, build, args in (
            ("trig", profiles.profile_trig, self.trig_profile),
            ("hyp", profiles.profile_hyp, self.hyp_profile),
            ("piecewise", profiles.profile_piecewise, self.piece_profile),
        ):
            points = 0
            start = clock()
            try:
                profile = build(*args)
                buffer = io.StringIO()
                profiles.write_csv(profile, buffer)
                emitted[label] = (profile.grid, profile.values, profile.warnings, buffer.getvalue())
                points = len(profile.values)
            except Exception as exc:
                emitted[label] = Failure(repr(exc))
            out.time(f"profile_{label}", clock() - start, max(points, 1))
        results["profiles"] = emitted

        Transform = context.ContextTransform
        classical = context.total_prob_classical
        quantum, hyperbolic = context.total_prob_quantum, context.total_prob_hyperbolic
        totals = []
        start = clock()
        for prior, cond, phases, hyp_phases, signs in self.transforms:
            try:
                t = Transform(prior, cond, phases)
                th = Transform(prior, cond, hyp_phases, signs, "hyp")
                totals.append((classical(t), quantum(t), hyperbolic(th)))
            except Exception as exc:
                totals.append(Failure(repr(exc)))
        out.time("totalprob", clock() - start, self.TRANSFORMS)
        results["totalprob"] = totals

        out.attempted = self.operations
        _settle(self, out, results, self._verify)
        return out

    def _verify(self, out, results):
        failed = 0
        for got, (p1, p2, p), (lam, regime, sign) in zip(results["fits"], self.fits, self.fit_expect):
            if isinstance(got, Failure):
                failed += 1
                continue
            g_lam, g_regime, g_sign, residual = got
            if not (
                oracle.close(g_lam, lam)
                and g_regime == regime
                and g_sign == sign
                and residual <= 1e-10
            ):
                out.problem(f"fit({p1!r}, {p2!r}, {p!r}) gave {got}, expected {lam}, {regime}")
        for name, got_list, want_list, args_list in (
            ("interfere_trig", results["trig"], self.trig_expect, self.trig_points),
            ("interfere_hyp", results["hyp"], self.hyp_expect, self.hyp_points),
        ):
            for got, want, args in zip(got_list, want_list, args_list):
                if isinstance(got, Failure):
                    failed += 1
                elif not oracle.close(got, want):
                    out.problem(f"{name}{args} = {got!r}, oracle {want!r}")
        for got, want, args in zip(results["bounds"], self.bound_expect, self.bound_pairs):
            if isinstance(got, Failure):
                failed += 1
            elif (got[0] is None) != (want[0] is None) or not (
                (want[0] is None or oracle.close(got[0], want[0]))
                and oracle.close(got[1], want[1])
            ):
                out.problem(f"theta_bounds{args} = {got}, oracle {want}")
        emitted = results["profiles"]
        for label, kind, grid, expect in (
            ("trig", "trig", self.trig_profile[2], self.trig_profile_expect),
            ("hyp", "hyp", self.hyp_profile[3], self.hyp_profile_expect),
            ("piecewise", "piecewise", self.piece_grid, self.piece_expect),
        ):
            got = emitted[label]
            if isinstance(got, Failure):
                failed += 1
                continue
            g_grid, values, warnings, text = got
            if tuple(g_grid) != tuple(grid) or warnings:
                out.problem(f"profile_{label}: grid or warnings differ from the input")
                continue
            bad = [i for i, (v, w) in enumerate(zip(values, expect)) if not oracle.close(v, w)]
            if bad:
                i = bad[0]
                out.problem(f"profile_{label} at r={grid[i]!r}: {values[i]!r}, oracle {expect[i]!r}")
            if not all(0 <= v <= 1 for v in values):
                out.problem(f"profile_{label} left [0, 1]")
            if label == "hyp":
                sign = self.hyp_profile[2]
                steps = zip(values, values[1:])
                if not all((a <= b) if sign == 1 else (a >= b) for a, b in steps):
                    out.problem(f"profile_hyp sign {sign:+d} is not monotone")
            _check_float_csv(out, f"profile_{label}", text, kind, grid, expect)
        for got, want, args in zip(results["totalprob"], self.transform_expect, self.transforms):
            if isinstance(got, Failure):
                failed += 1
            elif not all(
                oracle.close(g, w) for g_pair, w_pair in zip(got, want) for g, w in zip(g_pair, w_pair)
            ):
                out.problem(f"total probability for {args} = {got}, oracle {want}")
        return failed

    def report(self, rounds):
        return [
            ("fits_per_s", _median_rate(rounds, "fits"), "1/s"),
            ("rules_per_s", _median_rate(rounds, "rules"), "1/s"),
            ("profile_points_per_s", _median_rate(rounds, *PROFILE_PHASES), "1/s"),
            ("bounds_per_s", _median_rate(rounds, "bounds"), "1/s"),
            ("totalprob_per_s", _median_rate(rounds, "totalprob"), "1/s"),
        ]


# ---------------------------------------------------------------------------
# exact-batch
# ---------------------------------------------------------------------------

def _exact_triple(rng, kind):
    """(p1, p2, p, lam) in exact rationals.  `trig`, `hyp` and `boundary`
    triples have sqrt(p1) = a/d and sqrt(p2) = b/d, so lam is an exact
    Fraction; `nonsquare` ones have an irrational sqrt(p1*p2) and lam = None."""
    if kind == "nonsquare":
        while True:
            p1 = Fraction(rng.randint(1, 400), rng.randint(401, 2000))
            p2 = Fraction(rng.randint(1, 400), rng.randint(401, 2000))
            if oracle.exact_root(p1 * p2) is not None:
                continue
            weight = 2 * math.sqrt(p1 * p2)
            lo, hi = float(-(p1 + p2)) / weight, float(1 - p1 - p2) / weight
            if rng.random() < 0.5:
                a, b = max(lo, -0.999), min(hi, 0.999)
            elif hi > 1.002:
                a, b = 1.001, hi
            else:
                a, b = lo, -1.001
            if b - a < 1e-3:
                continue
            p = Fraction(round((float(p1 + p2) + weight * rng.uniform(a, b)) * 10**12), 10**12)
            if 0 <= p <= 1 and abs(abs(oracle.deviation(p1, p2, p)) - 1) > 1e-4:
                return p1, p2, p, None
    d = rng.randint(20, 400)
    a = rng.randint(1, d - 2)
    b = rng.randint(1, d - 1 - a)  # a + b < d keeps the whole trig range valid
    p1, p2, cross = Fraction(a * a, d * d), Fraction(b * b, d * d), Fraction(2 * a * b, d * d)
    k = rng.randint(2, 60)
    if kind == "boundary":
        lam = Fraction(rng.choice((1, -1)))
    elif kind == "trig":
        lam = Fraction(rng.randint(1 - k, k - 1), k)
    else:
        lo, hi = -(p1 + p2) / cross, (1 - p1 - p2) / cross
        step = Fraction(rng.randint(1, k - 1), k)
        lam = -1 + (lo + 1) * step if a != b and rng.random() < 0.5 else 1 + (hi - 1) * step
    return p1, p2, p1 + p2 + cross * lam, lam


def _split_number(rng, invertible):
    def frac():
        return Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))

    y = frac()
    if not invertible:
        return frac(), y
    x = abs(y) + Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4))
    return (x if rng.random() < 0.5 else -x), y


def _prime_mix(rng, count):
    """Small primes in turn, with BIG_PRIME_SHARE of the positions at 10**9+7."""
    kinds = _shares(rng, count, [("small", 1 - BIG_PRIME_SHARE), ("big", BIG_PRIME_SHARE)])
    return [BIG_PRIME if k == "big" else SMALL_PRIMES[i % 4] for i, k in enumerate(kinds)]


def _unit(rng, p, span=10**4):
    """A nonzero rational with numerator and denominator prime to p."""
    while True:
        num, den = rng.randint(1, span), rng.randint(1, span)
        if num % p and den % p:
            return Fraction(rng.choice((1, -1)) * num, den)


class ExactBatch:
    """Exact inputs only: Fraction fits, exact split-complex ring operations,
    p-adic values and arithmetic, amplitude pairs through the p-adic rule,
    and large two-slit profiles emitted as CSV.

    Each phase is sized to take about the same time at the commit the
    benchmark was added to, so that each carries a similar share of a round
    (README, "How a round is weighted").
    """

    name = "exact-batch"
    FITS = 8_000
    HYP = 5_000
    VALUES = 2_800
    PAIRS = 3_500
    DIGITS = 6
    SLIT_POINTS = 7_000  # per small prime

    def __init__(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        kinds = _shares(
            rng,
            self.FITS,
            [("trig", 0.35), ("hyp", 0.35), ("boundary", 0.15), ("nonsquare", 0.15)],
        )
        self.fits = [_exact_triple(rng, kind) for kind in kinds]
        self.fit_expect = []
        for p1, p2, p, lam in self.fits:
            if lam is None:
                reference = oracle.deviation(p1, p2, p)
                self.fit_expect.append((float(reference), oracle.regime(reference)))
            else:
                self.fit_expect.append((lam, oracle.regime(lam)))

        self.split = [(_split_number(rng, True), _split_number(rng, False)) for _ in range(self.HYP)]

        self.values = []
        for p in _prime_mix(rng, self.VALUES):
            shift = Fraction(p) ** rng.randint(-3, 3)
            x = _unit(rng, p, 10**6) * shift
            y = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
            y *= Fraction(p) ** rng.randint(-3, 3)
            self.values.append((p, x, y))

        self.pairs = []
        for p in _prime_mix(rng, self.PAIRS):
            alpha1 = _unit(rng, p) * p ** rng.randint(0, 3)
            alpha2 = _unit(rng, p) * p ** rng.randint(0, 3)
            self.pairs.append((p, alpha1, alpha2, _unit(rng, p)))
        self.pair_expect = [oracle.padic_rule(*args) for args in self.pairs]

        self.slits = []
        for p in SMALL_PRIMES:
            eps_max = self.SLIT_POINTS * p // (p - 1)
            self.slits.append((p, rng.randint(0, 2), eps_max))
        self.slit_expect = [
            [(1 + e, oracle.slit_probability(p, l, e)) for e in range(1, eps_max + 1) if e % p]
            for p, l, eps_max in self.slits
        ]
        self._first = None

    @property
    def operations(self):
        return self.FITS + self.HYP + self.VALUES + self.PAIRS + len(self.slits)

    def run_round(self, in_process=False):
        out = Round()
        results = {}

        fit_record = engine.fit_record
        fits = []
        start = clock()
        for p1, p2, p, _ in self.fits:
            try:
                record = fit_record(p1, p2, p)
                fits.append((record.lam, record.regime.value, record.phase))
            except Exception as exc:
                fits.append(Failure(repr(exc)))
        out.time("fits", clock() - start, self.FITS)
        results["fits"] = fits

        H, inverse = hyperbolic.HyperbolicNumber, hyperbolic.inverse
        numbers = [(H(*a), H(*b)) for a, b in self.split]
        split = []
        start = clock()
        for z, w in numbers:
            try:
                split.append((z * w, z + w, z.conjugate(), z.norm_sq(), inverse(z)))
            except Exception as exc:
                split.append(Failure(repr(exc)))
        out.time("hyp_ops", clock() - start, 5 * self.HYP)
        results["split"] = [
            x if isinstance(x, Failure) else
            (tuple((v.x, v.y) for v in (x[0], x[1], x[2], x[4])), x[3])
            for x in split
        ]

        Padic = padic.PadicRational
        values = []
        start = clock()
        for p, x, y in self.values:
            try:
                a, b = Padic(p, x), Padic(p, y)
                values.append((a, a + b, a - b, a * b, a / b, a.abs(), a.digits(self.DIGITS)))
            except Exception as exc:
                values.append(Failure(repr(exc)))
        out.time("padic_values", clock() - start, 8 * self.VALUES)
        results["values"] = [
            v if isinstance(v, Failure) else
            (tuple((r.value, r.order) for r in v[:5]), v[5], v[6].exponent, v[6].digits)
            for v in values
        ]

        Pair, interfere = padic_rule.PadicAmplitudePair, padic_rule.padic_interfere
        pairs = []
        start = clock()
        for args in self.pairs:
            try:
                r = interfere(Pair(*args))
                pairs.append((r.case, r.probability, r.p1, r.p2, r.lam, r.cross_factor))
            except Exception as exc:
                pairs.append(Failure(repr(exc)))
        out.time("padic_pairs", clock() - start, self.PAIRS)
        results["pairs"] = pairs

        slits = []
        points = 0
        start = clock()
        for p, l, eps_max in self.slits:
            try:
                profile = profiles.profile_padic(p, l, eps_max)
                buffer = io.StringIO()
                profiles.write_csv(profile, buffer)
                slits.append((profile.grid, profile.values, buffer.getvalue()))
                points += len(profile.values)
            except Exception as exc:
                slits.append(Failure(repr(exc)))
        out.time("slit_profiles", clock() - start, max(points, 1))
        results["slits"] = slits

        out.attempted = self.operations
        _settle(self, out, results, self._verify)
        return out

    def _verify(self, out, results):
        failed = 0
        for got, (p1, p2, p, lam), (want, regime) in zip(results["fits"], self.fits, self.fit_expect):
            if isinstance(got, Failure):
                failed += 1
                continue
            g_lam, g_regime, phase = got
            if lam is None:
                ok = isinstance(g_lam, float) and oracle.close(g_lam, want)
            else:
                ok = isinstance(g_lam, (int, Fraction)) and g_lam == want
                if regime == "boundary":
                    ok = ok and phase == (0.0 if lam == 1 else math.pi)
            if not ok or g_regime != regime:
                out.problem(f"fit({p1}, {p2}, {p}) gave lam={g_lam!r} {g_regime}, expected {want!r} {regime}")

        for got, (z, w) in zip(results["split"], self.split):
            if isinstance(got, Failure):
                failed += 1
                continue
            (prod, total, conj, inv), norm = got
            exact = all(isinstance(c, (int, Fraction)) for pair in got[0] for c in pair)
            if not (
                exact
                and prod == oracle.split_mul(z, w)
                and total == oracle.split_add(z, w)
                and conj == (z[0], -z[1])
                and norm == oracle.split_norm(z)
                and oracle.split_norm(prod) == oracle.split_norm(z) * oracle.split_norm(w)
                and oracle.split_mul(inv, z) == (1, 0)
            ):
                out.problem(f"split-complex ops on {z}, {w} gave {got}")

        for got, (p, x, y) in zip(results["values"], self.values):
            if isinstance(got, Failure):
                failed += 1
                continue
            arith, absolute, exponent, digits = got
            want = [x, x + y, x - y, x * y, x / y]
            if not (
                all(v == w and o == oracle.valuation(p, w) for (v, o), w in zip(arith, want))
                and absolute == oracle.padic_abs(p, x)
                and len(digits) == self.DIGITS
                and oracle.digits_ok(p, x, exponent, digits)
            ):
                out.problem(f"PadicRational({p}, {x}) with y={y} gave {got}")

        for got, want, args in zip(results["pairs"], self.pair_expect, self.pairs):
            if isinstance(got, Failure):
                failed += 1
                continue
            case, lam = got[0], got[4]
            in_range = (-1 <= lam <= Fraction(-1, 2)) if case == "C" else (Fraction(-1, 2) < lam < 0)
            if got != want or not in_range:
                out.problem(f"padic_interfere{args} gave {got}, oracle {want}")

        for got, want, (p, l, eps_max) in zip(results["slits"], self.slit_expect, self.slits):
            if isinstance(got, Failure):
                failed += 1
                continue
            grid, values, text = got
            if list(zip(grid, values)) != want:
                out.problem(f"profile_padic({p}, {l}, {eps_max}) differs from the valuation oracle")
                continue
            meta, header, rows = _read_csv(text)
            if (
                meta.get("kind") != "padic"
                or header != "r,P_float,P_exact,kind"
                or [(int(r[0]), Fraction(r[2])) for r in rows] != want
                or not all(
                    r[3] == "padic" and oracle.close(float(r[1]), float(v), 1e-11)
                    for r, (_, v) in zip(rows, want)
                )
            ):
                out.problem(f"profile_padic({p}, {l}, {eps_max}) CSV does not match the oracle")
        return failed

    def report(self, rounds):
        return [
            ("fits_per_s", _median_rate(rounds, "fits"), "1/s"),
            ("hyp_ops_per_s", _median_rate(rounds, "hyp_ops"), "1/s"),
            ("padic_value_ops_per_s", _median_rate(rounds, "padic_values"), "1/s"),
            ("padic_pairs_per_s", _median_rate(rounds, "padic_pairs"), "1/s"),
            ("profile_points_per_s", _median_rate(rounds, "slit_profiles"), "1/s"),
        ]


# ---------------------------------------------------------------------------
# check-suite
# ---------------------------------------------------------------------------

def _units_mod(p, k):
    return sum(1 for u in range(1, p**k) if u % p)


def _lambda_range_cases(primes=(2, 3, 5), max_order=4):
    """Cases of the exhaustive p-adic lambda-range sweep: every pair of
    amplitude orders 0..max_order against every unit mod p**4, -1 and the
    rational units of the sweep's pool prime to p, plus the case-C sweep of
    units mod p**3 against each other."""
    pool = (Fraction(1, 2), Fraction(3, 2), Fraction(2, 3), Fraction(5, 7), Fraction(-7, 4))
    total = 0
    for p in primes:
        rational = sum(1 for f in pool if f.numerator % p and f.denominator % p)
        total += (max_order + 1) ** 2 * (_units_mod(p, 4) + 1 + rational)
        total += _units_mod(p, 3) ** 2
    return total


def _slit_cases():
    """Three table witnesses, the rule on eps <= 3p+1 for (p, l) in (2, 0),
    (3, 1), (5, 0), five jump witnesses for each of p = 2, 3, 5 and nine
    local-constancy probes for each of them."""
    agreement = sum(1 for p in (2, 3, 5) for e in range(1, 3 * p + 2) if e % p)
    return 3 + agreement + 3 * 5 + 3 * 9


# Case counts of `interfere check` at full size, from the sweep sizes that
# `checks.run_all(full=True)` documents: 10**4 cases for each of the four
# split-complex laws, 50**3 grids for the oracle sweeps (the hyperbolic one
# for both signs), and the enumerations described in each check's docstring.
CHECK_CASES = {
    "hyperbolic-algebra-laws": 4 * 10_000,
    "ultrametric-valuation": 10_000,
    "ball-geometry": 2_000,
    "digit-expansion-convergence": 2_000,
    "amplitude-oracle-trig": 50**3,
    "amplitude-oracle-hyp": 2 * 50**3,
    "padic-lambda-range": _lambda_range_cases(),
    "padic-slit-fluctuations": _slit_cases(),
    "theta-window-bounds": 1_000 + 2,
    # range, 3 maxima, 2 minima, 3 plus branches, the 2 minus branches with
    # theta_min > 0, the clipping warning, the p-adic picture
    "profile-invariants": 1 + 3 + 2 + 3 + 2 + 1 + 1,
    # quarter turns, complex oracle, doubly stochastic defect, state
    # expansion, split-complex oracle, degenerate prior
    "total-probability-coherence": 200 + 10 * 1_000 + 200 + 1_000 + 200 + 100,
}


class CheckSuite:
    """`interfere check` at full size, in process through cli.main."""

    name = "check-suite"

    def __init__(self, seed, workdir):
        # The suite's sweeps carry their own fixed seeds; the run seed has
        # nothing to vary here.
        self._first = None

    @property
    def operations(self):
        return len(CHECK_CASES)

    def run_round(self, in_process=True):
        out = Round()
        buffer = io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(["check"])
        except Exception:
            code = None
            out.problem("check raised:\n" + traceback.format_exc())
        elapsed = clock() - start
        text = buffer.getvalue()
        lines = text.splitlines()
        cases = 0
        seen = {}
        for line in lines[:-1]:
            status, _, rest = line.partition("  ")
            name, _, counts = rest.partition(": ")
            parts = counts.replace(",", "").split()
            if len(parts) >= 4 and parts[0].isdigit() and parts[2].isdigit():
                seen[name] = (status, int(parts[0]), int(parts[2]))
        out.attempted = len(CHECK_CASES)
        for name, want in CHECK_CASES.items():
            if name not in seen:
                out.failed += 1
                out.problem(f"check {name} missing from the output")
                continue
            status, count, violations = seen[name]
            cases += count
            if violations or status != "PASS":
                out.failed += 1
            if count != want:
                out.problem(f"check {name} ran {count} cases, documented {want}")
        if code != 0 or set(seen) != set(CHECK_CASES):
            out.problem(f"check exited {code} with checks {sorted(seen)}")
        if self._first is not None and text != self._first:
            out.problem("check output differs from the first round")
        self._first = text
        out.time("check", elapsed, max(cases, 1))
        return out

    def report(self, rounds):
        return [("check_cases_per_s", _median_rate(rounds, "check"), "1/s")]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

TWO_SLIT_CONFIG = """\
mode = trig
pb1 = 1/2
pb2 = 1/2
p11 = 1/2
p12 = 1/2
p21 = 1/2
p22 = 1/2
theta1 = 0
theta2 = pi
"""

ALLOWED_EXIT = (0, 2, 3, 4)
COMMAND_TIMEOUT = 60  # seconds; a command that hangs counts as failed

_ANGLES = {
    "0": 0.0,
    "pi": math.pi,
    "pi/2": math.pi / 2,
    "pi/3": math.pi / 3,
    "2pi/3": 2 * math.pi / 3,
    "-pi/4": -math.pi / 4,
    "pi/6": math.pi / 6,
    "3/5": 0.6,
}


def _decimal(value: Fraction) -> str:
    """A rational whose denominator divides 10**6, written as a decimal."""
    scaled = value * 10**6
    if scaled.denominator != 1:
        raise ValueError(f"{value} has no 6-digit decimal form")
    whole, frac = divmod(abs(scaled.numerator), 10**6)
    text = f"{whole}.{frac:06d}".rstrip("0").rstrip(".")
    return ("-" if value < 0 else "") + text


def _grid(lo, hi, n):
    """n evenly spaced samples covering [lo, hi] inclusive."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


class _Command:
    def __init__(self, argv, check=None, code=0, documented=True):
        self.argv, self.check, self.code, self.documented = argv, check, code, documented


class Cli:
    """A closed loop of `python -m interfere ...` processes, one at a time:
    the documented commands with seeded values, plus four argvs that end in
    a traceback today."""

    name = "cli"
    MIN_SAMPLES = 100

    def __init__(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        config = os.path.join(workdir, "seeded.cfg")
        fixed = os.path.join(workdir, "two_slit.cfg")
        with open(fixed, "w", encoding="utf-8") as stream:
            stream.write(TWO_SLIT_CONFIG)
        commands = []

        # fit: float trig triple, exact triple, float hyperbolic triple, and
        # a degenerate context (documented exit code 3)
        for mode, kind in (("float", "trig"), ("exact", "trig"), ("float", "hyp")):
            p1, p2, p = self._fit_triple(rng, kind)
            argv = ["fit", _decimal(p1), _decimal(p2), _decimal(p)]
            if mode == "exact":
                argv[1:1] = ["--mode", "exact"]
            commands.append(_Command(argv, self._fit_check(p1, p2, p, mode)))
        commands.append(_Command(["fit", "0.25", "0", _decimal(Fraction(rng.randint(1, 99), 100))], self._no_output, 3))

        # profiles at README sizes
        a, b = rng.randint(1, 6), rng.randint(1, 4)
        p1, p2 = Fraction(a * a, 100), Fraction(b * b, 100)
        top = Fraction(rng.randint(30000, 130000), 10**4)
        commands.append(_Command(
            ["profile", "trig", "--p1", _decimal(p1), "--p2", _decimal(p2), "--max", _decimal(top), "--n", "100"],
            self._profile_check("trig", p1, p2, [(r, "trig", 1) for r in _grid(0.0, float(top), 100)]),
        ))
        a, b = rng.randint(1, 6), rng.randint(7, 9)
        p1, p2 = Fraction(a * a, 400), Fraction(b * b, 400)
        sign = rng.choice((1, -1))
        theta_max, theta_min = (math.acosh(q) for q in _windows(float(p1), float(p2)))
        hi = theta_max if sign == 1 else theta_min
        commands.append(_Command(
            ["profile", "hyp", "--p1", _decimal(p1), "--p2", _decimal(p2),
             "--sign", "+" if sign == 1 else "-", "--auto-window", "--n", "50"],
            self._profile_check("hyp", p1, p2, [(r, "hyp", sign) for r in _grid(0.0, hi, 50)]),
        ))
        cut = Fraction(math.floor(0.5 * min(theta_min, theta_max) * 1000), 1000)
        lo2 = cut + Fraction(rng.randint(1, 50), 1000)
        top = Fraction(math.floor(0.95 * theta_max * 1000), 1000)
        grid = _grid(0.0, float(top), 40)
        pieces = ((0.0, float(cut), -1), (float(lo2), float(top), 1))
        picks = [(grid[i], "hyp", sign) for i, sign in _partition(grid, pieces)]
        commands.append(_Command(
            ["profile", "piecewise", "--p1", _decimal(p1), "--p2", _decimal(p2),
             "--intervals", f"0:{_decimal(cut)}:-,{_decimal(lo2)}:{_decimal(top)}:+", "--n", "40"],
            self._profile_check("piecewise", p1, p2, picks),
        ))
        p, l, eps_max = rng.choice(SMALL_PRIMES), rng.randint(0, 1), rng.randint(8, 30)
        commands.append(_Command(
            ["profile", "padic", "--p", str(p), "--l", str(l), "--eps-max", str(eps_max)],
            self._padic_profile_check(p, l, eps_max),
        ))

        # totalprob from a config file, as written and with quarter turns
        settings = self._config(rng)
        with open(config, "w", encoding="utf-8") as stream:
            stream.write("".join(f"{k} = {v}\n" for k, v in settings.items()))
        commands.append(_Command(["totalprob", "--config", config], self._totalprob_check(settings)))
        quarter = dict(settings, theta1="pi/2", theta2="pi/2")
        commands.append(_Command(
            ["totalprob", "--config", config, "--theta1", "pi/2", "--theta2", "pi/2"],
            self._totalprob_check(quarter),
        ))

        # the p-adic rule: one report and the two-slit table
        p = rng.choice(SMALL_PRIMES)
        alpha1 = int(abs(_unit(rng, p, 50).numerator)) * p ** rng.randint(0, 2)
        alpha2 = int(abs(_unit(rng, p, 50).numerator)) * p ** rng.randint(0, 2)
        eps = int(abs(_unit(rng, p, 50).numerator))
        commands.append(_Command(
            ["padic", "--p", str(p), "--alpha1", str(alpha1), "--alpha2", str(alpha2), "--eps", str(eps)],
            self._padic_check(p, alpha1, alpha2, eps),
        ))
        p, eps_max = rng.choice(SMALL_PRIMES), rng.randint(8, 30)
        commands.append(_Command(
            ["padic", "--p", str(p), "--table", "--eps-max", str(eps_max)],
            self._table_check(p, eps_max),
        ))

        # Argvs that end in a traceback today; their inputs do not depend on
        # the seed, so every run fails the same share of operations.
        missing = os.path.join(workdir, "missing", "dir", "x.csv")
        for argv in (
            ["fit", "1e400", "0.1", "0.2"],
            ["totalprob", "--config", fixed, "--theta1", "pi/0"],
            ["totalprob", "--kind", "hyp", "--config", fixed, "--theta1", "1000"],
            ["fit", "0.36", "0.16", "0.76", "--out", missing],
        ):
            commands.append(_Command(argv, None, None, documented=False))
        self.commands = commands
        self._first = None

    # -- seeded inputs -------------------------------------------------------

    @staticmethod
    def _fit_triple(rng, kind):
        while True:
            a, b = rng.randint(1, 6), rng.randint(1, 3)
            p1, p2, cross = Fraction(a * a, 100), Fraction(b * b, 100), Fraction(2 * a * b, 100)
            if kind == "trig":
                lam = Fraction(rng.randint(-9, 9), 10)
            else:
                lam = rng.choice((1, -1)) * (1 + Fraction(rng.randint(1, 30), 10))
            p = p1 + p2 + cross * lam
            if 0 <= p <= 1:
                return p1, p2, p

    @staticmethod
    def _config(rng):
        while True:
            values = {
                "mode": "trig",
                "pb1": Fraction(rng.randint(1, 9), 10),
                "p11": Fraction(rng.randint(1, 9), 10),
                "p21": Fraction(rng.randint(1, 9), 10),
            }
            values["pb2"] = 1 - values["pb1"]
            values["p12"] = 1 - values["p11"]
            values["p22"] = 1 - values["p21"]
            values["theta1"] = rng.choice(sorted(_ANGLES))
            values["theta2"] = rng.choice(sorted(_ANGLES))
            raws = []
            for variant in (values, dict(values, theta1="pi/2", theta2="pi/2")):
                outcome = Cli._totalprob_expect(variant)
                raws += outcome["quantum_raw"] + outcome["hyperbolic_raw"]
            # keep every component clear of the snap band at 0 and 1
            if all(abs(r) > 1e-6 and abs(r - 1) > 1e-6 for r in raws):
                return {
                    k: (_decimal(v) if isinstance(v, Fraction) else v) for k, v in values.items()
                }

    @staticmethod
    def _totalprob_expect(values):
        num = {k: Fraction(v) for k, v in values.items() if k not in ("mode", "theta1", "theta2")}
        prior = (float(num["pb1"]), float(num["pb2"]))
        cond = ((float(num["p11"]), float(num["p12"])), (float(num["p21"]), float(num["p22"])))
        phases = (_ANGLES[values["theta1"]], _ANGLES[values["theta2"]])
        return {
            "phases": phases,
            "classical": oracle.total_classical(prior, cond),
            "quantum_raw": list(oracle.total_quantum(prior, cond, phases)),
            "hyperbolic_raw": list(oracle.total_hyperbolic(prior, cond, phases, (1, 1))),
        }

    # -- output checks -------------------------------------------------------

    @staticmethod
    def _no_output(stdout):
        return stdout == ""

    @staticmethod
    def _fit_check(p1, p2, p, mode):
        lam = oracle.exact_deviation(p1, p2, p)
        regime = oracle.regime(lam)
        theta, sign = oracle.phase(lam)

        def check(stdout):
            data = json.loads(stdout)
            if mode == "exact":
                ok = data["lambda"] == str(lam) and data["p1"] == str(p1) and data["p"] == str(p)
            else:
                ok = oracle.close(data["lambda"], float(lam), 1e-10) and data["p1"] == float(p1)
            return (
                ok
                and data["regime"] == regime
                and data["sign"] == sign
                and oracle.close(data["phase"], theta, 1e-10)
                and data["residual"] <= 1e-10
            )

        return check

    @staticmethod
    def _profile_check(kind, p1, p2, picks):
        rules = {}
        expect = []
        for r, rule_kind, sign in picks:
            rule = rules.setdefault((rule_kind, sign), oracle.Rule(p1, p2, rule_kind, sign))
            expect.append((r, rule(r)))

        def check(stdout):
            meta, header, rows = _read_csv(stdout)
            return (
                meta.get("kind") == kind
                and header == "r,P_float,P_exact,kind"
                and len(rows) == len(expect)
                and all(
                    row[3] == kind
                    and oracle.close(float(row[0]), r, 1e-10)
                    and oracle.close(float(row[1]), v, 1e-10)
                    for row, (r, v) in zip(rows, expect)
                )
            )

        return check

    @staticmethod
    def _padic_profile_check(p, l, eps_max):
        want = [(1 + e, oracle.slit_probability(p, l, e)) for e in range(1, eps_max + 1) if e % p]

        def check(stdout):
            meta, header, rows = _read_csv(stdout)
            return meta.get("kind") == "padic" and [
                (int(r[0]), Fraction(r[2])) for r in rows
            ] == want

        return check

    @staticmethod
    def _totalprob_check(settings):
        want = Cli._totalprob_expect(settings)

        def branch(got, raws):
            for j, raw in enumerate(raws):
                if not 0 <= raw <= 1:
                    return (
                        isinstance(got, dict)
                        and got["component"] == j + 1
                        and oracle.close(got["raw"], raw, 1e-10)
                    )
            return isinstance(got, list) and all(
                oracle.close(g, w, 1e-10) for g, w in zip(got, raws)
            )

        def check(stdout):
            data = json.loads(stdout)
            defect = sum(want["quantum_raw"]) - 1
            return (
                all(oracle.close(g, w, 1e-10) for g, w in zip(data["classical"], want["classical"]))
                and branch(data["quantum"], want["quantum_raw"])
                and branch(data["hyperbolic"], want["hyperbolic_raw"])
                and oracle.close(data["normalization_defect"], defect, 1e-10)
                and oracle.close(data["transform"]["theta1"], want["phases"][0], 1e-10)
            )

        return check

    @staticmethod
    def _padic_check(p, alpha1, alpha2, eps):
        case, big_p, p1, p2, lam, cross = oracle.padic_rule(p, alpha1, alpha2, eps)

        def check(stdout):
            data = json.loads(stdout)
            return (
                data["case"] == case
                and data["P"] == str(big_p)
                and data["P1"] == str(p1)
                and data["P2"] == str(p2)
                and data["c"] == (None if cross is None else str(cross))
                and data["lambda"] == str(lam)
                and data["within_range"] is True
                and oracle.close(data["theta"], math.acos(lam), 1e-10)
            )

        return check

    @staticmethod
    def _table_check(p, eps_max):
        want = [
            (e, oracle.valuation(p, 1 + e), oracle.slit_probability(p, 0, e))
            for e in range(1, eps_max + 1)
            if e % p
        ]

        def check(stdout):
            lines = [x for x in stdout.splitlines() if not x.startswith("#")]
            rows = [x.split(",") for x in lines[1:]]
            return lines[0] == "epsilon,v_p_of_1_plus_epsilon,P_exact,P_float" and [
                (int(r[0]), int(r[1]), Fraction(r[2])) for r in rows
            ] == want and all(
                oracle.close(float(r[3]), float(w[2]), 1e-11) for r, w in zip(rows, want)
            )

        return check

    # -- the loop ------------------------------------------------------------

    @property
    def operations(self):
        return len(self.commands)

    def enough(self, rounds):
        return sum(len(r.latencies) for r in rounds) >= self.MIN_SAMPLES

    @staticmethod
    def _spawn(argv):
        start = clock()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "interfere", *argv],
                capture_output=True,
                stdin=subprocess.DEVNULL,
                timeout=COMMAND_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return clock() - start, None, "", f"timed out after {COMMAND_TIMEOUT} s"
        elapsed = clock() - start
        return elapsed, done.returncode, done.stdout.decode(), done.stderr.decode()

    @staticmethod
    def _call(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
            stderr.write(traceback.format_exc())
        return clock() - start, code, stdout.getvalue(), stderr.getvalue()

    def run_round(self, in_process=False):
        out = Round()
        run = self._call if in_process else self._spawn
        results = []
        total = 0.0
        for command in self.commands:
            elapsed, code, stdout, stderr = run(command.argv)
            total += elapsed
            results.append((code, stdout))
            out.attempted += 1
            if code not in ALLOWED_EXIT or "Traceback" in stderr:
                out.failed += 1
            if not command.documented:
                continue
            out.latencies.append(elapsed)
            try:
                ok = code == command.code and command.check(stdout)
            except (ValueError, KeyError, IndexError, TypeError):
                ok = False
            if not ok:
                out.problem(f"interfere {' '.join(command.argv)}: exit {code}, stdout {stdout[:300]!r}")
        if self._first is not None and results != self._first:
            out.problem("a repeated argv gave different stdout or exit code")
        self._first = results
        out.time("commands", total, len(self.commands))
        return out

    def report(self, rounds):
        samples = sorted(x for r in rounds for x in r.latencies)
        cuts = statistics.quantiles(samples, n=10, method="inclusive")
        return [
            ("cli_p50_ms", statistics.median(samples) * 1000, "ms"),
            ("cli_p90_ms", cuts[8] * 1000, "ms"),
            ("cli_samples", len(samples), "count"),
        ]


WORKLOADS = {w.name: w for w in (FloatBatch, ExactBatch, CheckSuite, Cli)}
