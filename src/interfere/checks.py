"""Self-contained invariant suite behind the `check` CLI subcommand.

Every check runs a deterministic sweep (seeded RNG or exhaustive enumeration)
and reports how many cases it tried and how many violated the invariant it
guards.  The CLI prints one line per check; the acceptance tests rerun the
same sweeps at their full sizes.

A case costs its invariant and no more: its counterexample message is passed
as a zero-argument callable and formatted only if the case is the sweep's
first violation.
"""

from __future__ import annotations

import math
import os
import random
from collections.abc import Callable
from fractions import Fraction

from . import engine, hyperbolic
from .context import (
    ContextTransform,
    hyperbolic_sqrt_transform,
    normalization_defect,
    phases_from_state_expansion,
    raw_quantum_components,
    sqrt_linear_transform,
    total_prob_classical,
    total_prob_hyperbolic,
    total_prob_quantum,
)
from .engine import _interfere, combine, interfere_hyp
from .errors import _Record
from .hyperbolic import _exact
from .padic import PadicBall, PadicRational, prime_multiplicity
from .padic_rule import PadicAmplitudePair, padic_interfere, padic_slit_profile
from .profiles import profile_hyp, profile_padic, profile_trig, theta_bounds, uniform_grid


class CheckResult(_Record, frozen=False):
    """Accumulates case/violation counts and the first counterexample."""

    __slots__ = ("name", "cases", "violations", "detail")

    def __init__(self, name: str, cases: int = 0, violations: int = 0, detail: str = ""):
        self.name, self.cases, self.violations, self.detail = name, cases, violations, detail

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def case(self, ok: bool, detail: str | Callable[[], str] = ""):
        """Count one case.  `detail` describes the first violation; when it
        is a callable, it is called then and only then."""
        self.cases += 1
        if not ok:
            self.violations += 1
            if self.violations == 1:
                self.detail = detail() if callable(detail) else detail


def _close(a, b, tol=1e-12) -> bool:
    """|a - b| within tol relative to the probability scale max(1, |a|, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _unit_phase(phase: float) -> complex:
    """e^{i phase} built from cos/sin directly (oracle-side helper)."""
    return complex(math.cos(phase), math.sin(phase))


# ---------------------------------------------------------------------------
# split-complex algebra
# ---------------------------------------------------------------------------

def _hyperbola_point(m: int, n: int) -> hyperbolic.HyperbolicNumber:
    """Exact rational point ((t + 1/t)/2, (t - 1/t)/2) on x**2 - y**2 = 1 for
    t = m/n, that is ((m**2 + n**2)/2mn, (m**2 - n**2)/2mn); scaling (m, n)
    leaves it unchanged."""
    return _exact(m * m + n * n, m * m - n * n, 2 * m * n)


def _random_ratio(rng, nonzero=False) -> tuple:
    """(n, d) for a rational n/d, d > 0, not reduced: the draws of a random
    component, redrawn while n = 0 if `nonzero`."""
    while True:
        n, d = rng.randint(-60, 60), rng.randint(1, 60)
        if n or not nonzero:
            return n, d


def _random_number(rng) -> hyperbolic.HyperbolicNumber:
    """x + j*y for two random components x = n1/d1, y = n2/d2."""
    n1, d1 = _random_ratio(rng)
    n2, d2 = _random_ratio(rng)
    return _exact(n1 * d2, n2 * d1, d1 * d2)


def _light_cone(rng) -> tuple:
    """Nonzero a = n/d and b = m/e as (n, d) and (m, e), and the numbers the
    zero-divisor laws multiply: a + j*a, b - j*b, b + j*b, 2ab + j*2ab, and
    off the cone a + j*b, or a when |a| = |b|."""
    n, d = _random_ratio(rng, nonzero=True)
    m, e = _random_ratio(rng, nonzero=True)
    off = _exact(n * e, m * d, d * e) if abs(n) * e != abs(m) * d else _exact(n, 0, d)
    twice = _exact(2 * n * m, 2 * n * m, d * e)
    return (n, d), (m, e), _exact(n, n, d), _exact(m, -m, e), _exact(m, m, e), twice, off


def check_hyperbolic_laws(cases_per_law: int = 10000, seed: int = 101) -> CheckResult:
    """Ring laws, norm multiplicativity, Euler group law, polar round trips,
    and the light-cone characterization of zero divisors."""
    rng = random.Random(seed)
    tally = CheckResult("hyperbolic-algebra-laws")
    H = hyperbolic.HyperbolicNumber

    # exact ring laws and norm multiplicativity on rational components
    for _ in range(cases_per_law):
        a, b, c = _random_number(rng), _random_number(rng), _random_number(rng)
        ok = (
            a + b == b + a
            and a * b == b * a
            and (a + b) + c == a + (b + c)
            and (a * b) * c == a * (b * c)
            and a.norm_sq() * b.norm_sq() == (a * b).norm_sq()
            and a.conjugate().conjugate() == a
            and a * a.conjugate() == H(a.norm_sq(), 0)
        )
        tally.case(ok, lambda: f"ring law failed for {a}, {b}, {c}")

    # Euler group law and unit norm, float phases.  Opposite-sign phases
    # cancel catastrophically in cosh*cosh - sinh*sinh terms, so the float
    # tolerance is relative to the terms' magnitude, not the result's; the
    # exact form of the law is checked below on rational hyperbola points.
    for _ in range(cases_per_law):
        t1 = rng.uniform(-20.0, 20.0)
        t2 = rng.uniform(-20.0, 20.0)
        prod = hyperbolic.exp(t1) * hyperbolic.exp(t2)
        direct = hyperbolic.exp(t1 + t2)
        scale = max(1.0, math.cosh(t1) * math.cosh(t2))
        ok = (
            abs(prod.x - direct.x) <= 1e-10 * scale
            and abs(prod.y - direct.y) <= 1e-10 * scale
        )
        # unit circle, tolerance scaled by the cancellation magnitude cosh**2
        unit = hyperbolic.exp(t1)
        sign = rng.choice((1, -1))
        norm = (unit * sign).norm_sq()
        ok = ok and abs(norm - 1) <= 1e-10 * max(1.0, unit.x * unit.x)
        # exact unit circle via rational points on the hyperbola
        ma, na = rng.randint(1, 40), rng.randint(1, 40)
        mb, nb = rng.randint(1, 40), rng.randint(1, 40)
        za, zb = _hyperbola_point(ma, na), _hyperbola_point(mb, nb)
        ok = ok and za.norm_sq() == 1 and za * zb == _hyperbola_point(ma * mb, na * nb)
        tally.case(ok, lambda: f"Euler/unit-circle failed at t1={t1}, t2={t2}")

    # polar decomposition round trip on positive-norm elements
    for _ in range(cases_per_law):
        sign = rng.choice((1, -1))
        modulus = 10.0 ** rng.uniform(-3, 3)
        phase = rng.uniform(-5.0, 5.0)
        z = hyperbolic.exp(phase) * (sign * modulus)
        form = hyperbolic.polar(z)
        back = form.to_number()
        scale = max(1.0, abs(z.x), abs(z.y))
        ok = (
            form.sign == sign
            and abs(form.modulus - modulus) <= 1e-10 * max(1.0, modulus)
            and abs(form.phase - phase) <= 1e-10 * max(1.0, abs(phase))
            and abs(back.x - z.x) <= 1e-10 * scale
            and abs(back.y - z.y) <= 1e-10 * scale
            and hyperbolic.inverse(z) * z == z * hyperbolic.inverse(z)
        )
        tally.case(ok, lambda: f"polar round trip failed for sign={sign} m={modulus} t={phase}")

    # zero divisors live exactly on the light cone
    for _ in range(cases_per_law):
        a, b, cone_plus, cone_minus, cone_b, twice, off = _light_cone(rng)
        ok = (
            cone_plus * cone_minus == hyperbolic.ZERO
            and cone_plus * cone_b == twice
            and cone_plus * cone_b != hyperbolic.ZERO
            and off * cone_plus != hyperbolic.ZERO
            and (off * off).norm_sq() == off.norm_sq() ** 2
            and off * off != hyperbolic.ZERO
        )
        tally.case(
            ok,
            lambda: f"zero-divisor characterization failed for a={Fraction(*a)}, "
            f"b={Fraction(*b)}",
        )

    return tally


# ---------------------------------------------------------------------------
# p-adic valuation
# ---------------------------------------------------------------------------

_ULTRA_PRIMES = (2, 3, 5, 7, 11)


def _random_padic(rng, p, span=40) -> PadicRational:
    """n/d * p**shift for random n, d and shift in [-3, 3]."""
    n, d = rng.randint(-span, span), rng.randint(1, span)
    shift = rng.randint(-3, 3)
    if shift >= 0:
        n *= p ** shift
    else:
        d *= p ** -shift
    return PadicRational(p, Fraction(n, d))


def check_ultrametric(cases: int = 10000, seed: int = 211) -> CheckResult:
    """Strong triangle inequality with its equality branch, multiplicativity,
    symmetry under negation, boundedness on naturals, unit decomposition."""
    rng = random.Random(seed)
    tally = CheckResult("ultrametric-valuation")
    for i in range(cases):
        p = _ULTRA_PRIMES[i % len(_ULTRA_PRIMES)]
        x = _random_padic(rng, p)
        y = _random_padic(rng, p)
        ax, ay = x.abs(), y.abs()
        asum = (x + y).abs()
        ok = asum <= max(ax, ay)
        if ax != ay:
            ok = ok and asum == max(ax, ay)
        ok = ok and (x * y).abs() == ax * ay
        ok = ok and (-x).abs() == ax
        n = rng.randint(1, 10 ** 6)
        ok = ok and PadicRational(p, n).abs() <= 1
        if x.value != 0 and x.order >= 0:
            unit = x.unit_part()
            ok = (
                ok
                and unit.abs() == 1
                and unit.value * Fraction(p) ** x.order == x.value
            )
        tally.case(ok, lambda: f"ultrametric failed for p={p}, x={x}, y={y}")
    return tally


def check_ball_geometry(cases: int = 2000, seed: int = 223) -> CheckResult:
    """Any member of a ball is a center; two balls intersect only by nesting."""
    rng = random.Random(seed)
    tally = CheckResult("ball-geometry")
    for i in range(cases):
        p = _ULTRA_PRIMES[i % len(_ULTRA_PRIMES)]
        center = _random_padic(rng, p)
        n = rng.randint(-3, 3)
        ball = PadicBall(p, center, n)
        # pick a member: center + p**d * unit with p**-d <= p**n
        d = rng.randint(-n, -n + 4)
        member = center + PadicRational(p, rng.choice((1, 2, 3)) * Fraction(p) ** d)
        ok = ball.contains(member)
        recentered = PadicBall(p, member, n)
        probes = [
            center + PadicRational(p, t * Fraction(p) ** k)
            for t, k in ((1, -n - 2), (1, -n), (2, -n + 1), (5, -n + 3), (0, 0))
        ]
        ok = ok and all(ball.contains(y) == recentered.contains(y) for y in probes)
        # nesting: compare with a second ball of possibly different radius
        other_center = _random_padic(rng, p)
        m = rng.randint(-3, 3)
        other = PadicBall(p, other_center, m)
        gap = (center - other_center).abs()
        small, large = (ball, other) if n <= m else (other, ball)
        small_members = [
            small.center,
            small.center + PadicRational(p, Fraction(p) ** (-small.radius_exponent)),
            small.center + PadicRational(p, 2 * Fraction(p) ** (-small.radius_exponent + 2)),
        ]
        if gap <= max(ball.radius, other.radius):
            ok = ok and all(large.contains(z) for z in small_members)
        else:
            ok = ok and not any(large.contains(z) for z in small_members)
            ok = ok and not other.contains(center) and not ball.contains(other_center)
        tally.case(ok, lambda: f"ball geometry failed for p={p}, n={n}, m={m}")
    return tally


def check_digit_expansions(cases: int = 2000, seed: int = 227, count: int = 10) -> CheckResult:
    """Partial sums of the canonical expansion converge in |.|_p, strictly
    whenever the next digit is nonzero."""
    rng = random.Random(seed)
    tally = CheckResult("digit-expansion-convergence")
    for i in range(cases):
        p = _ULTRA_PRIMES[i % len(_ULTRA_PRIMES)]
        x = _random_padic(rng, p, span=25)
        if x.value == 0:
            x = PadicRational(p, 1)
        expansion = x.digits(count)
        start = int(x.order)
        ok = expansion.exponent == start
        ok = ok and all(0 <= d < p for d in expansion.digits)
        previous_gap = None
        for k in range(1, count + 1):
            gap = (x - expansion.partial_sum(k)).abs()
            ok = ok and gap <= Fraction(p) ** -(start + k)
            if previous_gap is not None and expansion.digits[k - 1] != 0:
                ok = ok and gap < previous_gap
            previous_gap = gap
        tally.case(ok, lambda: f"digit expansion failed for p={p}, x={x}")
    return tally


# ---------------------------------------------------------------------------
# interference engine vs amplitude oracles
# ---------------------------------------------------------------------------

_GRID = 50  # points on each axis of a full oracle sweep


def _oracle_sweep(algebra, n: int) -> CheckResult:
    """Direct rule vs N(lift(sqrt(p1)) + unit(theta, sign*sqrt(p2))), the
    algebra's own amplitude sum, on an n-point grid of (p1, p2), at each phase
    of `algebra`: n thetas over [0, 2*pi] for TRIG, n over each sign's validity
    window for HYP.  A case is the two kernels and a tolerance test; the
    counterexample is formatted at the first violation and no other."""
    lift, unit, norm = algebra.lift, algebra.unit, algebra.norm
    trig = algebra.name == engine.TRIG.name  # by name: TRIG with a field replaced too
    ps = uniform_grid(0.005, 0.25, n)
    turn = [(theta, 1) for theta in uniform_grid(0.0, 2 * math.pi, n)]
    cases = violations = 0
    detail = ""
    for p1 in ps:
        amplitude1 = lift(math.sqrt(p1))
        for p2 in ps:
            root2 = math.sqrt(p2)
            phases = turn if trig else [
                (theta, sign) for sign, hi in zip((1, -1), theta_bounds(p1, p2))
                for theta in uniform_grid(0.0, hi, n)
            ]
            for theta, sign in phases:
                direct = _interfere(algebra, p1, p2, theta, sign)
                oracle = norm(amplitude1 + unit(theta, sign * root2))
                cases += 1
                # not _close(direct, oracle)
                if not abs(direct - oracle) <= 1e-12 * max(1.0, abs(direct), abs(oracle)):
                    violations += 1
                    if violations == 1:
                        signed = "" if trig else f", sign={sign}"
                        detail = (f"{algebra.name} oracle mismatch at p1={p1}, p2={p2}, "
                                  f"theta={theta}{signed}: {direct} vs {oracle}")
    return CheckResult(f"amplitude-oracle-{algebra.name}", cases, violations, detail)


def check_amplitude_oracle_trig(n: int = _GRID) -> CheckResult:
    """Direct cosine rule vs squared modulus of the complex amplitude sum."""
    return _oracle_sweep(engine.TRIG, n)


def check_amplitude_oracle_hyp(n: int = _GRID) -> CheckResult:
    """Direct cosh rule vs split-complex norm of the amplitude sum, swept over
    each pair's validity window for both signs."""
    return _oracle_sweep(engine.HYP, n)


# ---------------------------------------------------------------------------
# p-adic interference rule
# ---------------------------------------------------------------------------

def _rational_units(p: int):
    pool = (Fraction(1, 2), Fraction(3, 2), Fraction(2, 3), Fraction(5, 7), Fraction(-7, 4))
    return [
        f
        for f in pool
        if f.numerator % p != 0 and f.denominator % p != 0
    ]


def check_lambda_range(primes=(2, 3, 5), max_order: int = 4) -> CheckResult:
    """Exhaustive sweep: orders 0..max_order, eps over all units mod p**4
    (plus -1 and a few rational units).  lam must land in [-1, 0], cases A/B
    inside (-1/2, 0) and case C inside [-1, -1/2], all with exact arithmetic;
    cases A/B must return max(P1, P2) exactly and case C a cross factor in
    [0, 1]; the deviation form must reproduce P exactly."""
    tally = CheckResult("padic-lambda-range")
    for p in primes:
        units = [PadicRational(p, u) for u in range(1, p ** 4) if u % p]
        units.append(PadicRational(p, -1))
        units.extend(PadicRational(p, f) for f in _rational_units(p))
        powers = [PadicRational(p, p ** l) for l in range(max_order + 1)]
        one = PadicRational(p, 1)

        def run(alpha1, alpha2, eps):
            pair = PadicAmplitudePair(p, alpha1, alpha2, eps)
            result = padic_interfere(pair)
            lam, theta = result.lam, result.theta
            # each value as num/den with den > 0: a test of values is a test
            # of integers, cross-multiplied
            ln, ld = lam.as_integer_ratio()
            pn, pd = result.probability.as_integer_ratio()
            n1, d1 = result.p1.as_integer_ratio()
            n2, d2 = result.p2.as_integer_ratio()
            ok = result.within_claimed_range and -ld <= ln <= 0  # -1 <= lam <= 0
            ok = ok and math.pi / 2 - 1e-12 <= theta <= math.pi + 1e-12
            if result.case == "C":
                cross = result.cross_factor
                ok = ok and cross is not None
                if ok:
                    cn, cd = cross.as_integer_ratio()
                    # 0 <= c <= 1 and P == c * P1
                    ok = 0 <= cn <= cd and pn * cd * d1 == cn * n1 * pd
            elif n1 * d2 >= n2 * d1:
                ok = ok and pn * d1 == n1 * pd  # P == max(P1, P2) == P1
            else:
                ok = ok and pn * d2 == n2 * pd  # P == max(P1, P2) == P2
            if ok:
                # P == P1 + P2 + 2*r/s*lam, where r/s is the root of P1*P2 in
                # lowest terms; a product that is no square fails the case
                num, den = n1 * n2, d1 * d2
                g = math.gcd(num, den)
                num, den = num // g, den // g
                r, s = math.isqrt(max(num, 0)), math.isqrt(den)
                ok = r * r == num and s * s == den and (
                    pn * d1 * d2 * s * ld
                    == pd * ((n1 * d2 + n2 * d1) * s * ld + 2 * r * ln * d1 * d2)
                )
            tally.case(
                ok,
                lambda: f"lambda range violated for p={p}, alpha1={alpha1}, "
                f"alpha2={alpha2}, eps={eps}: lam={lam}",
            )

        for alpha1 in powers:
            for alpha2 in powers:
                for eps in units:
                    run(alpha1, alpha2, eps)
        # extra case-C coverage: vary the first unit part against eps
        small_units = [PadicRational(p, u) for u in range(1, p ** 3) if u % p]
        for alpha1 in small_units:
            for eps in small_units:
                run(alpha1, one, eps)
    return tally


def check_slit_fluctuations() -> CheckResult:
    """The symmetric two-slit table: exact values, agreement with the general
    rule, Euclidean jumps at eps = p**m - 1, p-adic local constancy."""
    tally = CheckResult("padic-slit-fluctuations")

    table = {s.epsilon: s.probability for s in padic_slit_profile(3, 0, 8)}
    expected = {
        1: Fraction(1),
        2: Fraction(1, 9),
        4: Fraction(1),
        5: Fraction(1, 9),
        7: Fraction(1),
        8: Fraction(1, 81),
    }
    tally.case(table == expected, lambda: f"p=3 slit table mismatch: {table}")

    sample = padic_slit_profile(5, 1, 24)
    by_eps = {s.epsilon: s.probability for s in sample}
    tally.case(by_eps[24] == Fraction(1, 15625), lambda: f"p=5,l=1,eps=24 gave {by_eps[24]}")

    p2 = {s.epsilon: s.probability for s in padic_slit_profile(2, 0, 1)}
    tally.case(p2[1] == Fraction(1, 4), lambda: f"p=2 eps=1 gave {p2[1]}")

    # agreement with the general amplitude rule
    for p, l in ((2, 0), (3, 1), (5, 0)):
        scale = PadicRational(p, p ** l)
        for s in padic_slit_profile(p, l, 3 * p + 1):
            pair = PadicAmplitudePair(p, scale, scale, PadicRational(p, s.epsilon))
            tally.case(
                padic_interfere(pair).probability == s.probability,
                lambda: f"slit profile disagrees with the rule at p={p}, eps={s.epsilon}",
            )

    # consecutive radii can differ by an unbounded factor: P(p**m - 1) = p**(-2m) is at
    # least p**(2(m-1)) times darker than the sample just below it (p**m is no sample)
    for p in (2, 3, 5):
        for m in range(1, 6):
            *below, last = padic_slit_profile(p, 0, p ** m)
            ok = last.epsilon == p ** m - 1 and last.probability == Fraction(p) ** (-2 * m)
            if below:
                ok = ok and below[-1].probability >= p ** (2 * (m - 1)) * last.probability
            tally.case(ok, lambda: f"Euclidean jump witness failed at p={p}, m={m}")

    # p-adic local constancy: |eps - eps'|_p <= p**-k with v_p(1+eps) < k
    for p in (2, 3, 5):
        for eps in (1, p + 1, p ** 2 - 1):
            v = prime_multiplicity(p, 1 + eps)
            k = v + 1
            for t in (1, 2, 3):
                other = eps + t * p ** k
                table_now = {
                    s.epsilon: s.probability for s in padic_slit_profile(p, 0, other)
                }
                ok = table_now[eps] == table_now[other]
                tally.case(ok, lambda: f"local constancy failed at p={p}, eps={eps}, t={t}")
    return tally


# ---------------------------------------------------------------------------
# hyperbolic windows and profiles
# ---------------------------------------------------------------------------

def check_theta_bounds(cases: int = 1000, seed: int = 307) -> CheckResult:
    """The closed-form window endpoints really solve P+(theta_max) = 1 and
    P-(theta_min) = 0, within 1e-12 on the raw (unsnapped) rule."""
    rng = random.Random(seed)
    tally = CheckResult("theta-window-bounds")
    done = 0
    while done < cases:
        p1 = rng.uniform(1e-4, 0.6)
        p2 = rng.uniform(1e-4, 0.6)
        q_plus = (1 - p1 - p2) / (2 * math.sqrt(p1 * p2))
        if q_plus < 1:
            continue
        theta_max, theta_min = theta_bounds(p1, p2)
        raw_plus = combine(p1, p2, math.cosh(theta_max))
        raw_minus = combine(p1, p2, -math.cosh(theta_min))
        ok = abs(raw_plus - 1) <= 1e-12 and abs(raw_minus) <= 1e-12
        # the validated rule must accept both endpoints (snapping any epsilon
        # of overshoot) and land within 1e-12 of the closed-form targets
        ok = ok and abs(interfere_hyp(p1, p2, theta_max, 1) - 1) <= 1e-12
        ok = ok and abs(interfere_hyp(p1, p2, theta_min, -1)) <= 1e-12
        tally.case(ok, lambda: f"window endpoints failed at p1={p1}, p2={p2}")
        done += 1

    # closed-form witnesses
    theta_max, theta_min = theta_bounds(1 / 16, 1 / 16)
    tally.case(
        abs(theta_max - math.log(7 + 4 * math.sqrt(3))) <= 1e-12 and theta_min == 0.0,
        lambda: f"q+=7 witness gave theta_max={theta_max}, theta_min={theta_min}",
    )
    theta_max2, theta_min2 = theta_bounds(1 / 4, 1 / 16)
    tally.case(
        abs(theta_min2 - math.log(2)) <= 1e-12,
        lambda: f"q-=5/4 witness gave theta_min={theta_min2}",
    )
    return tally


def check_profiles() -> CheckResult:
    """Emitted profiles stay inside [0, 1], oscillate/monotone as the branch
    dictates, and the p-adic picture matches the p-adic rule bit for bit."""
    tally = CheckResult("profile-invariants")

    grid = uniform_grid(0.0, 4 * math.pi, 801)
    trig = profile_trig(0.25, 0.25, grid)
    tally.case(all(0 <= v <= 1 for v in trig.values), "trig profile left [0, 1]")
    step = grid[1] - grid[0]
    for k in (0, 1, 2):
        window = [
            i for i, r in enumerate(grid) if abs(r - 2 * math.pi * k) <= math.pi / 2
        ]
        best = max(window, key=lambda i: trig.values[i])
        tally.case(
            abs(grid[best] - 2 * math.pi * k) <= step + 1e-9,
            lambda: f"trig maximum near 2*pi*{k} found at r={grid[best]}",
        )
    for k in (1, 3):
        window = [i for i, r in enumerate(grid) if abs(r - math.pi * k) <= math.pi / 2]
        worst = min(window, key=lambda i: trig.values[i])
        tally.case(
            abs(grid[worst] - math.pi * k) <= step + 1e-9,
            lambda: f"trig minimum near pi*{k} found at r={grid[worst]}",
        )

    for p1, p2 in ((1 / 16, 1 / 16), (1 / 4, 1 / 16), (0.1, 0.02)):
        theta_max, theta_min = theta_bounds(p1, p2)
        plus = profile_hyp(p1, p2, 1, uniform_grid(0.0, theta_max, 101))
        ok = all(0 <= v <= 1 for v in plus.values)
        ok = ok and all(a <= b + 1e-15 for a, b in zip(plus.values, plus.values[1:]))
        ok = ok and abs(plus.values[-1] - 1) <= 1e-12
        weight = 2 * math.sqrt(p1 * p2)
        for r, v in zip(plus.grid, plus.values):
            ok = ok and _close((v - plus.values[0]) / weight, math.cosh(r) - 1)
            if r >= math.log(2):
                ok = ok and math.cosh(r) - 1 >= math.exp(r) / 2 - 1 - 1e-12
        tally.case(ok, lambda: f"plus-branch profile failed for p1={p1}, p2={p2}")
        if theta_min > 0:
            minus = profile_hyp(p1, p2, -1, uniform_grid(0.0, theta_min, 101))
            ok = all(0 <= v <= 1 for v in minus.values)
            ok = ok and all(a >= b - 1e-15 for a, b in zip(minus.values, minus.values[1:]))
            ok = ok and abs(minus.values[-1]) <= 1e-12
            tally.case(ok, lambda: f"minus-branch profile failed for p1={p1}, p2={p2}")

    # clipping is reported, never silent
    theta_max, _ = theta_bounds(1 / 16, 1 / 16)
    clipped = profile_hyp(1 / 16, 1 / 16, 1, uniform_grid(0.0, theta_max + 1.0, 50))
    tally.case(
        len(clipped.warnings) == 1 and len(clipped.grid) < 50,
        "clipping a hyperbolic grid did not leave a warning record",
    )

    # held to the general rule, not to the slit table that shares its kernel
    padic = profile_padic(3, 0, 20)
    eps = [e for e in range(1, 21) if e % 3]
    rule = [padic_interfere(PadicAmplitudePair(3, 1, 1, e)).probability for e in eps]
    tally.case(
        list(padic.grid) == [1 + e for e in eps] and list(padic.values) == rule
        and all(0 <= v <= 1 for v in padic.values),
        "padic profile does not match the p-adic rule",
    )
    return tally


# ---------------------------------------------------------------------------
# total probability
# ---------------------------------------------------------------------------

def _random_transform(rng, phases=(0.0, 0.0)) -> ContextTransform:
    pb1 = rng.uniform(0.05, 0.95)
    r0 = rng.uniform(0.02, 0.98)
    r1 = rng.uniform(0.02, 0.98)
    return ContextTransform(
        prior=(pb1, 1 - pb1),
        cond=((r0, 1 - r0), (r1, 1 - r1)),
        phases=phases,
    )


def check_total_probability(cases: int = 1000, seed: int = 401) -> CheckResult:
    """Quarter-turn collapse to the classical mixture (exact), the doubly
    stochastic normalization detector, the state-expansion phase formula, and
    the split-complex amplitude oracle for the hyperbolic variant."""
    rng = random.Random(seed)
    tally = CheckResult("total-probability-coherence")
    quarter = math.pi / 2

    for _ in range(max(1, cases // 5)):
        t = _random_transform(rng, phases=(quarter, quarter))
        tally.case(
            total_prob_quantum(t) == total_prob_classical(t),
            "pi/2 phases did not collapse to the classical mixture exactly",
        )

    # perturbed components equal |y_j|**2 of the complex sqrt transform
    for _ in range(10 * cases):
        phases = (rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        t = _random_transform(rng, phases=phases)
        _, outputs = sqrt_linear_transform(t)
        raw = raw_quantum_components(t)
        tally.case(
            all(_close(abs(outputs[j]) ** 2, raw[j]) for j in (0, 1)),
            "perturbed totals disagree with the complex amplitude oracle",
        )

    for _ in range(max(1, cases // 5)):
        a = rng.uniform(0.02, 0.98)
        pb1 = rng.uniform(0.05, 0.95)
        theta1 = rng.uniform(0.0, math.pi)
        t = ContextTransform(
            prior=(pb1, 1 - pb1),
            cond=((a, 1 - a), (1 - a, a)),
            phases=(theta1, math.pi - theta1),
        )
        tally.case(
            abs(normalization_defect(t)) <= 1e-12,
            lambda: f"doubly stochastic defect {normalization_defect(t)} "
            f"at a={a}, theta1={theta1}",
        )

    for _ in range(cases):
        t = _random_transform(rng)
        xi_prior = (rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        xi_cond = tuple(
            (rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)) for _ in range(2)
        )
        thetas = phases_from_state_expansion(xi_cond, xi_prior)
        fitted = ContextTransform(prior=t.prior, cond=t.cond, phases=thetas)
        predicted = raw_quantum_components(fitted)
        ok = True
        for j in (0, 1):
            amplitude = sum(
                _unit_phase(xi_prior[i] + xi_cond[i][j])
                * math.sqrt(t.prior[i] * t.cond[i][j])
                for i in (0, 1)
            )
            ok = ok and _close(abs(amplitude) ** 2, predicted[j])
        _, outputs = sqrt_linear_transform(fitted)
        ok = ok and all(_close(abs(outputs[j]) ** 2, predicted[j]) for j in (0, 1))
        tally.case(ok, "state-expansion phases disagree with the amplitude oracle")

    for _ in range(max(1, cases // 5)):
        base = _random_transform(rng)
        phases, signs = [], []
        for j in (0, 1):
            theta_max, theta_min = theta_bounds(
                base.prior[0] * base.cond[0][j], base.prior[1] * base.cond[1][j]
            )
            signs.append(1 if rng.random() < 0.5 and theta_max is not None else -1)
            phases.append(rng.uniform(0, 1) * (theta_max if signs[-1] == 1 else theta_min))
        t = ContextTransform(
            prior=base.prior,
            cond=base.cond,
            phases=tuple(phases),
            signs=tuple(signs),
            mode="hyp",
        )
        values = total_prob_hyperbolic(t)
        _, outputs = hyperbolic_sqrt_transform(t)
        ok = all(_close(values[j], outputs[j].norm_sq()) for j in (0, 1))
        tally.case(ok, "hyperbolic totals disagree with the split-complex oracle")

    for _ in range(max(1, cases // 10)):
        t0 = _random_transform(rng)
        degenerate = ContextTransform(prior=(1.0, 0.0), cond=t0.cond, phases=(0.0, 0.0))
        reference = total_prob_quantum(degenerate)
        ok = reference == total_prob_classical(degenerate) == t0.cond[0]
        for _ in range(5):
            shifted = ContextTransform(
                prior=(1.0, 0.0),
                cond=t0.cond,
                phases=(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)),
            )
            ok = ok and total_prob_quantum(shifted) == reference
        tally.case(ok, "degenerate prior did not make phases irrelevant")

    return tally


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

# The suite in report order: (name of a check function, name of the
# CheckResult it returns, its quick-pass sizes, its serial seconds).  The
# full pass runs each check at its signature's defaults; `check --fast`
# passes the quick sizes.  The seconds, medians of five at full size on
# Python 3.11.7 and a 2-CPU host, set the order in which run_all starts
# the checks, longest first.
_SUITE = (
    ("check_hyperbolic_laws", "hyperbolic-algebra-laws", {"cases_per_law": 1000}, 0.85),
    ("check_ultrametric", "ultrametric-valuation", {"cases": 1000}, 0.33),
    ("check_ball_geometry", "ball-geometry", {"cases": 200}, 0.24),
    ("check_digit_expansions", "digit-expansion-convergence", {"cases": 200}, 0.19),
    ("check_amplitude_oracle_trig", "amplitude-oracle-trig", {"n": 15}, 0.16),
    ("check_amplitude_oracle_hyp", "amplitude-oracle-hyp", {"n": 15}, 0.65),
    ("check_lambda_range", "padic-lambda-range", {"primes": (2, 3)}, 0.23),
    ("check_slit_fluctuations", "padic-slit-fluctuations", {}, 0.003),
    ("check_theta_bounds", "theta-window-bounds", {"cases": 100}, 0.006),
    ("check_profiles", "profile-invariants", {}, 0.002),
    ("check_total_probability", "total-probability-coherence", {"cases": 100}, 0.14),
)


def _run_sweep(name: str, title: str, sizes: dict) -> CheckResult:
    """Run the check function called `name`.  A sweep that raises fails as
    one violation of its check, titled `title`, with the exception as the
    counterexample, so the other checks still run and report.  A worker
    process is sent the name, not the function: a function wrapped at run
    time (a tracing span) cannot be pickled by reference, its name can."""
    try:
        return globals()[name](**sizes)
    except Exception as exc:
        failed = CheckResult(title)
        failed.case(False, f"raised {type(exc).__name__}: {exc}")
        return failed


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_all(full: bool = True) -> list[CheckResult]:
    """Run every check; `full=False` shrinks the sweeps for a quick pass.

    The sweeps are independent and deterministic, so they share the CPUs
    available to this process, one worker process per CPU and no more
    workers than checks.  Each check is one job, and the jobs start longest
    first by their serial seconds in _SUITE, so the workers finish close
    together.  Results come back in the suite's order whatever the worker
    count.  With one CPU, or where no worker process can start, the same
    sweeps run here one after another."""
    sweeps = [(name, title, {} if full else sizes) for name, title, sizes, _ in _SUITE]
    workers = min(_available_cpus(), len(sweeps))
    if workers > 1:
        import concurrent.futures as futures  # the process pool loads on first use

        longest_first = sorted(range(len(sweeps)), key=lambda k: _SUITE[k][3], reverse=True)
        try:
            with futures.ProcessPoolExecutor(workers) as pool:
                pending = {k: pool.submit(_run_sweep, *sweeps[k]) for k in longest_first}
                return [pending[k].result() for k in range(len(sweeps))]
        except (ImportError, NotImplementedError, OSError, futures.BrokenExecutor):
            pass  # no worker processes on this platform, or one died: run here
    return [_run_sweep(*sweep) for sweep in sweeps]
