"""Value parity of the shared rule with the separate trig and hyp spellings.

Each function below once had its own implementation per algebra.  Those
expressions are written out here, and on seeded float and exact inputs each
public function must return values that compare ``==`` to them and have the
same types, or raise the same error with the same message.
"""

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from interfere import hyperbolic
from interfere.context import (
    ContextTransform,
    hyperbolic_sqrt_transform,
    raw_quantum_components,
    sqrt_linear_transform,
    total_prob_hyperbolic,
    total_prob_quantum,
)
from interfere.engine import (
    amplitudes_hyp,
    amplitudes_trig,
    combine,
    fit_record,
    interfere_hyp,
    interfere_trig,
)
from interfere.errors import InterfereError
from interfere.numeric import as_probability, phase_cos, sqrt_keeping_exact

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
    """value with the type of every leaf beside it."""
    if isinstance(value, tuple):
        return tuple(typed(v) for v in value)
    return type(value), value


def outcome(func, *args):
    try:
        return "value", typed(func(*args))
    except InterfereError as exc:
        return "raises", type(exc), str(exc)


def assert_same(shared, separate, *args):
    assert outcome(shared, *args) == outcome(separate, *args), args


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
