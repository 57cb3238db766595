"""The benchmark's oracle against closed-form witnesses.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import math
from fractions import Fraction

from mpmath import mp, mpf

import oracle


def test_fit_witness_gives_half():
    p1, p2, p = Fraction("0.36"), Fraction("0.16"), Fraction("0.76")
    assert oracle.exact_deviation(p1, p2, p) == Fraction(1, 2)
    assert abs(oracle.deviation(0.36, 0.16, 0.76) - mpf(1) / 2) < 1e-15
    assert oracle.regime(Fraction(1, 2)) == "trigonometric"
    theta, sign = oracle.phase(Fraction(1, 2))
    assert abs(theta - math.pi / 3) < 1e-15 and sign == 1


def test_theta_max_witness():
    theta_max, theta_min = oracle.theta_bounds(Fraction(1, 16), Fraction(1, 16))
    with mp.workdps(oracle.DIGITS):
        assert abs(theta_max - mp.log(7 + 4 * mp.sqrt(3))) < mpf(10) ** -45
        assert theta_min == 0


def test_theta_min_witness():
    _, theta_min = oracle.theta_bounds(Fraction(1, 4), Fraction(1, 16))
    with mp.workdps(oracle.DIGITS):
        assert abs(theta_min - mp.log(2)) < mpf(10) ** -45


def test_rules_hit_the_window_endpoints():
    theta_max, theta_min = oracle.theta_bounds(Fraction(1, 4), Fraction(1, 16))
    assert oracle.Rule(Fraction(1, 4), Fraction(1, 16), "hyp", 1)(theta_max) == 1.0
    assert abs(oracle.Rule(Fraction(1, 4), Fraction(1, 16), "hyp", -1)(theta_min)) < 1e-40
    assert abs(oracle.Rule(0.25, 0.25, "trig")(math.pi)) < 1e-16


def test_grid_recurrence_matches_direct_evaluation():
    n, top = 1001, 4 * math.pi
    start, step = 0.7, 0.013
    for kind, sign in (("trig", 1), ("hyp", 1), ("hyp", -1)):
        rule = oracle.Rule(Fraction(1, 16), Fraction(1, 9), kind, sign)
        grid, along = rule.grid(top, n), rule.progression(start, step, n)
        with mp.workdps(oracle.DIGITS):
            for i in (0, 1, 2, 500, 999, 1000):
                for values, theta in (
                    (grid, mpf(top) * i / (n - 1)),
                    (along, mpf(start) + i * mpf(step)),
                ):
                    direct = rule(theta)
                    assert abs(values[i] - direct) <= 1e-15 * max(1.0, abs(direct))


def test_p3_two_slit_table():
    table = {eps: oracle.slit_probability(3, 0, eps) for eps in range(1, 9) if eps % 3}
    assert table == {
        1: Fraction(1),
        2: Fraction(1, 9),
        4: Fraction(1),
        5: Fraction(1, 9),
        7: Fraction(1),
        8: Fraction(1, 81),
    }


def test_padic_rule_witness():
    # alpha1 = alpha2 = 1, eps = 2 at p = 3: 1 + 2 = 3, so P = 1/9 (case C)
    case, big_p, p1, p2, lam, cross = oracle.padic_rule(3, 1, 1, 2)
    assert (case, big_p, p1, p2, cross) == ("C", Fraction(1, 9), 1, 1, Fraction(1, 9))
    assert lam == Fraction(-17, 18)
    # case A: |3|_3**2 = 1/9 < 1, so P = P1 = 1 and lam = -sqrt(1/9)/2
    case, big_p, _, _, lam, _ = oracle.padic_rule(3, 1, 3, 1)
    assert (case, big_p, lam) == ("A", 1, Fraction(-1, 6))


def test_valuation_and_digits():
    assert oracle.valuation(3, Fraction(5, 27)) == -3
    assert oracle.padic_abs(3, Fraction(5, 27)) == 27
    assert oracle.valuation(7, 0) == math.inf
    # -1 = ...2222 in base 3
    assert oracle.digits_ok(3, Fraction(-1), 0, (2, 2, 2, 2))
    assert not oracle.digits_ok(3, Fraction(-1), 0, (2, 2, 1, 2))


def test_split_complex_witness():
    z = (Fraction(5), Fraction(4))
    conj = (Fraction(5), Fraction(-4))
    assert oracle.split_norm(z) == 9
    assert oracle.split_mul(z, conj) == (9, 0)
    inverse = (Fraction(5, 9), Fraction(-4, 9))
    assert oracle.split_mul(inverse, z) == (1, 0)


def test_total_probability_quarter_turn_is_classical():
    prior, cond = (0.3, 0.7), ((0.4, 0.6), (0.9, 0.1))
    quantum = oracle.total_quantum(prior, cond, (math.pi / 2, math.pi / 2))
    classical = oracle.total_classical(prior, cond)
    assert all(abs(a - b) < 1e-15 for a, b in zip(quantum, classical))
