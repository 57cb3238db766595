"""The invariant suite itself: lazy counterexamples and exact helpers."""

import math
from fractions import Fraction

import pytest

from interfere import checks
from interfere.engine import amplitudes_hyp, amplitudes_trig
from interfere.hyperbolic import HyperbolicNumber
from interfere.profiles import theta_bounds, uniform_grid


class TestLazyDetail:
    def test_detail_formatted_for_the_first_violation_only(self):
        calls = []

        def detail(k):
            def make():
                calls.append(k)
                return f"case {k}"

            return make

        tally = checks._Tally("lazy")
        for k, ok in enumerate([True, True, False, True, False, False]):
            tally.case(ok, detail(k))
        assert calls == [2]
        assert tally.result() == checks.CheckResult("lazy", 6, 3, "case 2")

    def test_passing_sweep_formats_nothing(self):
        tally = checks._Tally("clean")
        for _ in range(5):
            tally.case(True, lambda: pytest.fail("detail of a passing case was formatted"))
        assert tally.result() == checks.CheckResult("clean", 5, 0, "")

    def test_plain_string_detail(self):
        tally = checks._Tally("plain")
        tally.case(False, "first")
        tally.case(False, "second")
        assert tally.result().detail == "first"


class TestInjectedFault:
    def test_hyp_oracle_keeps_its_counterexample(self, monkeypatch):
        real = checks.interfere_hyp

        def faulty(p1, p2, theta, sign):
            return real(p1, p2, theta, sign) + 1e-6

        monkeypatch.setattr(checks, "interfere_hyp", faulty)
        result = checks.check_amplitude_oracle_hyp(n=5)

        expected, failures = None, 0
        ps = uniform_grid(0.005, 0.25, 5)
        for p1 in ps:
            for p2 in ps:
                theta_max, theta_min = theta_bounds(p1, p2)
                for sign, hi in ((1, theta_max), (-1, theta_min)):
                    for theta in uniform_grid(0.0, hi, 5):
                        direct = faulty(p1, p2, theta, sign)
                        a1, a2 = amplitudes_hyp(p1, p2, theta, sign)
                        oracle = (a1 + a2).norm_sq()
                        if not checks._close(direct, oracle):
                            failures += 1
                            expected = expected or (
                                f"hyp oracle mismatch at p1={p1}, p2={p2}, theta={theta}, "
                                f"sign={sign}: {direct} vs {oracle}"
                            )
        assert result.cases == 250
        assert result.violations == failures > 0
        assert result.detail == expected

    def test_trig_oracle_reports_a_later_first_violation(self, monkeypatch):
        # only phases past pi are broken, so the first violation is mid-sweep
        real = checks.interfere_trig

        def faulty(p1, p2, theta):
            return real(p1, p2, theta) + (1e-6 if theta > math.pi else 0)

        monkeypatch.setattr(checks, "interfere_trig", faulty)
        result = checks.check_amplitude_oracle_trig(n=5)

        p1 = p2 = 0.005
        theta = uniform_grid(0.0, 2 * math.pi, 5)[3]
        direct = faulty(p1, p2, theta)
        a1, a2 = amplitudes_trig(p1, p2, theta)
        oracle = abs(a1 + a2) ** 2
        assert result.cases == 125
        assert result.violations == 25 * 2
        assert result.detail == (
            f"trig oracle mismatch at p1={p1}, p2={p2}, theta={theta}: {direct} vs {oracle}"
        )


class TestHyperbolaPoint:
    def test_matches_the_point_of_t(self):
        for m in range(1, 13):
            for n in range(1, 13):
                t = Fraction(m, n)
                point = checks._hyperbola_point(m, n)
                assert point == HyperbolicNumber((t + 1 / t) / 2, (t - 1 / t) / 2)
                assert point.norm_sq() == 1
                assert checks._hyperbola_point(3 * m, 3 * n) == point
