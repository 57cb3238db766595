"""The p-adic amplitude rule: case analysis, lambda range, slit table."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from interfere.errors import DegenerateContextError, ValidationError
from interfere.numeric import exact_sqrt
from interfere.padic import PadicRational, prime_multiplicity
from interfere.padic_rule import (
    PadicAmplitudePair,
    padic_interfere,
    padic_slit_profile,
)
from interfere.profiles import profile_padic


def pair(p, alpha1, alpha2, eps):
    return PadicAmplitudePair(p, alpha1, alpha2, eps)


def lambda_range(amplitudes):
    """(lam, theta, within_claimed_range) of padic_interfere(amplitudes)."""
    result = padic_interfere(amplitudes)
    return result.lam, result.theta, result.within_claimed_range


class TestValidation:
    def test_zero_amplitude_rejected(self):
        with pytest.raises(DegenerateContextError):
            pair(3, 0, 1, 1)
        with pytest.raises(DegenerateContextError):
            pair(3, 1, 0, 1)

    def test_non_integral_amplitude_rejected(self):
        # |1/3|_3 = 3, so its square could not be a probability
        with pytest.raises(ValidationError):
            pair(3, Fraction(1, 3), 1, 1)

    def test_non_unit_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            pair(3, 1, 1, 3)
        with pytest.raises(ValidationError):
            pair(3, 1, 1, Fraction(1, 3))

    def test_rational_unit_epsilon_accepted(self):
        result = padic_interfere(pair(3, 1, 1, Fraction(1, 2)))
        # 1 + 1/2 = 3/2, v_3 = 1, so c = 1/9
        assert result.case == "C"
        assert result.cross_factor == Fraction(1, 9)

    def test_prime_mismatch(self):
        with pytest.raises(ValidationError):
            pair(3, PadicRational(5, 1), 1, 1)

    def test_composite_prime_rejected(self):
        with pytest.raises(ValidationError, match="prime"):
            pair(9, 1, 1, 1)

    @pytest.mark.parametrize("slot", range(3))
    def test_float_values_refused_as_by_padic_rational(self, slot):
        # Fraction(0.1) is the dyadic 3602879701896397/2**55, not 1/10
        args = [1, 1, 1]
        args[slot] = 0.1
        with pytest.raises(ValidationError, match="refusing float"):
            pair(3, *args)
        with pytest.raises(ValidationError, match="refusing float"):
            PadicRational(3, 0.1)


class TestCases:
    def test_case_a_dominant_first_amplitude(self):
        # P1 = |3|_3^2 = 1/9 > P2 = |9|_3^2 = 1/81
        result = padic_interfere(pair(3, 3, 9, 1))
        assert result.case == "A"
        assert result.p1 == Fraction(1, 9)
        assert result.p2 == Fraction(1, 81)
        assert result.probability == Fraction(1, 9)  # P = P1 exactly
        assert result.lam == Fraction(-1, 6)  # -1/2 * sqrt(P2/P1)
        assert result.cross_factor is None

    def test_case_b_is_symmetric(self):
        result = padic_interfere(pair(3, 9, 3, 1))
        assert result.case == "B"
        assert result.probability == Fraction(1, 9)
        assert result.lam == Fraction(-1, 6)

    def test_case_c_unit_cross_factor(self):
        result = padic_interfere(pair(3, 1, 1, 2))
        assert result.case == "C"
        assert result.cross_factor == Fraction(1, 9)  # |1 + 2|_3^2
        assert result.probability == Fraction(1, 9)
        assert result.lam == Fraction(-17, 18)  # c/2 - 1

    def test_case_c_base_5(self):
        result = padic_interfere(pair(5, 1, 1, 4))
        assert result.cross_factor == Fraction(1, 25)  # v_5(1 + 4) = 1
        assert result.lam == Fraction(-49, 50)

    def test_total_destruction(self):
        result = padic_interfere(pair(3, 1, 1, -1))
        assert result.case == "C"
        assert result.probability == 0
        assert result.cross_factor == 0
        assert result.lam == -1

    def test_deviation_form_identity(self):
        # P = P1 + P2 + 2*sqrt(P1*P2)*lam must hold exactly in every case
        for alpha1, alpha2, eps in ((3, 9, 1), (9, 3, 2), (1, 1, 2), (5, 5, 7)):
            result = padic_interfere(pair(3, alpha1, alpha2, eps))
            root = exact_sqrt(result.p1 * result.p2)
            assert result.probability == result.p1 + result.p2 + 2 * root * result.lam

    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=200),
    )
    def test_exactly_one_case_fires(self, p, l1, l2, raw_eps):
        if raw_eps % p == 0:
            raw_eps += 1
        result = padic_interfere(pair(p, p ** l1, p ** l2, raw_eps))
        expected = "C" if l1 == l2 else ("A" if l1 < l2 else "B")
        assert result.case == expected


class TestLambdaRange:
    def test_case_a_angle(self):
        lam, theta, within = lambda_range(pair(3, 3, 9, 1))
        assert lam == Fraction(-1, 6)
        assert theta == pytest.approx(math.acos(-1 / 6))
        assert within

    def test_full_destruction_hits_pi(self):
        lam, theta, within = lambda_range(pair(3, 1, 1, -1))
        assert lam == -1 and theta == pytest.approx(math.pi) and within

    def test_case_band_boundary(self):
        # |1 + 1|_3 = 1 gives c = 1, the A/B vs C boundary lam = -1/2
        lam, theta, within = lambda_range(pair(3, 1, 1, 1))
        assert lam == Fraction(-1, 2)
        assert theta == pytest.approx(2 * math.pi / 3)
        assert within

    @pytest.mark.parametrize(
        "args, case",
        [((3, 3, 9, 1), "A"), ((3, 9, 3, 1), "B"), ((3, 1, 1, 2), "C"), ((3, 1, 1, 1), "C")],
    )
    def test_check_reads_the_result(self, args, case):
        r = padic_interfere(pair(*args))
        assert r.case == case
        assert lambda_range(pair(*args)) == (r.lam, r.theta, r.within_claimed_range)
        assert r.within_claimed_range

    def test_claimed_range_edges(self):
        # lam = -1/2 belongs to case C's band [-1, -1/2], not to (-1/2, 0)
        a, c = padic_interfere(pair(3, 3, 9, 1)), padic_interfere(pair(3, 1, 1, 2))
        assert c._replace(lam=Fraction(-1, 2)).within_claimed_range
        assert not a._replace(lam=Fraction(-1, 2)).within_claimed_range
        assert not c._replace(lam=Fraction(-1, 4)).within_claimed_range
        assert not a._replace(lam=Fraction(0)).within_claimed_range
        assert not c._replace(lam=Fraction(-9, 8)).within_claimed_range

    def test_unreachable_lambda_zero(self):
        # nonzero amplitudes keep cases A/B strictly below zero
        for l2 in range(1, 6):
            result = padic_interfere(pair(3, 1, 3 ** l2, 1))
            assert Fraction(-1, 2) < result.lam < 0

    def test_small_exhaustive_sweep(self):
        for p in (2, 3, 5):
            units = [u for u in range(1, p ** 3) if u % p]
            for l1, l2 in itertools.product(range(3), repeat=2):
                for eps in units:
                    lam, theta, within = lambda_range(
                        pair(p, p ** l1, p ** l2, eps)
                    )
                    assert within
                    assert Fraction(-1) <= lam <= 0
                    assert math.pi / 2 - 1e-12 <= theta <= math.pi + 1e-12


class TestSlitProfile:
    def test_base_3_table(self):
        table = {s.epsilon: s.probability for s in padic_slit_profile(3, 0, 8)}
        assert table == {
            1: Fraction(1),
            2: Fraction(1, 9),
            4: Fraction(1),
            5: Fraction(1, 9),
            7: Fraction(1),
            8: Fraction(1, 81),
        }

    def test_multiples_of_p_are_skipped(self):
        samples = padic_slit_profile(3, 0, 9)
        assert [s.epsilon for s in samples] == [1, 2, 4, 5, 7, 8]

    def test_scaled_amplitude(self):
        table = {s.epsilon: s.probability for s in padic_slit_profile(5, 1, 24)}
        assert table[24] == Fraction(1, 15625)  # (1/25) * 5**-4

    def test_even_prime_branch(self):
        # only p = 2 divides 1 + 1
        table2 = {s.epsilon: s.probability for s in padic_slit_profile(2, 0, 1)}
        assert table2[1] == Fraction(1, 4)
        for p in (3, 5, 7):
            table = {s.epsilon: s.probability for s in padic_slit_profile(p, 0, 1)}
            assert table[1] == 1

    def test_matches_general_rule(self):
        for p, l in ((2, 0), (3, 1), (5, 2)):
            scale = p ** l
            for sample in padic_slit_profile(p, l, 20):
                result = padic_interfere(pair(p, scale, scale, sample.epsilon))
                assert result.probability == sample.probability

    def test_euclidean_jumps_are_unbounded(self):
        # consecutive admissible radii differ by the unbounded factor p**(-2m)
        for m in range(1, 6):
            eps = 3 ** m - 1
            table = {s.epsilon: s.probability for s in padic_slit_profile(3, 0, eps + 1)}
            assert table[eps] == Fraction(3) ** (-2 * m)
            assert table[eps - 1] == 1

    def test_padic_local_constancy(self):
        # close in |.|_p with v_p(1+eps) below the closeness scale => same P
        for p in (2, 3, 5):
            for eps in (1, p + 1, 2 * p + 1):
                k = prime_multiplicity(p, 1 + eps) + 1
                other = eps + p ** k
                table = {s.epsilon: s.probability for s in padic_slit_profile(p, 0, other)}
                assert table[eps] == table[other]

    def test_validation(self):
        with pytest.raises(ValidationError):
            padic_slit_profile(4, 0, 10)
        with pytest.raises(ValidationError):
            padic_slit_profile(3, -1, 10)
        with pytest.raises(ValidationError):
            padic_slit_profile(3, 0, 0)

    @pytest.mark.parametrize("l", [1.0, Fraction(1, 3), Fraction(4, 3), Fraction(1, 2)],
                             ids=["1.0", "1/3", "4/3", "1/2"])
    def test_an_l_that_is_no_integer_is_named(self, l):
        # the shared powers would give a float brightness where the table is exact
        for build in (padic_slit_profile, profile_padic):
            with pytest.raises(ValidationError) as info:
                build(3, l, 10)
            assert str(info.value) == f"l must be an integer, got {l!r}"

    def test_an_integral_l_of_any_type_gives_the_exact_table(self):
        for l in (1, Fraction(1), True):
            assert [s.probability for s in padic_slit_profile(3, l, 2)] == [
                Fraction(1, 9), Fraction(1, 81)], l

    @pytest.mark.parametrize("eps_max", [2**62, 2**63, 10**5000],
                             ids=["2**62", "2**63", "10**5000"])
    def test_a_table_too_large_names_eps_max(self, eps_max):
        # refused at once: the sieve's list is past the index range or the memory
        with pytest.raises(ValidationError, match=r"^eps_max = .* is too large"):
            padic_slit_profile(3, 0, eps_max)

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(min_value=1, max_value=300))
    def test_values_from_divisibility(self, p, eps):
        if eps % p == 0:
            eps += 1
        samples = {s.epsilon: s for s in padic_slit_profile(p, 0, eps)}
        sample = samples[eps if eps in samples else max(samples)]
        assert sample.probability == Fraction(p) ** (-2 * sample.multiplicity)
        assert 0 < sample.probability <= 1
