"""p-adic valuation arithmetic: orders, ultrametric, digits, balls."""

import math
import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from interfere import padic
from interfere.errors import FrozenRecordError, PrimeMismatchError, ValidationError
from interfere.padic import (
    PadicBall,
    PadicExpansion,
    PadicRational,
    is_prime,
    prime_multiplicity,
)

primes = st.sampled_from([2, 3, 5, 7, 11])
small_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=40)


def naive_order(p, frac):
    """Factor-out-p oracle for the order of a nonzero rational."""
    num, den = frac.numerator, frac.denominator
    order = 0
    while num % p == 0:
        num //= p
        order += 1
    while den % p == 0:
        den //= p
        order -= 1
    return order


class TestPrimality:
    def test_naive_agreement(self):
        def naive(n):
            return n >= 2 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))

        for n in range(0, 500):
            assert is_prime(n) == naive(n), n

    def test_large_prime(self):
        assert is_prime(2 ** 61 - 1)
        assert not is_prime(2 ** 61 + 1)

    def test_strong_pseudoprime_to_the_first_twelve_bases(self):
        # psi_12 passes Miller-Rabin to bases 2..37; base 41 exposes it
        psi_12 = 318665857834031151167461
        assert psi_12 == 399165290221 * 798330580441
        assert not is_prime(psi_12)
        assert is_prime(2 ** 79 - 67)  # a prime between psi_12 and psi_13

    def test_no_modulus_at_or_above_psi_13(self):
        # psi_13 passes Miller-Rabin to all thirteen bases, so is_prime proves
        # nothing at or above it; a modulus there is refused, prime or not
        psi_13 = 3317044064679887385961981
        assert psi_13 == 1287836182261 * 2575672364521
        assert is_prime(psi_13)  # a strong pseudoprime: is_prime is unchanged
        for p in (psi_13, psi_13 + 1, 2 ** 89 - 1):
            with pytest.raises(ValidationError, match=f"below psi_13 = {psi_13}, where "):
                PadicRational(p, 1)
        assert PadicRational(2 ** 79 - 67, 1).order == 0

    @pytest.mark.parametrize("p", [1, 0, -1, -3])
    def test_multiplicity_needs_a_divisor_of_at_least_two(self, p):
        with pytest.raises(ValueError, match="p >= 2"):
            prime_multiplicity(p, 12)

    def test_multiplicity_in_zero_is_undefined(self):
        with pytest.raises(ValueError, match="multiplicity of p in 0 is undefined"):
            prime_multiplicity(3, 0)

    @pytest.mark.parametrize("bad", [1, 4, 6, 9, 100, -3, 0])
    def test_composite_modulus_rejected(self, bad):
        with pytest.raises(ValidationError):
            PadicRational(bad, 1)

    def test_float_values_rejected(self):
        # Fraction(0.1) would be the exact dyadic, not 1/10
        with pytest.raises(ValidationError, match="refusing float"):
            PadicRational(5, 0.1)
        assert PadicRational(5, "1/10").order == -1


class TestPrimeMemo:
    """_require_prime proves each prime once and remembers a bounded number
    of them; whatever it refuses, it refuses on every call."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """The moduli is_prime is asked about, from an empty memo."""
        asked = []

        def counting(n):
            asked.append(n)
            return is_prime(n)

        monkeypatch.setattr(padic, "_PROVEN", set())
        monkeypatch.setattr(padic, "is_prime", counting)
        return asked

    def test_each_prime_is_proven_once(self, counted):
        from interfere.padic_rule import PadicAmplitudePair, padic_interfere

        for _ in range(3):
            for p in (3, 5, 10**9 + 7):
                x = PadicRational(p, 7) + PadicRational(p, Fraction(1, p))
                PadicBall(p, x, 0).contains(1)
                padic_interfere(PadicAmplitudePair(p, 1, p, -1))
        assert counted == [3, 5, 10**9 + 7]

    @pytest.mark.parametrize("bad, message", [
        (4, "modulus must be a prime number, got 4"),
        (3317044064679887385961981, "modulus must be a prime below psi_13 = "
         "3317044064679887385961981, where primality is proven, got 3317044064679887385961981"),
        (2.0, "modulus must be a prime number, got 2.0"),
        (True, "modulus must be a prime number, got True"),
        (-3, "modulus must be a prime number, got -3"),
        (3.0, "modulus must be a prime number, got 3.0"),
    ])
    def test_refusals_outlive_the_memo(self, counted, bad, message):
        for p in (2, 3):
            PadicRational(p, 1)
        for _ in range(2):
            with pytest.raises(ValidationError) as exc:
                PadicRational(bad, 1)
            assert str(exc.value) == message

    def test_the_memo_is_bounded(self, counted):
        primes = [n for n in range(2, 10**4) if is_prime(n)][: padic._PROVEN_MAX + 20]
        for p in primes:
            PadicRational(p, 1)
        assert padic._PROVEN == set(primes[: padic._PROVEN_MAX])
        for p in primes:  # the primes past the bound are proven again
            PadicRational(p, 1)
        assert counted == primes + primes[padic._PROVEN_MAX:]


class TestOrderAndAbs:
    def test_zero_has_no_unit_part(self):
        with pytest.raises(ValidationError, match="0 has no unit decomposition"):
            PadicRational(3, 0).unit_part()

    def test_order_of_12_base_2(self):
        x = PadicRational(2, 12)
        assert x.order == 2 == naive_order(2, Fraction(12))
        assert x.abs() == Fraction(1, 4)

    def test_order_of_5_over_27_base_3(self):
        x = PadicRational(3, "5/27")
        assert x.order == -3
        assert x.abs() == 27

    def test_zero_has_infinite_order(self):
        x = PadicRational(5, 0)
        assert x.order == math.inf
        assert x.abs() == 0

    def test_strict_inequality_when_norms_tie(self):
        # |1|_3 = |2|_3 = 1 but |1+2|_3 = 1/3
        one = PadicRational(3, 1)
        two = PadicRational(3, 2)
        assert (one + two).abs() == Fraction(1, 3) < max(one.abs(), two.abs())

    def test_equality_branch(self):
        one = PadicRational(3, 1)
        three = PadicRational(3, 3)
        assert (one + three).abs() == 1 == max(one.abs(), three.abs())

    @given(st.integers(min_value=1, max_value=10 ** 9))
    def test_negation_preserves_valuation(self, n):
        assert PadicRational(7, -n).abs() == PadicRational(7, n).abs()

    @given(st.integers(min_value=1, max_value=10 ** 9), primes)
    def test_naturals_are_bounded(self, n, p):
        assert PadicRational(p, n).abs() <= 1

    @given(small_fractions, small_fractions, primes)
    def test_strong_triangle_inequality(self, a, b, p):
        x, y = PadicRational(p, a), PadicRational(p, b)
        assert (x + y).abs() <= max(x.abs(), y.abs())
        if x.abs() != y.abs():
            assert (x + y).abs() == max(x.abs(), y.abs())

    @given(small_fractions, small_fractions, primes)
    def test_multiplicativity(self, a, b, p):
        x, y = PadicRational(p, a), PadicRational(p, b)
        assert (x * y).abs() == x.abs() * y.abs()

    @given(small_fractions, primes)
    def test_order_matches_naive_oracle(self, a, p):
        if a == 0:
            return
        assert PadicRational(p, a).order == naive_order(p, Fraction(a))


class TestArithmetic:
    def test_addition(self):
        total = PadicRational(3, 1) + PadicRational(3, 2)
        assert total.value == 3 and total.order == 1

    def test_multiplication_adds_orders(self):
        third = PadicRational(3, Fraction(1, 3))
        assert (third * third).value == Fraction(1, 9)
        assert (third * third).order == -2

    def test_int_operands_lift(self):
        x = PadicRational(5, Fraction(2, 5))
        assert (x + 1).value == Fraction(7, 5)
        assert (2 * x).value == Fraction(4, 5)
        assert (1 - x).value == Fraction(3, 5)

    def test_division(self):
        x = PadicRational(5, 10)
        assert (x / PadicRational(5, 4)).value == Fraction(5, 2)
        with pytest.raises(ZeroDivisionError):
            x / PadicRational(5, 0)

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatchError):
            PadicRational(3, 1) + PadicRational(5, 1)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_float_operands_are_refused(self, op):
        x = PadicRational(5, Fraction(2, 5))
        with pytest.raises(TypeError):
            op(x, 1.5)
        with pytest.raises(TypeError):
            op(1.5, x)

    def test_fields_are_read_only(self):
        x = PadicRational(3, 7)
        with pytest.raises(FrozenRecordError):
            x.p = 5
        with pytest.raises(FrozenRecordError):
            del x.order
        assert x == PadicRational(3, 7) and x.order == 0

    def test_serialization(self):
        assert str(PadicRational(3, "5/27")) == "5/27"
        assert str(PadicRational(3, 7)) == "7"

    @given(
        small_fractions,
        small_fractions,
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-5, max_value=5),
        st.sampled_from([2, 3, 5, 7, 10**9 + 7]),
    )
    def test_results_match_a_fresh_construction(self, a, b, shift, n, p):
        # arithmetic results skip validation and may take their order from
        # the operands; a validated construction recomputes it from the value
        x = PadicRational(p, a * Fraction(p) ** shift)
        y = PadicRational(p, b)
        results = [x + y, x - y, x * y, -x, x + n, n - x, n * x, x - x, x * 0, y * x]
        if y.value != 0:
            results += [x / y, n / y]
        if x.value != 0:
            results.append(x.unit_part())
        for r in results:
            fresh = PadicRational(p, r.value)
            assert r == fresh
            assert r.value == fresh.value and r.order == fresh.order
            assert r.abs() == fresh.abs() == (0 if r.value == 0 else Fraction(p) ** -r.order)
        assert (x - x).order == (x * 0).order == math.inf

    @given(small_fractions, primes)
    def test_unit_decomposition(self, a, p):
        x = PadicRational(p, a)
        if x.value == 0:
            return
        unit = x.unit_part()
        assert unit.abs() == 1
        assert unit.value * Fraction(p) ** x.order == x.value


class TestDigits:
    def test_seven_base_5(self):
        expansion = PadicRational(5, 7).digits(3)
        assert expansion.exponent == 0
        assert expansion.digits == (2, 1, 0)  # 7 = 2 + 1*5
        assert str(expansion) == "…012."

    def test_one_third_base_3(self):
        expansion = PadicRational(3, Fraction(1, 3)).digits(2)
        assert expansion.exponent == -1
        assert expansion.digits == (1, 0)
        assert str(expansion) == "…0.1"

    def test_minus_one_base_5(self):
        x = PadicRational(5, -1)
        expansion = x.digits(4)
        assert expansion.digits == (4, 4, 4, 4)
        assert str(expansion) == "…4444."
        # partial sums converge: |x - S_4|_5 <= 5**-4
        gap = (x - expansion.partial_sum()).abs()
        assert gap <= Fraction(1, 625)

    def test_zero_expansion_sentinel(self):
        expansion = PadicRational(7, 0).digits(5)
        assert expansion.is_zero
        assert expansion.digits == ()
        assert str(expansion) == "0"

    def test_count_must_be_positive(self):
        with pytest.raises(ValidationError):
            PadicRational(3, 1).digits(0)

    @given(small_fractions, primes, st.integers(min_value=1, max_value=8))
    def test_modular_reconstruction_oracle(self, a, p, count):
        # once p**order is factored out, the digit prefix is the unique
        # residue of num * den^-1 modulo p**count
        if a == 0:
            return
        x = PadicRational(p, a)
        expansion = x.digits(count)
        unit = x.value / Fraction(p) ** x.order
        modulus = p ** count
        expected = unit.numerator * pow(unit.denominator, -1, modulus) % modulus
        prefix = sum(d * p ** i for i, d in enumerate(expansion.digits))
        assert prefix % modulus == expected

    @given(small_fractions, primes)
    def test_partial_sums_converge(self, a, p):
        if a == 0:
            return
        x = PadicRational(p, a)
        expansion = x.digits(8)
        start = int(x.order)
        previous = None
        for k in range(1, 9):
            gap = (x - expansion.partial_sum(k)).abs()
            assert gap <= Fraction(p) ** -(start + k)
            if previous is not None and expansion.digits[k - 1] != 0:
                assert gap < previous
            previous = gap

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 10**9 + 7])
    @pytest.mark.parametrize("exponent", [-3, 0, 2])
    def test_partial_sum_matches_fraction_accumulation(self, p, exponent):
        def reference(expansion, count):
            # the digit-by-digit Fraction sum that partial_sum must reproduce
            total = Fraction(0)
            scale = Fraction(expansion.p) ** expansion.exponent
            for digit in expansion.digits[:count]:
                total += digit * scale
                scale *= expansion.p
            return total

        digits = (p - 1, 0, 1, p // 2, p - 1)
        expansions = [
            PadicExpansion(p, exponent, digits),
            PadicExpansion(p, exponent, (0,) + digits[:2]),
            PadicExpansion(p, 0, ()),  # the zero sentinel
            PadicRational(p, Fraction(-5, 4) * Fraction(p) ** exponent).digits(6),
        ]
        for expansion in expansions:
            n = len(expansion.digits)
            for count in (None, 0, 1, n, n + 3):
                got = expansion.partial_sum() if count is None else expansion.partial_sum(count)
                assert type(got) is Fraction
                assert got == reference(expansion, count), (expansion, count)


class TestBalls:
    def test_unit_ball_contains_integers(self):
        ball = PadicBall(3, PadicRational(3, 0), 0)
        assert ball.contains(6)  # |6|_3 = 1/3 <= 1
        assert 6 in ball

    def test_unit_sphere(self):
        sphere = PadicBall(3, PadicRational(3, 0), 0, kind="sphere")
        assert sphere.contains(2)  # |2|_3 = 1
        assert not sphere.contains(3)  # |3|_3 = 1/3

    def test_open_ball_is_strict(self):
        ball = PadicBall(3, PadicRational(3, 0), 0, kind="open")
        assert not ball.contains(2)
        assert ball.contains(3)

    def test_every_member_is_a_center(self):
        ball = PadicBall(3, PadicRational(3, 0), 0)
        member = PadicRational(3, 6)
        assert ball.contains(member)
        recentered = PadicBall(3, member, 0)
        for probe in (0, 1, 2, 3, 9, Fraction(1, 3), Fraction(5, 2), 27):
            assert ball.contains(probe) == recentered.contains(probe)

    def test_a_rational_center_is_lifted(self):
        ball = PadicBall(3, Fraction(1, 3), 0)
        assert ball.center == PadicRational(3, Fraction(1, 3))
        assert ball.contains(Fraction(4, 3))  # |1|_3 = 1
        assert not ball.contains(0)  # |1/3|_3 = 3

    def test_radius_value(self):
        assert PadicBall(5, PadicRational(5, 0), -2).radius == Fraction(1, 25)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValidationError):
            PadicBall(3, PadicRational(3, 0), 0, kind="fuzzy")

    def test_prime_mismatch_rejected(self):
        with pytest.raises(PrimeMismatchError):
            PadicBall(3, PadicRational(5, 0), 0)

    @pytest.mark.parametrize("p", [3.0, 4, True])
    def test_the_modulus_is_checked_before_the_center(self, p):
        # 3.0 == 3 would pass the center's prime check; it must not build a ball
        with pytest.raises(ValidationError) as caught:
            PadicBall(p, PadicRational(3, 1), 2)
        assert str(caught.value) == f"modulus must be a prime number, got {p!r}"

    @pytest.mark.parametrize("k", [2.5, 2.0, Fraction(1, 2), Fraction(-4, 3)])
    def test_a_radius_exponent_that_is_no_integer_is_named(self, k):
        with pytest.raises(ValidationError) as caught:
            PadicBall(3, 1, k)
        assert str(caught.value) == f"radius_exponent must be an integer, got {k!r}"

    @pytest.mark.parametrize("k", [2, -2, Fraction(2), True])
    def test_an_integral_radius_exponent_gives_a_fraction_radius(self, k):
        radius = PadicBall(3, 1, k).radius
        assert type(radius) is Fraction and radius == Fraction(3) ** int(k)

    def test_nesting(self):
        big = PadicBall(3, PadicRational(3, 0), 1)
        small = PadicBall(3, PadicRational(3, 9), -1)
        # the smaller ball's center is within the bigger one, so it nests
        assert big.contains(small.center)
        for offset in (0, Fraction(1, 3), Fraction(2, 3)):
            point = small.center + PadicRational(3, offset * 9)
            if small.contains(point):
                assert big.contains(point)
