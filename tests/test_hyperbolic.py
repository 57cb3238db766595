"""Split-complex algebra: ring laws, norm, Euler formula, polar form."""

import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from interfere import hyperbolic
from interfere.errors import NonPositiveNormError, ValidationError
from interfere.hyperbolic import J, ONE, ZERO, HyperbolicNumber, PolarForm

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
numbers = st.builds(HyperbolicNumber, rationals, rationals)


def matrix_of(z):
    """Independent oracle: x + j*y acts as the symmetric matrix [[x, y], [y, x]]."""
    return ((z.x, z.y), (z.y, z.x))


def matrix_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


class TestArithmetic:
    def test_addition_is_componentwise(self):
        assert HyperbolicNumber(1, 2) + HyperbolicNumber(3, -2) == HyperbolicNumber(4, 0)
        assert ZERO + HyperbolicNumber(5, -7) == HyperbolicNumber(5, -7)
        assert HyperbolicNumber(1, 1) + HyperbolicNumber(1, -1) == HyperbolicNumber(2, 0)

    def test_j_squares_to_one(self):
        assert J * J == ONE

    def test_light_cone_zero_divisors(self):
        assert HyperbolicNumber(1, 1) * HyperbolicNumber(1, -1) == ZERO

    def test_product_by_hand(self):
        # (2 + j)(3 + 2j) = 6 + 4j + 3j + 2j^2 = 8 + 7j
        assert HyperbolicNumber(2, 1) * HyperbolicNumber(3, 2) == HyperbolicNumber(8, 7)

    def test_scalar_multiplication(self):
        assert 3 * HyperbolicNumber(1, 2) == HyperbolicNumber(3, 6)
        assert HyperbolicNumber(1, 2) * Fraction(1, 2) == HyperbolicNumber(
            Fraction(1, 2), 1
        )

    @given(numbers, numbers)
    def test_product_matches_matrix_representation(self, a, b):
        product = a * b
        assert matrix_of(product) == matrix_mul(matrix_of(a), matrix_of(b))

    @given(numbers, numbers)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(numbers, numbers, numbers)
    def test_associativity_exact(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)


exact_values = st.one_of(st.integers(min_value=-60, max_value=60), rationals)
# values a float carries exactly, so int, Fraction and float spellings agree
dyadics = st.builds(
    lambda n, k: Fraction(n, 2**k),
    st.integers(min_value=-(2**20), max_value=2**20),
    st.integers(min_value=0, max_value=8),
)


def exact_components(z):
    assert isinstance(z.x, (int, Fraction)) and isinstance(z.y, (int, Fraction))
    return z.x, z.y


BOTH_KINDS = [HyperbolicNumber(Fraction(1, 3), 2), HyperbolicNumber(0.5, 1.5)]  # exact, float


class TestExactKernel:
    """Exact numbers against the Fraction component formulas."""

    @given(exact_values, exact_values, exact_values, exact_values, exact_values)
    def test_ring_operations(self, x1, y1, x2, y2, k):
        a, b = HyperbolicNumber(x1, y1), HyperbolicNumber(x2, y2)
        x1, y1, x2, y2, k = map(Fraction, (x1, y1, x2, y2, k))
        assert exact_components(a) == (x1, y1)
        assert exact_components(a + b) == (x1 + x2, y1 + y2)
        assert exact_components(a - b) == (x1 - x2, y1 - y2)
        assert exact_components(-a) == (-x1, -y1)
        assert exact_components(a * b) == (x1 * x2 + y1 * y2, x1 * y2 + x2 * y1)
        assert exact_components(a.conjugate()) == (x1, -y1)
        assert exact_components(a * k) == exact_components(k * a) == (x1 * k, y1 * k)
        norm = a.norm_sq()
        assert isinstance(norm, (int, Fraction)) and norm == x1 * x1 - y1 * y1
        if norm > 0:
            assert exact_components(hyperbolic.inverse(a)) == (x1 / norm, -y1 / norm)

    @given(dyadics, dyadics)
    def test_equality_and_hash_across_component_types(self, x, y):
        spellings = [
            HyperbolicNumber(x, y),
            HyperbolicNumber(float(x), float(y)),
            HyperbolicNumber(x, float(y)),
        ]
        if x.denominator == 1 and y.denominator == 1:
            spellings.append(HyperbolicNumber(int(x), int(y)))
        for z in spellings:
            assert z == spellings[0]
            assert hash(z) == hash(spellings[0])

    def test_equality_and_hash_example(self):
        a, b = HyperbolicNumber(1, 2), HyperbolicNumber(Fraction(2, 2), 2.0)
        assert a == b and hash(a) == hash(b)
        assert HyperbolicNumber(1, 2) != HyperbolicNumber(1, 2.5)

    @pytest.mark.parametrize("z", BOTH_KINDS)
    def test_components_are_read_only(self, z):
        with pytest.raises(AttributeError):
            z.x = 3
        with pytest.raises(AttributeError):
            del z.y
        assert z == HyperbolicNumber(z.x, z.y)

    @pytest.mark.parametrize("z", BOTH_KINDS)
    def test_pickled_copies_keep_value_and_kind(self, z):
        copy = pickle.loads(pickle.dumps(z))
        assert copy == z
        assert (type(copy.x), type(copy.y)) == (type(z.x), type(z.y))

    @pytest.mark.parametrize("z", BOTH_KINDS)
    def test_difference_negation_and_conjugate(self, z):
        x, y = z.x, z.y
        assert z - HyperbolicNumber(1, -1) == HyperbolicNumber(x - 1, y + 1)
        assert -z == HyperbolicNumber(-x, -y)
        assert z.conjugate() == HyperbolicNumber(x, -y)
        for w in (z - HyperbolicNumber(1, -1), -z, z.conjugate()):
            assert (type(w.x), type(w.y)) == (type(x), type(y))

    @pytest.mark.parametrize("z", BOTH_KINDS)
    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    def test_a_bare_scalar_is_neither_added_nor_subtracted(self, z, op):
        with pytest.raises(TypeError):
            op(z, 1)
        with pytest.raises(TypeError):
            op(1, z)


class TestOtherOperands:
    """Operands outside the two kinds the kernel names."""

    def test_float_subclass_components_take_the_float_formulas(self):
        class Real(float):
            pass

        z = HyperbolicNumber(Real(1.5), Real(0.5))
        assert z._d == 0 and z.norm_sq() == 2.0

    def test_an_exact_number_equals_its_float_spelling(self):
        a, b = HyperbolicNumber(1, 2), HyperbolicNumber(1.0, 2.0)
        assert a == b and hash(a) == hash(b)

    def test_other_types_are_not_equal(self):
        assert HyperbolicNumber(1, 2) != (1, 2)

    def test_a_product_with_a_non_number_is_a_type_error(self):
        with pytest.raises(TypeError):
            HyperbolicNumber(1, 2) * "x"


class TestNorm:
    def test_values(self):
        assert HyperbolicNumber(5, 4).norm_sq() == 9  # 25 - 16
        assert HyperbolicNumber(1, 1).norm_sq() == 0

    def test_unit_norm_of_exp(self):
        z = hyperbolic.exp(math.log(2))
        assert z.norm_sq() == pytest.approx(1.0, abs=1e-12)

    @given(numbers, numbers)
    def test_multiplicative(self, a, b):
        assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()

    @given(numbers)
    def test_conjugation(self, z):
        assert z.conjugate().conjugate() == z
        assert z * z.conjugate() == HyperbolicNumber(z.norm_sq(), 0)


class TestExp:
    def test_identity(self):
        assert hyperbolic.exp(0.0) == HyperbolicNumber(1.0, 0.0)

    def test_log2_components(self):
        # cosh(ln 2) = (2 + 1/2)/2 = 5/4, sinh(ln 2) = (2 - 1/2)/2 = 3/4
        z = hyperbolic.exp(math.log(2))
        assert z.x == pytest.approx(1.25, abs=1e-15)
        assert z.y == pytest.approx(0.75, abs=1e-15)

    def test_group_law(self):
        z = hyperbolic.exp(1.0) * hyperbolic.exp(-1.0)
        assert z.x == pytest.approx(1.0, abs=1e-15)
        assert z.y == pytest.approx(0.0, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            hyperbolic.exp(math.nan)
        with pytest.raises(ValueError):
            hyperbolic.exp(math.inf)

    def test_overflow_is_a_range_error(self):
        with pytest.raises(OverflowError):
            hyperbolic.exp(1000.0)


class TestPolar:
    def test_decomposition_of_5_4(self):
        form = hyperbolic.polar(HyperbolicNumber(5.0, 4.0))
        assert form.sign == 1
        assert form.modulus == pytest.approx(3.0, abs=1e-12)
        assert form.phase == pytest.approx(math.atanh(0.8), abs=1e-12)
        back = form.to_number()
        assert back.x == pytest.approx(5.0, rel=1e-12)
        assert back.y == pytest.approx(4.0, rel=1e-12)

    def test_unit(self):
        assert hyperbolic.polar(ONE) == PolarForm(1, 1.0, 0.0)

    def test_negative_branch(self):
        form = hyperbolic.polar(HyperbolicNumber(-5.0, 4.0))
        assert form.sign == -1
        assert form.modulus == pytest.approx(3.0, abs=1e-12)
        assert form.phase == pytest.approx(math.atanh(-0.8), abs=1e-12)
        back = form.to_number()
        assert back.x == pytest.approx(-5.0, rel=1e-12)
        assert back.y == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("z", [HyperbolicNumber(1, 1), HyperbolicNumber(1, 2), ZERO])
    def test_rejects_outside_positive_interior(self, z):
        with pytest.raises(NonPositiveNormError):
            hyperbolic.polar(z)

    @pytest.mark.parametrize("z, name, part", [
        (HyperbolicNumber(10**400, 0.5), "x", 10**400),
        (HyperbolicNumber(-10**400, 0.5), "x", -10**400),
        (HyperbolicNumber(2**1100, 0.5), "x", 2**1100),
        (HyperbolicNumber(Fraction(10**400, 3), 0.5), "x", Fraction(10**400, 3)),
        (HyperbolicNumber(0.5, 10**400), "y", 10**400),
        (HyperbolicNumber(10**400, 1), "x", 10**400),
    ], ids=["10**400", "-10**400", "2**1100", "fraction", "y", "exact"])
    def test_a_component_past_the_float_range_is_named(self, z, name, part):
        with pytest.raises(ValidationError) as info:
            hyperbolic.polar(z)
        assert str(info.value) == (
            f"polar form needs components in the float range (~1.8e308), got {name} = {part!r}"
        )

    def test_an_exact_norm_past_the_float_range_is_named(self):
        z = HyperbolicNumber(10**200, 1)
        with pytest.raises(ValidationError) as info:
            hyperbolic.polar(z)
        assert str(info.value) == (
            "polar form needs norm_sq in the float range (~1.8e308), got "
            f"norm_sq({10**200} + j*1) = {10**400 - 1}"
        )

    @pytest.mark.parametrize("z, message", [
        (HyperbolicNumber(math.nan, 0.5), "got x = nan"),
        (HyperbolicNumber(math.inf, 0.5), "got x = inf"),
        (HyperbolicNumber(0.5, -math.inf), "got y = -inf"),
        (HyperbolicNumber(math.inf, math.inf), "got x = inf"),
    ], ids=["nan", "inf", "y", "both"])
    def test_a_non_finite_component_is_named(self, z, message):
        # a NaN x read as negative and an inf x gave an infinite modulus
        with pytest.raises(ValidationError) as info:
            hyperbolic.polar(z)
        assert str(info.value) == f"polar form needs finite components, {message}"

    def test_pure_j_multiples_are_never_polar(self):
        # x = 0 with norm_sq > 0 is impossible: the norm is -y**2 <= 0 there
        for y in (1, -2, 5):
            assert HyperbolicNumber(0, y).norm_sq() <= 0
            with pytest.raises(NonPositiveNormError):
                hyperbolic.polar(HyperbolicNumber(0, y))


class TestInverse:
    def test_identity_is_self_inverse(self):
        assert hyperbolic.inverse(ONE) == ONE

    def test_exact_inverse(self):
        z = HyperbolicNumber(Fraction(5), Fraction(4))
        inv = hyperbolic.inverse(z)
        assert inv == HyperbolicNumber(Fraction(5, 9), Fraction(-4, 9))
        assert z * inv == HyperbolicNumber(Fraction(1), Fraction(0))

    def test_int_components_invert_exactly(self):
        z = HyperbolicNumber(2, 1)
        assert z * hyperbolic.inverse(z) == ONE

    @pytest.mark.parametrize("z", [HyperbolicNumber(1, 1), HyperbolicNumber(3, -3), ZERO])
    def test_light_cone_not_invertible(self, z):
        with pytest.raises(NonPositiveNormError):
            hyperbolic.inverse(z)

    def test_negative_norm_not_invertible(self):
        with pytest.raises(NonPositiveNormError, match="has negative norm_sq -3, not invertible"):
            hyperbolic.inverse(HyperbolicNumber(1, 2))

    @pytest.mark.parametrize("z, message", [
        (HyperbolicNumber(math.inf, 0.5), "got x = inf"),
        (HyperbolicNumber(math.nan, 0.5), "got x = nan"),
        (HyperbolicNumber(2.0, math.nan), "got y = nan"),
        (HyperbolicNumber(1, -math.inf), "got y = -inf"),
    ], ids=["inf", "nan", "y", "int-x"])
    def test_a_non_finite_component_is_named(self, z, message):
        # (inf, 0.5) gave (nan, -0.0), and a NaN x gave (nan, nan)
        with pytest.raises(ValidationError) as info:
            hyperbolic.inverse(z)
        assert str(info.value) == f"inverse needs finite components, {message}"

    @given(st.fractions(min_value=-20, max_value=20, max_denominator=30))
    def test_random_positive_norm_inverses(self, y):
        z = HyperbolicNumber(abs(y) + 1, y)  # |x| > |y| puts z in the group
        assert z * hyperbolic.inverse(z) == HyperbolicNumber(Fraction(1), Fraction(0))
