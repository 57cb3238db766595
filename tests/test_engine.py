"""Deviation calculus: lambda, regimes, phases, the two interference rules."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from interfere import hyperbolic
from interfere.context import ContextTransform, total_prob_hyperbolic
from interfere.engine import (
    InterferenceRecord,
    Regime,
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
    NotAProbabilityError,
    ProfileError,
    ValidationError,
)
from interfere.numeric import fmt_number, is_exact, require_probability
from interfere.profiles import profile_hyp, profile_piecewise

# oracle for the worked example: |0.6 + 0.4 e^{i pi/3}|^2 = 0.76
_EXAMPLE_P = abs(0.6 + 0.4 * cmath.exp(1j * math.pi / 3)) ** 2


class TestLambda:
    def test_worked_example(self):
        assert _EXAMPLE_P == pytest.approx(0.76, abs=1e-15)
        assert lambda_of(0.36, 0.16, 0.76) == pytest.approx(0.5, abs=1e-12)

    def test_exact_mode(self):
        lam = lambda_of(Fraction(9, 25), Fraction(4, 25), Fraction(19, 25))
        assert lam == Fraction(1, 2)
        assert isinstance(lam, Fraction)

    def test_classical_additivity_gives_zero(self):
        assert lambda_of(0.3, 0.2, 0.5) == 0.0

    def test_maximal_constructive(self):
        assert lambda_of(0.25, 0.25, 1.0) == 1.0

    @pytest.mark.parametrize("p1,p2", [(0.0, 0.5), (0.5, 0.0), (0.0, 0.0)])
    def test_degenerate_rejected(self, p1, p2):
        with pytest.raises(DegenerateContextError):
            lambda_of(p1, p2, 0.3)

    def test_input_range_enforced(self):
        with pytest.raises(ValidationError):
            lambda_of(1.2, 0.5, 0.5)
        with pytest.raises(ValidationError):
            lambda_of(0.5, 0.5, -0.1)


class TestClassify:
    @pytest.mark.parametrize(
        "lam,expected",
        [
            (0.5, Regime.TRIGONOMETRIC),
            (-0.999, Regime.TRIGONOMETRIC),
            (0.0, Regime.TRIGONOMETRIC),
            (1.0, Regime.BOUNDARY),
            (-1.0, Regime.BOUNDARY),
            (3.5, Regime.HYPERBOLIC),
            (-7.0, Regime.HYPERBOLIC),
        ],
    )
    def test_regimes(self, lam, expected):
        assert classify(lam) is expected

    def test_exact_boundary(self):
        assert classify(Fraction(-1)) is Regime.BOUNDARY

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            classify(math.nan)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_exhaustive_and_exclusive(self, lam):
        regime = classify(lam)
        if abs(lam) == 1:
            assert regime is Regime.BOUNDARY
        elif abs(lam) < 1:
            assert regime is Regime.TRIGONOMETRIC
        else:
            assert regime is Regime.HYPERBOLIC


class TestPhaseOf:
    def test_trigonometric(self):
        phase, sign = phase_of(0.5)
        assert phase == pytest.approx(math.pi / 3, abs=1e-12)
        assert sign == 1

    def test_hyperbolic_negative(self):
        phase, sign = phase_of(-7.0)
        # arccosh(x) = ln(x + sqrt(x**2 - 1))
        assert phase == pytest.approx(math.log(7 + 4 * math.sqrt(3)), rel=1e-14)
        assert sign == -1

    def test_boundary_prefers_trigonometric(self):
        assert phase_of(1.0) == (0.0, 1)
        phase, sign = phase_of(-1.0)
        assert phase == pytest.approx(math.pi) and sign == 1

    @given(st.floats(min_value=-0.999999, max_value=0.999999))
    def test_round_trip_trig(self, lam):
        phase, sign = phase_of(lam)
        assert 0 <= phase <= math.pi and sign == 1
        assert math.cos(phase) == pytest.approx(lam, abs=1e-12)

    @given(st.floats(min_value=1.000001, max_value=1e6), st.sampled_from([1, -1]))
    def test_round_trip_hyp(self, magnitude, sign_in):
        phase, sign = phase_of(sign_in * magnitude)
        assert phase >= 0 and sign == sign_in
        assert math.cosh(phase) == pytest.approx(magnitude, rel=1e-12)


class TestInterfereTrig:
    def test_worked_example_vs_amplitude_oracle(self):
        assert interfere_trig(0.36, 0.16, math.pi / 3) == pytest.approx(
            _EXAMPLE_P, abs=1e-12
        )

    def test_quarter_turn_is_classical_exactly(self):
        assert interfere_trig(0.25, 0.25, math.pi / 2) == 0.5

    def test_exact_mode_quarter_turn(self):
        result = interfere_trig(Fraction(1, 4), Fraction(1, 4), math.pi / 2)
        assert result == Fraction(1, 2)
        assert isinstance(result, Fraction)

    def test_full_destruction(self):
        assert interfere_trig(0.25, 0.25, math.pi) == 0.0

    def test_out_of_range_raises_with_raw_value(self):
        with pytest.raises(NotAProbabilityError) as err:
            interfere_trig(0.49, 0.49, 0.0)
        assert err.value.value == pytest.approx(0.98 + 2 * 0.49, abs=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=0.25),
        st.floats(min_value=0.01, max_value=0.25),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_amplitude_oracle_property(self, p1, p2, theta):
        direct = interfere_trig(p1, p2, theta)
        oracle = abs(math.sqrt(p1) + cmath.exp(1j * theta) * math.sqrt(p2)) ** 2
        assert direct == pytest.approx(oracle, abs=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=0.25),
        st.floats(min_value=0.01, max_value=0.25),
        st.floats(min_value=0.01, max_value=math.pi - 0.01),
    )
    def test_lambda_round_trip(self, p1, p2, theta):
        p = interfere_trig(p1, p2, theta)
        assert lambda_of(p1, p2, p) == pytest.approx(math.cos(theta), abs=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=0.25),
        st.floats(min_value=0.01, max_value=0.25),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_symmetry(self, p1, p2, theta):
        assert interfere_trig(p1, p2, theta) == pytest.approx(
            interfere_trig(p2, p1, theta), abs=1e-15
        )


class TestInterfereHyp:
    def test_perfect_square_case(self):
        assert interfere_hyp(1 / 16, 1 / 16, 0.0, 1) == 0.25
        exact = interfere_hyp(Fraction(1, 16), Fraction(1, 16), 0.0, 1)
        assert exact == Fraction(1, 4)

    def test_saturation_at_theta_max(self):
        theta_max = math.log(7 + 4 * math.sqrt(3))  # cosh(theta_max) = 7
        assert interfere_hyp(1 / 16, 1 / 16, theta_max, 1) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_zero_at_theta_min(self):
        # q- = (5/16) / (1/4) = 5/4 = cosh(ln 2)
        assert interfere_hyp(1 / 4, 1 / 16, math.log(2), -1) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_out_of_window_raises(self):
        with pytest.raises(NotAProbabilityError) as err:
            interfere_hyp(1 / 16, 1 / 16, 5.0, 1)
        assert err.value.value > 1

    def test_bad_sign(self):
        with pytest.raises(ValidationError):
            interfere_hyp(0.1, 0.1, 0.5, 0)

    # a complex sign equal to 1 passes `in (1, -1)` and then made the rule's
    # value complex, which ended in a bare TypeError at its range test
    COMPLEX_SIGN = [
        (lambda: interfere_hyp(0.25, 0.25, 0.1, 1 + 0j), ValidationError, "sign"),
        (lambda: amplitudes_hyp(0.25, 0.25, 0.1, 1 + 0j), ValidationError, "sign"),
        (lambda: total_prob_hyperbolic(ContextTransform(
            (0.5, 0.5), ((0.5, 0.5), (0.5, 0.5)), (0.1, 0.2), (1 + 0j, 1), "hyp"
        )), ValidationError, "signs[0]"),
        (lambda: profile_hyp(0.1, 0.1, 1 + 0j, [0.0, 0.1]), ProfileError, "sign"),
        (lambda: profile_piecewise(0.1, 0.1, [(0, 0.1, 1 + 0j)], [0.0, 0.05]), ProfileError,
         "interval sign"),
    ]

    @pytest.mark.parametrize("call, error, name", COMPLEX_SIGN)
    def test_a_complex_sign_is_refused_by_name(self, call, error, name):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == f"{name} must be +1 or -1, got (1+0j)"

    @pytest.mark.parametrize("sign, plain", [(True, 1), (1.0, 1), (-1.0, -1)])
    def test_bool_and_float_signs_are_still_signs(self, sign, plain):
        # the validating path takes them, so the last bit may differ from an int's
        expected = interfere_hyp(0.25, 0.0625, 0.3, plain)
        assert interfere_hyp(0.25, 0.0625, 0.3, sign) == pytest.approx(expected, abs=1e-15)
        (value,) = profile_hyp(0.25, 0.0625, sign, [0.3]).values
        assert value == pytest.approx(expected, abs=1e-15)

    @given(
        st.floats(min_value=0.01, max_value=0.2),
        st.floats(min_value=0.01, max_value=0.2),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([1, -1]),
    )
    def test_norm_oracle_property(self, p1, p2, fraction, sign):
        weight = 2 * math.sqrt(p1 * p2)
        bound = (1 - p1 - p2) / weight if sign == 1 else (p1 + p2) / weight
        theta = fraction * math.acosh(max(bound, 1.0))
        direct = interfere_hyp(p1, p2, theta, sign)
        first, second = amplitudes_hyp(p1, p2, theta, sign)
        oracle = (first + second).norm_sq()
        assert direct == pytest.approx(oracle, abs=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=0.2),
        st.floats(min_value=0.01, max_value=0.2),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_lambda_round_trip(self, p1, p2, fraction):
        theta = fraction * math.acosh((p1 + p2) / (2 * math.sqrt(p1 * p2)))
        p = interfere_hyp(p1, p2, theta, -1)
        assert lambda_of(p1, p2, p) == pytest.approx(-math.cosh(theta), abs=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=0.2),
        st.floats(min_value=0.01, max_value=0.2),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([1, -1]),
    )
    def test_symmetry(self, p1, p2, fraction, sign):
        weight = 2 * math.sqrt(p1 * p2)
        bound = (1 - p1 - p2) / weight if sign == 1 else (p1 + p2) / weight
        theta = fraction * math.acosh(max(bound, 1.0))
        assert interfere_hyp(p1, p2, theta, sign) == pytest.approx(
            interfere_hyp(p2, p1, theta, sign), abs=1e-15
        )


class TestPhaseContract:
    """A phase that is not finite, or whose cross factor leaves the float
    range, is refused by name in both readings."""

    @pytest.mark.parametrize(
        "func, args, message",
        [
            (interfere_hyp, (0.1, 0.1, 1000, 1), "theta = 1000 is out of range: cosh overflows"),
            (amplitudes_hyp, (0.1, 0.1, 1000, 1), "theta = 1000 is out of range: cosh overflows"),
            (interfere_trig, (0.1, 0.1, math.inf), "theta must be finite, got inf"),
            (interfere_hyp, (0.1, 0.1, math.nan, 1), "theta must be finite, got nan"),
            (amplitudes_trig, (0.1, 0.1, math.inf), "theta must be finite, got inf"),
        ],
        ids=["interfere_hyp-overflow", "amplitudes_hyp-overflow", "interfere_trig-inf",
             "interfere_hyp-nan", "amplitudes_trig-inf"],
    )
    def test_bad_phase_is_a_validation_error(self, func, args, message):
        with pytest.raises(ValidationError) as info:
            func(*args)
        assert str(info.value).startswith(message)


class TestAmplitudes:
    def test_single_alternative(self):
        first, second = amplitudes_trig(1.0, 0.0, 2.3)
        assert first == 1.0 and abs(second) == 0.0

    def test_trig_pair(self):
        first, second = amplitudes_trig(0.36, 0.16, math.pi / 3)
        assert first == pytest.approx(0.6)
        assert second == pytest.approx(0.4 * cmath.exp(1j * math.pi / 3))
        assert abs(first + second) ** 2 == pytest.approx(0.76, abs=1e-12)

    def test_trig_in_phase(self):
        first, second = amplitudes_trig(0.25, 0.25, 0.0)
        assert first == 0.5 and second == 0.5
        assert abs(first + second) ** 2 == pytest.approx(1.0)

    def test_hyp_rest_case(self):
        first, second = amplitudes_hyp(1 / 16, 1 / 16, 0.0, 1)
        assert first == hyperbolic.HyperbolicNumber(0.25, 0.0)
        assert second == hyperbolic.HyperbolicNumber(0.25, 0.0)
        assert (first + second).norm_sq() == pytest.approx(0.25)

    def test_hyp_unit_phase(self):
        first, second = amplitudes_hyp(1 / 16, 1 / 16, 1.0, 1)
        total = (first + second).norm_sq()
        assert total == pytest.approx(1 / 8 + math.cosh(1.0) / 8, abs=1e-12)

    def test_hyp_light_cone_sum(self):
        first, second = amplitudes_hyp(1 / 4, 1 / 16, math.log(2), -1)
        total = first + second
        assert total.norm_sq() == pytest.approx(0.0, abs=1e-12)
        assert total.x == pytest.approx(-total.y, abs=1e-12)


class TestFitRecord:
    def test_trigonometric_fit(self):
        record = fit_record(0.36, 0.16, 0.76)
        assert record.lam == pytest.approx(0.5, abs=1e-12)
        assert record.regime is Regime.TRIGONOMETRIC
        assert record.phase == pytest.approx(math.pi / 3, abs=1e-12)
        assert record.sign == 1
        assert record.residual() <= 1e-12

    def test_classical_point(self):
        record = fit_record(0.25, 0.25, 0.5)
        assert record.lam == 0.0
        assert record.regime is Regime.TRIGONOMETRIC
        assert record.phase == pytest.approx(math.pi / 2)

    def test_hyperbolic_fit(self):
        record = fit_record(1 / 16, 1 / 16, 1.0)
        assert record.lam == pytest.approx(7.0, abs=1e-12)
        assert record.regime is Regime.HYPERBOLIC
        assert record.phase == pytest.approx(math.log(7 + 4 * math.sqrt(3)), rel=1e-12)
        assert record.sign == 1
        assert record.residual() <= 1e-12

    def test_boundary_fit(self):
        record = fit_record(0.25, 0.25, 1.0)
        assert record.regime is Regime.BOUNDARY
        assert record.residual() <= 1e-12

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateContextError):
            fit_record(0.25, 0.0, 0.3)

    @given(
        st.floats(min_value=0.02, max_value=0.3),
        st.floats(min_value=0.02, max_value=0.3),
        st.floats(min_value=0.05, max_value=0.95),
    )
    def test_reconstruction_property(self, p1, p2, p):
        record = fit_record(p1, p2, p)
        assert record.residual() <= 1e-12

    @pytest.mark.parametrize(
        "p1, regime, phase, message",
        [
            (0.25, Regime.TRIGONOMETRIC, math.inf, "theta must be finite"),
            (0.25, Regime.HYPERBOLIC, 800.0, "theta = 800.0 is out of range"),
            (2.0, Regime.TRIGONOMETRIC, 1.0, "p1 must lie in"),
        ],
    )
    def test_hand_built_bad_record_is_a_validation_error(self, p1, regime, phase, message):
        """reconstruct checks the rule's inputs as interfere_trig/hyp do."""
        record = InterferenceRecord(p1, 0.25, 0.5, 0.0, regime, phase, 1)
        with pytest.raises(ValidationError, match=message):
            record.reconstruct()


class TestCombine:
    def test_zero_deviation_is_exact_addition(self):
        total = combine(Fraction(1, 3), Fraction(1, 6), 0)
        assert total == Fraction(1, 2)
        assert isinstance(total, Fraction)

    def test_unit_deviation_keeps_exact_perfect_squares(self):
        total = combine(Fraction(1, 16), Fraction(1, 16), 1)
        assert total == Fraction(1, 4)
        assert isinstance(total, Fraction)


class TestNumericChecks:
    """The float checks come first; answers and messages stay as they were."""

    @pytest.mark.parametrize(
        "value, message",
        [
            (math.nan, "p1 must be finite, got nan"),
            (math.inf, "p1 must be finite, got inf"),
            (-math.inf, "p1 must be finite, got -inf"),
            (-0.1, "p1 must lie in [0, 1], got -0.1"),
            (1.5, "p1 must lie in [0, 1], got 1.5"),
            (Fraction(3, 2), "p1 must lie in [0, 1], got Fraction(3, 2)"),
        ],
    )
    def test_require_probability_messages(self, value, message):
        with pytest.raises(ValidationError) as info:
            require_probability(value, "p1")
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [0, 1, 0.0, 1.0, 0.25, Fraction(1, 3), True])
    def test_require_probability_returns_its_input(self, value):
        assert require_probability(value, "p1") is value

    @pytest.mark.parametrize(
        "value, exact, text",
        [
            (True, True, "True"),
            (3, True, "3"),
            (Fraction(1, 3), True, "1/3"),
            (0.25, False, "0.25"),
        ],
    )
    def test_is_exact_and_fmt_number(self, value, exact, text):
        assert is_exact(value) is exact
        assert fmt_number(value) == text

    def test_numpy_float_is_a_float(self):
        numpy = pytest.importorskip("numpy")
        assert is_exact(numpy.float64(0.25)) is False
        assert fmt_number(numpy.float64(0.25)) == "0.25"
