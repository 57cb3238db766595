"""Two-context total probability: classical, cos- and cosh-perturbed forms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from interfere.context import (
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
from interfere.errors import FrozenRecordError, NotAProbabilityError, ValidationError

HALF = ((0.5, 0.5), (0.5, 0.5))


def make(prior=(0.5, 0.5), cond=HALF, phases=(0.0, 0.0), signs=(1, 1), mode="trig"):
    return ContextTransform(prior=prior, cond=cond, phases=phases, signs=signs, mode=mode)


unit = st.floats(min_value=0.02, max_value=0.98)
angles = st.floats(min_value=0.0, max_value=2 * math.pi)


@st.composite
def transforms(draw, phases=(0.0, 0.0)):
    pb1 = draw(unit)
    r0 = draw(unit)
    r1 = draw(unit)
    return make(prior=(pb1, 1 - pb1), cond=((r0, 1 - r0), (r1, 1 - r1)), phases=phases)


class TestValidation:
    def test_prior_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="prior sums to"):
            make(prior=(0.3, 0.6))

    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValidationError, match="row 1 sums to"):
            make(cond=((0.5, 0.5), (0.3, 0.5)))

    def test_probabilities_in_range(self):
        with pytest.raises(ValidationError, match=r"cond\[0\]\[0\]"):
            make(cond=((1.5, -0.5), (0.5, 0.5)))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"cond": ((0.5, 0.5), (1.5, -0.5))}, "cond[1][0] must lie in [0, 1], got 1.5"),
            ({"cond": ((0.5, 0.5), (math.nan, 0.5))}, "cond[1][0] must be finite, got nan"),
            ({"prior": (0.5, -0.5)}, "prior[1] must lie in [0, 1], got -0.5"),
            ({"prior": (0.5, math.inf)}, "prior[1] must be finite, got inf"),
            ({"phases": (0.0, math.nan)}, "phases[1] must be finite, got nan"),
        ],
    )
    def test_out_of_range_value_is_named(self, kwargs, message):
        with pytest.raises(ValidationError) as info:
            make(**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"cond": ((0.5, 0.5),)}, "prior, cond rows, and phases must all be pairs"),
            ({"cond": ((0.5, 0.5), (0.5, 0.25, 0.25))}, "cond row 1 must have 2 entries"),
            ({"signs": (1,), "mode": "hyp"}, "signs must have 2 entries, got 1"),
            ({"signs": (), "mode": "hyp"}, "signs must have 2 entries, got 0"),
            ({"signs": (1, -1, 1)}, "signs must have 2 entries, got 3"),
        ],
    )
    def test_a_field_that_is_not_a_pair_is_named(self, kwargs, message):
        with pytest.raises(ValidationError) as info:
            make(**kwargs)
        assert str(info.value) == message

    def test_mode_and_signs(self):
        with pytest.raises(ValidationError):
            make(mode="weird")
        with pytest.raises(ValidationError):
            make(signs=(2, 1))

    def test_immutable(self):
        t = make()
        with pytest.raises(FrozenRecordError):
            t.mode = "hyp"


class TestClassical:
    def test_worked_mixture(self):
        t = make(prior=(0.3, 0.7), cond=((0.5, 0.5), (0.2, 0.8)))
        first, second = total_prob_classical(t)
        assert first == pytest.approx(0.29)  # 0.3*0.5 + 0.7*0.2
        assert second == pytest.approx(0.71)

    def test_identity_conditionals_copy_the_prior(self):
        t = make(prior=(0.3, 0.7), cond=((1.0, 0.0), (0.0, 1.0)))
        assert total_prob_classical(t) == pytest.approx((0.3, 0.7))

    def test_deterministic_condition(self):
        t = make(prior=(1.0, 0.0), cond=((0.4, 0.6), (0.9, 0.1)))
        assert total_prob_classical(t) == pytest.approx((0.4, 0.6))

    def test_exact_normalization(self):
        t = make(
            prior=(Fraction(1, 3), Fraction(2, 3)),
            cond=(
                (Fraction(1, 4), Fraction(3, 4)),
                (Fraction(2, 5), Fraction(3, 5)),
            ),
        )
        first, second = total_prob_classical(t)
        assert first + second == 1


class TestQuantum:
    def test_full_constructive_destructive(self):
        t = make(phases=(0.0, math.pi))
        assert total_prob_quantum(t) == (1.0, 0.0)

    def test_quarter_turn_collapses_exactly(self):
        t = make(
            prior=(0.3, 0.7),
            cond=((0.5, 0.5), (0.2, 0.8)),
            phases=(math.pi / 2, math.pi / 2),
        )
        assert total_prob_quantum(t) == total_prob_classical(t)

    def test_exact_mode_half_turns(self):
        t = make(
            prior=(Fraction(1, 2), Fraction(1, 2)),
            cond=(
                (Fraction(1, 2), Fraction(1, 2)),
                (Fraction(1, 2), Fraction(1, 2)),
            ),
            phases=(0.0, math.pi),
        )
        first, second = total_prob_quantum(t)
        assert first == Fraction(1) and second == Fraction(0)

    def test_complementary_phases(self):
        t = make(phases=(math.pi / 3, math.pi - math.pi / 3))
        first, second = total_prob_quantum(t)
        assert first == pytest.approx(0.75, abs=1e-12)
        assert second == pytest.approx(0.25, abs=1e-12)

    def test_component_out_of_range_names_component(self):
        t = make(prior=(0.3, 0.7), cond=((0.9, 0.1), (0.8, 0.2)), phases=(0.0, 0.0))
        with pytest.raises(NotAProbabilityError) as err:
            total_prob_quantum(t)
        assert err.value.component == 1
        assert err.value.value > 1

    @given(transforms(), angles, angles)
    def test_amplitude_oracle(self, base, theta1, theta2):
        t = make(prior=base.prior, cond=base.cond, phases=(theta1, theta2))
        _, outputs = sqrt_linear_transform(t)
        raw = raw_quantum_components(t)
        for j in (0, 1):
            assert abs(outputs[j]) ** 2 == pytest.approx(raw[j], abs=1e-12)

    @given(transforms())
    def test_degenerate_prior_ignores_phases(self, base):
        reference = None
        for theta1, theta2 in ((0.0, 0.0), (1.1, 2.2), (3.3, 4.4), (5.5, 0.4)):
            t = make(prior=(1.0, 0.0), cond=base.cond, phases=(theta1, theta2))
            values = total_prob_quantum(t)
            assert values == total_prob_classical(t) == base.cond[0]
            if reference is None:
                reference = values
            assert values == reference


class TestSqrtLinearTransform:
    def test_requires_trig_mode(self):
        with pytest.raises(ValidationError):
            sqrt_linear_transform(make(mode="hyp"))

    def test_deterministic_prior_reads_first_row(self):
        t = make(prior=(1.0, 0.0), cond=((0.25, 0.75), (0.5, 0.5)), phases=(0.0, 0.0))
        _, outputs = sqrt_linear_transform(t)
        assert outputs[0] == pytest.approx(math.sqrt(0.25))
        assert outputs[1] == pytest.approx(math.sqrt(0.75))

    def test_matrix_carries_relative_phase_on_second_row(self):
        t = make(phases=(0.4, 1.3))
        matrix, _ = sqrt_linear_transform(t)
        assert matrix[0][0].imag == 0 and matrix[0][1].imag == 0
        assert cmath_phase(matrix[1][0]) == pytest.approx(0.4)
        assert cmath_phase(matrix[1][1]) == pytest.approx(1.3)

    def test_reproduces_constructive_destructive(self):
        t = make(phases=(0.0, math.pi))
        _, outputs = sqrt_linear_transform(t)
        assert abs(outputs[0]) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(outputs[1]) ** 2 == pytest.approx(0.0, abs=1e-12)


def cmath_phase(z: complex) -> float:
    return math.atan2(z.imag, z.real)


class TestStateExpansionPhases:
    def test_no_phases(self):
        assert phases_from_state_expansion(((0, 0), (0, 0)), (0, 0)) == (0.0, 0.0)

    def test_global_phase_on_second_branch(self):
        thetas = phases_from_state_expansion(((0, 0), (0, 0)), (0, math.pi / 3))
        assert thetas[0] == pytest.approx(math.pi / 3)
        assert thetas[1] == pytest.approx(math.pi / 3)

    def test_componentwise_phase(self):
        thetas = phases_from_state_expansion(((0, 0), (math.pi, 0)), (0, 0))
        assert thetas[0] == pytest.approx(math.pi)
        assert thetas[1] == pytest.approx(0.0)

    def test_reduced_to_standard_interval(self):
        thetas = phases_from_state_expansion(((5.0, 0.0), (0.0, 0.0)), (0.0, 0.0))
        assert 0 <= thetas[0] < 2 * math.pi

    @given(
        transforms(),
        st.tuples(angles, angles),
        st.tuples(st.tuples(angles, angles), st.tuples(angles, angles)),
    )
    def test_reproduces_expanded_state(self, base, xi_prior, xi_cond):
        thetas = phases_from_state_expansion(xi_cond, xi_prior)
        t = make(prior=base.prior, cond=base.cond, phases=thetas)
        raw = raw_quantum_components(t)
        for j in (0, 1):
            amplitude = sum(
                complex(math.cos(xi_prior[i] + xi_cond[i][j]), math.sin(xi_prior[i] + xi_cond[i][j]))
                * math.sqrt(base.prior[i] * base.cond[i][j])
                for i in (0, 1)
            )
            assert abs(amplitude) ** 2 == pytest.approx(raw[j], abs=1e-12)


class TestHyperbolic:
    def test_rest_phases_mirror_trig_extremes(self):
        t = make(phases=(0.0, 0.0), signs=(1, -1), mode="hyp")
        assert total_prob_hyperbolic(t) == (1.0, 0.0)

    def test_validity_window_violation(self):
        t = make(phases=(math.log(2), math.log(2)), signs=(1, -1), mode="hyp")
        with pytest.raises(NotAProbabilityError) as err:
            total_prob_hyperbolic(t)
        assert err.value.component == 1  # 1/2 + 5/8 overshoots first
        assert err.value.value == pytest.approx(0.5 + 0.625, abs=1e-12)

    def test_deterministic_prior_is_phase_free(self):
        t = make(
            prior=(1.0, 0.0),
            cond=((0.4, 0.6), (0.9, 0.1)),
            phases=(2.0, 3.0),
            mode="hyp",
        )
        assert total_prob_hyperbolic(t) == pytest.approx((0.4, 0.6))

    def test_requires_hyp_mode(self):
        with pytest.raises(ValidationError):
            total_prob_hyperbolic(make())
        with pytest.raises(ValidationError):
            hyperbolic_sqrt_transform(make())

    @given(transforms(), st.floats(min_value=0.0, max_value=0.95))
    def test_split_complex_oracle(self, base, fraction):
        phases = []
        for j in (0, 1):
            mixture = base.prior[0] * base.cond[0][j] + base.prior[1] * base.cond[1][j]
            weight = 2 * math.sqrt(
                base.prior[0] * base.cond[0][j] * base.prior[1] * base.cond[1][j]
            )
            phases.append(fraction * math.acosh(mixture / weight))
        t = make(
            prior=base.prior,
            cond=base.cond,
            phases=tuple(phases),
            signs=(-1, -1),
            mode="hyp",
        )
        values = total_prob_hyperbolic(t)
        _, outputs = hyperbolic_sqrt_transform(t)
        for j in (0, 1):
            assert values[j] == pytest.approx(outputs[j].norm_sq(), abs=1e-12)


class TestNormalizationDefect:
    def test_balanced_phases(self):
        t = make(
            prior=(0.4, 0.6),
            cond=((0.7, 0.3), (0.3, 0.7)),
            phases=(1.1, math.pi - 1.1),
        )
        assert abs(normalization_defect(t)) <= 1e-12

    def test_unbalanced_phases_reported(self):
        t = make(phases=(0.0, 0.0))
        assert normalization_defect(t) == pytest.approx(1.0)  # both cross terms peak

    def test_never_renormalized(self):
        t = make(phases=(0.3, 0.3))
        raw = raw_quantum_components(t)
        assert sum(raw) - 1 == pytest.approx(normalization_defect(t))
        assert sum(raw) != pytest.approx(1.0)
