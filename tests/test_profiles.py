"""Brightness profiles: windows, monotonicity, sampling, emission."""

import io
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from interfere.engine import interfere_hyp, interfere_trig
from interfere.errors import (
    DegenerateContextError,
    NotAProbabilityError,
    ProfileError,
    ValidationError,
)
from interfere.padic_rule import padic_slit_profile
from interfere.numeric import fmt_float, fmt_number, is_exact
from interfere.profiles import (
    MAX_GRID_POINTS,
    BrightnessProfile,
    _write_header,
    profile_hyp,
    profile_padic,
    profile_piecewise,
    profile_trig,
    theta_bounds,
    uniform_grid,
    write_csv,
)

THETA_MAX_7 = math.log(7 + 4 * math.sqrt(3))  # cosh = 7, for p1 = p2 = 1/16


class TestUniformGrid:
    def test_inclusive_endpoints(self):
        grid = uniform_grid(0.0, 1.0, 5)
        assert grid == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_single_sample(self):
        assert uniform_grid(2.0, 9.0, 1) == (2.0,)

    def test_needs_a_sample(self):
        with pytest.raises(ProfileError):
            uniform_grid(0.0, 1.0, 0)

    @pytest.mark.parametrize("lo, hi, n, name, value", [
        (0.0, 10**400, 5, "end hi", 10**400),
        (0.0, -10**400, 5, "end hi", -10**400),
        (0.0, 2**1100, 5, "end hi", 2**1100),
        (0.0, Fraction(10**400, 3), 5, "end hi", Fraction(10**400, 3)),
        (10**400, 0.0, 1, "end lo", 10**400),
        (-10**308, 10**308, 2, "span hi - lo", 2 * 10**308),
        (-10**308, 10**308, 5, "span hi - lo", 2 * 10**308),
    ], ids=["hi", "-hi", "2**1100", "fraction", "lo", "span", "span-5"])
    def test_an_exact_value_past_the_float_range_is_named(self, lo, hi, n, name, value):
        with pytest.raises(ValidationError) as info:
            uniform_grid(lo, hi, n)
        assert str(info.value) == f"grid {name} = {value!r} exceeds the float range (~1.8e308)"

    @pytest.mark.parametrize(
        "n", [math.inf, math.nan, 2.5, 10**400, 2**1100],
        ids=["inf", "nan", "2.5", "10**400", "2**1100"],
    )
    def test_an_n_that_is_no_int_in_the_float_range_is_named(self, n):
        # int and Fraction ends divide by a huge n without overflow
        for lo, hi in ((0.0, 1.0), (0, 1), (Fraction(0), Fraction(1))):
            with pytest.raises(ProfileError) as info:
                uniform_grid(lo, hi, n)
            assert str(info.value) == f"grid n must be an int in the float range, got {n!r}"

    @pytest.mark.parametrize("n", [1.0, Fraction(1)], ids=["1.0", "Fraction(1)"])
    def test_a_float_n_is_refused_even_for_one_sample(self, n):
        with pytest.raises(ProfileError) as info:
            uniform_grid(0.0, 1.0, n)
        assert str(info.value) == f"grid n must be an int in the float range, got {n!r}"

    @pytest.mark.parametrize(
        "n", [2**63, 10**20, MAX_GRID_POINTS + 1, 10**12],
        ids=["2**63", "10**20", "max + 1", "10**12"],
    )
    def test_an_n_past_the_index_range_is_named(self, n):
        # range(n) and float(n) take such an n; the tuple would fill the memory
        with pytest.raises(ProfileError) as info:
            uniform_grid(0.0, 1.0, n)
        assert str(info.value) == (
            f"grid n = {n} is too large: a grid holds at most {MAX_GRID_POINTS} samples")

    def test_the_maximum_is_a_grid(self):
        assert MAX_GRID_POINTS == 10**6
        grid = uniform_grid(0.0, 1.0, MAX_GRID_POINTS)
        assert len(grid) == MAX_GRID_POINTS and grid[0] == 0.0
        assert grid[-1] == pytest.approx(1.0, abs=1e-15)

    def test_a_bool_n_counts_as_an_int(self):
        assert uniform_grid(2.0, 9.0, True) == (2.0,)

    @pytest.mark.parametrize("lo, hi, n", [("a", 1.0, 3), (0.0, None, 3), (0.0, 1.0, "3")])
    def test_a_non_number_is_a_type_error(self, lo, hi, n):
        with pytest.raises(TypeError):
            uniform_grid(lo, hi, n)


class TestThetaBounds:
    def test_symmetric_sixteenths(self):
        theta_max, theta_min = theta_bounds(1 / 16, 1 / 16)
        assert theta_max == pytest.approx(THETA_MAX_7, rel=1e-12)  # q+ = 7
        assert theta_min == 0.0  # q- = 1

    def test_quarter_sixteenth(self):
        _, theta_min = theta_bounds(1 / 4, 1 / 16)
        assert theta_min == pytest.approx(math.log(2), rel=1e-12)  # q- = 5/4

    def test_boundary_quarters(self):
        theta_max, _ = theta_bounds(0.25, 0.25)
        assert theta_max == 0.0  # q+ = 1: saturated already at rest

    def test_snap_band_below_one(self):
        # q_plus within TOLERANCE below 1 snaps theta_max to 0.0; further below, no window
        p = 0.25 + 1e-12
        assert theta_bounds(p, p) == (0.0, 0.0)
        assert theta_bounds(0.25 + 1e-10, 0.25 + 1e-10)[0] is None
        assert profile_hyp(p, p, 1, (0.0,)).values == (1.0,)

    def test_window_absent_when_peak_exceeds_one(self):
        theta_max, theta_min = theta_bounds(0.45, 0.45)
        assert theta_max is None
        assert theta_min == 0.0

    def test_solves_the_endpoint_equations(self):
        p1, p2 = 0.07, 0.02
        theta_max, theta_min = theta_bounds(p1, p2)
        weight = 2 * math.sqrt(p1 * p2)
        assert p1 + p2 + weight * math.cosh(theta_max) == pytest.approx(1.0, abs=1e-12)
        assert p1 + p2 - weight * math.cosh(theta_min) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateContextError):
            theta_bounds(0.5, 0.0)

    @pytest.mark.parametrize(
        "p1, p2, top",
        [
            (Fraction(1, 10**5000), 1, "p1 + p2"),  # q ~ 10**2500
            (Fraction(1, 10**400), Fraction(1, 10**400), "1 - p1 - p2"),  # q ~ 10**400
        ],
    )
    def test_exact_q_past_the_float_range_is_named(self, p1, p2, top):
        with pytest.raises(ValidationError) as info:
            theta_bounds(p1, p2)
        assert str(info.value) == (
            f"theta bounds: ({top}) / (2*sqrt(p1*p2)) exceeds the float range (~1.8e308), "
            "so its arccosh cannot be computed"
        )

    def test_float_product_underflowing_to_zero_is_named(self):
        # both nonzero, as lambda_of names it: not a degenerate context
        with pytest.raises(ValidationError, match="underflows to 0 in floats.*--mode exact"):
            theta_bounds(1e-200, 1e-200)

    def test_exact_root_underflowing_to_zero_is_named(self):
        # p1*p2 = 1/(2*10**5000) is no perfect square, and its float root is 0
        with pytest.raises(ValidationError, match="underflows to 0 in floats"):
            theta_bounds(Fraction(1, 2), Fraction(1, 10**5000))


class TestTrigProfile:
    def test_quarter_samples(self):
        profile = profile_trig(0.25, 0.25, (0.0, math.pi / 2, math.pi, 2 * math.pi))
        assert profile.values[0] == 1.0
        assert profile.values[1] == 0.5
        assert profile.values[2] == 0.0
        assert profile.values[3] == pytest.approx(1.0, abs=1e-12)

    def test_single_alternative_is_flat(self):
        profile = profile_trig(1.0, 0.0, uniform_grid(0.0, 10.0, 11))
        assert all(v == 1.0 for v in profile.values)

    def test_peak_precondition(self):
        with pytest.raises(ProfileError, match="peak"):
            profile_trig(0.5, 0.5, (0.0,))

    @pytest.mark.parametrize("point, problem", [
        (math.inf, "must be finite, got inf"),
        (-math.inf, "must be finite, got -inf"),
        (10**400, f"= {10**400!r} exceeds the float range (~1.8e308)"),
        (-10**400, f"= {-10**400!r} exceeds the float range (~1.8e308)"),
        (2**1100, f"= {2**1100!r} exceeds the float range (~1.8e308)"),
        (Fraction(10**400, 3), f"= {Fraction(10**400, 3)!r} exceeds the float range (~1.8e308)"),
    ], ids=["inf", "-inf", "10**400", "-10**400", "2**1100", "fraction"])
    @pytest.mark.parametrize("pair", [(0.25, 0.25), (Fraction(1, 4), Fraction(1, 4))],
                             ids=["float", "exact"])
    def test_a_point_past_the_float_range_is_named(self, point, problem, pair):
        """The first such point, on the float lane and on the validating path."""
        with pytest.raises(ValidationError) as info:
            profile_trig(*pair, (0.0, 1.0, point, math.inf))
        assert str(info.value) == f"grid point 2 {problem}"

    def test_a_nan_point_is_still_no_probability(self):
        with pytest.raises(NotAProbabilityError):
            profile_trig(0.25, 0.25, (0.0, math.nan, math.inf))

    def test_extrema_locations(self):
        grid = uniform_grid(0.0, 4 * math.pi, 1001)
        profile = profile_trig(0.2, 0.05, grid)
        step = grid[1] - grid[0]
        values = profile.values
        # interior local maxima sit within a step of even multiples of pi
        for i in range(1, len(grid) - 1):
            if values[i] > values[i - 1] and values[i] > values[i + 1]:
                nearest = round(grid[i] / (2 * math.pi)) * 2 * math.pi
                assert abs(grid[i] - nearest) <= step
            if values[i] < values[i - 1] and values[i] < values[i + 1]:
                k = round((grid[i] - math.pi) / (2 * math.pi))
                assert abs(grid[i] - (2 * k + 1) * math.pi) <= step


class TestHypProfile:
    def test_plus_branch_endpoints(self):
        profile = profile_hyp(1 / 16, 1 / 16, 1, (0.0, THETA_MAX_7))
        assert profile.values[0] == 0.25
        assert profile.values[1] == pytest.approx(1.0, abs=1e-12)

    def test_minus_branch_endpoints(self):
        profile = profile_hyp(1 / 4, 1 / 16, -1, (0.0, math.log(2)))
        assert profile.values[0] == pytest.approx(1 / 16, abs=1e-15)
        assert profile.values[1] == pytest.approx(0.0, abs=1e-12)

    def test_strictly_monotone(self):
        grid = uniform_grid(0.0, THETA_MAX_7, 64)
        plus = profile_hyp(1 / 16, 1 / 16, 1, grid)
        assert all(a < b for a, b in zip(plus.values, plus.values[1:]))
        _, theta_min = theta_bounds(1 / 4, 1 / 16)
        minus = profile_hyp(1 / 4, 1 / 16, -1, uniform_grid(0.0, theta_min, 64))
        assert all(a > b for a, b in zip(minus.values, minus.values[1:]))

    def test_clipping_warns(self):
        profile = profile_hyp(1 / 16, 1 / 16, 1, uniform_grid(0.0, THETA_MAX_7 + 2, 50))
        assert len(profile.warnings) == 1
        assert "clipped" in profile.warnings[0]
        assert profile.grid[-1] <= THETA_MAX_7 + 1e-9

    def test_empty_window_is_an_error(self):
        with pytest.raises(ProfileError):
            profile_hyp(0.45, 0.45, 1, (0.0, 1.0))  # peak > 1 at rest
        with pytest.raises(ProfileError):
            profile_hyp(1 / 16, 1 / 16, 1, (THETA_MAX_7 + 1.0,))

    def test_window_metadata(self):
        profile = profile_hyp(1 / 4, 1 / 16, -1, (0.0,))
        assert profile.theta_min == pytest.approx(math.log(2), rel=1e-12)
        assert profile.theta_max == pytest.approx(math.acosh(2.75), rel=1e-12)


class TestPiecewiseProfile:
    def test_single_interval_matches_hyp(self):
        grid = uniform_grid(0.0, THETA_MAX_7, 20)
        single = profile_piecewise(1 / 16, 1 / 16, [(0.0, THETA_MAX_7, 1)], grid)
        direct = profile_hyp(1 / 16, 1 / 16, 1, grid)
        assert single.values == direct.values

    def test_two_intervals_concatenate(self):
        p1, p2 = 1 / 4, 1 / 16
        _, theta_min = theta_bounds(p1, p2)
        grid = uniform_grid(0.0, 1.4, 29)
        pieces = profile_piecewise(
            p1, p2, [(0.0, theta_min, -1), (0.8, 1.4, 1)], grid
        )
        slack = 1e-10  # interval edges admit the same ulp slack as sampling
        minus_points = [r for r in grid if r <= theta_min + slack]
        plus_points = [r for r in grid if 0.8 - slack <= r <= 1.4 + slack]
        assert list(pieces.grid) == minus_points + plus_points
        assert all(0 <= v <= 1 for v in pieces.values)

    def test_alternating_partition_stays_in_range(self):
        partition = [(0.0, 0.8, 1), (0.9, 1.8, -1), (1.9, 2.6, 1)]
        # p1 = p2 = 1/16 has theta_min = 0, so the minus interval must fail
        with pytest.raises(ProfileError, match="validity window"):
            profile_piecewise(1 / 16, 1 / 16, partition, uniform_grid(0.0, 2.6, 40))
        p1, p2 = 0.05, 0.002
        theta_max, theta_min = theta_bounds(p1, p2)
        partition = [(0.0, 0.5, -1), (0.6, 1.5, 1), (1.6, theta_min, -1)]
        assert theta_min > 1.6 and theta_max > 1.5
        profile = profile_piecewise(p1, p2, partition, uniform_grid(0.0, theta_min, 60))
        assert all(0 <= v <= 1 for v in profile.values)

    def test_overlap_rejected(self):
        with pytest.raises(ProfileError, match="overlap"):
            profile_piecewise(
                0.05, 0.002, [(0.0, 1.0, 1), (0.5, 1.5, -1)], uniform_grid(0, 1.5, 10)
            )

    @pytest.mark.parametrize(
        "partition, grid, message",
        [
            ([], (0.0,), "partition must contain at least one interval"),
            ([(0, 0.1, -1)], (0.5, 0.6), "no grid points fall inside the partition"),
        ],
    )
    def test_nothing_to_sample_is_an_error(self, partition, grid, message):
        with pytest.raises(ProfileError) as info:
            profile_piecewise(0.25, 0.0625, partition, grid)
        assert str(info.value) == message

    def test_window_violation_rejected(self):
        with pytest.raises(ProfileError, match="validity window"):
            profile_piecewise(
                1 / 16, 1 / 16, [(0.0, THETA_MAX_7 + 1.0, 1)], uniform_grid(0, 3, 10)
            )

    @pytest.mark.parametrize("p1, p2", [(0.25, 0.0625), (Fraction(1, 4), Fraction(1, 16))])
    @pytest.mark.parametrize("sign", [1.0, -1.0, True, Fraction(1), Fraction(-1)])
    def test_every_accepted_sign_reads_as_its_int(self, p1, p2, sign):
        """A float, bool or Fraction sign gives the int sign's values, its
        partition text and its window error."""
        grid = uniform_grid(0.0, 0.5, 3)

        def outcome(s, hi):
            try:
                profile = profile_piecewise(p1, p2, [(0, hi, s)], grid)
            except ProfileError as exc:
                return str(exc)
            return [(type(v), v) for v in profile.values], profile.metadata["partition"]

        for hi in (0.5, 50.0):  # inside, then past, the branch's window
            assert outcome(sign, hi) == outcome(int(sign), hi)
        assert outcome(sign, 0.5)[1] == f"0:0.5:{int(sign):+d}"

    def test_an_end_past_the_float_range_is_named(self):
        with pytest.raises(ProfileError) as info:
            profile_piecewise(0.1, 0.1, [(0, 10**400, 1)], (0.0,))
        assert str(info.value) == f"interval [0, {10**400}] exceeds the float range (~1.8e308)"

    def test_a_non_number_end_is_a_type_error(self):
        with pytest.raises(TypeError):
            profile_piecewise(0.1, 0.1, [("a", 1, 1)], (0.0,))

    def test_points_outside_partition_are_dropped(self):
        profile = profile_piecewise(
            1 / 16, 1 / 16, [(1.0, 2.0, 1)], (0.0, 0.5, 1.5, 2.5)
        )
        assert profile.grid == (1.5,)


class TestSweepMatchesPointwise:
    """A sweep validates its inputs once; every value must still equal, in
    value and in type, what the public rule gives at that point."""

    EXACT = (Fraction(1, 4), Fraction(1, 16))  # p1*p2 = 1/64, a perfect square

    @staticmethod
    def _same(got, want):
        want = tuple(want)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]

    @pytest.mark.parametrize("p1, p2", [(0.2, 0.05), (1 / 4, 1 / 16), EXACT])
    def test_trig(self, p1, p2):
        grid = (0.0, 0.3, math.pi / 2, 2.0, math.pi, 4.0, 2 * math.pi)
        profile = profile_trig(p1, p2, grid)
        self._same(profile.values, (interfere_trig(p1, p2, r) for r in grid))
        if isinstance(p1, Fraction):  # cos = 1, 0, -1 keep the rule exact
            assert profile.values[0] == Fraction(9, 16)
            assert profile.values[2] == Fraction(5, 16)
            assert profile.values[4] == Fraction(1, 16)
            assert all(isinstance(profile.values[i], Fraction) for i in (0, 2, 4))

    @pytest.mark.parametrize("p1, p2", [(0.2, 0.05), (1 / 4, 1 / 16), EXACT])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_hyp(self, p1, p2, sign):
        hi = theta_bounds(p1, p2)[0 if sign == 1 else 1]
        grid = uniform_grid(0.0, hi, 17)
        profile = profile_hyp(p1, p2, sign, grid)
        self._same(profile.values, (interfere_hyp(p1, p2, r, sign) for r in grid))
        if isinstance(p1, Fraction):  # cosh(0) = 1 keeps the rule exact
            assert profile.values[0] == (Fraction(9, 16) if sign == 1 else Fraction(1, 16))

    @pytest.mark.parametrize("p1, p2", [(1 / 4, 1 / 16), EXACT])
    def test_piecewise(self, p1, p2):
        partition = [(0.0, 0.5, -1), (0.8, 1.5, 1)]
        grid = uniform_grid(0.0, 1.5, 40)
        profile = profile_piecewise(p1, p2, partition, grid)
        signs = [-1 if r <= 0.5 + 1e-10 else 1 for r in profile.grid]
        self._same(
            profile.values,
            (interfere_hyp(p1, p2, r, s) for r, s in zip(profile.grid, signs)),
        )
        assert profile.values[0] == p1 + p2 - 2 * math.sqrt(p1 * p2)

    def test_bad_signs_keep_their_messages(self):
        with pytest.raises(ProfileError) as info:
            profile_hyp(1 / 4, 1 / 16, 0, (0.0,))
        assert str(info.value) == "sign must be +1 or -1, got 0"
        with pytest.raises(ProfileError) as info:
            profile_piecewise(1 / 4, 1 / 16, [(0.0, 0.5, 2)], (0.0,))
        assert str(info.value) == "interval sign must be +1 or -1, got 2"


class TestOneShotGrid:
    """A grid that can be iterated once samples as its tuple does."""

    @staticmethod
    def _points():
        return (x * 0.01 for x in range(5))

    def test_trig(self):
        profile = profile_trig(0.2, 0.05, self._points())
        assert profile == profile_trig(0.2, 0.05, tuple(self._points()))
        assert len(profile.values) == 5

    def test_hyp(self):
        profile = profile_hyp(0.2, 0.05, -1, self._points())
        assert profile == profile_hyp(0.2, 0.05, -1, tuple(self._points()))
        assert profile.warnings == () and len(profile.values) == 5

    def test_piecewise(self):
        partition = [(0.0, 0.02, -1), (0.03, 0.04, 1)]
        profile = profile_piecewise(0.2, 0.05, partition, self._points())
        assert profile == profile_piecewise(0.2, 0.05, partition, tuple(self._points()))
        assert len(profile.values) == 5


class TestPadicProfile:
    def test_radii_and_values(self):
        profile = profile_padic(3, 0, 8)
        assert profile.grid == (2, 3, 5, 6, 8, 9)
        assert profile.values == (
            Fraction(1),
            Fraction(1, 9),
            Fraction(1),
            Fraction(1, 9),
            Fraction(1),
            Fraction(1, 81),
        )

    def test_unit_radii_keep_full_brightness(self):
        profile = profile_padic(5, 1, 30)
        scale = Fraction(1, 25)
        for radius, value in zip(profile.grid, profile.values):
            if radius % 5:
                assert value == scale

    def test_prime_power_radius_dims_quadratically(self):
        profile = profile_padic(3, 0, 3 ** 4)
        by_radius = dict(zip(profile.grid, profile.values))
        for m in (1, 2, 3, 4):
            assert by_radius[3 ** m] == Fraction(3) ** (-2 * m)

    def test_matches_slit_table_bit_for_bit(self):
        profile = profile_padic(5, 2, 60)
        slit = padic_slit_profile(5, 2, 60)
        assert list(profile.grid) == [1 + s.epsilon for s in slit]
        assert list(profile.values) == [s.probability for s in slit]


class TestEmission:
    def test_csv_shape(self):
        profile = profile_trig(0.25, 0.25, uniform_grid(0.0, math.pi, 4))
        buffer = io.StringIO()
        write_csv(profile, buffer)
        lines = buffer.getvalue().splitlines()
        comments = [line for line in lines if line.startswith("# ")]
        assert "# kind=trig" in comments
        assert any(line.startswith("# version=") for line in comments)
        header_index = len(comments)
        assert lines[header_index] == "r,P_float,P_exact,kind"
        rows = lines[header_index + 1 :]
        assert len(rows) == 4
        assert rows[0] == "0,1,,trig"

    def test_csv_exact_column_for_padic(self):
        buffer = io.StringIO()
        write_csv(profile_padic(3, 0, 8), buffer)
        rows = [line for line in buffer.getvalue().splitlines() if not line.startswith("#")]
        assert rows[0] == "r,P_float,P_exact,kind"
        assert rows[1] == "2,1,1,padic"
        assert rows[2] == "3,0.111111111111,1/9,padic"

    def test_csv_cells_for_shared_equal_and_mixed_values(self):
        # one object repeated, equal values in distinct objects, and values
        # of every kind: float, int, Fraction, and a number that is neither
        ninth = Fraction(1, 9)
        values = (ninth, Fraction(1, 9), 0.5, 1, Fraction(1, 3), Decimal("0.5"), ninth)
        profile = BrightnessProfile("padic", tuple(range(2, 9)), values)
        buffer = io.StringIO()
        write_csv(profile, buffer)
        rows = [line for line in buffer.getvalue().splitlines() if not line.startswith("#")]
        assert rows[1:] == [
            "2,0.111111111111,1/9,padic",
            "3,0.111111111111,1/9,padic",
            "4,0.5,,padic",
            "5,1,1,padic",
            "6,0.333333333333,1/3,padic",
            "7,0.5,,padic",
            "8,0.111111111111,1/9,padic",
        ]

    def test_warning_records_survive_emission(self):
        profile = profile_hyp(1 / 16, 1 / 16, 1, uniform_grid(0.0, THETA_MAX_7 + 2, 30))
        buffer = io.StringIO()
        write_csv(profile, buffer)
        assert "# warning1=clipped" in buffer.getvalue()


def rows_one_by_one(profile, stream):
    """write_csv as it was before float profiles were written in one piece:
    each row formatted through fmt_number and fmt_float."""
    meta = dict(profile.metadata)
    if profile.theta_max is not None:
        meta["theta_max"] = profile.theta_max
    if profile.theta_min is not None:
        meta["theta_min"] = profile.theta_min
    for i, warning in enumerate(profile.warnings, 1):
        meta[f"warning{i}"] = warning
    _write_header(stream, profile.kind, meta, "r,P_float,P_exact,kind")
    cells = {}
    for r, value in zip(profile.grid, profile.values):
        if isinstance(value, float):
            text = f"{fmt_float(value)},"
        else:
            text = cells.get(id(value))
            if text is None:
                exact = fmt_number(value) if is_exact(value) else ""
                text = cells[id(value)] = f"{fmt_float(value)},{exact}"
        stream.write(f"{fmt_number(r)},{text},{profile.kind}\n")


class TestEmissionBytes:
    """write_csv writes the bytes the row-by-row writer wrote."""

    PROFILES = {
        "trig": lambda: profile_trig(0.2, 0.05, uniform_grid(0.0, 4 * math.pi, 501)),
        "hyp": lambda: profile_hyp(0.07, 0.02, -1, uniform_grid(0.0, 3.0, 257)),
        "hyp with warnings": lambda: profile_hyp(
            1 / 16, 1 / 16, 1, uniform_grid(-1.0, THETA_MAX_7 + 2, 301)
        ),
        "piecewise": lambda: profile_piecewise(
            1 / 4, 1 / 16, [(0.0, 0.5, -1), (0.8, 1.5, 1)], uniform_grid(0.0, 1.5, 200)
        ),
        "padic": lambda: profile_padic(3, 1, 200),
        "exact trig": lambda: profile_trig(
            Fraction(1, 4), Fraction(1, 16), (0, Fraction(1, 2), math.pi / 2, 2.0, math.pi)
        ),
        # radii of every kind: a float, an int past 12 significant digits, a
        # Fraction, a float subclass and extreme floats
        "mixed radii": lambda: BrightnessProfile(
            "trig",
            (0.5, 10**13, Fraction(1, 3), type("Real", (float,), {})(2.5), -0.0, 1e300, 5e-324),
            (0.25, 1.0, 0.0, 0.125, 1 - 2**-53, 1e-17, 0.5),
            warnings=("one", "two"),
        ),
        "float rows, odd kind": lambda: BrightnessProfile(
            "100%", (0.0, math.nan, math.inf, 1e16), (0.0, 0.1, 1.0, 2 / 3)
        ),
    }

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_same_bytes(self, name):
        profile = self.PROFILES[name]()
        want, got = io.StringIO(), io.StringIO()
        rows_one_by_one(profile, want)
        write_csv(profile, got)
        assert got.getvalue().encode() == want.getvalue().encode()


class TestGrowthIdentity:
    def test_cosh_shift_identity(self):
        p1, p2 = 1 / 16, 1 / 16
        grid = uniform_grid(0.0, THETA_MAX_7, 40)
        profile = profile_hyp(p1, p2, 1, grid)
        weight = 2 * math.sqrt(p1 * p2)
        for r, v in zip(profile.grid, profile.values):
            assert (v - profile.values[0]) / weight == pytest.approx(
                math.cosh(r) - 1, abs=1e-12
            )
            if r >= math.log(2):
                assert math.cosh(r) - 1 >= math.exp(r) / 2 - 1 - 1e-12
