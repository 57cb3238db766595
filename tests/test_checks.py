"""The invariant suite itself: lazy counterexamples, exact helpers, and the
worker processes that run its sweeps."""

import concurrent.futures
import inspect
import math
import multiprocessing
from fractions import Fraction

import pytest

from interfere import checks, cli, engine
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

        tally = checks.CheckResult("lazy")
        for k, ok in enumerate([True, True, False, True, False, False]):
            tally.case(ok, detail(k))
        assert calls == [2]
        assert tally == checks.CheckResult("lazy", 6, 3, "case 2")

    def test_passing_sweep_formats_nothing(self):
        tally = checks.CheckResult("clean")
        for _ in range(5):
            tally.case(True, lambda: pytest.fail("detail of a passing case was formatted"))
        assert tally == checks.CheckResult("clean", 5, 0, "")

    def test_plain_string_detail(self):
        tally = checks.CheckResult("plain")
        tally.case(False, "first")
        tally.case(False, "second")
        assert tally.detail == "first"


def planted(monkeypatch, algebra, shift):
    """Make the direct rule that the oracle sweeps call add shift(p1, theta)
    to its value in `algebra` only; the faulty rule is returned."""
    real = checks._interfere

    def faulty(which, p1, p2, theta, sign, name="theta"):
        value = real(which, p1, p2, theta, sign, name)
        return value + shift(p1, theta) if which is algebra else value

    monkeypatch.setattr(checks, "_interfere", faulty)
    return faulty


class TestInjectedFault:
    def test_hyp_oracle_keeps_its_counterexample(self, monkeypatch):
        faulty = planted(monkeypatch, engine.HYP, lambda p1, theta: 1e-6)
        result = checks.check_amplitude_oracle_hyp(n=5)

        expected, failures = None, 0
        ps = uniform_grid(0.005, 0.25, 5)
        for p1 in ps:
            for p2 in ps:
                theta_max, theta_min = theta_bounds(p1, p2)
                for sign, hi in ((1, theta_max), (-1, theta_min)):
                    for theta in uniform_grid(0.0, hi, 5):
                        direct = faulty(engine.HYP, p1, p2, theta, sign)
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
        faulty = planted(monkeypatch, engine.TRIG, lambda p1, theta: 1e-6 if theta > math.pi else 0)
        result = checks.check_amplitude_oracle_trig(n=5)

        p1 = p2 = 0.005
        theta = uniform_grid(0.0, 2 * math.pi, 5)[3]
        direct = faulty(engine.TRIG, p1, p2, theta, 1)
        a1, a2 = amplitudes_trig(p1, p2, theta)
        oracle = abs(a1 + a2) ** 2
        assert result.cases == 125
        assert result.violations == 25 * 2
        assert result.detail == (
            f"trig oracle mismatch at p1={p1}, p2={p2}, theta={theta}: {direct} vs {oracle}"
        )

    @pytest.mark.parametrize("algebra", [engine.TRIG, engine.HYP], ids=["trig", "hyp"])
    def test_the_oracle_is_the_algebras_amplitude_sum(self, algebra):
        """The sweep holds the rule against the sum of the algebra's own
        amplitudes: a unit scaled by 1 + 1e-9 is a violation."""
        clean = checks._oracle_sweep(algebra, 5)
        assert clean.violations == 0 and clean.detail == ""
        scaled = algebra._replace(unit=lambda theta, k: algebra.unit(theta, k * (1 + 1e-9)))
        result = checks._oracle_sweep(scaled, 5)
        assert (result.name, result.cases) == (clean.name, clean.cases)
        assert result.violations > 0
        assert result.detail.startswith(f"{algebra.name} oracle mismatch at p1=0.005, p2=0.005")

    @pytest.mark.parametrize(
        "fault",
        [lambda values: (values[0] + 1e-6, values[1]), lambda values: values[::-1]],
        ids=["shifted", "swapped"],
    )
    def test_hyperbolic_totals_are_held_to_their_oracle(self, monkeypatch, fault):
        real = checks.total_prob_hyperbolic
        monkeypatch.setattr(checks, "total_prob_hyperbolic", lambda t: fault(real(t)))
        result = checks.check_total_probability(cases=1000)
        assert (result.cases, result.violations) == (11700, 200)
        assert result.detail == "hyperbolic totals disagree with the split-complex oracle"

    def test_a_flattened_euclidean_jump_is_a_violation(self, monkeypatch):
        # the witness reads padic_slit_profile(p, 0, p**m); only those calls
        # get the sample below p**m - 1 as dark as p**m - 1 itself
        real = checks.padic_slit_profile

        def flattened(p, l, eps_max):
            samples = real(p, l, eps_max)
            if l == 0 and eps_max in {p ** m for m in range(1, 6)} and len(samples) > 1:
                dark = samples[-1].probability
                samples[-2] = samples[-2]._replace(probability=dark)
            return samples

        monkeypatch.setattr(checks, "padic_slit_profile", flattened)
        result = checks.check_slit_fluctuations()
        # m = 1 asks for no jump, and p = 2, m = 1 has no sample below
        assert (result.cases, result.violations) == (69, 12)
        assert result.detail == "Euclidean jump witness failed at p=2, m=2"


class TestHyperbolaPoint:
    def test_matches_the_point_of_t(self):
        for m in range(1, 13):
            for n in range(1, 13):
                t = Fraction(m, n)
                point = checks._hyperbola_point(m, n)
                assert point == HyperbolicNumber((t + 1 / t) / 2, (t - 1 / t) / 2)
                assert point.norm_sq() == 1
                assert checks._hyperbola_point(3 * m, 3 * n) == point


@pytest.fixture(scope="module")
def fast_direct():
    """Each sweep of `check --fast` called directly, in this process."""
    return [
        checks.check_hyperbolic_laws(cases_per_law=1000),
        checks.check_ultrametric(cases=1000),
        checks.check_ball_geometry(cases=200),
        checks.check_digit_expansions(cases=200),
        checks.check_amplitude_oracle_trig(n=15),
        checks.check_amplitude_oracle_hyp(n=15),
        checks.check_lambda_range(primes=(2, 3)),
        checks.check_slit_fluctuations(),
        checks.check_theta_bounds(cases=100),
        checks.check_profiles(),
        checks.check_total_probability(cases=100),
    ]


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each process pool that run_all starts."""
    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return started


def cpus(monkeypatch, count):
    monkeypatch.setattr(checks, "_available_cpus", lambda: count)


class TestAvailableCpus:
    def test_without_an_affinity_mask_the_machine_count(self, monkeypatch):
        monkeypatch.delattr(checks.os, "sched_getaffinity", raising=False)
        assert checks._available_cpus() == checks.os.cpu_count()

    def test_an_unknown_machine_count_is_one(self, monkeypatch):
        monkeypatch.delattr(checks.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(checks.os, "cpu_count", lambda: None)
        assert checks._available_cpus() == 1


class TestPool:
    def test_workers_return_what_the_sweeps_return_here(self, monkeypatch, pools, fast_direct):
        cpus(monkeypatch, 2)
        assert checks.run_all(full=False) == fast_direct  # name, cases, violations, detail
        assert pools == [2]

    def test_one_cpu_runs_in_process(self, monkeypatch, pools, fast_direct):
        cpus(monkeypatch, 1)
        assert checks.run_all(full=False) == fast_direct
        assert pools == []

    def test_no_more_workers_than_sweeps_and_a_pool_that_cannot_start(
        self, monkeypatch, fast_direct
    ):
        asked = []

        def cannot_fork(max_workers=None, *args, **kwargs):
            asked.append(max_workers)
            raise OSError("fork refused")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", cannot_fork)
        cpus(monkeypatch, 64)
        assert checks.run_all(full=False) == fast_direct
        assert asked == [len(fast_direct)] == [11]

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork",
        reason="the fault is planted in this process, and only forked workers inherit it",
    )
    def test_a_failing_sweep_reaches_the_fail_line(self, monkeypatch, capsys, pools):
        planted(monkeypatch, engine.HYP, lambda p1, theta: 1e-6)
        expected = checks.check_amplitude_oracle_hyp(n=15)
        assert expected.violations > 0
        cpus(monkeypatch, 2)
        code = cli.main(["check", "--fast"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 4
        assert pools == [2]
        assert (
            f"FAIL  amplitude-oracle-hyp: 6750 cases, {expected.violations} violations "
            f"[{expected.detail}]"
        ) in lines


FORKED = pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="the fault is planted in this process, and only forked workers inherit it",
)
# the p1 rows of the quick oracle sweeps
QUICK_ROWS = uniform_grid(0.005, 0.25, 15)


class TestSuite:
    """run_all starts one job per check, longest first by its serial
    seconds in _SUITE, and reports the checks in the suite's order."""

    def test_each_check_is_scheduled_once(self):
        defined = [
            name for name, value in vars(checks).items()
            if name.startswith("check_") and inspect.isfunction(value)
        ]
        assert sorted(name for name, _, _, _ in checks._SUITE) == sorted(defined)

    def test_jobs_start_longest_first_and_report_in_suite_order(self, monkeypatch, fast_direct):
        submitted = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(args[0])
                return super().submit(fn, *args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        cpus(monkeypatch, 2)
        assert checks.run_all(full=False) == fast_direct
        cost = {name: seconds for name, _, _, seconds in checks._SUITE}
        assert sorted(submitted) == sorted(cost)
        assert [cost[name] for name in submitted] == sorted(cost.values(), reverse=True)

    @pytest.mark.parametrize("count", [1, pytest.param(2, marks=FORKED)])
    @pytest.mark.parametrize(
        "algebra, position, phases",
        [(engine.TRIG, 4, 15), (engine.HYP, 5, 30)],
        ids=["trig", "hyp"],
    )
    def test_a_faulted_oracle_reports_as_its_serial_check(
        self, monkeypatch, pools, count, algebra, position, phases
    ):
        broken = {QUICK_ROWS[4], QUICK_ROWS[10]}
        planted(monkeypatch, algebra, lambda p1, theta: 1e-6 if p1 in broken else 0)
        serial = getattr(checks, f"check_amplitude_oracle_{algebra.name}")(n=15)
        assert serial.violations == 2 * 15 * phases
        assert serial.detail.startswith(f"{algebra.name} oracle mismatch at p1={QUICK_ROWS[4]}, ")
        cpus(monkeypatch, count)
        assert checks.run_all(full=False)[position] == serial  # name, cases, violations, detail
        assert pools == ([2] if count > 1 else [])


def smaller(quick, default):
    """A quick size is below its default: a smaller positive number, or a
    nonempty proper subset of a default tuple such as the primes swept."""
    if isinstance(default, tuple):
        return 0 < len(quick) and set(quick) < set(default)
    return 0 < quick < default


class TestRaisingSweep:
    """A sweep that raises is one violation of its own check; the rest of
    the suite still runs and reports, and `check` exits 4."""

    def test_titles_are_the_names_the_sweeps_return(self, fast_direct):
        assert [title for _, title, _, _ in checks._SUITE] == [r.name for r in fast_direct]

    def test_the_full_pass_runs_each_check_at_its_defaults(self, monkeypatch):
        given = []

        def recording(name, title, sizes):
            given.append((name, sizes))
            return checks.CheckResult(title)

        monkeypatch.setattr(checks, "_run_sweep", recording)
        cpus(monkeypatch, 1)
        checks.run_all(full=True)
        assert given == [(name, {}) for name, _, _, _ in checks._SUITE]
        for name, _, sizes, _ in checks._SUITE:
            defaults = inspect.signature(getattr(checks, name)).parameters
            assert all(smaller(value, defaults[key].default) for key, value in sizes.items())

    def planted(self, monkeypatch, capsys, fast_direct):
        def raising(cases):
            raise RuntimeError(f"planted at {cases} cases")

        monkeypatch.setattr(checks, "check_theta_bounds", raising)
        code = cli.main(["check", "--fast"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 4
        expected = [
            f"PASS  {r.name}: {r.cases} cases, 0 violations" for r in fast_direct
        ] + ["10/11 checks passed"]
        expected[8] = (
            "FAIL  theta-window-bounds: 1 cases, 1 violations "
            "[raised RuntimeError: planted at 100 cases]"
        )
        assert lines == expected

    def test_in_process(self, monkeypatch, capsys, pools, fast_direct):
        cpus(monkeypatch, 1)
        self.planted(monkeypatch, capsys, fast_direct)
        assert pools == []

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork",
        reason="the fault is planted in this process, and only forked workers inherit it",
    )
    def test_in_the_pool(self, monkeypatch, capsys, pools, fast_direct):
        cpus(monkeypatch, 2)
        self.planted(monkeypatch, capsys, fast_direct)
        assert pools == [2]

    def test_only_exceptions_are_caught(self, monkeypatch):
        def interrupted(cases):
            raise KeyboardInterrupt

        monkeypatch.setattr(checks, "check_theta_bounds", interrupted)
        with pytest.raises(KeyboardInterrupt):
            checks._run_sweep("check_theta_bounds", "theta-window-bounds", {"cases": 1})
