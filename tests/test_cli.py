"""Command-line behavior: outputs, exit codes, config handling, determinism."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from interfere.cli import main

TWO_SLIT_CONFIG = """\
# symmetric two-slit configuration
mode = trig
pb1 = 1/2
pb2 = 1/2
p11 = 1/2
p12 = 1/2
p21 = 1/2
p22 = 1/2
theta1 = 0
theta2 = pi
"""


# an integer with more digits than Python converts from text (4300)
ONES = "1" * 5000
# inputs of parse errors: 5000 characters each, which an error names as `long`
# does, and `limit`, 4300, the longest one an error quotes
TEXTS = dict(ones=ONES, letters="x" * 5000, gap=" " * 4996, limit="x" * 4300,
             long="<an input of 5000 characters>")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFit:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "fit", "0.36", "0.16", "0.76")
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda"] == 0.5
        assert payload["regime"] == "trigonometric"
        assert payload["phase"] == 1.0471975512
        assert payload["sign"] == 1
        assert payload["residual"] <= 1e-12

    def test_classical_point(self, capsys):
        code, out, _ = run(capsys, "fit", "0.25", "0.25", "0.5")
        payload = json.loads(out)
        assert code == 0
        assert payload["lambda"] == 0.0
        assert payload["phase"] == pytest.approx(math.pi / 2, abs=1e-10)

    def test_exact_mode_prints_rationals(self, capsys):
        code, out, _ = run(capsys, "fit", "--mode", "exact", "0.36", "0.16", "0.76")
        payload = json.loads(out)
        assert code == 0
        assert payload["lambda"] == "1/2"
        assert payload["p1"] == "9/25"

    def test_modes_agree(self, capsys):
        _, out_float, _ = run(capsys, "fit", "1/16", "1/16", "1")
        _, out_exact, _ = run(capsys, "fit", "--mode", "exact", "1/16", "1/16", "1")
        lam_float = json.loads(out_float)["lambda"]
        lam_exact = Fraction(json.loads(out_exact)["lambda"])
        assert lam_float == pytest.approx(float(lam_exact), abs=1e-10)

    def test_degenerate_context_exit_code(self, capsys):
        code, out, err = run(capsys, "fit", "0.25", "0", "0.3")
        assert code == 3
        assert out == ""
        assert "undefined" in err

    def test_float_underflow_is_named(self, capsys):
        # p1*p2 = 1e-400 underflows to 0.0; neither input is zero
        code, out, err = run(capsys, "fit", "1e-200", "1e-200", "0.5")
        assert (code, out) == (3, "")
        assert "underflows" in err and "--mode exact" in err and "undefined" not in err
        code, out, _ = run(capsys, "fit", "--mode", "exact", "1e-200", "1e-200", "0.5")
        assert code == 0
        assert json.loads(out)["regime"] == "hyperbolic"

    def test_exact_deviation_at_the_float_edge(self, capsys):
        # lam = 1/(4*1.3907e-309) - 1 still fits in a float
        code, out, _ = run(capsys, "fit", "--mode", "exact", "1.3907e-309", "1.3907e-309", "1/2")
        assert code == 0
        assert json.loads(out)["phase"] == pytest.approx(math.acosh(1.7976e308), rel=1e-3)

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "fit", "0.25", "zebra", "0.3")
        assert code == 2
        assert "cannot parse" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fit", "--bogus", "1", "2", "3"])
        assert exit_info.value.code == 2


class TestProfile:
    def test_trig_profile_shape(self, capsys):
        code, out, _ = run(
            capsys,
            *"profile trig --p1 0.25 --p2 0.25 --max 6.2832 --n 100".split(),
        )
        assert code == 0
        lines = out.splitlines()
        rows = [line for line in lines if line and not line.startswith("#")]
        assert rows[0] == "r,P_float,P_exact,kind"
        assert len(rows) == 101
        assert rows[1].startswith("0,1,")

    def test_padic_profile_matches_table(self, capsys):
        code, out, _ = run(capsys, *"profile padic --p 3 --l 0 --eps-max 8".split())
        assert code == 0
        rows = [line for line in out.splitlines() if line and not line.startswith("#")]
        assert rows[1:] == [
            "2,1,1,padic",
            "3,0.111111111111,1/9,padic",
            "5,1,1,padic",
            "6,0.111111111111,1/9,padic",
            "8,1,1,padic",
            "9,0.0123456790123,1/81,padic",
        ]

    def test_hyp_auto_window_saturates(self, capsys):
        code, out, _ = run(
            capsys,
            *"profile hyp --p1 0.0625 --p2 0.0625 --sign + --auto-window --n 40".split(),
        )
        assert code == 0
        rows = [line for line in out.splitlines() if line and not line.startswith("#")]
        assert rows[-1].split(",")[1] == "1"
        assert any(line.startswith("# theta_max=2.63391579385") for line in out.splitlines())

    def test_hyp_minus_sign(self, capsys):
        code, out, _ = run(
            capsys,
            *"profile hyp --p1 0.25 --p2 0.0625 --sign - --auto-window --n 10".split(),
        )
        assert code == 0
        rows = [line for line in out.splitlines() if line and not line.startswith("#")]
        assert rows[-1].split(",")[1] == "0"

    def test_hyp_needs_a_window(self, capsys):
        code, _, err = run(
            capsys, *"profile hyp --p1 0.0625 --p2 0.0625 --sign +".split()
        )
        assert code == 2
        assert "--max or --auto-window" in err

    def test_auto_window_without_a_plus_window(self, capsys):
        argv = "profile hyp --p1 0.5 --p2 0.4 --sign +".split()
        auto = run(capsys, *argv, "--auto-window")
        explicit = run(capsys, *argv, "--max", "1")
        assert auto == explicit
        assert auto[0] == 3
        assert auto[2].startswith("error: plus branch has no valid window")

    @pytest.mark.parametrize(
        "argv, where, value",
        [
            ("profile trig --p1 0.25 --p2 0.25 --max inf --n 3", "end hi", "inf"),
            ("profile trig --p1 0.25 --p2 0.25 --max nan", "end hi", "nan"),
            ("profile trig --p1 0.25 --p2 0.25 --min=-inf --max 1", "end lo", "-inf"),
            ("profile trig --p1 0.25 --p2 0.25 --min=inf --max 1 --n 1", "end lo", "inf"),
            ("profile trig --p1 0.25 --p2 0.25 --min=-1e308 --max 1e308 --n 3", "span hi - lo", "inf"),
            ("profile hyp --p1 0.25 --p2 0.25 --sign - --max inf", "end hi", "inf"),
        ],
    )
    def test_grid_must_be_finite(self, capsys, argv, where, value):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (3, "")
        assert err == f"error: grid {where} must be finite, got {value}\n"

    def test_piecewise(self, capsys):
        code, out, _ = run(
            capsys,
            "profile",
            "piecewise",
            "--p1",
            "0.25",
            "--p2",
            "0.0625",
            "--intervals",
            "0:0.5:-,0.8:1.5:+",
            "--n",
            "30",
        )
        assert code == 0
        rows = [line for line in out.splitlines() if line and not line.startswith("#")]
        assert len(rows) > 2

    def test_invalid_profile_exits_3(self, capsys):
        code, _, err = run(
            capsys, *"profile trig --p1 0.5 --p2 0.5 --max 6.28 --n 10".split()
        )
        assert code == 3
        assert "peak" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "profile.csv"
        code, out, _ = run(
            capsys,
            *f"profile padic --p 3 --l 0 --eps-max 8 --out {target}".split(),
        )
        assert code == 0
        assert out == ""
        assert "9,0.0123456790123,1/81,padic" in target.read_text()


class TestTotalprob:
    def test_two_slit_config(self, capsys, tmp_path):
        config = tmp_path / "two_slit.cfg"
        config.write_text(TWO_SLIT_CONFIG)
        code, out, _ = run(capsys, "totalprob", "--config", str(config))
        assert code == 0
        payload = json.loads(out)
        assert payload["quantum"] == [1.0, 0.0]
        assert payload["classical"] == [0.5, 0.5]
        assert payload["normalization_defect"] == 0.0
        assert payload["hyperbolic"]["component"] == 2

    def test_flag_overrides(self, capsys, tmp_path):
        config = tmp_path / "two_slit.cfg"
        config.write_text(TWO_SLIT_CONFIG)
        code, out, _ = run(
            capsys,
            "totalprob",
            "--config",
            str(config),
            "--theta1",
            "pi/2",
            "--theta2",
            "pi/2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["quantum"] == payload["classical"] == [0.5, 0.5]

    def test_flags_alone_suffice(self, capsys):
        code, out, _ = run(
            capsys,
            *(
                "totalprob --pb1 0.3 --pb2 0.7 --p11 0.5 --p12 0.5 "
                "--p21 0.2 --p22 0.8 --theta1 pi/2 --theta2 pi/2"
            ).split(),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["classical"][0] == pytest.approx(0.29)

    def test_unknown_key_names_the_line(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("pb1 = 0.5\nwhat = 3\n")
        code, _, err = run(capsys, "totalprob", "--config", str(config))
        assert code == 2
        assert ":2:" in err and "what" in err

    def test_missing_fields_reported(self, capsys):
        code, _, err = run(capsys, "totalprob", "--pb1", "0.5")
        assert code == 2
        assert "missing field" in err

    @pytest.mark.parametrize(
        "mode, prior, cond, theta",
        [
            ("float", 0.5, (0.25, 0.75), 0.785398163397),
            ("exact", "1/2", ("1/4", "3/4"), 0.785398163397),
        ],
    )
    def test_hyp_transform_echo(self, capsys, mode, prior, cond, theta):
        code, out, _ = run(
            capsys,
            *(
                "totalprob --kind hyp --sign2 - --pb1 1/2 --pb2 1/2 --p11 1/4 --p12 3/4 "
                f"--p21 1/2 --p22 1/2 --theta1 1/2 --theta2 pi/4 --mode {mode}"
            ).split(),
        )
        assert code == 0
        assert json.loads(out)["transform"] == {
            "mode": "hyp", "pb1": prior, "pb2": prior, "p11": cond[0], "p12": cond[1],
            "p21": prior, "p22": prior, "theta1": 0.5, "theta2": theta, "sign1": 1, "sign2": -1,
        }

    def test_invalid_stochasticity_is_domain_error(self, capsys):
        code, _, err = run(
            capsys,
            *(
                "totalprob --pb1 0.5 --pb2 0.5 --p11 0.9 --p12 0.5 "
                "--p21 0.5 --p22 0.5 --theta1 0 --theta2 0"
            ).split(),
        )
        assert code == 3
        assert "row 0 sums to" in err


class TestPadic:
    def test_case_c_report(self, capsys):
        code, out, _ = run(
            capsys, *"padic --p 3 --alpha1 1 --alpha2 1 --eps 2".split()
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "C"
        assert payload["P"] == "1/9"
        assert payload["lambda"] == "-17/18"
        assert payload["within_range"] is True

    def test_case_a_report(self, capsys):
        code, out, _ = run(
            capsys, *"padic --p 3 --alpha1 3 --alpha2 9 --eps 1".split()
        )
        payload = json.loads(out)
        assert payload["case"] == "A"
        assert payload["P"] == "1/9"
        assert payload["lambda"] == "-1/6"

    def test_table(self, capsys):
        code, out, _ = run(capsys, *"padic --p 3 --table --eps-max 8".split())
        assert code == 0
        lines = out.splitlines()
        assert "epsilon,v_p_of_1_plus_epsilon,P_exact,P_float" in lines
        assert "8,2,1/81,0.0123456790123" in lines

    def test_missing_amplitudes(self, capsys):
        code, _, err = run(capsys, *"padic --p 3".split())
        assert code == 2
        assert "--alpha1" in err

    def test_domain_error_exit(self, capsys):
        code, _, err = run(
            capsys, *"padic --p 3 --alpha1 1/3 --alpha2 1 --eps 1".split()
        )
        assert code == 3
        assert "p-adic integer" in err

    def test_strong_pseudoprime_modulus_is_a_domain_error(self, capsys):
        psi_12 = "318665857834031151167461"  # 399165290221 * 798330580441
        argv = f"padic --p {psi_12} --alpha1 1 --alpha2 1 --eps 2"
        code, _, err = run(capsys, *argv.split())
        assert code == 3
        assert f"must be a prime number, got {psi_12}" in err

    def test_parse_errors_come_before_the_prime_check(self, capsys):
        code, _, err = run(capsys, *"padic --p 4 --alpha1 1 --alpha2 x --eps 1".split())
        assert code == 2
        assert "--alpha2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "profile padic --p 3 --eps-max 8 --mode exact",
            "padic --p 3 --alpha1 1 --alpha2 1 --eps 2 --mode exact",
            "padic --p 3 --table --mode exact",
        ],
    )
    def test_p_adic_commands_take_no_mode(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv.split())
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode exact" in capsys.readouterr().err


class TestCheck:
    # per-check case counts of checks.run_all(full=False), the sweeps behind
    # `check --fast`; a change to any sweep's size shows here
    FAST_CASES = {
        "hyperbolic-algebra-laws": 4000,
        "ultrametric-valuation": 1000,
        "ball-geometry": 200,
        "digit-expansion-convergence": 200,
        "amplitude-oracle-trig": 3375,
        "amplitude-oracle-hyp": 6750,
        "padic-lambda-range": 2040,
        "padic-slit-fluctuations": 69,
        "theta-window-bounds": 102,
        "profile-invariants": 13,
        "total-probability-coherence": 1170,
    }

    def test_fast_suite_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--fast")
        assert code == 0
        assert out.splitlines() == [
            f"PASS  {name}: {cases} cases, 0 violations"
            for name, cases in self.FAST_CASES.items()
        ] + ["11/11 checks passed"]

    def test_failures_use_a_distinct_exit_code(self, capsys, monkeypatch):
        from interfere import checks

        def broken(full=True):
            return [checks.CheckResult("rigged", 1, 1, "planted counterexample")]

        monkeypatch.setattr(checks, "run_all", broken)
        code, out, _ = run(capsys, "check")
        assert code == 4
        assert "FAIL  rigged" in out
        assert "planted counterexample" in out
        assert "0/1 checks passed" in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("fit", "0.36", "0.16", "0.76"),
            ("profile", "padic", "--p", "5", "--l", "1", "--eps-max", "12"),
            ("padic", "--p", "2", "--alpha1", "2", "--alpha2", "2", "--eps", "7"),
        ],
    )
    def test_repeated_runs_are_identical(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestBoundaryInputs:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            ("fit 1e400 0.1 0.2", 3),  # reads as inf in float mode
            ("totalprob --config {config} --theta1 pi/0", 2),
            ("totalprob --kind hyp --config {config} --theta1 1000", 3),  # cosh overflows
            ("fit 0.36 0.16 0.76 --out {missing}", 2),
            # an exact lam past the float range has no float phase
            ("fit --mode exact 1e-400 1e-400 1/2", 3),
            ("fit --mode exact 1e-310 1e-310 1/2", 3),
            # the float square root of an exact p1*p2 that is no perfect square underflows
            ("fit --mode exact 0.5 1e-5000 0.5", 3),
            # exact values longer than Python converts to text (4300 digits):
            # A = 3**-10000 from --l, a sample 3**-9014 past an A that fits, P1 = 3**-10000
            ("profile padic --p 3 --l 5000 --eps-max 3", 3),
            ("padic --p 3 --table --l 5000 --eps-max 3", 3),
            ("padic --p 3 --table --l 4506 --eps-max 3", 3),
            ("profile padic --p 3 --l 4506 --eps-max 3", 3),
            ("padic --p 3 --alpha1 {power} --alpha2 1 --eps 1", 3),
            # error messages name such a value without converting it to text
            ("fit --mode exact 1e5000 0.1 0.2", 3),
            ("profile trig --mode exact --p1 1e-5000 --p2 1 --max 1", 3),
            # theta bounds past the float range: arccosh of (p1 + p2)/(2*sqrt(p1*p2)) ~ 10**2500
            ("profile hyp --mode exact --p1 1e-5000 --p2 1 --max 1 --sign +", 3),
            ("profile piecewise --mode exact --p1 1e-5000 --p2 1 --intervals 0:1:- --n 3", 3),
            # an exact |lam| ~ 2.5e3999, whose phase arccosh(|lam|) has no float
            ("fit --mode exact 2e-4000 2e-4000 1", 3),
            # psi_13 = 1287836182261 * 2575672364521 passes is_prime; no modulus that
            # large is proven prime
            ("padic --p 3317044064679887385961981 --alpha1 1 --alpha2 1 --eps 2", 3),
            ("profile padic --p 618970019642690137449562111 --eps-max 3", 3),  # 2**89 - 1
            # a table of 2**62 rows is refused before its sieve allocates, and 2**63
            # rows are past the index range
            ("profile padic --p 3 --eps-max 4611686018427387904", 3),
            ("padic --p 3 --table --eps-max 4611686018427387904", 3),
            ("profile padic --p 3 --eps-max 9223372036854775808", 3),
            ("padic --p 3 --table --eps-max 9223372036854775808", 3),
            # grids of 2**63 and 10**20 samples are past the index range
            ("profile hyp --p1 0.01 --p2 0.01 --sign + --max 1 --n 9223372036854775808", 3),
            ("profile trig --p1 0.01 --p2 0.01 --max 1 --n 100000000000000000000", 3),
            # a grid of 10**12 samples is past the maximum, refused before it is built
            ("profile trig --p1 0.1 --p2 0.1 --max 1 --n 1000000000000", 3),
            # a multiple of pi whose digits are past what int() converts
            ("totalprob --config {config} --theta1 {ones}pi", 2),
            ("totalprob --config {config} --theta1 pi/{ones}", 2),
        ],
    )
    def test_exit_codes_without_traceback(self, capsys, tmp_path, argv, expected):
        config = tmp_path / "two_slit.cfg"
        config.write_text(TWO_SLIT_CONFIG)
        missing = tmp_path / "missing" / "dir" / "x.csv"
        argv = argv.format(config=config, missing=missing, power=3**5000, ones=ONES)
        code, out, err = run(capsys, *argv.split())
        assert code == expected
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, line, message",
        [
            # totalprob names the config line or the flag of every field it reads
            ("totalprob --config {config}", "sign1 = x",
             "{config}:11: sign must be '+' or '-', got 'x'"),
            ("totalprob --config {config} --sign2 0", "",
             "--sign2: sign must be '+' or '-', got '0'"),
            ("totalprob --config {config}", "mode = real",
             "{config}:11: mode must be 'trig' or 'hyp', got 'real'"),
            ("totalprob --config {config}", "pb1 1/2",
             "{config}:11: expected 'key = value', got 'pb1 1/2'"),
            ("totalprob --config {config}", "pb1 = x",
             "{config}:11: cannot parse number 'x' (Invalid literal for Fraction: 'x')"),
            ("totalprob --config {config}x", "",
             "cannot read config '{config}x': No such file or directory"),
            ("totalprob --config {config}", "theta1 = {ones}pi",
             "{config}:11: cannot parse number {long}"),
            ("profile piecewise --p1 0.25 --p2 0.0625 --intervals 0:0.5", "",
             "--intervals: expected 'lo:hi:sign' got '0:0.5'"),
            # a text longer than Python converts an integer to text is named by
            # its length, at every site that quotes an input
            ("fit {ones} 0.1 0.2", "", "p1: cannot parse number {long}"),
            ("fit 0.1 {letters} 0.2", "", "p2: cannot parse number {long}"),
            ("profile hyp --p1 0.01 --p2 0.01 --max 1 --sign {letters}", "",
             "--sign: sign must be '+' or '-', got {long}"),
            ("profile piecewise --p1 0.25 --p2 0.0625 --intervals {letters}", "",
             "--intervals: expected 'lo:hi:sign' got {long}"),
            ("totalprob --config {config}", "{letters}",
             "{config}:11: expected 'key = value', got {long}"),
            ("totalprob --config {config}", "{letters} = 1", "{config}:11: unknown field {long}"),
            ("totalprob --config {config}", "mode = {letters}",
             "{config}:11: mode must be 'trig' or 'hyp', got {long}"),
            ("totalprob --config {config}", "theta1 = pi/{gap}0",
             "{config}:11: zero denominator in angle {long}"),
            # and one of exactly that length is quoted as before
            ("fit {limit} 0.1 0.2", "",
             "p1: cannot parse number '{limit}' (Invalid literal for Fraction: '{limit}')"),
        ],
    )
    def test_parse_errors_name_their_source(self, capsys, tmp_path, argv, line, message):
        config = tmp_path / "two_slit.cfg"
        config.write_text(TWO_SLIT_CONFIG + line.format(**TEXTS) + "\n")
        code, out, err = run(capsys, *argv.format(config=config, **TEXTS).split())
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(config=config, **TEXTS)}\n"

    @pytest.mark.parametrize(
        "argv, option, kind",
        [
            ("profile trig --p1 0.1 --p2 0.1 --max 1 --n {text}", "--n", "int"),
            ("profile padic --p 3 --l {text} --eps-max 3", "--l", "int"),
            ("padic --p {text} --table --eps-max 3", "--p", "int"),
            ("padic --p 3 --table --eps-max {text}", "--eps-max", "int"),
            ("profile padic --p 3 --eps-max {text}", "--eps-max", "int"),
            ("profile trig --p1 0.1 --p2 0.1 --min {text} --max 1", "--min", "float"),
            ("profile trig --p1 0.1 --p2 0.1 --max {text}", "--max", "float"),
            ("profile hyp --p1 0.1 --p2 0.1 --sign + --max {text}", "--max", "float"),
        ],
    )
    @pytest.mark.parametrize(
        "text, shown",
        [("{letters}", "{long}"), ("{ones}x", "<an input of 5001 characters>"),
         ("{limit}", "'{limit}'"), ("abc", "'abc'")],
        ids=["letters", "ones", "limit", "short"],
    )
    def test_option_types_quote_their_text(self, capsys, argv, option, kind, text, shown):
        """An int or float option that cannot be read is named as every other
        parse error names its input; argparse's usage line and prefix stay."""
        argv = argv.format(text=text).format(**TEXTS).split()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        command = " ".join(argv[:2 if argv[0] == "profile" else 1])
        assert exc.value.code == 2
        assert err.startswith("usage: interfere ") and "Traceback" not in err
        assert err.endswith(
            f"interfere {command}: error: argument {option}: "
            f"invalid {kind} value: {shown.format(**TEXTS)}\n"
        )

    def test_a_config_that_is_not_utf8_is_named(self, capsys, tmp_path):
        config = tmp_path / "latin.cfg"
        config.write_bytes(b"pb1 = 0.5\n\xff\xfe = 1\n")
        code, out, err = run(capsys, "totalprob", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == (
            f"error: cannot read config '{config}': 'utf-8' codec can't decode byte 0xff "
            "in position 10: invalid start byte\n"
        )

    def test_no_subcommand_prints_help_and_exits_2(self, capsys):
        code, out, err = run(capsys)
        assert code == 2
        assert out.startswith("usage: interfere ") and "{fit,profile,totalprob,padic,check}" in out
        assert err == ""

    def test_exact_fits_at_the_edge_of_the_float_range(self, capsys):
        code, out, err = run(capsys, "fit", "--mode", "exact", "1e-300", "1e-300", "1")
        payload = json.loads(out)
        assert (code, err) == (0, "")
        assert payload["lambda"] == str(Fraction(10**300, 2) - 1)
        assert (payload["regime"], payload["phase"], payload["sign"]) == ("hyperbolic",
                                                                          690.775527898, 1)
        code, out, err = run(capsys, "fit", "--mode", "exact", "2e-4000", "2e-4000", "1")
        assert (code, out) == (3, "")
        assert err == (
            "error: deviation |lam| exceeds the float range (~1.8e308), so its phase "
            "arccosh(|lam|) cannot be computed\n"
        )

    def test_a_large_prime_below_psi_13_is_a_modulus(self, capsys):
        code, out, _ = run(capsys, "padic", "--p", "1000000007", "--alpha1", "1", "--alpha2",
                           "1", "--eps", "2")
        assert code == 0
        assert json.loads(out)["p"] == 1000000007

    @pytest.mark.parametrize("command", [["padic"], ["profile", "padic"]])
    def test_modulus_help_names_the_bound(self, capsys, command):
        from interfere import padic

        with pytest.raises(SystemExit):
            main(command + ["--help"])
        assert f"below psi_13 = {padic._PSI_13}" in " ".join(capsys.readouterr().out.split())


# -- generated argvs ---------------------------------------------------------

_NUMBERS = st.one_of(
    st.sampled_from(
        ["0", "1", "1/16", "0.36", "-0.1", "1.5", "1/0", "nan", "inf", "-inf",
         "1e400", "-1e400", "1e-400", "0x10", "", "pi"]
    ),
    st.floats().map(repr),
    st.integers(min_value=-(10**400), max_value=10**400).map(str),
    st.fractions().map(str),
)
_ANGLES = st.one_of(
    _NUMBERS,
    st.sampled_from(
        ["pi", "-pi", "pi/2", "2pi/3", "-pi/4", "3*pi", "pi/0", "0pi",
         "99999999999999999999999999pi", "pi/99999999999999999999999999",
         "9" * 400 + "pi"]
    ),
)
_SIGNS = st.sampled_from(["+", "-", "+1", "-1", "1", "0", "x", ""])
# grid sizes and table lengths stay small: each point is real work
_COUNTS = st.sampled_from(["-1", "0", "1", "5", "40", "1e3", "x"])
# --l also reaches past the digit limit: A = p**(-2l) has over 4300 digits
_LEVELS = st.one_of(_COUNTS, st.just("5000"))
_PRIMES = st.sampled_from(["2", "3", "5", "1000000007", "0", "1", "4", "-3", "x"])
_MODES = st.sampled_from([[], ["--mode", "exact"], ["--mode", "float"]])
_OUTS = st.sampled_from([[], ["--out", "{missing}"], ["--out", "{file}"]])


def _flag(name, values, optional=False):
    """['--name=value'], so that values such as '-inf' stay values."""
    flag = values.map(lambda value: [f"--{name}={value}"])
    return st.one_of(st.just([]), flag) if optional else flag


def _argv(*pieces):
    """One argv from fixed words and drawn lists of words."""
    parts = [st.just([piece]) if isinstance(piece, str) else piece for piece in pieces]
    return st.tuples(*parts).map(lambda drawn: [word for part in drawn for word in part])


_POSITIONAL = _NUMBERS.map(lambda value: [value])
_INTERVALS = st.lists(
    st.tuples(_NUMBERS, _NUMBERS, _SIGNS).map(":".join), min_size=1, max_size=3
).map(",".join)
_TOTALPROB_KEYS = ("pb1", "pb2", "p11", "p12", "p21", "p22")

ARGVS = st.one_of(
    _argv("fit", _MODES, _POSITIONAL, _POSITIONAL, _POSITIONAL, _OUTS),
    _argv("profile", "trig", _flag("p1", _NUMBERS), _flag("p2", _NUMBERS),
          _flag("min", _NUMBERS, True), _flag("max", _NUMBERS), _flag("n", _COUNTS, True),
          _MODES, _OUTS),
    _argv("profile", "hyp", _flag("p1", _NUMBERS), _flag("p2", _NUMBERS),
          _flag("sign", _SIGNS),
          st.one_of(st.just([]), st.just(["--auto-window"]), _flag("max", _NUMBERS)),
          _flag("n", _COUNTS, True), _MODES, _OUTS),
    _argv("profile", "piecewise", _flag("p1", _NUMBERS), _flag("p2", _NUMBERS),
          _flag("intervals", _INTERVALS), _flag("n", _COUNTS, True), _MODES, _OUTS),
    _argv("profile", "padic", _flag("p", _PRIMES), _flag("l", _LEVELS, True),
          _flag("eps-max", _COUNTS), _OUTS),
    _argv("totalprob", _flag("kind", st.sampled_from(["trig", "hyp", "x"]), True),
          *(_flag(key, _NUMBERS) for key in _TOTALPROB_KEYS),
          _flag("theta1", _ANGLES), _flag("theta2", _ANGLES),
          _flag("sign1", _SIGNS, True), _flag("sign2", _SIGNS, True), _MODES, _OUTS),
    _argv("padic", _flag("p", _PRIMES), _flag("alpha1", _NUMBERS, True),
          _flag("alpha2", _NUMBERS, True), _flag("eps", _NUMBERS, True), _OUTS),
    _argv("padic", _flag("p", _PRIMES), "--table", _flag("l", _LEVELS, True),
          _flag("eps-max", _COUNTS, True), _OUTS),
)


class TestExitCodeContract:
    """Any argv ends with exit code 0, 2, 3 or 4 and no exception escapes.
    `check` is left out: its sweeps take seconds whatever the argv."""

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=ARGVS)
    @example(argv=["fit", "--mode", "exact", "1e-400", "1e-400", "1/2"])
    @example(argv=["fit", "--mode", "exact", "1e5000", "0.1", "0.2"])
    @example(argv=["profile", "hyp", "--mode", "exact", "--p1", "1e-5000", "--p2", "1",
                   "--max", "1", "--sign", "+"])
    @example(argv=["profile", "piecewise", "--mode", "exact", "--p1", "1e-5000", "--p2", "1",
                   "--intervals", "0:1:-", "--n", "3"])
    @example(argv=["fit", "--mode", "exact", "2e-4000", "2e-4000", "1"])
    @example(argv=["fit", "--mode", "exact", "1e-300", "1e-300", "1"])
    @example(argv=["padic", "--p", "3317044064679887385961981", "--alpha1", "1", "--alpha2",
                   "1", "--eps", "2"])
    @example(argv=["profile", "padic", "--p", "3", "--eps-max", "4611686018427387904"])
    @example(argv=["padic", "--p", "3", "--table", "--eps-max", "4611686018427387904"])
    @example(argv=["profile", "padic", "--p", "3", "--eps-max", "9223372036854775808"])
    @example(argv=["padic", "--p", "3", "--table", "--eps-max", "9223372036854775808"])
    @example(argv=["profile", "trig", "--p1", "0.25", "--p2", "0.25", "--min=inf", "--max", "1",
                   "--n", "1"])  # an end that is not finite on a one-point grid; rarely drawn
    def test_every_argv_ends_with_a_contract_code(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing" / "dir" / "x.csv"
        argv = [w.format(missing=missing, file=tmp_path / "out.txt") for w in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors exit 2
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in err
