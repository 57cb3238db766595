"""Golden CLI outputs: stdout and exit code byte-identical to stored files.

Each command runs through ``cli.main`` in process; its stdout must equal
``tests/golden/<name>.txt`` byte for byte.  The commands are acceptance
criterion 8's (without ``check --fast``, which ``test_cli`` pins), the full
``check``, whose case counts must not move, the trig, hyp and piecewise
profiles in exact mode, and p-adic two-slit tables and profiles, with
p = 2, where every sample is dimmed, among them.
A change that alters one of these outputs on purpose replaces its file and
says why.
"""

from pathlib import Path

import pytest

from interfere import cli

GOLDEN = Path(__file__).parent / "golden"

CONFIG = (
    "mode = trig\npb1 = 1/2\npb2 = 1/2\np11 = 1/2\np12 = 1/2\n"
    "p21 = 1/2\np22 = 1/2\ntheta1 = 0\ntheta2 = pi\n"
)

TRIG = ["profile", "trig", "--p1", "0.25", "--p2", "0.25", "--max", "6.2832", "--n", "100"]
HYP = [
    "profile", "hyp", "--p1", "0.0625", "--p2", "0.0625", "--sign", "+", "--auto-window",
    "--n", "50",
]
PIECEWISE = [
    "profile", "piecewise", "--p1", "0.25", "--p2", "0.0625", "--intervals",
    "0:0.5:-,0.8:1.5:+", "--n", "40",
]

COMMANDS = [
    ("fit_float", ["fit", "0.36", "0.16", "0.76"], 0),
    ("fit_exact", ["fit", "--mode", "exact", "0.36", "0.16", "0.76"], 0),
    ("fit_boundary", ["fit", "0.25", "0.25", "0.5"], 0),
    ("fit_degenerate", ["fit", "0.25", "0", "0.3"], 3),
    ("profile_trig", TRIG, 0),
    ("profile_hyp", HYP, 0),
    ("profile_piecewise", PIECEWISE, 0),
    ("profile_padic", ["profile", "padic", "--p", "3", "--l", "0", "--eps-max", "8"], 0),
    ("totalprob", ["totalprob", "--config", "{config}"], 0),
    ("padic_pair", ["padic", "--p", "3", "--alpha1", "1", "--alpha2", "1", "--eps", "2"], 0),
    ("padic_table", ["padic", "--p", "3", "--table", "--eps-max", "8"], 0),
    ("profile_trig_exact", TRIG + ["--mode", "exact"], 0),
    ("profile_hyp_exact", HYP + ["--mode", "exact"], 0),
    ("profile_piecewise_exact", PIECEWISE + ["--mode", "exact"], 0),
    ("padic_table_l1", ["padic", "--p", "5", "--l", "1", "--table", "--eps-max", "30"], 0),
    ("profile_padic_p2", ["profile", "padic", "--p", "2", "--l", "1", "--eps-max", "40"], 0),
    ("padic_table_p2", ["padic", "--p", "2", "--table", "--eps-max", "40"], 0),
    ("check", ["check"], 0),
]


@pytest.mark.parametrize("name, argv, code", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_stdout_and_exit_code_match_golden(name, argv, code, tmp_path, capsys):
    config = tmp_path / "two_slit.cfg"
    config.write_text(CONFIG)
    argv = [arg.replace("{config}", str(config)) for arg in argv]
    assert cli.main(argv) == code
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()
