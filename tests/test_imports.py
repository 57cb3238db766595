"""The import contract: `import interfere.cli` loads only what every command
needs, each command loads only the modules it runs and none of them loads
dataclasses or inspect, and the package binds its public names on first
use.  Import state is global to an interpreter, so each case runs in a fresh
one."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import interfere

SRC = str(Path(interfere.__file__).resolve().parent.parent)
COMPUTING = ("engine", "hyperbolic", "context", "padic", "padic_rule", "profiles", "checks")
TWO_SLIT_FLAGS = (
    "--pb1 1/2 --pb2 1/2 --p11 1/2 --p12 1/2 --p21 1/2 --p22 1/2 --theta1 0 --theta2 pi"
)


def _loaded_after(code, prefix="interfere."):
    """Names, less the prefix, of the modules under prefix loaded after
    running code in a fresh interpreter; the code's own output is discarded."""
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {code}\n"
        f"print(json.dumps(sorted(n[len({prefix!r}):] for n in sys.modules"
        f" if n.startswith({prefix!r}))))\n"
    )
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_computing_module():
    assert _loaded_after("import interfere.cli").isdisjoint(COMPUTING)


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import interfere") == set()


@pytest.mark.parametrize(
    "argv, needed, not_loaded",
    [
        (
            "fit 0.36 0.16 0.76",
            {"engine"},
            {"context", "padic", "padic_rule", "profiles", "checks"},
        ),
        (
            "padic --p 3 --alpha1 1 --alpha2 1 --eps 1",
            {"padic_rule"},
            {"engine", "context", "profiles", "checks"},
        ),
        (
            f"totalprob {TWO_SLIT_FLAGS}",
            {"context"},
            {"padic", "padic_rule", "profiles", "checks"},
        ),
        ("padic --p 3 --table --eps-max 8", {"padic_rule", "profiles"}, {"context", "checks"}),
    ],
)
def test_each_command_loads_only_what_it_runs(argv, needed, not_loaded):
    loaded = _loaded_after(f"assert __import__('interfere.cli').cli.main({argv.split()!r}) == 0")
    assert needed <= loaded
    assert loaded.isdisjoint(not_loaded)


# acceptance criterion 8's commands
CRITERION_8 = [
    "fit 0.36 0.16 0.76",
    "fit --mode exact 0.36 0.16 0.76",
    "fit 0.25 0.25 0.5",
    "fit 0.25 0 0.3",
    "profile trig --p1 0.25 --p2 0.25 --max 6.2832 --n 100",
    "profile hyp --p1 0.0625 --p2 0.0625 --sign + --auto-window --n 50",
    "profile piecewise --p1 0.25 --p2 0.0625 --intervals 0:0.5:-,0.8:1.5:+ --n 40",
    "profile padic --p 3 --l 0 --eps-max 8",
    "totalprob --config {config}",
    "padic --p 3 --alpha1 1 --alpha2 1 --eps 2",
    "padic --p 3 --table --eps-max 8",
    "check --fast",
]
CONFIG = (
    "mode = trig\npb1 = 1/2\npb2 = 1/2\np11 = 1/2\np12 = 1/2\n"
    "p21 = 1/2\np22 = 1/2\ntheta1 = 0\ntheta2 = pi\n"
)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    assert _loaded_after("import interfere.cli", prefix="").isdisjoint({"dataclasses", "inspect"})


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    """Every criterion-8 command, check --fast among them, run one after
    another in one interpreter, leaves neither module loaded, so none of
    them loads one."""
    config = tmp_path / "two_slit.cfg"
    config.write_text(CONFIG)
    argvs = [argv.format(config=config).split() for argv in CRITERION_8]
    main = "__import__('interfere.cli').cli.main"
    loaded = _loaded_after(f"codes = [{main}(argv) for argv in {argvs!r}]", prefix="")
    assert "interfere.checks" in loaded and "interfere.context" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect"})


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from interfere import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(interfere.__all__)


def test_every_public_name_is_its_defining_module_attribute():
    for name in interfere.__all__:
        value = getattr(interfere, name)
        module = importlib.import_module(f"interfere.{interfere._HOME[name]}")
        assert value is getattr(module, name), name


def test_public_names_are_listed_by_dir():
    assert set(interfere.__all__) <= set(dir(interfere))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        interfere.not_a_name  # noqa: B018
    assert not hasattr(interfere, "lambda_range_check")
