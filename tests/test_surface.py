"""The public surface, pinned: the package's exported names, each CLI
command's arguments, and the private names one module of the package takes
from another.  Adding or removing any of them is a reviewed change here."""

import argparse
import ast
import pathlib

import interfere
from interfere import cli

PUBLIC_NAMES = [
    "BrightnessProfile",
    "ContextTransform",
    "DegenerateContextError",
    "HyperbolicNumber",
    "InterfereError",
    "InterferenceRecord",
    "NonPositiveNormError",
    "NotAProbabilityError",
    "PadicAmplitudePair",
    "PadicBall",
    "PadicExpansion",
    "PadicInterference",
    "PadicRational",
    "PolarForm",
    "PrimeMismatchError",
    "ProfileError",
    "Regime",
    "ValidationError",
    "amplitudes_hyp",
    "amplitudes_trig",
    "classify",
    "combine",
    "fit_record",
    "hyperbolic_sqrt_transform",
    "interfere_hyp",
    "interfere_trig",
    "inverse",
    "is_prime",
    "lambda_of",
    "normalization_defect",
    "padic_interfere",
    "padic_slit_profile",
    "phase_of",
    "phases_from_deviation",
    "phases_from_state_expansion",
    "polar",
    "prime_multiplicity",
    "profile_hyp",
    "profile_padic",
    "profile_piecewise",
    "profile_trig",
    "raw_quantum_components",
    "sqrt_linear_transform",
    "theta_bounds",
    "total_prob_classical",
    "total_prob_hyperbolic",
    "total_prob_quantum",
    "uniform_grid",
]

# positionals by name, options by every string that selects them
COMMAND_ARGUMENTS = {
    "": ["--help", "--version", "-h"],
    "fit": ["--help", "--mode", "--out", "-h", "p", "p1", "p2"],
    "profile": ["--help", "-h"],
    "profile trig": ["--help", "--max", "--min", "--mode", "--n", "--out", "--p1", "--p2", "-h"],
    "profile hyp": [
        "--auto-window", "--help", "--max", "--mode", "--n", "--out", "--p1", "--p2", "--sign",
        "-h",
    ],
    "profile piecewise": [
        "--help", "--intervals", "--mode", "--n", "--out", "--p1", "--p2", "-h",
    ],
    "profile padic": ["--eps-max", "--help", "--l", "--out", "--p", "-h"],
    "totalprob": [
        "--config", "--help", "--kind", "--mode", "--out", "--p11", "--p12", "--p21", "--p22",
        "--pb1", "--pb2", "--sign1", "--sign2", "--theta1", "--theta2", "-h",
    ],
    "padic": [
        "--alpha1", "--alpha2", "--eps", "--eps-max", "--help", "--l", "--out", "--p",
        "--table", "-h",
    ],
    "check": ["--fast", "--help", "--out", "-h"],
}


# "importer: module._name", from `from .module import _name` or `module._name`
PRIVATE_IMPORTS = [
    "checks: profiles._HyperbolicBranches",
    "cli: padic._require_prime",
    "cli: padic_rule._squared_abs",
    "cli: profiles._HyperbolicBranches",
    "cli: profiles._write_header",
    "context: engine._amplitudes",
    "context: engine._at_phase",
    "context: engine._rule",
    "engine: numeric._exact_root",
    "padic_rule: padic._require_prime",
    "padic_rule: padic._unchecked",
    "profiles: engine._sweep",
    "profiles: padic_rule._squared_abs",
]


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports():
    """PRIVATE_IMPORTS as found by walking each module's syntax tree."""
    found = set()
    for path in pathlib.Path(interfere.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        siblings = {}  # local name -> module, for `from . import module`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        siblings[alias.asname or alias.name] = alias.name
                    elif _private(alias.name):
                        found.add(f"{path.stem}: {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings and _private(node.attr)):
                found.add(f"{path.stem}: {siblings[node.value.id]}.{node.attr}")
    return sorted(found)


def _arguments(parser, path=()):
    """{command path: sorted argument names} for parser and its subcommands."""
    found, names = {}, []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(_arguments(sub, path + (name,)))
        else:
            names += action.option_strings or [action.dest]
    found[" ".join(path)] = sorted(names)
    return found


def test_public_names():
    assert sorted(interfere.__all__) == PUBLIC_NAMES


def test_cli_arguments():
    assert _arguments(cli._build_parser()) == COMMAND_ARGUMENTS


def test_private_imports():
    assert _private_imports() == PRIVATE_IMPORTS
