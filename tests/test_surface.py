"""The public surface, pinned: the package's exported names, each CLI
command's arguments, the private names one module of the package takes
from another, and the modules that form the rule's cross weight.  Adding or
removing any of them is a reviewed change here."""

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
    "cli: profiles._HyperbolicBranches",
    "cli: profiles._write_slit_table",
    "context: engine._amplitudes",
    "context: engine._at_phase",
    "context: engine._interfere",
    "context: engine._is_sign",
    "engine: numeric._exact_root",
    "padic_rule: padic._require_prime",
    "padic_rule: padic._unchecked",
    "profiles: engine._is_sign",
    "profiles: engine._sweep",
    "profiles: padic_rule._slit_columns",
    "profiles: padic_rule._squared_abs",
]


# the modules that take the root of the cross weight 2*sqrt(p1*p2): only
# engine turns a pair (p1, p2) into the rule
WEIGHT_IMPORTERS = ["engine"]


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _imports():
    """Every "importer: module.name" that one module of the package takes
    from another, found by walking each module's syntax tree."""
    found = set()
    for path in pathlib.Path(interfere.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        siblings = {}  # local name -> module, for `from . import module`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        siblings[alias.asname or alias.name] = alias.name
                    else:
                        found.add(f"{path.stem}: {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings):
                found.add(f"{path.stem}: {siblings[node.value.id]}.{node.attr}")
    return found


def _private_imports():
    """PRIVATE_IMPORTS as found by the walk."""
    return sorted(found for found in _imports() if _private(found.rsplit(".", 1)[1]))


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


def test_weight_importers():
    importers = {found.split(":")[0] for found in _imports()
                 if found.endswith(": numeric.sqrt_keeping_exact")}
    assert sorted(importers) == WEIGHT_IMPORTERS
