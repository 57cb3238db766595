"""The public surface, pinned: the package's exported names and each CLI
command's arguments.  Adding or removing either is a reviewed change here."""

import argparse

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
