"""Interference of probabilistic alternatives over three number systems.

Combining two alternatives with probabilities p1, p2 into a single measured
probability p generally violates the additive rule; the deviation, normalized
as lam = (p - p1 - p2) / (2*sqrt(p1*p2)), picks the amplitude arithmetic that
linearizes the rule:

  |lam| <= 1   complex amplitudes,       p = |sqrt(p1) + e^{i t} sqrt(p2)|**2
  |lam| >= 1   split-complex amplitudes, p = |sqrt(p1) +/- e^{j t} sqrt(p2)|**2
  p-adic amplitudes confine lam to [-1, 0] with exactly computable values.

Modules: ``numeric`` (exact-or-float helpers), ``errors`` (exception types),
``hyperbolic`` (split-complex algebra), ``padic`` (exact valuation
arithmetic), ``engine`` (the deviation calculus), ``context``
(total-probability transforms), ``padic_rule`` (the p-adic amplitude rule),
``profiles`` (brightness curves), ``checks`` (the invariant suite), ``cli``
(command-line front end).

Importing the package loads none of them.  Each public name is listed once
below under the submodule that defines it; the first access to a name
imports that submodule (PEP 562) and keeps the value here, so a command or
caller pays only for the modules it uses.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "context": (
        "ContextTransform",
        "hyperbolic_sqrt_transform",
        "normalization_defect",
        "phases_from_state_expansion",
        "raw_quantum_components",
        "sqrt_linear_transform",
        "total_prob_classical",
        "total_prob_hyperbolic",
        "total_prob_quantum",
    ),
    "engine": (
        "InterferenceRecord",
        "Regime",
        "amplitudes_hyp",
        "amplitudes_trig",
        "classify",
        "combine",
        "fit_record",
        "interfere_hyp",
        "interfere_trig",
        "lambda_of",
        "phase_of",
    ),
    "errors": (
        "DegenerateContextError",
        "FrozenRecordError",
        "InterfereError",
        "NonPositiveNormError",
        "NotAProbabilityError",
        "PrimeMismatchError",
        "ProfileError",
        "ValidationError",
    ),
    "hyperbolic": ("HyperbolicNumber", "PolarForm", "inverse", "polar"),
    "padic": ("PadicBall", "PadicExpansion", "PadicRational", "is_prime", "prime_multiplicity"),
    "padic_rule": (
        "PadicAmplitudePair",
        "PadicInterference",
        "padic_interfere",
        "padic_slit_profile",
    ),
    "profiles": (
        "BrightnessProfile",
        "profile_hyp",
        "profile_padic",
        "profile_piecewise",
        "profile_trig",
        "theta_bounds",
        "uniform_grid",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
