"""Interference of probabilistic alternatives over three number systems.

Combining two alternatives with probabilities p1, p2 into a single measured
probability p generally violates the additive rule; the deviation, normalized
as lam = (p - p1 - p2) / (2*sqrt(p1*p2)), picks the amplitude arithmetic that
linearizes the rule:

  |lam| <= 1   complex amplitudes,       p = |sqrt(p1) + e^{i t} sqrt(p2)|**2
  |lam| >= 1   split-complex amplitudes, p = |sqrt(p1) +/- e^{j t} sqrt(p2)|**2
  p-adic amplitudes confine lam to [-1, 0] with exactly computable values.

Subpackages: ``hyperbolic`` (split-complex algebra), ``padic`` (exact
valuation arithmetic), ``engine`` (the deviation calculus), ``context``
(total-probability transforms), ``padic_rule`` (the p-adic amplitude rule),
``profiles`` (brightness curves), ``cli`` (command-line front end).
"""

# before the submodule imports, which read it during package import
__version__ = "0.1.0"

from .context import (
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
from .engine import (
    InterferenceRecord,
    Regime,
    amplitudes_hyp,
    amplitudes_trig,
    classify,
    combine,
    fit_record,
    interfere_hyp,
    interfere_trig,
    lambda_of,
    phase_of,
    phases_from_deviation,
)
from .errors import (
    DegenerateContextError,
    InterfereError,
    NonPositiveNormError,
    NotAProbabilityError,
    PrimeMismatchError,
    ProfileError,
    ValidationError,
)
from .hyperbolic import HyperbolicNumber, PolarForm, inverse, polar
from .padic import PadicBall, PadicExpansion, PadicRational, is_prime, prime_multiplicity
from .padic_rule import (
    PadicAmplitudePair,
    PadicInterference,
    padic_interfere,
    padic_slit_profile,
)
from .profiles import (
    BrightnessProfile,
    profile_hyp,
    profile_padic,
    profile_piecewise,
    profile_trig,
    theta_bounds,
    uniform_grid,
)

__all__ = [
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
