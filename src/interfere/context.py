"""Total probability for a pair of dichotomic variables, and its
phase-perturbed forms.

A prior (P(b1), P(b2)) and a stochastic matrix of conditionals P(a_j | b_i)
give the classical mixture P(a_j).  When the unconditional and conditional
statistics come from different experimental contexts, the mixture acquires a
cross term 2*sqrt(pb1*p1j*pb2*p2j) * cos(theta_j) (or +/- cosh(theta_j)),
which is exactly the squared modulus of a linear transform acting on square
roots of probabilities over the complex (resp. split-complex) numbers.

Outputs are never renormalized: the perturbed formulas do not guarantee that
the two components sum to one, and ``normalization_defect`` reports by how
much they miss.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from . import hyperbolic
from .errors import ValidationError
from .numeric import (
    TOLERANCE,
    as_probability,
    cross_term,
    phase_cos,
    require_probability,
    sqrt_keeping_exact,
)

_MODES = ("trig", "hyp")


@dataclass(frozen=True)
class ContextTransform:
    """Prior pair, 2x2 conditional matrix, and per-outcome phase data.

    ``cond[i][j]`` is the probability of outcome j given condition i; each
    row must sum to one, as must the prior.  ``phases`` (and, in hyperbolic
    mode, ``signs``) parameterize the cross terms.
    """

    prior: tuple
    cond: tuple
    phases: tuple
    signs: tuple = (1, 1)
    mode: str = "trig"

    def __post_init__(self):
        object.__setattr__(self, "prior", tuple(self.prior))
        object.__setattr__(self, "cond", tuple(tuple(row) for row in self.cond))
        object.__setattr__(self, "phases", tuple(self.phases))
        object.__setattr__(self, "signs", tuple(self.signs))
        if self.mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if len(self.prior) != 2 or len(self.cond) != 2 or len(self.phases) != 2:
            raise ValidationError("prior, cond rows, and phases must all be pairs")
        # require_probability only to raise: a name is formatted only for a
        # value out of range
        for i, value in enumerate(self.prior):
            if not 0 <= value <= 1:
                require_probability(value, f"prior[{i}]")
        prior_sum = self.prior[0] + self.prior[1]
        if abs(prior_sum - 1) > TOLERANCE:
            raise ValidationError(f"prior sums to {prior_sum!r}, expected 1")
        for i, row in enumerate(self.cond):
            if len(row) != 2:
                raise ValidationError(f"cond row {i} must have 2 entries")
            for j, value in enumerate(row):
                if not 0 <= value <= 1:
                    require_probability(value, f"cond[{i}][{j}]")
            row_sum = row[0] + row[1]
            if abs(row_sum - 1) > TOLERANCE:
                raise ValidationError(f"cond row {i} sums to {row_sum!r}, expected 1")
        for j, sign in enumerate(self.signs):
            if sign not in (1, -1):
                raise ValidationError(f"signs[{j}] must be +1 or -1, got {sign!r}")
        for j, theta in enumerate(self.phases):
            if isinstance(theta, float) and not math.isfinite(theta):
                raise ValidationError(f"phases[{j}] must be finite, got {theta!r}")

    def to_dict(self) -> dict:
        """Flat key-value form (config-file and JSON schema)."""
        return {
            "mode": self.mode,
            "pb1": self.prior[0],
            "pb2": self.prior[1],
            "p11": self.cond[0][0],
            "p12": self.cond[0][1],
            "p21": self.cond[1][0],
            "p22": self.cond[1][1],
            "theta1": self.phases[0],
            "theta2": self.phases[1],
            "sign1": self.signs[0],
            "sign2": self.signs[1],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ContextTransform":
        return cls(
            prior=(data["pb1"], data["pb2"]),
            cond=((data["p11"], data["p12"]), (data["p21"], data["p22"])),
            phases=(data.get("theta1", 0.0), data.get("theta2", 0.0)),
            signs=(data.get("sign1", 1), data.get("sign2", 1)),
            mode=data.get("mode", "trig"),
        )

    def with_mode(self, mode: str) -> "ContextTransform":
        return replace(self, mode=mode)


def _mixture(t: ContextTransform, j: int):
    return t.prior[0] * t.cond[0][j] + t.prior[1] * t.cond[1][j]


def _cross_weight(t: ContextTransform, j: int):
    return 2 * sqrt_keeping_exact(t.prior[0] * t.cond[0][j] * t.prior[1] * t.cond[1][j])


def _raw_trig(t: ContextTransform, j: int):
    return _mixture(t, j) + cross_term(_cross_weight(t, j), phase_cos(t.phases[j]))


def total_prob_classical(t: ContextTransform):
    """The classical mixture P(a_j) = sum_i P(b_i) * P(a_j | b_i)."""
    return _mixture(t, 0), _mixture(t, 1)


def total_prob_quantum(t: ContextTransform):
    """Mixture perturbed by 2*sqrt(...) * cos(theta_j) per component.

    Quarter-turn phases collapse the cross term exactly, so theta = pi/2
    reproduces total_prob_classical bit for bit.  Components outside [0, 1]
    raise NotAProbabilityError naming the component.
    """
    return tuple(
        as_probability(_raw_trig(t, j), what="perturbed total probability", component=j + 1)
        for j in (0, 1)
    )


def raw_quantum_components(t: ContextTransform):
    """The cos-perturbed components before probability validation.

    Diagnostic view: arbitrary phases can push these outside [0, 1], which
    total_prob_quantum treats as an error rather than clamping.
    """
    return _raw_trig(t, 0), _raw_trig(t, 1)


def total_prob_hyperbolic(t: ContextTransform):
    """Mixture perturbed by sign_j * 2*sqrt(...) * cosh(theta_j).

    Requires hyperbolic mode.  Equals norm_sq of the split-complex amplitude
    transform on its validity window; outside it a component escapes [0, 1]
    and NotAProbabilityError is raised naming the component.  A phase whose
    cosh leaves the float range raises ValidationError.
    """
    if t.mode != "hyp":
        raise ValidationError("total_prob_hyperbolic needs a hyperbolic-mode transform")
    out = []
    for j in (0, 1):
        try:
            lam = t.signs[j] * math.cosh(t.phases[j])
        except OverflowError:
            raise ValidationError(
                f"phases[{j}] = {t.phases[j]!r} is out of range: cosh overflows "
                f"the float range beyond |theta| ~ 710"
            ) from None
        raw = _mixture(t, j) + cross_term(_cross_weight(t, j), lam)
        out.append(as_probability(raw, what="hyperbolic total probability", component=j + 1))
    return tuple(out)


def sqrt_linear_transform(t: ContextTransform):
    """The amplitude form: a 2x2 complex matrix acting on sqrt-probabilities.

    x_i = sqrt(prior_i); the matrix rows carry sqrt(cond[i][j]) with the
    relative phase e^{i theta_j} on the second row, so y_j = sum_i x_i d_ij
    satisfies |y_j|**2 = total_prob_quantum component j.  (Putting the phase
    on both rows would be a per-column global phase and would cancel from
    |y_j|**2; the relative placement is the one that reproduces the cross
    term.)
    """
    if t.mode != "trig":
        raise ValidationError("sqrt_linear_transform needs a trigonometric-mode transform")
    x = (math.sqrt(t.prior[0]), math.sqrt(t.prior[1]))
    matrix = (
        (complex(math.sqrt(t.cond[0][0])), complex(math.sqrt(t.cond[0][1]))),
        (
            cmath.exp(1j * t.phases[0]) * math.sqrt(t.cond[1][0]),
            cmath.exp(1j * t.phases[1]) * math.sqrt(t.cond[1][1]),
        ),
    )
    outputs = tuple(x[0] * matrix[0][j] + x[1] * matrix[1][j] for j in (0, 1))
    return matrix, outputs


def hyperbolic_sqrt_transform(t: ContextTransform):
    """Split-complex analogue of sqrt_linear_transform.

    Second-row entries are sign_j * e^{j theta_j} * sqrt(cond[1][j]);
    norm_sq(y_j) = total_prob_hyperbolic component j.
    """
    if t.mode != "hyp":
        raise ValidationError("hyperbolic_sqrt_transform needs a hyperbolic-mode transform")
    x = (math.sqrt(t.prior[0]), math.sqrt(t.prior[1]))
    matrix = (
        (
            hyperbolic.HyperbolicNumber(math.sqrt(t.cond[0][0]), 0),
            hyperbolic.HyperbolicNumber(math.sqrt(t.cond[0][1]), 0),
        ),
        (
            hyperbolic.exp(t.phases[0]) * (t.signs[0] * math.sqrt(t.cond[1][0])),
            hyperbolic.exp(t.phases[1]) * (t.signs[1] * math.sqrt(t.cond[1][1])),
        ),
    )
    outputs = tuple(
        matrix[0][j] * x[0] + matrix[1][j] * x[1] for j in (0, 1)
    )
    return matrix, outputs


def phases_from_state_expansion(xi_cond, xi_prior):
    """Cross-term phases from a two-stage state expansion.

    For a state expanded as sum_i e^{i xi_prior[i]} sqrt(prior_i) |b_i>,
    with |b_i> = sum_j e^{i xi_cond[i][j]} sqrt(cond[i][j]) |a_j>, the
    outcome-j cross term carries

        theta_j = (xi_prior[2] + xi_cond[2][j]) - (xi_prior[1] + xi_cond[1][j])

    (1-based labels), reduced here to [0, 2*pi).
    """
    return tuple(
        (xi_prior[1] + xi_cond[1][j] - xi_prior[0] - xi_cond[0][j]) % (2 * math.pi)
        for j in (0, 1)
    )


def normalization_defect(t: ContextTransform) -> float:
    """Sum of the raw cos-perturbed components minus one (diagnostic only).

    Zero exactly when cos(theta_1)*sqrt(p11*p21) + cos(theta_2)*sqrt(p12*p22)
    vanishes, e.g. for doubly stochastic conditionals with theta_2 = pi -
    theta_1.  Reported, never corrected.
    """
    first, second = raw_quantum_components(t)
    return first + second - 1
