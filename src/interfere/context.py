"""Total probability for a pair of dichotomic variables, and its
phase-perturbed forms.

A prior (P(b1), P(b2)) and a stochastic matrix of conditionals P(a_j | b_i)
give the classical mixture P(a_j).  When the unconditional and conditional
statistics come from different experimental contexts, the mixture acquires a
cross term: component j is the two-alternative rule on the pair (pb1*p1j,
pb2*p2j), exactly the squared modulus of a linear transform acting on square
roots of probabilities over the complex (resp. split-complex) numbers.

Outputs are never renormalized: the perturbed formulas do not guarantee that
the two components sum to one, and ``normalization_defect`` reports by how
much they miss.

Each public function chooses its algebra, ``engine.TRIG`` with signs +1 or
``engine.HYP`` with the transform's signs, for steps written once.
"""

from __future__ import annotations

import math
from numbers import Real

from .engine import HYP, TRIG, _amplitudes, _at_phase, _interfere, _is_sign, combine
from .errors import NotAProbabilityError, ValidationError, _Record, shown
from .numeric import TOLERANCE, require_probability

_MODES = (TRIG.name, HYP.name)
_new = object.__new__


class ContextTransform(_Record):
    """Prior pair, 2x2 conditional matrix, and per-outcome phase data.

    ``cond[i][j]`` is the probability of outcome j given condition i; each
    row must sum to one, as must the prior.  ``phases`` (and, in hyperbolic
    mode, ``signs``) parameterize the cross terms.
    """

    __slots__ = ("prior", "cond", "phases", "signs", "mode")

    def __new__(cls, prior, cond, phases, signs=(1, 1), mode="trig"):
        t = _new(cls._draft)
        t.__post_init__(prior, cond, phases, signs, mode)
        t.__class__ = cls
        return t

    def __post_init__(self, prior, cond, phases, signs, mode):
        """Test the constructor's arguments and fill the draft with them.
        Named as perfbench traces it."""
        self.prior, self.cond, self.phases = prior, cond, phases
        self.signs, self.mode = signs, mode
        # Fast accept: pairs held as tuples, a known mode, plain floats in
        # [0, 1] whose prior and rows sum to 1, finite float phases and plain
        # int signs of +/-1, which pass every check below.  The constants are
        # floats because CPython compares float with float faster than float
        # with int.  Everything else takes those checks, in their order.
        if (type(prior) is type(cond) is type(phases) is type(signs) is tuple
                and len(prior) == len(cond) == len(phases) == len(signs) == 2
                and type(cond[0]) is type(cond[1]) is tuple and len(cond[0]) == len(cond[1]) == 2
                and mode in _MODES):
            (a, b), ((c, d), (e, f)), (t0, t1), (s0, s1) = prior, cond, phases, signs
            if (type(a) is type(b) is type(c) is type(d) is type(e) is type(f) is type(t0)
                    is type(t1) is float and type(s0) is type(s1) is int
                    and 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and abs(a + b - 1.0) <= TOLERANCE
                    and 0.0 <= c <= 1.0 and 0.0 <= d <= 1.0 and abs(c + d - 1.0) <= TOLERANCE
                    and 0.0 <= e <= 1.0 and 0.0 <= f <= 1.0 and abs(e + f - 1.0) <= TOLERANCE
                    and math.isfinite(t0) and math.isfinite(t1)
                    and (s0 == 1 or s0 == -1) and (s1 == 1 or s1 == -1)):
                return
        self.prior, self.cond = prior, cond = tuple(prior), tuple(tuple(row) for row in cond)
        self.phases, self.signs = phases, signs = tuple(phases), tuple(signs)
        if mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
        if len(prior) != 2 or len(cond) != 2 or len(phases) != 2:
            raise ValidationError("prior, cond rows, and phases must all be pairs")
        _require_pair(prior, "prior")
        prior_sum = prior[0] + prior[1]
        if abs(prior_sum - 1) > TOLERANCE:
            raise ValidationError(f"prior sums to {shown(prior_sum)}, expected 1")
        for i, row in enumerate(cond):
            if len(row) != 2:
                raise ValidationError(f"cond row {i} must have 2 entries")
            _require_pair(row, f"cond[{i}]")
            row_sum = row[0] + row[1]
            if abs(row_sum - 1) > TOLERANCE:
                raise ValidationError(f"cond row {i} sums to {shown(row_sum)}, expected 1")
        if len(signs) != 2:
            raise ValidationError(f"signs must have 2 entries, got {len(signs)}")
        for j, sign in enumerate(signs):
            if not _is_sign(sign):
                raise ValidationError(f"signs[{j}] must be +1 or -1, got {shown(sign)}")
        for j, theta in enumerate(phases):
            if not isinstance(theta, Real):  # a complex phase would make the totals complex
                raise ValidationError(f"phases[{j}] must be a real number, got {shown(theta)}")
            if isinstance(theta, float) and not math.isfinite(theta):
                raise ValidationError(f"phases[{j}] must be finite, got {theta!r}")


def _require_pair(pair, name: str) -> None:
    """Raise ValidationError naming the first entry of pair outside [0, 1]."""
    for i, value in enumerate(pair):
        if not 0 <= value <= 1:  # a name is formatted only for a value out of range
            require_probability(value, f"{name}[{i}]")


def _mixture(t: ContextTransform, j: int):
    return t.prior[0] * t.cond[0][j] + t.prior[1] * t.cond[1][j]


_PHASES = ("phases[0]", "phases[1]")  # names in errors


def _totals(t: ContextTransform, algebra, signs, what: str):
    """Both components, each engine's checked rule on its pair (pb1*p1j,
    pb2*p2j): one outside [0, 1] raises NotAProbabilityError naming the
    component, a phase out of range raises ValidationError naming it."""
    (pb1, pb2), ((c, d), (e, f)), (t0, t1) = t.prior, t.cond, t.phases
    j = 0
    try:
        first = _interfere(algebra, pb1 * c, pb2 * e, t0, signs[0], _PHASES[0])
        j = 1
        second = _interfere(algebra, pb1 * d, pb2 * f, t1, signs[1], _PHASES[1])
    except NotAProbabilityError as exc:
        raise NotAProbabilityError(exc.value, what=what, component=j + 1) from None
    return first, second


def total_prob_classical(t: ContextTransform):
    """The classical mixture P(a_j) = sum_i P(b_i) * P(a_j | b_i)."""
    return _mixture(t, 0), _mixture(t, 1)


def total_prob_quantum(t: ContextTransform):
    """Mixture perturbed by 2*sqrt(...) * cos(theta_j) per component; see
    _totals.  theta = pi/2 reproduces total_prob_classical bit for bit."""
    return _totals(t, TRIG, (1, 1), "perturbed total probability")


def raw_quantum_components(t: ContextTransform):
    """The cos-perturbed components before probability validation.

    Diagnostic view: arbitrary phases can push these outside [0, 1], which
    total_prob_quantum treats as an error rather than clamping.
    """
    (pb1, pb2), (row1, row2) = t.prior, t.cond
    return tuple(
        combine(pb1 * row1[j], pb2 * row2[j], _at_phase(TRIG, TRIG.cross, t.phases[j], _PHASES[j]))
        for j in (0, 1)
    )


def total_prob_hyperbolic(t: ContextTransform):
    """Mixture perturbed by sign_j * 2*sqrt(...) * cosh(theta_j), in
    hyperbolic mode; a component escapes [0, 1] outside its validity window.
    See _totals."""
    if t.mode != "hyp":
        raise ValidationError("total_prob_hyperbolic needs a hyperbolic-mode transform")
    return _totals(t, HYP, t.signs, "hyperbolic total probability")


def sqrt_linear_transform(t: ContextTransform):
    """The amplitude form in the transform's own algebra: a 2x2 matrix acting
    on sqrt-probabilities, complex in trig mode, split-complex with the
    transform's signs in hyp mode.

    x_i = sqrt(prior_i); column j is the amplitude pair of (cond[0][j],
    cond[1][j]), whose relative phase on the second row reproduces the cross
    term, so y_j = sum_i x_i d_ij has |y_j|**2 = total_prob_quantum component
    j (norm_sq(y_j) = total_prob_hyperbolic component j).  (On both rows it
    would be a global phase of the column and cancel.)
    """
    algebra, signs = (TRIG, (1, 1)) if t.mode == "trig" else (HYP, t.signs)
    x = (math.sqrt(t.prior[0]), math.sqrt(t.prior[1]))
    columns = [
        _amplitudes(algebra, t.cond[0][j], t.cond[1][j], t.phases[j], signs[j], _PHASES[j])
        for j in (0, 1)
    ]
    outputs = tuple(first * x[0] + second * x[1] for first, second in columns)
    return tuple(zip(*columns)), outputs


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
