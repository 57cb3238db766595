"""Brightness profiles: probability as a function of detector radius.

An idealized detector registers a particle on the circle of radius r with
probability P(r).  Reading the phase as the radius gives four pictures:

  trig:       P(r) = p1 + p2 + 2*sqrt(p1*p2)*cos(r), slow oscillation with
              maxima at even and minima at odd multiples of pi;
  hyp (+):    P(r) = p1 + p2 + 2*sqrt(p1*p2)*cosh(r), dark center, grows
              exponentially until it saturates P = 1 at theta_max;
  hyp (-):    bright center, decays exponentially to P = 0 at theta_min;
  piecewise:  the +/- branches alternating over caller-chosen intervals;
  padic:      radii 1 + eps with exact brightness from the p-adic rule,
              locally constant in the p-adic metric but jumpy in the
              Euclidean one.

Profiles are rejected, never silently clipped: grid points outside a validity
window are dropped with an explicit warning record on the profile.

The package's CSV is written here: write_csv (a profile) and _write_slit_table
(`padic --table`) share one head writer.  An all-float profile's body is one
% call in write_csv; an exact profile's and the table's go through _write_rows.
"""

from __future__ import annotations

import math
import sys

from . import __version__
from .engine import HYP, TRIG, _is_sign, _sweep, combine, nonzero_weight
from .errors import ProfileError, ValidationError, _Record, shown
from .numeric import (
    TOLERANCE,
    fmt_float,
    fmt_number,
    is_exact,
    require_probability,
)


class BrightnessProfile(_Record, frozen=False):
    """A sampled curve radius -> probability with its provenance: the kind is
    trig, hyp, piecewise or padic, the values floats, or exact Fractions for
    the padic picture, and the metadata a new dict unless one is given."""

    __slots__ = ("kind", "grid", "values", "metadata", "theta_max", "theta_min", "warnings")

    def __init__(self, kind, grid, values, metadata=None, theta_max=None, theta_min=None,
                 warnings=()):
        self.kind, self.grid, self.values = kind, grid, values
        self.metadata = {} if metadata is None else metadata
        self.theta_max, self.theta_min, self.warnings = theta_max, theta_min, warnings


def _require_finite(name: str, value) -> None:
    """Raise ValidationError naming a grid value not finite or past the float range."""
    try:
        if math.isfinite(value):
            return
        problem = f"must be finite, got {value!r}"
    except OverflowError:  # an exact value
        problem = f"= {shown(value)} exceeds the float range (~1.8e308)"
    raise ValidationError(f"grid {name} {problem}")


#: The most samples a grid holds.  A float profile of this many points peaks
#: near 0.2 GB in the CLI, an exact one near 0.4 GB.
MAX_GRID_POINTS = 10**6


def uniform_grid(lo: float, hi: float, n: int):
    """n evenly spaced samples covering [lo, hi] inclusive.  ValidationError names
    an end or span hi - lo that is not finite or past the float range; ProfileError
    names an n that is not an int within the float range or is past MAX_GRID_POINTS."""
    if n < 1:
        raise ProfileError(f"grid needs at least one sample, got n = {n}")
    _require_finite("end lo", lo)
    _require_finite("end hi", hi)
    _require_finite("span hi - lo", hi - lo)
    try:
        samples = range(n)  # refuses a float n, 1.0 too, before the one-point grid
        float(n)  # an int n past the float range, whatever the type of the ends
        if n == 1:
            return (float(lo),)
        step = (hi - lo) / (n - 1)
    except (OverflowError, TypeError):  # an int n past the float range, a float n
        raise ProfileError(f"grid n must be an int in the float range, got {shown(n)}") from None
    if n > MAX_GRID_POINTS:
        raise ProfileError(
            f"grid n = {n} is too large: a grid holds at most {MAX_GRID_POINTS} samples")
    return tuple(lo + i * step for i in samples)


def theta_bounds(p1, p2):
    """Validity endpoints (theta_max, theta_min) of the hyperbolic branches.

    theta_max solves p1 + p2 + 2*sqrt(p1*p2)*cosh(theta) = 1; it exists only
    when q_plus = (1 - p1 - p2) / (2*sqrt(p1*p2)) >= 1 (otherwise even theta=0
    overshoots and None is returned).  theta_min solves the minus-branch zero
    p1 + p2 - 2*sqrt(p1*p2)*cosh(theta) = 0 and always exists because
    q_minus = (p1 + p2) / (2*sqrt(p1*p2)) >= 1 by AM-GM.  Both are undefined
    when p1*p2 = 0 and out of reach when it underflows (engine.nonzero_weight).
    """
    # Fast accept: plain floats in (0, 1] with a nonzero weight pass the checks
    # below; q_plus and q_minus are formed as there, with float constants.
    if (type(p1) is float and type(p2) is float and 0.0 < p1 <= 1.0 and 0.0 < p2 <= 1.0
            and (weight := 2.0 * math.sqrt(p1 * p2))):
        q_plus, q_minus = (1.0 - p1 - p2) / weight, (p1 + p2) / weight
    else:
        require_probability(p1, "p1")
        require_probability(p2, "p2")
        weight = nonzero_weight(p1, p2, "hyperbolic validity window")
        q_plus, q_minus = (1 - p1 - p2) / weight, (p1 + p2) / weight
    try:
        if q_plus >= 1:
            theta_max = math.acosh(q_plus)
        elif q_plus >= 1 - TOLERANCE:
            theta_max = 0.0
        else:
            theta_max = None
        # q_minus < 1 is impossible; floats may dip a hair below for p1 == p2
        theta_min = math.acosh(q_minus) if q_minus > 1 else 0.0
    except OverflowError:  # an exact q past the float range
        top = "1 - p1 - p2" if q_plus > sys.float_info.max else "p1 + p2"
        raise ValidationError(
            f"theta bounds: ({top}) / (2*sqrt(p1*p2)) exceeds the float range (~1.8e308), "
            "so its arccosh cannot be computed"
        ) from None
    return theta_max, theta_min


def profile_trig(p1, p2, grid) -> BrightnessProfile:
    """Sample the trigonometric picture; the whole curve must be a probability.

    Requires peak = p1 + p2 + 2*sqrt(p1*p2) <= 1, since the curve attains the
    peak at every even multiple of pi.  ValidationError names the first grid
    point that is not finite or is past the float range.
    """
    grid = tuple(grid)
    require_probability(p1, "p1")
    require_probability(p2, "p2")
    peak = combine(p1, p2, 1)
    if peak > 1 + TOLERANCE:
        raise ProfileError(
            f"trigonometric profile would peak at {shown(peak)} > 1; "
            "reduce p1, p2 so that (sqrt(p1)+sqrt(p2))**2 <= 1"
        )
    try:
        values = _sweep(TRIG, p1, p2, 1, grid)
    except (OverflowError, ValueError):  # cos of a point that is not a finite float
        for i, r in enumerate(grid):
            _require_finite(f"point {i}", r)
        raise
    return BrightnessProfile(kind="trig", grid=grid, values=values, metadata={"p1": p1, "p2": p2})


def _window_end(bounds, sign):
    """Upper end of the sign branch's validity window [0, hi], from the
    (theta_max, theta_min) pair of theta_bounds."""
    theta_max, theta_min = bounds
    if sign == 1 and theta_max is None:
        raise ProfileError(
            "plus branch has no valid window: p1 + p2 + 2*sqrt(p1*p2) > 1 "
            "already at theta = 0"
        )
    return theta_max if sign == 1 else theta_min


def profile_hyp(p1, p2, sign, grid) -> BrightnessProfile:
    """Sample one hyperbolic branch on [0, theta_max] (+) or [0, theta_min] (-).

    Grid points outside the branch's window are dropped with a warning record
    (the curve is not a probability out there); an empty remainder is an
    error.  Values are strictly monotone: increasing for +, decreasing for -.
    """
    grid = tuple(grid)
    if not _is_sign(sign):
        raise ProfileError(f"sign must be +1 or -1, got {shown(sign)}")
    theta_max, theta_min = bounds = theta_bounds(p1, p2)
    hi = _window_end(bounds, sign)
    top = hi + TOLERANCE  # an int 0: a Fraction point would convert a float 0.0
    kept = tuple([r for r in grid if 0 <= r <= top])
    warnings = ()
    dropped = len(grid) - len(kept)
    if dropped:
        warnings = (
            f"clipped {dropped} grid point(s) outside the validity window [0, {fmt_float(hi)}]",
        )
    if not kept:
        raise ProfileError(
            f"empty valid window: no grid points inside [0, {fmt_float(hi)}]"
        )
    return BrightnessProfile(
        kind="hyp",
        grid=kept,
        values=_sweep(HYP, p1, p2, sign, kept),
        metadata={"p1": p1, "p2": p2, "sign": sign},
        theta_max=theta_max,
        theta_min=theta_min,
        warnings=warnings,
    )


def profile_piecewise(p1, p2, partition, grid) -> BrightnessProfile:
    """Alternate the +/- branches over caller-chosen intervals.

    ``partition`` is a sequence of (lo, hi, sign) triples; intervals must not
    overlap in their interior and each must fit inside its branch's validity
    window.  Grid points are sampled by the first interval that contains
    them; points outside every interval are dropped (they are not part of the
    requested picture).
    """
    grid = tuple(grid)
    pieces, bounds = [], None
    for lo, hi, sign in partition:
        if not _is_sign(sign):
            raise ProfileError(f"interval sign must be +1 or -1, got {shown(sign)}")
        if not 0 <= lo <= hi:  # a non-number raises TypeError here
            raise ProfileError(f"bad interval [{shown(lo)}, {shown(hi)}]: need 0 <= lo <= hi")
        try:
            lo, hi = float(lo), float(hi)
        except OverflowError:
            raise ProfileError(
                f"interval [{shown(lo)}, {shown(hi)}] exceeds the float range (~1.8e308)"
            ) from None
        pieces.append((lo, hi, sign))
        # p1 and p2 are validated after the first interval's own checks
        bounds = bounds or theta_bounds(p1, p2)
        window_hi = _window_end(bounds, sign)
        if hi > window_hi + TOLERANCE:
            raise ProfileError(
                f"interval [{lo}, {hi}] leaves the sign {int(sign):+d} validity window "
                f"[0, {fmt_float(window_hi)}]"
            )
    if not pieces:
        raise ProfileError("partition must contain at least one interval")
    ordered = sorted(pieces)
    for (lo_a, hi_a, _), (lo_b, hi_b, _) in zip(ordered, ordered[1:]):
        if lo_b < hi_a:
            raise ProfileError(
                f"intervals [{lo_a}, {hi_a}] and [{lo_b}, {hi_b}] overlap"
            )
    out_grid, out_values, windows = [], [], []
    for lo, hi, sign in pieces:
        # the window test's slack: a grid end lo + k*step may overshoot an edge by an ulp
        bottom, top = lo - TOLERANCE, hi + TOLERANCE
        points = [r for r in grid if bottom <= r <= top]
        # intervals meet at most at their ends, so an earlier window that reaches
        # into this one holds one of its ends and took every point up to its edge
        for left, right in windows:
            if left <= bottom <= right:
                points = [r for r in points if r > right]
            elif left <= top <= right:
                points = [r for r in points if r < left]
        windows.append((bottom, top))
        out_grid += points
        out_values += _sweep(HYP, p1, p2, sign, points)
    if not out_grid:
        raise ProfileError("no grid points fall inside the partition")
    return BrightnessProfile(
        kind="piecewise",
        grid=tuple(out_grid),
        values=tuple(out_values),
        metadata={
            "p1": p1,
            "p2": p2,
            "partition": ";".join(
                f"{fmt_float(lo)}:{fmt_float(hi)}:{int(sign):+d}" for lo, hi, sign in pieces
            ),
        },
        theta_max=bounds[0],
        theta_min=bounds[1],
    )


def profile_padic(p: int, l: int, eps_max: int) -> BrightnessProfile:
    """The p-adic circle picture: radii 1 + eps with exact brightness.

    Brightness equals A * p**(-2*v_p(r)) with A = p**(-2l): circles whose
    radius is divisible by powers of p are dimmed, discontinuously in the
    Euclidean metric but continuously in the p-adic one.
    """
    from .padic_rule import _slit_columns, _squared_abs  # only this picture is p-adic

    eps, _, values = _slit_columns(p, l, eps_max)
    return BrightnessProfile(
        kind="padic",
        grid=tuple([e + 1 for e in eps]),
        values=tuple(values),
        metadata={"p": p, "l": l, "A": _squared_abs(p, l)},
    )


def _write_header(stream, kind: str, metadata: dict, columns: str) -> None:
    """The head of a self-describing CSV: sorted '# key=value' comments (kind,
    version and the metadata, exact values as num/den), then the column names."""
    meta = {"kind": kind, "version": __version__}
    for key, value in metadata.items():
        meta[str(key)] = value if isinstance(value, str) else fmt_number(value)
    for key in sorted(meta):
        stream.write(f"# {key}={meta[key]}\n")
    stream.write(f"{columns}\n")


def _write_rows(stream, keys, values, cell) -> None:
    """The CSV body in one write: per row the key's text, a comma and
    cell(value), which ends the row.  cell runs once per distinct value object
    (keyed by identity: hashing a Fraction costs more than formatting it).  An
    all-int key column prints as str prints it, the same text as fmt_number."""
    cells = {key: cell(v) for key, v in dict(zip(map(id, values), values)).items()}
    text = keys if {*map(type, keys)} <= {int} else map(fmt_number, keys)
    try:
        rows = [f"{k},{cells[id(v)]}" for k, v in zip(text, values)]
    except ValueError:  # an int past sys.get_int_max_str_digits(): fmt_number names it
        rows = [f"{fmt_number(k)},{cells[id(v)]}" for k, v in zip(keys, values)]
    stream.write("".join(rows))


def write_csv(profile: BrightnessProfile, stream) -> None:
    """Self-describing CSV: '#' metadata comments, then r,P_float,P_exact,kind."""
    meta = dict(profile.metadata)
    if profile.theta_max is not None:
        meta["theta_max"] = profile.theta_max
    if profile.theta_min is not None:
        meta["theta_min"] = profile.theta_min
    for i, warning in enumerate(profile.warnings, 1):
        meta[f"warning{i}"] = warning
    _write_header(stream, profile.kind, meta, "r,P_float,P_exact,kind")
    if {*map(type, profile.grid), *map(type, profile.values)} <= {float}:
        # "%.12g" renders a float as fmt_float does; all rows in one % call
        row = "%.12g,%.12g,," + profile.kind.replace("%", "%%") + "\n"
        n = min(len(profile.grid), len(profile.values))  # the rows zip would make
        cells = [None] * (2 * n)
        cells[::2], cells[1::2] = profile.grid[:n], profile.values[:n]
        stream.write(row * n % tuple(cells))
        return
    tail = f",{profile.kind}\n"
    _write_rows(
        stream, profile.grid, profile.values,
        lambda v: f"{fmt_float(v)},{fmt_number(v) if is_exact(v) else ''}{tail}",
    )


def _write_slit_table(stream, p: int, l: int, eps_max: int) -> None:
    """The `padic --table` CSV: the two-slit columns of padic_rule._slit_columns
    as epsilon,v_p_of_1_plus_epsilon,P_exact,P_float under a padic-slit-table head."""
    from .padic_rule import _slit_columns, _squared_abs

    eps, v, _ = _slit_columns(p, l, eps_max)
    _write_header(
        stream, "padic-slit-table", {"A": _squared_abs(p, l), "l": l, "p": p},
        "epsilon,v_p_of_1_plus_epsilon,P_exact,P_float",
    )

    def cell(k):  # the brightness A * p**(-2k) = p**(-2(l + k)) of multiplicity k
        brightness = _squared_abs(p, l + k)
        return f"{k},{fmt_number(brightness)},{fmt_float(brightness)}\n"

    _write_rows(stream, eps, v, cell)
