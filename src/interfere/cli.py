"""Command-line front end.

Subcommands: fit, profile (trig | hyp | piecewise | padic), totalprob, padic,
check.  Numbers parse as exact rationals ("1/16", "0.36") and are kept exact
with --mode exact or converted to floats with the default --mode float.  The
p-adic commands take no --mode: their values are always exact.
Output is deterministic: floats render with 12 significant digits, exact
values as num/den, CSV rows in a fixed order with '#' metadata comments.

Exit codes: 0 success, 2 flag/config parse error, 3 domain error, 4 invariant
failures from `check`.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
from fractions import Fraction

# Only what every command needs: each handler imports the modules it runs.
from . import __version__
from .errors import InterfereError, NotAProbabilityError, ValidationError
from .numeric import fmt_number, round12


class ConfigError(Exception):
    """Bad flag value or config-file line; maps to exit code 2."""


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

_PI_FORM = re.compile(
    r"^(?P<sign>[+-])?(?P<num>\d+)?\s*\*?\s*pi(?:\s*/\s*(?P<den>\d+))?$", re.IGNORECASE
)


def _quoted(text: str, detail: str = "") -> str:
    """repr(text) and detail, for an error line.  A text longer than Python
    converts an integer to text is named by its length alone, without a
    detail that could quote it again, so the line stays short."""
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        return f"<an input of {len(text)} characters>"
    return repr(text) + detail


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what}: cannot parse number {_quoted(text, f' ({exc})')}") from None


def _as_float(value) -> float:
    """float(value), with magnitudes beyond the float range read as +/-inf
    (as float("1e400") reads), so that the domain checks reject them."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _parse_number(text: str, mode: str, what: str):
    value = _parse_fraction(text, what)
    return value if mode == "exact" else _as_float(value)


def _parse_angle(text: str, what: str) -> float:
    s = text.strip()
    m = _PI_FORM.match(s)
    if m:
        num = _parse_fraction(m.group("num") or "1", what)
        den = _parse_fraction(m.group("den") or "1", what)
        if den == 0:
            raise ConfigError(f"{what}: zero denominator in angle {_quoted(text)}")
        value = math.pi * _as_float(num) / _as_float(den)
        return -value if m.group("sign") == "-" else value
    return _as_float(_parse_fraction(s, what))


def _parse_sign(text: str, what: str) -> int:
    mapping = {"+": 1, "-": -1, "+1": 1, "-1": -1, "1": 1}
    try:
        return mapping[text.strip()]
    except KeyError:
        raise ConfigError(f"{what}: sign must be '+' or '-', got {_quoted(text)}") from None


def _jsonable(value):
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, Fraction):
        return fmt_number(value)
    if isinstance(value, float):
        return round12(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return str(value)


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as stream:
                stream.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path):
    _emit(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n", out_path)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    from .engine import fit_record

    p1 = _parse_number(args.p1, args.mode, "p1")
    p2 = _parse_number(args.p2, args.mode, "p2")
    p = _parse_number(args.p, args.mode, "p")
    record = fit_record(p1, p2, p)
    fields = record._asdict()  # printed with lam as "lambda" and the regime's value
    fields["lambda"], fields["regime"] = fields.pop("lam"), record.regime.value
    _emit_json({**fields, "residual": float(record.residual())}, args.out)
    return 0


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def _emit_profile(profile, out_path):
    from .profiles import write_csv

    buffer = io.StringIO()
    write_csv(profile, buffer)
    _emit(buffer.getvalue(), out_path)


def _cmd_profile_trig(args) -> int:
    from . import profiles

    p1 = _parse_number(args.p1, args.mode, "--p1")
    p2 = _parse_number(args.p2, args.mode, "--p2")
    grid = profiles.uniform_grid(args.min, args.max, args.n)
    _emit_profile(profiles.profile_trig(p1, p2, grid), args.out)
    return 0


def _cmd_profile_hyp(args) -> int:
    from . import profiles

    p1 = _parse_number(args.p1, args.mode, "--p1")
    p2 = _parse_number(args.p2, args.mode, "--p2")
    sign = _parse_sign(args.sign, "--sign")
    if args.auto_window:
        hi = profiles._window_end(profiles.theta_bounds(p1, p2), sign)
    elif args.max is not None:
        hi = args.max
    else:
        raise ConfigError("profile hyp needs --max or --auto-window")
    grid = profiles.uniform_grid(0.0, hi, args.n)
    _emit_profile(profiles.profile_hyp(p1, p2, sign, grid), args.out)
    return 0


def _parse_intervals(text: str):
    pieces = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--intervals: expected 'lo:hi:sign' got {_quoted(chunk)}")
        lo = _as_float(_parse_fraction(parts[0], "--intervals lo"))
        hi = _as_float(_parse_fraction(parts[1], "--intervals hi"))
        pieces.append((lo, hi, _parse_sign(parts[2], "--intervals sign")))
    return pieces


def _cmd_profile_piecewise(args) -> int:
    from . import profiles

    p1 = _parse_number(args.p1, args.mode, "--p1")
    p2 = _parse_number(args.p2, args.mode, "--p2")
    partition = _parse_intervals(args.intervals)
    hi = max(piece[1] for piece in partition)
    grid = profiles.uniform_grid(0.0, hi, args.n)
    _emit_profile(profiles.profile_piecewise(p1, p2, partition, grid), args.out)
    return 0


def _require_printable_head(p: int, l: int) -> None:
    """Reject --l before the power is computed when the head value A =
    p**(-2l) would have more digits than Python converts an integer to text."""
    from .padic import _require_prime

    _require_prime(p)  # a prime error comes first, as in padic_slit_profile
    limit = sys.get_int_max_str_digits()
    if limit and 2 * l * math.log10(p) >= limit:
        raise ValidationError(
            f"--l {l} makes A = {p}**(-{2 * l}) an exact value of more than {limit} "
            "digits, more than Python converts an integer to text"
        )


def _cmd_profile_padic(args) -> int:
    from .profiles import profile_padic

    _require_printable_head(args.p, args.l)
    _emit_profile(profile_padic(args.p, args.l, args.eps_max), args.out)
    return 0


# ---------------------------------------------------------------------------
# totalprob
# ---------------------------------------------------------------------------

#: Keys of a totalprob config file, in the order of the transform's fields;
#: all but mode, sign1 and sign2 are required.
CONFIG_KEYS = (
    "mode", "pb1", "pb2", "p11", "p12", "p21", "p22", "theta1", "theta2", "sign1", "sign2"
)
_REQUIRED_KEYS = CONFIG_KEYS[1:9]
_KINDS = ("trig", "hyp")  # the values of mode and --kind
# padic._PSI_13, written out so that building the parser imports no p-adic code
_P_HELP = "prime modulus, below psi_13 = 3317044064679887385961981, where primality is proven"


def _read_config(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as stream:
            lines = stream.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config {path!r}: {reason}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {_quoted(raw.rstrip())}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown field {_quoted(key)}")
        values[key] = (value.strip(), f"{path}:{lineno}")
    return values


def _cmd_totalprob(args) -> int:
    from .context import (
        ContextTransform,
        normalization_defect,
        total_prob_classical,
        total_prob_hyperbolic,
        total_prob_quantum,
    )

    raw = _read_config(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        override = args.kind if key == "mode" else getattr(args, key, None)
        if override is not None:
            raw[key] = (override, "--kind" if key == "mode" else f"--{key}")
    missing = [key for key in _REQUIRED_KEYS if key not in raw]
    if missing:
        raise ConfigError(f"missing field(s): {', '.join(missing)}")

    def number(key):
        text, where = raw[key]
        return _parse_number(text, args.mode, where)

    def angle(key):
        return _parse_angle(*raw[key])

    def sign(key):
        return _parse_sign(*raw.get(key, ("+", key)))

    mode, where = raw.get("mode", ("trig", "mode"))
    if mode not in _KINDS:
        raise ConfigError(f"{where}: mode must be 'trig' or 'hyp', got {_quoted(mode)}")
    t = ContextTransform(
        prior=(number("pb1"), number("pb2")),
        cond=((number("p11"), number("p12")), (number("p21"), number("p22"))),
        phases=(angle("theta1"), angle("theta2")),
        signs=(sign("sign1"), sign("sign2")),
        mode=mode,
    )

    def attempt(func, t):
        try:
            return list(func(t))
        except NotAProbabilityError as exc:
            return {"error": str(exc), "component": exc.component, "raw": float(exc.value)}

    flat = (t.mode, *t.prior, *t.cond[0], *t.cond[1], *t.phases, *t.signs)
    payload = {
        "transform": dict(zip(CONFIG_KEYS, flat)),
        "classical": list(total_prob_classical(t)),
        "quantum": attempt(total_prob_quantum, t),
        "hyperbolic": attempt(total_prob_hyperbolic, t._replace(mode="hyp")),
        "normalization_defect": float(normalization_defect(t)),
    }
    _emit_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# padic
# ---------------------------------------------------------------------------

def _cmd_padic(args) -> int:
    if args.table:
        from .profiles import _write_slit_table

        _require_printable_head(args.p, args.l)
        buffer = io.StringIO()
        _write_slit_table(buffer, args.p, args.l, args.eps_max)
        _emit(buffer.getvalue(), args.out)
        return 0
    from .padic_rule import PadicAmplitudePair, padic_interfere

    if args.alpha1 is None or args.alpha2 is None or args.eps is None:
        raise ConfigError("padic needs --alpha1, --alpha2 and --eps (or --table)")
    pair = PadicAmplitudePair(
        args.p,
        _parse_fraction(args.alpha1, "--alpha1"),
        _parse_fraction(args.alpha2, "--alpha2"),
        _parse_fraction(args.eps, "--eps"),
    )
    result = padic_interfere(pair)
    payload = {
        "p": result.p,
        "alpha1": pair.alpha1.value,
        "alpha2": pair.alpha2.value,
        "epsilon": pair.epsilon.value,
        "case": result.case,
        "P": result.probability,
        "P_float": float(result.probability),
        "P1": result.p1,
        "P2": result.p2,
        "c": result.cross_factor,
        "lambda": result.lam,
        "lambda_float": float(result.lam),
        "theta": result.theta,
        "within_range": result.within_claimed_range,
    }
    _emit_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    from . import checks  # imported here: only this command needs it

    results = checks.run_all(full=not args.fast)
    lines = []
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        line = f"{status}  {result.name}: {result.cases} cases, {result.violations} violations"
        if not result.passed:
            failures += 1
            if result.detail:
                line += f" [{result.detail}]"
        lines.append(line)
    lines.append(f"{len(results) - failures}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if failures == 0 else 4


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interfere",
        description="Interference of probabilistic alternatives over complex, "
        "split-complex, and p-adic amplitudes.",
    )
    parser.add_argument("--version", action="version", version=f"interfere {__version__}")
    sub = parser.add_subparsers(dest="command")

    # Options shared between subcommands, each declared once in a parent.  The
    # subcommands share a parent's actions, so none may change their defaults.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write output to a file instead of stdout")
    mode = argparse.ArgumentParser(add_help=False, parents=[out])
    mode.add_argument(
        "--mode",
        choices=("exact", "float"),
        default="float",
        help="parse/print numbers as exact rationals or floats (default float)",
    )
    pair = argparse.ArgumentParser(add_help=False, parents=[mode])
    pair.add_argument("--p1", required=True)
    pair.add_argument("--p2", required=True)
    pair.add_argument("--n", type=int, default=100)
    modulus = argparse.ArgumentParser(add_help=False, parents=[out])
    modulus.add_argument("--p", type=int, required=True, help=_P_HELP)
    modulus.add_argument("--l", type=int, default=0)

    fit = sub.add_parser(
        "fit", parents=[mode], help="fit the deviation form to a (p1, p2, p) triple"
    )
    fit.add_argument("p1")
    fit.add_argument("p2")
    fit.add_argument("p")
    fit.set_defaults(handler=_cmd_fit)

    profile = sub.add_parser("profile", help="emit a brightness profile as CSV")
    kinds = profile.add_subparsers(dest="kind")

    trig = kinds.add_parser("trig", parents=[pair], help="trigonometric oscillation")
    trig.add_argument("--min", type=float, default=0.0)
    trig.add_argument("--max", type=float, required=True)
    trig.set_defaults(handler=_cmd_profile_trig)

    hyp = kinds.add_parser("hyp", parents=[pair], help="one hyperbolic branch")
    hyp.add_argument("--sign", required=True, help="'+' or '-'")
    hyp.add_argument("--max", type=float)
    hyp.add_argument("--auto-window", action="store_true", help="sample the full validity window")
    hyp.set_defaults(handler=_cmd_profile_hyp)

    piecewise = kinds.add_parser("piecewise", parents=[pair], help="alternating +/- branches")
    piecewise.add_argument("--intervals", required=True, help="comma-separated lo:hi:sign triples")
    piecewise.set_defaults(handler=_cmd_profile_piecewise)

    padic_profile = kinds.add_parser("padic", parents=[modulus], help="p-adic circle brightness")
    padic_profile.add_argument("--eps-max", type=int, required=True)
    padic_profile.set_defaults(handler=_cmd_profile_padic)

    totalprob = sub.add_parser(
        "totalprob", parents=[mode], help="classical / perturbed / hyperbolic total probability"
    )
    totalprob.add_argument("--config", help="flat key=value config file")
    totalprob.add_argument(
        "--kind", choices=_KINDS, help="override the config field 'mode' (trig or hyp)"
    )
    for key in CONFIG_KEYS[1:]:
        totalprob.add_argument(f"--{key}", help=f"override config field {key}")
    totalprob.set_defaults(handler=_cmd_totalprob)

    padic = sub.add_parser("padic", parents=[modulus], help="p-adic amplitude rule")
    padic.add_argument("--alpha1")
    padic.add_argument("--alpha2")
    padic.add_argument("--eps")
    padic.add_argument("--table", action="store_true", help="emit the two-slit CSV table")
    padic.add_argument("--eps-max", type=int, default=20)
    padic.set_defaults(handler=_cmd_padic)

    check = sub.add_parser("check", parents=[out], help="run the invariant suite")
    check.add_argument("--fast", action="store_true", help="smaller sweeps")
    check.set_defaults(handler=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InterfereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
