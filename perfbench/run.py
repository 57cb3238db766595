"""Benchmark of the interfere package, run from its source tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of float-batch, exact-batch, check-suite, cli, or `all` for each
in turn.  The run builds its inputs from the seed, repeats whole rounds of
them for at least S seconds, checks every output against perfbench/oracle.py,
and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones named in BENCHMARK.json,
scaled to a nominal host speed by a yardstick loop timed next to them (the
times as measured are in the report); with --trace 1 half the time runs
untraced and half with spans around every public function of the package,
and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
IMPORT_CODE = (
    "import time; start = time.perf_counter(); import interfere.cli; "
    "print(time.perf_counter() - start)"
)


def _fresh(*args):
    """Run a fresh interpreter with src/ on its path; (seconds, process)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        check=True,
    )
    return time.perf_counter() - start, done


# The host's speed drifts by about 25 % over tens of seconds (README).  A
# fixed standard-library loop, timed next to every measurement, follows the
# drift: end-to-end times are scaled by NOMINAL_S / its mean time, so they
# read in seconds of a host on which the loop takes NOMINAL_S.
NOMINAL_S = 0.06
# Of each round's time, the share spent on the yardstick after it.  A longer
# sample follows the host better: over ten interleaved pairs of runs on
# exact-batch, 0.25 gave half the run_s spread of 0.05.
YARDSTICK_SHARE = 0.25
_YARDSTICK_XS = [i * 1.2345e-4 for i in range(30_000)]


def yardstick(seconds=0.0) -> float:
    """Mean time of the yardstick, repeated for at least `seconds` (and at
    least once)."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        times.append(_yardstick_once())
    return statistics.fmean(times)


def _yardstick_once() -> float:
    """Seconds for a fixed mix of float math, float formatting, Fraction
    arithmetic and dict building: the kinds of work the program does."""
    start = time.perf_counter()
    total = 0.0
    for x in _YARDSTICK_XS:
        total += math.sqrt(x) * math.cos(x) + math.cosh(x * 1e-2)
    "".join(f"{x:.12g}," for x in _YARDSTICK_XS)
    value = Fraction(0)
    for i in range(1, 3_000):
        value = Fraction(i, i + 3) * Fraction(7, 11) + Fraction(1, i)
    {i: (x, str(i)) for i, x in enumerate(_YARDSTICK_XS)}
    return time.perf_counter() - start


def setup_seconds():
    """(median time to import interfere.cli in a fresh interpreter, the
    yardstick timed after each import).  One import before them leaves the
    bytecode cache warm."""
    _fresh("-c", IMPORT_CODE)
    samples, sticks = [], []
    for _ in range(SETUP_SAMPLES):
        samples.append(float(_fresh("-c", IMPORT_CODE)[1].stdout))
        sticks.append(yardstick())
    return statistics.median(samples), sticks


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")


def import_seconds():
    """(self time of every interfere module, cumulative time of the
    interfere.checks import), medians of `-X importtime` runs."""
    own, checks = [], []
    for _ in range(IMPORT_SAMPLES):
        lines = _fresh("-X", "importtime", "-c", "import interfere.cli")[1].stderr
        parsed = [m.groups() for m in _IMPORT_LINE.finditer(lines)]
        own.append(sum(int(s) for s, _, name in parsed if name.split(".")[0] == "interfere"))
        checks.append(sum(int(c) for _, c, name in parsed if name == "interfere.checks"))
    return statistics.median(own) / 1e6, statistics.median(checks) / 1e6


def environment() -> dict:
    import mpmath

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    bare = statistics.median(_fresh("-c", "pass")[0] for _ in range(5))
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "mpmath": mpmath.__version__,
        "bare_interpreter_ms": round(bare * 1000, 3),
    }


def run_rounds(workload, seconds, in_process=False):
    """Whole rounds until `seconds` have passed (and the workload has the
    samples it needs); at least one.  Returns the rounds and the yardstick
    timed before the first round and after each, for YARDSTICK_SHARE of the
    round's time."""
    enough = getattr(workload, "enough", lambda rounds: True)
    rounds, sticks = [], [yardstick(0.2)]
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds or not enough(rounds):
        rounds.append(workload.run_round(in_process=in_process))
        sticks.append(yardstick(YARDSTICK_SHARE * rounds[-1].run_s))
    return rounds, sticks


def scaled_round_seconds(rounds, sticks) -> float:
    """Mean round time, each round scaled by the yardstick around it."""
    return NOMINAL_S * statistics.fmean(
        r.run_s / ((before + after) / 2) for r, before, after in zip(rounds, sticks, sticks[1:])
    )


def layer_values(names, tracer, rounds):
    """Per-layer figures named in BENCHMARK.json, per traced round."""
    from spans import MODULES

    values = {}
    for name in names:
        key, _, figure = name.rpartition(".")
        if name == "profiles.validations_per_point":
            points = tracer.profile_points
            values[name] = tracer.profile_validations / points if points else 0.0
        elif name == "padic.prime_checks_per_value":
            made = tracer.calls("padic.PadicRational.__post_init__")
            values[name] = tracer.calls("padic.is_prime") / made if made else 0.0
        elif key in MODULES and figure in ("calls", "self_s"):
            calls, own = tracer.module_totals(key)
            values[name] = (calls if figure == "calls" else own) / rounds
        elif key in tracer.stats and figure in ("calls", "self_s", "total_s"):
            values[name] = getattr(tracer, figure)(key) / rounds
    return values


def run_workload(name, args, spec) -> dict:
    from spans import Tracer
    from workloads import WORKLOADS

    setup_wall, setup_sticks = setup_seconds()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = WORKLOADS[name](args.seed, workdir)
        # the inputs and oracle values stay alive for the whole run; freezing
        # them keeps the collector from rescanning them during the rounds
        gc.collect()
        gc.freeze()
        if not args.trace:
            rounds, sticks = run_rounds(workload, args.seconds)
            reported = rounds
            run_wall = statistics.fmean(r.run_s for r in rounds)
            values = {
                "setup_s": setup_wall * NOMINAL_S / statistics.fmean(setup_sticks),
                "run_s": scaled_round_seconds(rounds, sticks),
            }
            print(
                f"# {name}: as measured, run_s {run_wall:.6g} s, setup_s {setup_wall:.6g} s; "
                f"yardstick {statistics.fmean(sticks):.6g} s (nominal {NOMINAL_S} s)"
            )
            section = spec["end_to_end"]
        else:
            # the cli workload calls cli.main in process here, so that its
            # spans are visible; the other workloads always run in process
            reported, _ = run_rounds(workload, args.seconds / 2, in_process=True)
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = run_rounds(workload, args.seconds / 2, in_process=True)
            finally:
                tracer.uninstall()
            rounds = reported + traced
            section = spec["per_layer"]
            values = layer_values([m["name"] for m in section], tracer, len(traced))
            values["cli.import_s"], values["cli.import.checks_s"] = import_seconds()
            values["trace.overhead_s"] = statistics.median(
                r.run_s for r in traced
            ) - statistics.median(r.run_s for r in reported)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    for text in problems[:20]:
        print(f"{name}: {text}", file=sys.stderr)
    print(f"# {name}: seed {args.seed}, {len(rounds)} rounds")
    for metric, value, unit in workload.report(reported):
        print(f"# {name}: {metric} {value:.6g} {unit}")
    phases = list(reported[0].phases)
    if len(phases) > 1:
        shares = (
            f"{phase} {statistics.median(r.phases[phase][0] / r.run_s for r in reported):.3f}"
            for phase in phases
        )
        print(f"# {name}: phase shares of a round (medians) " + ", ".join(shares))
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: no figure for {', '.join(missing)}")
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section
        },
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("float-batch", "exact-batch", "check-suite", "cli", "all"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "interfere" / "__init__.py").is_file():
        print(f"perfbench: no interfere package under {SRC}", file=sys.stderr)
        return 2
    # the package is not installed: this process and every child it starts
    # import it from the source tree
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import interfere.cli  # noqa: F401  (fails fast on a broken tree)

    print("# env " + json.dumps(environment(), sort_keys=True))
    names = ("float-batch", "exact-batch", "check-suite", "cli") if args.workload == "all" else (args.workload,)
    for name in names:
        print(json.dumps(run_workload(name, args, spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
