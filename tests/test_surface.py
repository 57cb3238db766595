"""The public surface, pinned: the package's exported names, each CLI
command's arguments, the private names one module of the package takes
from another, the modules that form the rule's cross weight, and the
behaviour of the records, which share one slotted base.
Adding or removing any of them is a reviewed change here, and each CLI
option string is declared once in the parser.  The float lanes'
constants are pinned too: CPython 3.11 specializes float-with-float compares
and products, not float-with-int, so an int literal there costs speed."""

import argparse
import ast
import collections
import importlib
import inspect
import json
import pathlib
import pickle
from fractions import Fraction

import pytest

import interfere
from interfere import cli, context, engine, numeric, profiles
from interfere.checks import CheckResult
from interfere.context import ContextTransform
from interfere.engine import InterferenceRecord, fit_record
from interfere.errors import FrozenRecordError, _Record
from interfere.hyperbolic import HyperbolicNumber, PolarForm, polar
from interfere.padic import PadicBall, PadicExpansion, PadicRational
from interfere.padic_rule import (
    PadicAmplitudePair,
    PadicInterference,
    SlitSample,
    padic_interfere,
    padic_slit_profile,
)
from interfere.profiles import BrightnessProfile, profile_trig

PUBLIC_NAMES = [
    "BrightnessProfile",
    "ContextTransform",
    "DegenerateContextError",
    "FrozenRecordError",
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
    "checks: errors._Record",
    "cli: padic._require_prime",
    "cli: profiles._window_end",
    "cli: profiles._write_slit_table",
    "context: engine._amplitudes",
    "context: engine._at_phase",
    "context: engine._interfere",
    "context: engine._is_sign",
    "context: errors._Record",
    "engine: errors._Record",
    "engine: hyperbolic._float",
    "engine: numeric._exact_root",
    "hyperbolic: errors._Record",
    "padic: errors._Record",
    "padic_rule: errors._Record",
    "padic_rule: padic._power",
    "padic_rule: padic._require_prime",
    "padic_rule: padic._unchecked",
    "profiles: engine._is_sign",
    "profiles: engine._sweep",
    "profiles: errors._Record",
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


# options that two subcommands declare with different types, defaults or
# requiredness; every other option string is declared once, shared through a
# parent parser
REDECLARED_OPTIONS = ["--eps-max", "--max"]


def test_cli_options_are_declared_once():
    tree = ast.parse(inspect.getsource(cli._build_parser))
    declared = collections.Counter(
        arg.value
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr == "add_argument"
        for arg in call.args
        if isinstance(arg, ast.Constant) and str(arg.value).startswith("-")
    )
    assert sorted(option for option, count in declared.items() if count > 1) == REDECLARED_OPTIONS


def test_private_imports():
    assert _private_imports() == PRIVATE_IMPORTS


def test_weight_importers():
    importers = {found.split(":")[0] for found in _imports()
                 if found.endswith(": numeric.sqrt_keeping_exact")}
    assert sorted(importers) == WEIGHT_IMPORTERS


def test_no_module_imports_dataclasses():
    """The records are built on errors._Record, so no command pays for
    importing dataclasses, and with it inspect."""
    found = []
    for path in pathlib.Path(interfere.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [f"{path.stem}: {alias.name}" for alias in node.names
                          if alias.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found.append(f"{path.stem}: {node.module}")
    assert found == []


# the frozen records, each built by its public constructor, with that
# constructor's parameters and defaults
RECORDS = {
    "fit": (lambda: fit_record(0.2, 0.3, 0.45), InterferenceRecord, [
        ("p1", None), ("p2", None), ("p", None), ("lam", None), ("regime", None),
        ("phase", None), ("sign", None),
    ]),
    "transform": (
        lambda: ContextTransform((0.3, 0.7), ((0.4, 0.6), (0.25, 0.75)), (0.5, 1.5), (1, -1), "hyp"),
        ContextTransform,
        [("prior", None), ("cond", None), ("phases", None), ("signs", (1, 1)), ("mode", "trig")],
    ),
    "pair": (lambda: PadicAmplitudePair(3, 9, Fraction(2, 5), -4), PadicAmplitudePair, [
        ("p", None), ("alpha1", None), ("alpha2", None), ("epsilon", None),
    ]),
    "rule": (lambda: padic_interfere(PadicAmplitudePair(3, 2, 5, 1)), PadicInterference, [
        ("p", None), ("case", None), ("probability", None), ("p1", None), ("p2", None),
        ("lam", None), ("cross_factor", None),
    ]),
    "expansion": (lambda: PadicRational(3, Fraction(7, 9)).digits(5), PadicExpansion, [
        ("p", None), ("exponent", None), ("digits", None),
    ]),
    "polar": (lambda: polar(HyperbolicNumber(3.0, 1.0)), PolarForm, [
        ("sign", None), ("modulus", None), ("phase", None),
    ]),
    "ball": (lambda: PadicBall(3, Fraction(2, 9), -1, "open"), PadicBall, [
        ("p", None), ("center", None), ("radius_exponent", None), ("kind", "closed"),
    ]),
    "slit": (lambda: padic_slit_profile(3, 1, 8)[1], SlitSample, [
        ("epsilon", None), ("multiplicity", None), ("probability", None),
    ]),
}

# the mutable records, built the same way
MUTABLE_RECORDS = {
    "profile": (lambda: profile_trig(0.25, 0.25, (0.0, 1.0, 2.0)), BrightnessProfile, [
        ("kind", None), ("grid", None), ("values", None), ("metadata", None),
        ("theta_max", None), ("theta_min", None), ("warnings", ()),
    ]),
    "check": (lambda: CheckResult("a check", 3, 1, "a detail"), CheckResult, [
        ("name", None), ("cases", 0), ("violations", 0), ("detail", ""),
    ]),
}


def _assert_record_surface(record, cls, parameters):
    """The fields of record, in order, name cls's constructor parameters, and
    record is equal, in repr and _asdict(), to the record its constructor
    builds from them by position, by name, through _replace() and through
    pickle; a slotted record holds nothing else.  Returns the fields and
    those copies."""
    names = [name for name, _ in parameters]
    assert list(cls._fields) == names == list(cls.__match_args__)
    empty = inspect.Parameter.empty
    assert [(p.name, None if p.default is empty else p.default)
            for p in inspect.signature(cls).parameters.values()] == parameters
    values = {name: getattr(record, name) for name in names}
    assert record._asdict() == values and not hasattr(record, "__dict__")
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in values.items()) + ")"
    copies = (cls(*values.values()), cls(**values), record._replace(),
              pickle.loads(pickle.dumps(record)))
    for other in copies:
        assert type(other) is cls
        assert other == record and repr(other) == repr(record)
        assert other._asdict() == values
    return values, copies


@pytest.mark.parametrize("kind", RECORDS)
def test_records_keep_the_dataclass_surface(kind):
    """Each frozen record keeps what its frozen dataclass gave, in the
    base's spelling: it is built and compared as _assert_record_surface
    says, hashes as the tuple of its fields, and refuses assignment and
    deletion."""
    build, cls, parameters = RECORDS[kind]
    record = build()
    values, copies = _assert_record_surface(record, cls, parameters)
    assert all(hash(other) == hash(record) == hash(tuple(values.values())) for other in copies)
    for name in values:
        with pytest.raises(FrozenRecordError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, values[name])
        with pytest.raises(FrozenRecordError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(FrozenRecordError):
        record.not_a_field = 1
    assert record._asdict() == values


@pytest.mark.parametrize("kind", MUTABLE_RECORDS)
def test_mutable_records_keep_their_surface(kind):
    """Each mutable record is built and compared as _assert_record_surface
    says, is unhashable, and takes assignment to its fields only."""
    build, cls, parameters = MUTABLE_RECORDS[kind]
    record = build()
    values, _ = _assert_record_surface(record, cls, parameters)
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    first = parameters[0][0]
    setattr(record, first, "changed")
    assert getattr(record, first) == "changed" and record != cls(**values)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_every_record_is_pinned():
    """The package's records are the ones pinned above and the two numbers,
    whose fields are read back from private slots."""
    records = {cls for cls in _Record.__subclasses__() if not cls.__name__.startswith("_")}
    pinned = {cls for _, cls, _ in (*RECORDS.values(), *MUTABLE_RECORDS.values())}
    assert records == pinned | {HyperbolicNumber, PadicRational}
    assert HyperbolicNumber._fields == ("x", "y") and PadicRational._fields == ("p", "value")


def test_replace_checks_a_transform_again():
    """_replace() builds through the constructor, as dataclasses.replace did,
    so a transform, a pair, a ball or a p-adic value is checked again."""
    t = ContextTransform((0.3, 0.7), ((0.4, 0.6), (0.25, 0.75)), (0.5, 1.5), (1, -1), "hyp")
    assert t.with_mode("trig") == t._replace(mode="trig")
    assert t.with_mode("trig").mode == "trig"
    for changes in ({"mode": "x"}, {"prior": (0.3, 0.8)}, {"signs": (1, 2)}):
        with pytest.raises(interfere.ValidationError):
            t._replace(**changes)
    assert t._replace(prior=[0.3, 0.7]).prior == (0.3, 0.7)
    with pytest.raises(TypeError):
        t._replace(not_a_field=1)
    pair = PadicAmplitudePair(3, 9, Fraction(2, 5), -4)
    assert pair._replace(alpha1=2).alpha1 == PadicRational(3, 2)
    with pytest.raises(interfere.DegenerateContextError):
        pair._replace(alpha2=0)
    ball = PadicBall(3, Fraction(2, 9), -1)
    assert ball._replace(center=1).center == PadicRational(3, 1)
    with pytest.raises(interfere.ValidationError, match="kind must be one of"):
        ball._replace(kind="cube")
    with pytest.raises(interfere.PrimeMismatchError):
        ball._replace(center=PadicRational(5, 1))
    assert PadicRational(3, 7)._replace(value=Fraction(1, 3)) == PadicRational(3, Fraction(1, 3))
    with pytest.raises(interfere.ValidationError, match="refusing float"):
        PadicRational(3, 7)._replace(value=0.5)
    assert HyperbolicNumber(1, 2)._replace(y=0.5) == HyperbolicNumber(1, 0.5)


def _traced_names():
    """The functions that per-layer figures of BENCHMARK.json are named after,
    <module>.<qualname>.<calls|self_s|total_s>, each once."""
    spec = json.loads((pathlib.Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    split = (figure["name"].rpartition(".") for figure in spec["per_layer"])
    return list(dict.fromkeys(
        name for name, _, kind in split if "." in name and kind in ("calls", "self_s", "total_s")))


@pytest.mark.parametrize("name", _traced_names())
def test_traced_names_resolve(name):
    """Each per-layer figure names a function defined in its module, held in
    the module's or its class's own namespace: the traced benchmark finds no
    figure for a traced function that a refactor renamed, removed, imported
    from elsewhere or moved to a base class."""
    module, *qualname = name.split(".")
    owner = importlib.import_module(f"interfere.{module}")
    for part in qualname:
        assert part in vars(owner), name
        owner = vars(owner)[part]
    assert inspect.isfunction(owner) and owner.__module__ == f"interfere.{module}"


def _float_lane(func):
    """The one `if` block of func that tests for `float`, without its `else`,
    which is the validating path."""
    tree = ast.parse(inspect.getsource(func)).body[0]
    [lane] = [node for node in tree.body
              if isinstance(node, ast.If) and "float" in ast.unparse(node.test)]
    return ast.If(test=lane.test, body=lane.body, orelse=[])


def _stray_int_literals(node):
    """The int literals under node, except those in a comparison with `sign`
    or in a value assigned to `sign`."""
    allowed = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Compare):
            operands = [sub.left, *sub.comparators]
            if any(isinstance(op, ast.Name) and op.id == "sign" for op in operands):
                allowed.update(id(part) for op in operands for part in ast.walk(op))
        elif isinstance(sub, ast.Assign) and [ast.unparse(t) for t in sub.targets] == ["sign"]:
            allowed.update(id(part) for part in ast.walk(sub.value))
    return [ast.unparse(sub) for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and type(sub.value) is int and id(sub) not in allowed]


@pytest.mark.parametrize("lane", [
    lambda: _float_lane(engine.lambda_of),
    lambda: _float_lane(engine._sweep),
    lambda: _float_lane(engine._interfere),
    lambda: _float_lane(engine._amplitudes),
    lambda: _float_lane(engine.fit_record),
    lambda: _float_lane(context._totals),
    lambda: _float_lane(profiles.theta_bounds),
    lambda: ast.parse(inspect.getsource(numeric.phase_cos)),
], ids=["lambda_of", "_sweep", "_interfere", "_amplitudes", "fit_record", "_totals",
        "theta_bounds", "phase_cos"])
def test_float_lanes_use_float_literals(lane):
    """Every constant a float lane compares or multiplies a float with is a
    float literal; only the int sign is compared with or set to ints."""
    assert _stray_int_literals(lane()) == []
