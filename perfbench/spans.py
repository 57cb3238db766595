"""Spans around the public functions of each ``interfere`` module.

The tracer wraps, from outside the program, every public function of the
measured modules and the public and arithmetic methods of their classes.  A
wrapper replaces the original wherever a module of the package holds it, so
calls through ``from .engine import interfere_trig`` are seen too.  Each span
adds its duration to its parent, which gives self time (a span's duration
minus the time its child spans cover) without keeping the spans themselves.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import sys
import time

PACKAGE = "interfere"

MODULES = (
    "numeric",
    "hyperbolic",
    "padic",
    "padic_rule",
    "engine",
    "context",
    "profiles",
    "checks",
    "cli",
)

# Dunder methods that carry the algebra; the rest (__eq__, __repr__, ...) are
# housekeeping and stay unwrapped.
_METHODS = {
    "__post_init__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
}

_PROFILE_SCOPES = {
    "profiles.profile_trig",
    "profiles.profile_hyp",
    "profiles.profile_piecewise",
    "profiles.profile_padic",
}
_VALIDATIONS = {"numeric.require_probability", "numeric.as_probability"}


def _targets(module, short):
    """(key, owner, attribute, function) for each function to wrap."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not name.startswith("_"):
            yield f"{short}.{name}", module, name, obj
        elif (
            inspect.isclass(obj)
            and not name.startswith("_")
            and not issubclass(obj, (enum.Enum, BaseException))
        ):
            for attr, fn in vars(obj).items():
                if inspect.isfunction(fn) and (not attr.startswith("_") or attr in _METHODS):
                    yield f"{short}.{name}.{attr}", obj, attr, fn


class Tracer:
    """Per-function call counts, total and self time, while installed."""

    def __init__(self):
        self.stats = {}  # key -> [calls, total_s, self_s]
        self.profile_validations = 0
        self.profile_points = 0
        self._depth_in_profile = 0
        self._stack = [0.0]
        self._undo = []

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
                stack[-1] += elapsed

        if key in _PROFILE_SCOPES:
            span = traced

            def traced(*args, **kwargs):
                self._depth_in_profile += 1
                try:
                    result = span(*args, **kwargs)
                finally:
                    self._depth_in_profile -= 1
                self.profile_points += len(result.values)
                return result

        elif key in _VALIDATIONS:
            span = traced

            def traced(*args, **kwargs):
                if self._depth_in_profile:
                    self.profile_validations += 1
                return span(*args, **kwargs)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap the public functions; every module of the package that holds
        an original gets the wrapper in its place.  A module the program has
        not imported yet is imported here, so that a lazy import inside the
        program still finds the wrapped functions."""
        replacement = {}
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for key, owner, attr, fn in _targets(module, short):
                wrapper = self._wrap(key, fn)
                replacement[id(fn)] = (fn, wrapper)
                self._patch(owner, attr, fn, wrapper)
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = replacement.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, value, entry[1])

    def _patch(self, owner, attr, original, wrapper):
        if vars(owner).get(attr) is original:
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- figures -------------------------------------------------------------

    def calls(self, key) -> int:
        return self.stats.get(key, (0, 0.0, 0.0))[0]

    def total_s(self, key) -> float:
        return self.stats.get(key, (0, 0.0, 0.0))[1]

    def self_s(self, key) -> float:
        return self.stats.get(key, (0, 0.0, 0.0))[2]

    def module_totals(self, short):
        """(calls, self_s) summed over every span of one module."""
        prefix = short + "."
        calls = self_s = 0
        for key, (count, _, own) in self.stats.items():
            if key.startswith(prefix):
                calls += count
                self_s += own
        return calls, self_s
