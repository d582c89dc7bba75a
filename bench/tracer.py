"""A tracing shim for the package's public functions, installed from
outside so that `src/` stays untouched.

`Tracer.install` replaces every binding of each public function of the
traced modules with a wrapper that records a span: name, start, end,
parent span and op id. That covers the names other modules import
(`from .arith import factorize` in `solutions`, `pow as element_pow`, the
re-exports in the package `__init__`), which patching only the defining
module would miss. `uninstall` puts every original object back.

Spans live in flat arrays, which cost 40 bytes each, until `summary`
folds them into per-function call counts and self times.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from types import ModuleType
from typing import Callable

TRACED_MODULES = ("arith", "quadform", "gdgroup", "solutions", "oracle", "cli")
CACHED = ("solutions.check_applicability", "solutions.zeta", "quadform.enumerate_class_group")

Hook = Callable[[dict, tuple, dict, object], None]


def package_modules() -> list[ModuleType]:
    """Every loaded module of the package, the package itself included."""
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "pelltriples" or name.startswith("pelltriples."))
    ]


def public_functions() -> dict[int, tuple[str, object]]:
    """id(function) -> ("module.function", function) for every public
    function defined in a traced module."""
    found = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"pelltriples.{short}"]
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == module.__name__
            ):
                found[id(value)] = (f"{short}.{attr}", value)
    return found


class Tracer:
    """Records a span for each call of a public package function.

    `hooks` maps a function's traced name to a callable
    hook(counters, args, kwargs, result), run after a call returns, that
    adds to `counters` what only the arguments or result show.
    """

    def __init__(self, hooks: dict[str, Hook] | None = None):
        self.hooks = hooks or {}
        self.counters: dict[str, float] = {}
        self.op_id = -1
        self.names: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patched: list[tuple[ModuleType, str, object]] = []
        self._cache_base: dict[str, tuple[int, int]] = {}

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = self.hooks.get(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        functions = public_functions()
        wrappers = {}
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                entry = functions.get(id(value))
                if entry is None or entry[1] is not value:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(entry[0], value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        for name in CACHED:
            info = _cache_info(name)
            if info is not None:
                self._cache_base[name] = (info.hits, info.misses)
        return self

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict:
        """{"calls": {name: n}, "self_ns": {name: ns}, "caches": {name:
        [hits, misses, size]}, "counters": {...}, "spans": n}; the caches
        count only what happened since install."""
        n = len(self.start)
        child_ns = [0] * n
        calls = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(self.names, 0)
        for i in range(n - 1, -1, -1):
            duration = self.end[i] - self.start[i]
            name = self.names[self.name[i]]
            calls[name] += 1
            self_ns[name] += duration - child_ns[i]
            if self.parent[i] >= 0:
                child_ns[self.parent[i]] += duration
        caches = {}
        for name in CACHED:
            info = _cache_info(name)
            if info is not None:
                hits0, misses0 = self._cache_base.get(name, (0, 0))
                caches[name] = [info.hits - hits0, info.misses - misses0, info.currsize]
        return {
            "calls": calls,
            "self_ns": self_ns,
            "caches": caches,
            "counters": dict(self.counters),
            "spans": n,
        }

    def spans(self):
        """Each span as (name, start_ns, end_ns, parent index, op id)."""
        for i in range(len(self.start)):
            yield self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i]


def empty_summary() -> dict:
    return {"calls": {}, "self_ns": {}, "caches": {}, "counters": {}, "spans": 0, "import_ns": []}


def merge_summary(into: dict, part: dict) -> None:
    """Add one process's summary to a running total: counts and times add
    up, cache sizes take the largest."""
    for key in ("calls", "self_ns", "counters"):
        for name, value in part[key].items():
            into[key][name] = into[key].get(name, 0) + value
    for name, (hits, misses, size) in part["caches"].items():
        h, m, s = into["caches"].get(name, (0, 0, 0))
        into["caches"][name] = [h + hits, m + misses, max(s, size)]
    into["spans"] += part["spans"]
    into["import_ns"].append(part["import_ns"])


def _cache_info(name: str):
    short, attr = name.split(".")
    fn = getattr(sys.modules[f"pelltriples.{short}"], attr, None)
    fn = getattr(fn, "__wrapped__", fn) if not hasattr(fn, "cache_info") else fn
    info = getattr(fn, "cache_info", None)
    return info() if info is not None else None
