"""Run one ncmotives command with the package's public functions traced.

    python3 perfbench/tracer.py STATS.json <ncmotives arguments...>

Before calling `ncmotives.cli.main`, every public function defined in a
package module, plus the `Matrix` and `Complex` methods the benchmark
reports on, is replaced by a wrapper that counts calls and measures total
and self time (self time excludes time spent in other wrapped calls).  The
wrapper is bound under every name that held the original in any package
module, so aliases made by `from .x import y` and the re-exports of
`ncmotives/__init__` are traced too; imports made inside functions read the
module attribute at call time and get the wrapper as well.

`Matrix.__init__` is only counted, as entries built, and never timed: it
runs about half a million times in one operation.  The scalar, vector and
basis-index helpers in `LEAF_HELPERS` are not wrapped at all: they run up
to ten million times in one operation and do less work per call than the
wrapper, so their time stays with their callers.

The counters are written to STATS.json when the command returns, and the
process exits with the command's exit code.  Nothing in the package is
edited; this runs from outside it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from importlib import import_module
from pathlib import Path

from run import MAX_STATS, MODULES, TRACED_FUNCTIONS

PACKAGE = "ncmotives"
METHODS = {
    ("linalg", "Matrix"): ("rref", "__mul__", "kernel_basis", "left_kernel_basis"),
    ("complexes", "Complex"): ("homology",),
}
LEAF_HELPERS = {
    "linalg.norm_scalar", "linalg.as_fraction", "linalg.vec_is_zero",
    "linalg.vec_add", "linalg.vec_sub", "linalg.vec_scale", "linalg.vec_dot",
    "algebra.scalar_algebra", "algebra.split_pair_basis", "algebra.join_pair_basis",
    "algebra.split_pair_idempotent", "algebra.join_pair_idempotent",
}


def _resolution_length(result):
    pc = result[0]
    return 0 if pc.is_zero() else pc.hi - pc.lo


# How each size statistic is read from a wrapped function's return value.
SIZE_OF = {
    "built_dim_max": lambda algebra: algebra.dim,
    "length_max": _resolution_length,
    "out_dim_max": lambda pc: pc.total_dim(),
}


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "depth", "hits", "seen", "size_stat", "size_max")

    def __init__(self, track_hits: bool, size_stat: str | None):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0
        self.hits = 0
        # id -> object; holding the object keeps its id from being reused.
        self.seen = {} if track_hits else None
        self.size_stat = size_stat
        self.size_max = 0

    def as_json(self) -> dict:
        out = {"calls": self.calls, "self_s": self.self_s, "total_s": self.total_s}
        if self.seen is not None:
            out["hits"] = self.hits
        if self.size_stat:
            out[self.size_stat] = self.size_max
        return out


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        # Time spent in wrapped children of each active wrapped call.
        self.child_time = [0.0]
        self.cells = 0
        self.hit_tracked = {f for f, stats in TRACED_FUNCTIONS if "hit_ratio" in stats}
        self.sizes = {f: s for f, stats in TRACED_FUNCTIONS for s in stats if s in MAX_STATS}

    def wrap(self, key: str, fn):
        stat = self.stats[key] = Stat(key in self.hit_tracked, self.sizes.get(key))
        size_of = SIZE_OF.get(stat.size_stat)
        child_time = self.child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            stat.depth += 1
            child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stat.self_s += dt - child_time.pop()
                child_time[-1] += dt
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total_s += dt
            if stat.seen is not None:
                if id(result) in stat.seen:
                    stat.hits += 1
                else:
                    stat.seen[id(result)] = result
            if size_of is not None:
                try:
                    stat.size_max = max(stat.size_max, size_of(result))
                except (AttributeError, TypeError, IndexError):
                    pass
            return result

        return wrapper

    def install(self) -> None:
        replaced = {}  # id(original) -> (original, wrapper)
        for name in MODULES:
            try:
                mod = import_module(f"{PACKAGE}.{name}")
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                key = f"{name}.{obj.__qualname__}"
                if obj.__module__ != mod.__name__ or id(obj) in replaced or key in LEAF_HELPERS:
                    continue
                replaced[id(obj)] = (obj, self.wrap(key, obj))
        for (mod_name, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), cls_name, None)
            if not inspect.isclass(cls):
                continue
            for meth in methods:
                fn = cls.__dict__.get(meth)
                if inspect.isfunction(fn):
                    setattr(cls, meth, self.wrap(f"{mod_name}.{fn.__qualname__}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        self.count_matrix_cells()

    def count_matrix_cells(self) -> None:
        try:
            matrix = import_module(f"{PACKAGE}.linalg").Matrix
        except (ImportError, AttributeError):
            return
        original = matrix.__init__
        tracer = self

        def counting_init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            tracer.cells += getattr(self, "rows", 0) * getattr(self, "cols", 0)

        matrix.__init__ = counting_init

    def as_json(self) -> dict:
        return {
            "cells": self.cells,
            "functions": {k: st.as_json() for k, st in self.stats.items()},
        }


def main() -> int:
    stats_path = Path(sys.argv[1])
    cli_args = sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = import_module(f"{PACKAGE}.cli")
    sys.argv = ["ncmotives", *cli_args]
    try:
        code = cli.main()
    finally:
        stats_path.write_text(json.dumps(tracer.as_json()))
    return code


if __name__ == "__main__":
    sys.exit(main())
