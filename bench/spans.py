"""Spans around the public functions of each ybx layer, from outside ybx.

`traced(tracer)` replaces every target function by a wrapper, in its own
module and in every ybx module that bound it with `from .x import y`,
and puts the originals back on exit.  Each call records one span (name,
start, end, parent); self time is a span's duration minus its children's.
"""

import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from importlib import import_module
from time import perf_counter_ns

# layer.function, or layer.Class.method
TARGETS = (
    "cli.main", "cli.parse_solution",
    "quadset.check_properties", "quadset.canonical_form",
    "quadset.enumerate_solutions",
    "orbits.r_orbits", "orbits.canonical_relations",
    "ncgb.complete", "ncgb.normal_form", "ncgb.normal_words",
    "ncgb.hilbert_series",
    "growth.gk_dimension", "growth.global_dimension",
    "growth.tournament_structure",
    "braidmon.veronese_solution", "braidmon.prolongation_sequence",
    "braidmon.rho",
    "verseg.segre_morphism_check",
    "linr.RationalMatrix.mul", "linr.RationalMatrix.rref",
    "linr.nichols_quadratic_check", "linr.check_braid",
    "linr.check_matrix_ybe", "linr.braided_matrix_relations",
    "linr.flip_matrix",
    "diffcalc.check_rho_map", "diffcalc.connectedness_check",
)

# computed sizes, from a call's arguments and result
SIZES = {
    "ncgb.normal_words": ("words_listed", lambda args, out: len(out)),
    "linr.RationalMatrix.mul": (
        "dense_madds", lambda args, out: args[0].rows * args[0].cols * args[1].cols),
    "linr.RationalMatrix.rref": (
        "cells", lambda args, out: args[0].rows * args[0].cols),
    "quadset.enumerate_solutions": ("found", lambda args, out: len(out)),
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent index]
        self.stack = []
        self.sizes = Counter()

    def wrap(self, name, fn):
        size = SIZES.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0, 0, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(idx)
            span[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                self.stack.pop()
            if size:
                self.sizes[f"{name}.{size[0]}"] += size[1](args, out)
            return out
        return traced

    def summary(self):
        """calls and self seconds per target, plus the computed sizes."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_ns = defaultdict(int)
        leaves = 0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child[idx]
            if (name == "quadset.check_properties" and parent >= 0
                    and self.spans[parent][0] == "quadset.enumerate_solutions"):
                leaves += 1
        out = {f"{name}.{size}": self.sizes[f"{name}.{size}"]
               for name, (size, _) in SIZES.items()}
        for name in TARGETS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        found = self.sizes["quadset.enumerate_solutions.found"]
        out["quadset.enumerate.found_per_leaf"] = found / leaves if leaves else 0.0
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def _resolve(target):
    layer, *attrs = target.split(".")
    owner = import_module(f"ybx.{layer}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1]


@contextmanager
def traced(tracer):
    modules = [m for name, m in list(sys.modules.items())
               if name == "ybx" or name.startswith("ybx.")]
    restore = []
    try:
        for target in TARGETS:
            owner, attr = _resolve(target)
            orig = getattr(owner, attr)
            wrapper = tracer.wrap(target, orig)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        restore.append((holder, key, orig))
                        setattr(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, orig in reversed(restore):
            setattr(holder, key, orig)
