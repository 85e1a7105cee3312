"""Per-layer tracing of ``schurpow`` from outside the package.

:class:`Tracer` wraps the public functions and methods of every
``schurpow`` module (plus the two private metrics helpers that do the
enumeration and the MacWilliams transform) and restores the originals on
:meth:`Tracer.uninstall`.  A layer is the module a function is defined in.

Each wrapped call pushes a frame on one stack.  On return the frame's self
time (its duration minus the time of the wrapped calls inside it) goes to
its layer, and its duration is charged to the parent frame.  Calls outside
``fields`` are also kept as spans (name, start, end, parent, job id) and
written out by :meth:`Tracer.write_spans`.  ``fields`` is called far too
often for that, so it is kept as aggregated counters only; generator
functions (``message_blocks``, ``all_subspaces``) are timed per ``next``
and counted, not spanned.

Functions imported by name into another module (``from .codes import
message_blocks``) are wrapped once per importing module, so the counters
can tell the metrics layer's enumerations from everyone else's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from oracle import gaussian_binomial

LAYERS = (
    "fields", "linalg", "codes", "metrics", "bounds", "lattices",
    "concat", "necklace", "symtensor", "families", "fileio", "cli",
)
PRIVATE = {"metrics": ("_direct_distribution", "_macwilliams")}
ARITHMETIC = frozenset(("add", "sub", "neg", "mul", "inv", "div", "pow", "frobenius"))


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"schurpow.{name}") for name in LAYERS}
        self.modules["__init__"] = importlib.import_module("schurpow")
        self.stack = []  # frames: [start, child_time, span_id, layer]
        # spans as parallel arrays, so a long traced run stays small in memory
        self.span_name, self.span_parent, self.span_job = array("q"), array("q"), array("q")
        self.span_start, self.span_end = array("d"), array("d")
        self.names = {}  # span name -> index
        self.self_s = defaultdict(float)  # layer -> seconds
        self.func_self_s = defaultdict(float)  # function -> seconds
        self.func_total_s = defaultdict(float)  # function -> seconds, children included
        self.calls = Counter()  # function -> calls; "<layer>" -> entries from another layer
        self.count = Counter()  # named work counters
        self.top_s = 0.0  # summed duration of frames entered with an empty stack
        self.jobs = []  # job labels; a span's job is an index into this
        self.job = -1
        self.enumerations = 0  # enumerations started in the metrics layer
        self.enumerated = set()  # hashes of the codes they enumerated
        self._job_enumerated = set()
        self._job_repeats = False
        self.repeat_jobs = 0  # jobs that enumerated one code more than once
        self._code_stack = []
        self._patches = []
        self._hooks = {
            "linalg.rref": (self._on_rref, None),
            "metrics.dmin": (self._push_code, self._pop_code),
            "metrics._direct_distribution": (self._push_code, self._pop_code),
            "lattices.lambda_set": (None, self._on_lambda),
        }

    def begin_job(self, label: str):
        self.jobs.append(label)
        self.job = len(self.jobs) - 1
        self._job_enumerated = set()
        self._job_repeats = False

    # -- installing ---------------------------------------------------------

    def install(self):
        originals = {}
        for layer in LAYERS:
            mod = self.modules[layer]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and self._wanted(layer, attr):
                    originals[id(obj)] = (obj, layer, f"{layer}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(obj, layer)
        for caller, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    func, layer, name = originals[id(obj)]
                    self._patch(mod, attr, obj, self._wrap(func, layer, name, caller))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _wanted(layer, attr):
        return not attr.startswith("_") or attr in PRIVATE.get(layer, ())

    def _install_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, layer, name, layer))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, layer, name, layer)
            else:
                continue
            self._patch(cls, attr, raw, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, func, layer, name, caller):
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(func, layer, name, caller)
        before, after = self._hooks.get(name, (None, None))
        record = layer != "fields"
        arithmetic = not record and name.rsplit(".", 1)[-1] in ARITHMETIC
        name_index = self.names.setdefault(name, len(self.names))
        stack, clock = self.stack, time.perf_counter
        starts, ends = self.span_start, self.span_end

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1][3] != layer
            if before is not None:
                before(args, kwargs)
            if record:
                sid = len(starts)
                self.span_name.append(name_index)
                self.span_parent.append(stack[-1][2] if stack else -1)
                self.span_job.append(self.job)
                starts.append(0.0)
                ends.append(0.0)
            else:
                sid = stack[-1][2] if stack else -1
            frame = [0.0, 0.0, sid, layer]
            stack.append(frame)
            result = None
            frame[0] = start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._account(frame, start, end, layer, name, outer)
                if record:
                    starts[sid] = start
                    ends[sid] = end
                if after is not None:
                    after(args, kwargs, result)
            if arithmetic and outer:
                self.count["fields.elems"] += np.size(result)
            return result

        return wrapper

    def _wrap_generator(self, func, layer, name, caller):
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            self._on_generator(name, caller, args)
            while True:
                outer = not stack or stack[-1][3] != layer
                frame = [0.0, 0.0, stack[-1][2] if stack else -1, layer]
                stack.append(frame)
                frame[0] = start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    self._account(frame, start, end, layer, name, outer)
                self._on_item(name, caller, item)
                yield item

        return wrapper

    def _account(self, frame, start, end, layer, name, outer):
        duration = end - start
        own = duration - frame[1]
        self.self_s[layer] += own
        self.func_self_s[name] += own
        self.func_total_s[name] += duration
        self.calls[name] += 1
        if outer:
            self.calls[layer] += 1
        if self.stack:
            self.stack[-1][1] += duration
        else:
            self.top_s += duration

    # -- counters -------------------------------------------------------------

    def _on_rref(self, args, kwargs):
        rows, cols = np.shape(args[1])[:2] if np.ndim(args[1]) == 2 else (1, np.size(args[1]))
        self.count["linalg.rref.cells"] += rows * cols

    def _push_code(self, args, kwargs):
        self._code_stack.append(hash(args[0]))

    def _pop_code(self, args, kwargs, result):
        self._code_stack.pop()

    def _on_lambda(self, args, kwargs, result):
        if result is not None:
            self.count["lattices.lambda_rows"] += len(result)
            self.count["lattices.lambda_sets"] += 1

    def _on_generator(self, name, caller, args):
        if name == "codes.message_blocks" and caller == "metrics":
            q, k = args[0], args[1]
            self.count["metrics.enum_total"] += q**k
            key = self._code_stack[-1] if self._code_stack else None
            if key in self._job_enumerated and not self._job_repeats:
                self._job_repeats = True
                self.repeat_jobs += 1
            self._job_enumerated.add(key)
            self.enumerated.add(key)
            self.enumerations += 1
        elif name == "bounds.all_subspaces":
            F, n, k = args[0], args[1], args[2]
            self.count["bounds.subspace_total"] += gaussian_binomial(F.q, n, k)

    def _on_item(self, name, caller, item):
        if name == "codes.message_blocks":
            self.count["codes.message_blocks.words"] += len(item)
            if caller == "metrics":
                self.count["metrics.words"] += len(item)
        elif name == "bounds.all_subspaces":
            self.count["bounds.subspaces"] += 1

    # -- reporting ------------------------------------------------------------

    def metrics(self, rounds: int, jobs: int, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics per traced round of the workload's job mix."""

        def per(x):
            return x / rounds

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (per(self.self_s[layer]), "s")
            out[f"{layer}.share"] = (ratio(self.self_s[layer], traced_wall), "ratio")
        c, cnt, fs = self.calls, self.count, self.func_self_s
        out.update({
            "fields.calls": (per(c["fields"]), "count"),
            "fields.elems": (per(cnt["fields.elems"]), "count"),
            "fields.ns_per_elem": (ratio(self.self_s["fields"], cnt["fields.elems"]) * 1e9, "ns"),
            "linalg.rref.calls": (per(c["linalg.rref"]), "count"),
            "linalg.rref.cells": (per(cnt["linalg.rref.cells"]), "count"),
            "linalg.rref.self_s": (per(fs["linalg.rref"]), "s"),
            "linalg.rref.total_s": (per(self.func_total_s["linalg.rref"]), "s"),
            "linalg.matmul.calls": (per(c["linalg.matmul"]), "count"),
            "linalg.matmul.self_s": (per(fs["linalg.matmul"]), "s"),
            "linalg.matmul.total_s": (per(self.func_total_s["linalg.matmul"]), "s"),
            "codes.constructed": (per(c["codes.LinearCode.__init__"]), "count"),
            "codes.star.calls": (per(c["codes.LinearCode.star"]), "count"),
            "codes.message_blocks.words": (per(cnt["codes.message_blocks.words"]), "count"),
            "codes.message_blocks.self_s": (per(fs["codes.message_blocks"]), "s"),
            "metrics.calls": (per(c["metrics"]), "count"),
            "metrics.words": (per(cnt["metrics.words"]), "count"),
            "metrics.macwilliams.calls": (per(c["metrics._macwilliams"]), "count"),
            "metrics.enum_fraction": (ratio(cnt["metrics.words"], cnt["metrics.enum_total"]), "ratio"),
            "metrics.distinct_enum_ratio": (ratio(len(self.enumerated), self.enumerations), "ratio"),
            "metrics.repeat_enum_job_share": (ratio(self.repeat_jobs, jobs), "ratio"),
            "bounds.subspaces": (per(cnt["bounds.subspaces"]), "count"),
            "bounds.subspace_fraction": (ratio(cnt["bounds.subspaces"], cnt["bounds.subspace_total"]), "ratio"),
            "lattices.closure.self_s": (per(fs["lattices.closure_is_lattice"]), "s"),
            "lattices.lambda_size": (ratio(cnt["lattices.lambda_rows"], cnt["lattices.lambda_sets"]), "count"),
            "cli.calls": (per(c["cli.cli_main"]), "count"),
            "trace.overhead_ratio": (ratio(traced_wall, untraced_wall) - 1.0, "ratio"),
            "trace.attributed_share": (ratio(self.top_s, traced_wall), "ratio"),
            "trace.spans": (per(len(self.span_start)), "count"),
        })
        return out

    def top_functions(self, rounds: int, limit: int = 15) -> list:
        """The functions with the most self time, per traced round."""
        ranked = sorted(self.func_self_s.items(), key=lambda kv: -kv[1])[:limit]
        return [
            {"name": n, "self_s": s / rounds, "total_s": self.func_total_s[n] / rounds, "calls": self.calls[n] / rounds}
            for n, s in ranked
        ]

    def conservation_error(self) -> float:
        """|sum of layer self times - summed top-level durations|, in seconds."""
        return abs(sum(self.self_s.values()) - self.top_s)

    def write_spans(self, path):
        names = sorted(self.names, key=self.names.get)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "job"], "names": names, "jobs": self.jobs}, fh)
            fh.write("\n")
            for row in zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_job):
                fh.write(json.dumps(row) + "\n")
