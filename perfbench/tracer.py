"""Span recorder that wraps the public functions of each `hmsurf` layer from
outside the package.

`install` replaces every public module-level function of a layer module with
a wrapper, wherever any `hmsurf` module holds a reference to it, so calls
made through `from .x import f` bindings are seen too.  Methods and private
functions are not wrapped: their time counts as self time of the public
function that called them (mpmath `iv` arithmetic inside `chern` is `chern`
self time).

Every wrapped call is counted.  A call opens a span when it crosses a layer
boundary (the innermost open span belongs to another layer, or none is open)
or when its function is in SPANNED; a call within the same layer is folded
into the caller's span.  A span's self time is its duration minus the
durations of its child spans, which nest because the worker runs one thread.
Spans are kept in memory as (id, function, start, end, parent id, op index)
and written out by `write_spans` when the session ends.
"""

import functools
import importlib
import inspect
import json
import time

# module -> layer; config is counted under cli, reference_data under chern.
LAYERS = {
    "hmsurf.ntheory": "ntheory",
    "hmsurf.forms": "forms",
    "hmsurf.field": "field",
    "hmsurf.zeta": "zeta",
    "hmsurf.elliptic": "elliptic",
    "hmsurf.chern": "chern",
    "hmsurf.reference_data": "chern",
    "hmsurf.numeric": "numeric",
    "hmsurf.trees": "trees",
    "hmsurf.cli": "cli",
    "hmsurf.config": "cli",
}

# Functions with per-function metrics: they always open their own span.
SPANNED = frozenset({
    "forms.h_narrow_indefinite",
    "forms.h_definite",
    "field.make_field",
    "field.split_prime",
    "elliptic.enumerate_elliptic_reps",
    "chern.c1sq_lower_bound",
    "chern.table_diff",
})

# Distinct-argument groups: group name -> predicate on "module.function".
DISTINCT = {
    "forms.h_definite": lambda name: name == "forms.h_definite",
    "field.make_field": lambda name: name == "field.make_field",
    "zeta": lambda name: name.startswith("zeta."),
    "elliptic.enum": lambda name: name == "elliptic.enumerate_elliptic_reps",
}


def _arg_key(value):
    """A hashable stand-in for an argument; a field stands for its D."""
    if type(value).__name__ == "FieldContext":
        return ("field", value.D)
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


class Recorder:
    def __init__(self):
        self.op = -1
        self.spans = []
        self.stack = []  # open spans: [id, layer, child seconds]
        self.next_id = 0
        self.stats = {}  # "module.function" -> [calls, self seconds, raised]
        self.keys = {group: set() for group in DISTINCT}
        self.key_calls = dict.fromkeys(DISTINCT, 0)

    def wrap(self, fn, name: str, layer: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        groups = [g for g, match in DISTINCT.items() if match(name)]
        spanned = name in SPANNED
        stack = self.stack
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            for group in groups:
                self.key_calls[group] += 1
                self.keys[group].add((name, tuple(map(_arg_key, args)),
                                      tuple(sorted((k, _arg_key(v)) for k, v in kwargs.items()))))
            if not spanned and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            frame = [self.next_id, layer, 0.0]
            self.next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                stats[1] += (t1 - t0) - frame[2]
                if parent is not None:
                    parent[2] += t1 - t0
                self.spans.append((frame[0], name, t0, t1,
                                   None if parent is None else parent[0], self.op))

        return wrapper

    def rollup(self) -> dict:
        """Per-function [calls, self seconds, raised] and per-group distinct
        argument counts, for run.py to sum over sessions."""
        return {
            "functions": self.stats,
            "distinct": {g: [len(self.keys[g]), self.key_calls[g]] for g in DISTINCT},
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def install(recorder: Recorder) -> int:
    """Wrap every public function of every layer; returns how many."""
    modules = {name: importlib.import_module(name) for name in LAYERS}
    modules["hmsurf"] = importlib.import_module("hmsurf")
    wrapped = {}
    for modname, layer in LAYERS.items():
        short = modname.split(".", 1)[1]
        for name, obj in vars(modules[modname]).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == modname):
                wrapped[id(obj)] = (obj, recorder.wrap(obj, f"{short}.{name}", layer))
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
    return len(wrapped)
