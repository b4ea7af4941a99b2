"""In-memory span tracing by wrapping functions from outside the program.

A :class:`Tracer` replaces each target function with a wrapper under every
name its callers look it up by: every module attribute bound to the same
function object (``from .training import train`` makes
``softpu.experiment.train`` one such name), or a class attribute for a
method. The wrapper records a span (name, start, end, parent, op id,
error) and, through an optional counter hook, counts of work done. Spans
stay in a list until :meth:`Tracer.dump` writes them.

The program is single-threaded, so spans nest strictly and a span's
children never overlap: self time is the duration minus the sum of the
direct children's durations.
"""

import gzip
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``owner`` is a module name, or ``module:Class`` for a method. ``count``
    maps ``(args, kwargs, result)`` to a dict of counter increments.
    """

    span: str
    owner: str
    attr: str
    count: object = None


@dataclass
class OpStats:
    """Per-op aggregates of the spans recorded during one op."""

    wall_s: float = 0.0
    top_level_s: float = 0.0
    spans: int = 0
    total_s: dict = field(default_factory=lambda: defaultdict(float))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    errors: dict = field(default_factory=lambda: defaultdict(int))
    counters: dict = field(default_factory=lambda: defaultdict(float))


def _bindings(target: Target, package: str):
    """Every (namespace, attribute) under which callers find the function."""
    if ":" in target.owner:
        module_name, class_name = target.owner.split(":")
        cls = getattr(sys.modules[module_name], class_name)
        return getattr(cls, target.attr), [(cls, target.attr)]
    original = getattr(sys.modules[target.owner], target.attr)
    found = []
    for name, module in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for attr, value in vars(module).items():
            if value is original:
                found.append((module, attr))
    return original, found


class Tracer:
    """Wraps targets on :meth:`install`, restores them on :meth:`uninstall`."""

    def __init__(self, targets, package: str):
        self.spans = []
        self.ops = {}
        self._stack = []
        self._op = None
        self._patches = []
        for target in targets:
            original, bindings = _bindings(target, package)
            if not bindings:
                raise LookupError(f"{target.owner}.{target.attr}: no binding to wrap")
            wrapper = self._wrap(target.span, original, target.count)
            self._patches.extend((ns, attr, original, wrapper) for ns, attr in bindings)

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op, failed, None)
            if count is not None:
                spans[idx] = spans[idx][:6] + (count(args, kwargs, result),)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def call(self, name, fn, *args):
        """Record a span around a call the benchmark itself makes."""
        return self._wrap(name, fn, None)(*args)

    def begin_op(self, op_id):
        self._op = op_id

    def end_op(self, wall_s, counters=None):
        self.ops[self._op] = (wall_s, dict(counters or {}))
        self._op = None

    def op_stats(self):
        """OpStats for every op that :meth:`end_op` closed, by op id."""
        stats = {}
        for op, (wall, counters) in self.ops.items():
            stats[op] = OpStats(wall_s=wall)
            stats[op].counters.update(counters)
        covered = defaultdict(float)
        for name, start, end, parent, op, failed, counts in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for idx, (name, start, end, parent, op, failed, counts) in enumerate(self.spans):
            st = stats.get(op)
            if st is None:
                continue
            dur = end - start
            st.spans += 1
            st.total_s[name] += dur
            st.self_s[name] += dur - covered[idx]
            st.calls[name] += 1
            st.errors[name] += int(failed)
            if parent < 0:
                st.top_level_s += dur
            for key, value in (counts or {}).items():
                st.counters[key] += value
        return stats

    def dump(self, path, meta: dict):
        """Write the spans as gzipped JSON: one [name, start, end, parent, op,
        error, counters] list per span, times in seconds."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "op",
                                                "error", "counters"],
                       "spans": self.spans}, fh)
