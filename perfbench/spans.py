"""Outside-in span recorder.

The recorder replaces a function at every module binding that holds it
(``fields.eval_field`` is also bound in ``quadrature``, ``mollifiers`` and
``seminorms``) with a wrapper that records one span per call: name, label,
start, end, parent and counts.  Parents are tracked per thread, so rows that
a thread pool runs concurrently nest under the span that submitted them.
Spans stay in memory; callers aggregate them when the run ends.

Standard library only, so importing this module does not change the import
time the benchmark measures.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class BindingError(RuntimeError):
    """A function the recorder was asked to wrap has no binding."""


class Span:
    __slots__ = ("id", "parent", "name", "label", "start", "end", "counts")

    def __init__(self, id, parent, name, label=None, start=0.0, end=0.0,
                 counts=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.label = label
        self.start = start
        self.end = end
        self.counts = counts

    @property
    def key(self) -> str:
        return self.name if self.label is None else f"{self.name}.{self.label}"

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from wrapped functions and explicit ``span`` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: int | None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sp = Span(next(self._ids), parent, name)
        stack.append(sp.id)
        sp.start = time.perf_counter()
        return sp

    def _close(self, sp: Span):
        sp.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(sp)

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record a span around the block.  ``parent`` overrides the
        thread's current span, for work handed to another thread."""
        sp = self._open(name, parent)
        try:
            yield sp
        finally:
            self._close(sp)

    def wrap(self, name: str, fn, describe=None):
        """Wrapper recording a span per call of ``fn``.  ``describe(args,
        result)`` returns (label, counts) for a call that returned; it runs
        after the span ends, so its cost counts in the parent span only."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = self._open(name, None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if describe is not None:
                sp.label, sp.counts = describe(args, result)
            return result
        return wrapper

    def install(self, package: str, targets: dict):
        """Wrap each target at every binding in the loaded modules of
        ``package``.  ``targets`` maps "module.function" to a factory that
        takes the original function and returns its wrapper."""
        originals = {}
        for qualname in targets:
            mod_name, func_name = qualname.rsplit(".", 1)
            try:
                home = importlib.import_module(f"{package}.{mod_name}")
            except ModuleNotFoundError:
                home = None
            originals[qualname] = getattr(home, func_name, None)
            if not callable(originals[qualname]):
                raise BindingError(f"{package}.{qualname} has no binding to wrap")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for qualname, factory in targets.items():
            original = originals[qualname]
            wrapper = factory(original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        """Restore every binding that ``install`` replaced."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval that the union of
    its children's intervals covers."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        clipped = [(max(c.start, sp.start), min(c.end, sp.end))
                   for c in children.get(sp.id, ())]
        covered = union_length((lo, hi) for lo, hi in clipped if hi > lo)
        out[sp.id] = sp.duration - covered
    return out


def aggregate(spans) -> dict:
    """Per span key ("name" or "name.label"): calls, summed duration ``s``,
    summed self time ``self_s`` and the sum of each recorded count.

    ``s`` sums busy time, so spans that ran on two threads at once count
    twice, and a layer that calls itself counts its inner calls again."""
    selfs = self_times(spans)
    out: dict = {}
    for sp in spans:
        row = out.setdefault(sp.key, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += sp.duration
        row["self_s"] += selfs[sp.id]
        for k, v in (sp.counts or {}).items():
            row[k] = row.get(k, 0) + v
    return out
