"""Spans around calls into systola, recorded from the benchmark's side.

A :class:`Tracer` replaces chosen functions with timing wrappers for the
duration of a ``with`` block and puts every original back when the block
ends, also when it ends with an exception.  A function that other systola
modules bound by ``from .x import f`` is replaced in each of those
modules too, so calls made inside the library are seen.  Spans are kept
in memory as ``[name, parent, start, end, count]`` records and reduced
to per-name totals by :meth:`Tracer.summary`.

The runs are single-threaded, so spans nest strictly and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager, nullcontext
from time import perf_counter

PACKAGE = "systola"


class NullTracer:
    """Stands in for a :class:`Tracer` in untraced passes."""

    @staticmethod
    def span(name):
        return nullcontext()


class TraceTarget:
    """One function to wrap.

    ``module`` is an importable module name and ``attr`` an attribute of
    it; ``Class.method`` wraps a method on its class.  ``count`` maps the
    call's ``(args, kwargs)`` to the amount added to the span's counter,
    reported as ``<span>.<count_name>``.
    """

    __slots__ = ("span", "module", "attr", "count", "count_name")

    def __init__(self, span, module, attr, count=None, count_name=None):
        self.span = span
        self.module = module
        self.attr = attr
        self.count = count
        self.count_name = count_name


class Tracer:
    """Context manager that wraps :class:`TraceTarget` functions.

    Missing modules or attributes raise ``LookupError`` before anything
    is replaced.
    """

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans = []
        self._stack = []
        self._patched = []

    # -- installation ----------------------------------------------------

    def _resolve(self, target):
        mod = sys.modules.get(target.module)
        if mod is None:
            raise LookupError(f"trace target module {target.module!r} is not imported")
        owner = mod
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                raise LookupError(f"trace target {target.module}.{target.attr} not found")
        if name not in vars(owner):
            raise LookupError(f"trace target {target.module}.{target.attr} not found")
        return owner, name, vars(owner)[name], bool(path)

    def _bindings(self, owner, name, original, on_class):
        """Every (namespace, name) pair in the package bound to ``original``."""
        if on_class:
            return [(owner, name)]
        out = [(owner, name)]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod is owner:
                continue
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, val in vars(mod).items():
                if val is original:
                    out.append((mod, attr))
        return out

    def __enter__(self):
        resolved = [(t, *self._resolve(t)) for t in self.targets]
        try:
            for target, owner, name, original, on_class in resolved:
                wrapper = self._wrap(target, original)
                for ns, attr in self._bindings(owner, name, original, on_class):
                    self._patched.append((ns, attr, vars(ns)[attr]))
                    setattr(ns, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)

    def _wrap(self, target, fn):
        spans, stack, name, count = self.spans, self._stack, target.span, target.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   count(args, kwargs) if count else 0]
            stack.append(len(spans))
            spans.append(rec)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2], rec[3] = t0, perf_counter()
                stack.pop()

        return traced

    # -- spans from the benchmark itself ---------------------------------

    @contextmanager
    def span(self, name):
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def counts_under(self, parent, child) -> list:
        """For each ``parent`` span in order, the ``child`` spans below it."""
        slot = {}
        for i, rec in enumerate(self.spans):
            if rec[0] == parent:
                slot[i] = len(slot)
        out = [0] * len(slot)
        for rec in self.spans:
            if rec[0] != child:
                continue
            p = rec[1]
            while p >= 0 and p not in slot:
                p = self.spans[p][1]
            if p >= 0:
                out[slot[p]] += 1
        return out

    # -- reduction -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: ``calls``, inclusive ``s``, ``self_s`` and counters."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[3] - rec[2]
        count_names = {t.span: t.count_name for t in self.targets if t.count_name}
        out = {}
        for i, (name, _, t0, t1, n) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            if name in count_names:
                key = count_names[name]
                agg[key] = agg.get(key, 0) + n
        return out
