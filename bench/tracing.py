"""Spans around calls into the package, recorded from outside it.

A span is a name, a start, an end and the index of the enclosing span (-1
at the top).  Spans are kept in memory; ``Tracer.dump`` writes them out when
the run ends.  Wrapping replaces an attribute of a package module or class
with a timing shim, so the package source stays as it is.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.counts = {}  # name -> {counter: total}
        self._stack = []

    def call(self, name, fn, args, kwargs, on_result=None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()
        if on_result is not None:
            counters = self.counts.setdefault(name, {})
            for key, value in on_result(result).items():
                counters[key] = counters.get(key, 0) + value
        return result

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own."""
        return self.call(name, fn, args, kwargs)

    def durations(self, name):
        """Total and self time of the spans called ``name`` that no other
        span of that name encloses, and how many there are."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        total = own = 0.0
        count = 0
        for i, span in enumerate(self.spans):
            if span[0] == name and not self._inside(i, {name}):
                total += span[2] - span[1]
                own += span[2] - span[1] - child_time[i]
                count += 1
        return total, own, count

    def outermost_total(self, names):
        """Time covered by spans in ``names`` not enclosed by another of them."""
        return sum(
            span[2] - span[1]
            for i, span in enumerate(self.spans)
            if span[0] in names and not self._inside(i, names)
        )

    def _inside(self, index, names):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path, **header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": self.spans}, fh)


def _resolve(dotted):
    """(owner, attribute) for a dotted path that starts with a module name
    importable from the package, e.g. ``sgprecond.operator.spla.splu``."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise ImportError(dotted)


def wrap(tracer, dotted, name, on_result=None, aliases=True):
    """Time every call of the object at ``dotted`` as a span ``name``.

    With ``aliases`` the same function is also rebound wherever a module of
    the ``sgprecond`` package imported it by name.  Returns False, and wraps
    nothing, when the path no longer resolves.
    """
    try:
        owner, attr = _resolve(dotted)
        static = inspect.getattr_static(owner, attr)
    except (ImportError, AttributeError):
        return False
    kind = type(static) if isinstance(static, (classmethod, staticmethod)) else None
    original = static.__func__ if kind else static

    @functools.wraps(original)
    def timed(*args, **kwargs):
        return tracer.call(name, original, args, kwargs, on_result)

    setattr(owner, attr, kind(timed) if kind else timed)
    if aliases and inspect.ismodule(owner):
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("sgprecond."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, timed)
    return True
