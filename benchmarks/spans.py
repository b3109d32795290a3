"""In-memory span recorder that wraps library functions from the outside.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span (or ``None``), ``attrs`` an optional dict filled from the
wrapped call's arguments and result.  Hot functions whose every call would
cost more to span than to run are counted instead.  Wrappers are installed
at the attribute where the caller looks the function up, in memory, so the
library's source stays as it is; they record only while ``active`` is set.
"""

from __future__ import annotations

import collections
import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.active = False
        self._stack = []

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(index)
        return index

    def close(self, index, attrs=None):
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4] = attrs
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def span(self, module, attr, name, annotate=None):
        """Replace ``module.attr`` by a wrapper recording one span per call.

        ``name`` is a string or a function of the call's arguments;
        ``annotate(args, result)`` returns the span's attrs.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            index = self.open(name(*args) if callable(name) else name)
            attrs = None
            try:
                result = original(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(args, result)
                return result
            finally:
                self.close(index, attrs)

        setattr(module, attr, wrapper)

    def count(self, module, attr, name):
        """Replace ``module.attr`` by a wrapper that only counts calls."""
        original = getattr(module, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return original(*args, **kwargs)

        setattr(module, attr, wrapper)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans):
    """Per-span self time: duration minus the time covered by direct
    children (children of one span never overlap: the run is single-threaded
    and spans nest)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
