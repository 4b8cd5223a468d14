"""Outside-in span recorder: times calls into a program's layers by patching.

A :class:`SpanRecorder` replaces chosen attributes (methods, classmethods,
module-level functions) with wrappers that record one span per call: the
layer name, start, end and the index of the enclosing span.  Nothing in the
program under test is edited; every patch is undone by :meth:`restore`, so
untraced runs execute the original code.

Self time is computed after the fact: a span's duration minus the
durations of its direct children (spans are strictly nested because the
program is single-threaded), summed per layer.  A call into a layer made
while that same layer's span is already innermost (``super()`` chains,
recursion) is not a new span, so it is neither double-counted nor split.

Spans are kept in compact typed arrays (about 24 bytes each) until
:meth:`SpanRecorder.take` folds them into per-layer totals.
"""
from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SpanRecorder", "LayerTotals"]

#: ``before(args) -> token`` runs when a span opens; ``after(token, args,
#: result, counts)`` runs when it closes and adds to the recorder's counts.
Before = Callable[[tuple], object]
After = Callable[[object, tuple, object, Counter], None]


class LayerTotals:
    """Per-layer self seconds and span counts, plus free-form counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Counter = Counter()
        self.maxima: Dict[str, int] = {}

    def add(self, other: "LayerTotals") -> None:
        for layer, seconds in other.self_s.items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds
        for layer, calls in other.calls.items():
            self.calls[layer] = self.calls.get(layer, 0) + calls
        self.counts.update(other.counts)
        for key, value in other.maxima.items():
            self.maxima[key] = max(self.maxima.get(key, value), value)

    def exact_counts(self) -> Dict[str, int]:
        """Every count that must repeat exactly for the same code and input."""
        out = {f"{layer}.calls": n for layer, n in self.calls.items()}
        out.update(self.counts)
        out.update(self.maxima)
        return dict(sorted(out.items()))

    def to_dict(self) -> Dict:
        return {
            "self_s": self.self_s,
            "calls": self.calls,
            "counts": dict(self.counts),
            "maxima": self.maxima,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "LayerTotals":
        totals = cls()
        totals.self_s = dict(data["self_s"])
        totals.calls = dict(data["calls"])
        totals.counts = Counter(data["counts"])
        totals.maxima = dict(data["maxima"])
        return totals


class SpanRecorder:
    """Wraps layer entry points and records nested spans in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._layer_names: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self._layer = array("H")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self._counts: Counter = Counter()
        self._maxima: Dict[str, int] = {}
        # (owner, attribute, owner had its own attribute, original raw value)
        self._patches: List[Tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *owner* is a class or a module: patch a function where callers look
        it up (a module that did ``from x import f`` holds its own ``f``).
        """
        had_own = attr in vars(owner)
        raw = vars(owner)[attr] if had_own else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self._wrapper(raw.__func__, layer, before, after))
        else:
            patched = self._wrapper(raw, layer, before, after)
        self._patches.append((owner, attr, had_own, raw))
        setattr(owner, attr, patched)

    def restore(self) -> None:
        """Undo every patch, most recent first."""
        while self._patches:
            owner, attr, had_own, raw = self._patches.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def note_max(self, key: str, value: int) -> None:
        """Track the largest *value* seen under *key* (e.g. a set size)."""
        if value > self._maxima.get(key, -1):
            self._maxima[key] = value

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self._layer_names)
            self._layer_names.append(layer)
        return self._layer_ids[layer]

    def _wrapper(self, func, layer: str, before, after):
        lid = self._layer_id(layer)
        clock = self._clock
        stack = self._stack
        layers, parents, starts, ends = self._layer, self._parent, self._start, self._end
        counts = self._counts

        def span(*args, **kwargs):
            if stack and layers[stack[-1]] == lid:
                return func(*args, **kwargs)
            index = len(starts)
            layers.append(lid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            token = before(args) if before is not None else None
            starts[index] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(token, args, result, counts)
            return result

        span.__wrapped__ = func
        span.__name__ = getattr(func, "__name__", "span")
        return span

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._start)

    def take(self) -> LayerTotals:
        """Fold the recorded spans into per-layer totals and forget them.

        Must be called between top-level calls, never while a span is open.
        """
        if self._stack:
            raise RuntimeError("cannot fold spans while a span is open")
        starts, ends, parents, layers = self._start, self._end, self._parent, self._layer
        duration = [e - s for s, e in zip(starts, ends)]
        covered = [0.0] * len(duration)
        for index, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += duration[index]
        totals = LayerTotals()
        for index, lid in enumerate(layers):
            name = self._layer_names[lid]
            totals.self_s[name] = totals.self_s.get(name, 0.0) + duration[index] - covered[index]
            totals.calls[name] = totals.calls.get(name, 0) + 1
        totals.counts = self._counts.copy()
        totals.maxima = dict(self._maxima)
        for arr in (starts, ends, parents, layers):
            del arr[:]
        self._counts.clear()
        self._maxima.clear()
        return totals
