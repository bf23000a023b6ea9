"""Spans around calls into the package, recorded from outside it.

A :class:`Tracer` replaces chosen module or class attributes of the package
with wrappers that record one span per call (name, start, end, parent) and
optional counts taken at the same boundary. Nothing inside the package is
edited; :meth:`Tracer.restore` puts every original attribute back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Callable

# (name, start, end, parent index or -1); end is None while the span is open
Span = list

CountFn = Callable[[Counter, tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def wrap(self, owner, attr: str, name: str, count: CountFn | None = None) -> None:
        """Route calls of ``owner.attr`` through a span named ``name``.

        ``count(counts, args, kwargs, outcome)`` runs after each call, with
        the return value or the exception the call raised.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                self.close(idx)
                if count is not None:
                    count(self.counts, args, kwargs, exc)
                raise
            self.close(idx)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset while spans are open")
        self.spans = []
        self.counts = Counter()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name.

        A span nested inside another span of the same name adds nothing to
        its name's inclusive total, so recursion is not counted twice. Self
        time is the span's duration minus the durations of its direct
        children; children of one span never overlap, since calls nest.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = {}
        self_time: dict[str, float] = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            self_time[name] = self_time.get(name, 0.0) + dur - child_time[idx]
            if not self._has_ancestor_named(idx, name):
                inclusive[name] = inclusive.get(name, 0.0) + dur
        return inclusive, self_time

    def _has_ancestor_named(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, fh, round_index: int) -> None:
        """Write the recorded spans as JSON lines, one span per line."""
        for idx, (name, start, end, parent) in enumerate(self.spans):
            fh.write(
                json.dumps(
                    {
                        "round": round_index,
                        "id": idx,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent,
                    }
                )
                + "\n"
            )
