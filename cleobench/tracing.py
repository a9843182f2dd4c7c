"""Span timers and counters that the benchmark wraps around the public
functions of each layer, for the traced run only.

Nothing here edits the program: :meth:`Tracer.wrap` replaces an
attribute of a module or class with a timing wrapper and
:meth:`Tracer.unwrap_all` puts the original back. Patch the name a
caller actually resolves: a function imported by name into another
module (``from repro.core.features import feature_matrix``) is a
separate binding there and must be wrapped in that module.

Spans stay in memory as ``[name, start, end, parent]`` records, with
``parent`` the index of the enclosing span (or -1), and are written out
once, by :meth:`Tracer.dump`, when the run ends.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        # Counters are kept per phase ("setup" or "timed"), the phase
        # being whatever the workload last set in ``self.phase``.
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Time every call of ``owner.attr`` as a span.

        ``name`` is the span name, or a function of the call's arguments
        that returns it. ``after(counters, result, *args, **kwargs)``,
        when given, runs outside the span and adds the call's counters
        to the current phase."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(name(*args, **kwargs) if callable(name) else name):
                out = orig(*args, **kwargs)
            if after is not None:
                after(tracer.counters[tracer.phase], out, *args, **kwargs)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reading the spans ---------------------------------------------
    def _children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for i, (_, _, _, parent) in enumerate(self.spans):
            kids[parent].append(i)
        return kids

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.
        Spans are recorded from one thread, so children never overlap."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def descendants(self, roots: list[int]) -> list[int]:
        """Indices of ``roots`` and every span below them."""
        kids = self._children()
        out, todo = [], list(roots)
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(kids.get(i, ()))
        return out

    def named(self, name: str, within: list[int] | None = None) -> list[int]:
        idx = range(len(self.spans)) if within is None else within
        return [i for i in idx if self.spans[i][0] == name]

    def total_seconds(self, idx: list[int]) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in idx)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counters": {k: dict(v) for k, v in self.counters.items()},
                },
                f,
            )
