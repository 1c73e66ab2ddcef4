"""Outside-in tracing: time named program functions without editing them.

``Tracer.wrap`` replaces a module or class attribute with a wrapper that
records one span per call and puts the original back on ``restore``.  A
span is (name, start, end, parent); spans stay in memory until ``dump``.
Calls are single-threaded and properly nested, so the open spans form a
stack and each new span's parent is the top of that stack.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name, on_call=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is the span name, or a function of the call's positional
        arguments that returns it.  ``on_call(counts, args, result)``, if
        given, runs after each call (outside the span) to add counts such
        as rows processed.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)

        fixed = None if callable(name) else name

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = fixed or name(args)
            idx = self._open(label)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            self.counts[label + ".calls"] += 1
            if on_call is not None:
                on_call(self.counts, args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def totals(self, under: str | None = None) -> dict[str, tuple[float, float]]:
        """name -> (summed duration, summed self time) of its spans.

        With ``under``, only spans named ``under`` and their descendants
        count.
        """
        dur = self.durations()
        own = self.self_times()
        inside = [False] * len(self.names)
        out: dict[str, tuple[float, float]] = defaultdict(lambda: (0.0, 0.0))
        for i, (name, p) in enumerate(zip(self.names, self.parents)):
            # parents precede children, so inside[p] is already final
            inside[i] = under is None or name == under or (p >= 0 and inside[p])
            if inside[i]:
                d, o = out[name]
                out[name] = (d + dur[i], o + own[i])
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write every span and count as JSON, one column per span field.

        Span names are indices into ``names``; start and end are integer
        nanoseconds after the first span's start.
        """
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            json.dump({
                "meta": meta,
                "counts": dict(self.counts),
                "names": table,
                "name": [index[n] for n in self.names],
                "start_ns": [round((s - t0) * 1e9) for s in self.starts],
                "end_ns": [round((e - t0) * 1e9) for e in self.ends],
                "parent": self.parents,
            }, fh, separators=(",", ":"))
