"""In-memory span recorder, call-site wrappers and self-time accounting.

A span is ``[name, start, end, parent, thread_id]`` with ``parent`` the
index of the enclosing span (``None`` for a root). Spans opened on a
thread that has no open span of its own (a pool worker) take as parent
the innermost open span of the thread that created the recorder, so the
queries a worker pool runs attach to the call that started the pool.

Self time is wall-clock self time: at every instant the elapsed time is
shared equally among the innermost open spans, so the self times of a
tree add up to its root's duration even when worker threads overlap.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, TID = range(5)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: defaultdict[str, list] = defaultdict(list)
        self._lock = threading.Lock()  # worker threads open spans and count too
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        span = [name, time.perf_counter(), None, parent, threading.get_ident()]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        stack.append(sid)
        return sid

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack().pop()

    # -- wrapping call sites ------------------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None, count_only=False):
        """Replace ``owner.attr`` by a recording wrapper; undone by ``restore``.

        ``observe(recorder, args, kwargs, result)`` runs after the span
        closes. ``count_only`` records a call count and no span.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        rec = self

        if count_only:

            def wrapper(*args, **kwargs):
                rec.count(name + ".calls")
                return func(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                sid = rec.open(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    rec.close(sid)
                if observe is not None:
                    observe(rec, args, kwargs, result)
                return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- aggregation --------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def self_times(self) -> list[float]:
        """Wall-clock self time of every span, by the sweep described above."""
        events = []
        for sid, s in enumerate(self.spans):
            if s[END] is None:
                raise ValueError(f"span {s[NAME]!r} was never closed")
            events.append((s[START], 1, sid))
            events.append((s[END], 0, sid))
        events.sort()  # at equal times, ends (0) before starts (1)
        self_time = [0.0] * len(self.spans)
        open_children = [0] * len(self.spans)
        active: set[int] = set()
        leaves: set[int] = set()
        last = None
        for t, is_start, sid in events:
            if leaves and last is not None and t > last:
                share = (t - last) / len(leaves)
                for leaf in leaves:
                    self_time[leaf] += share
            last = t
            parent = self.spans[sid][PARENT]
            if is_start:
                active.add(sid)
                leaves.add(sid)
                if parent is not None and parent in active:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                active.discard(sid)
                leaves.discard(sid)
                if parent is not None and parent in active:
                    open_children[parent] -= 1
                    if open_children[parent] == 0:
                        leaves.add(parent)
        return self_time

    def self_by_name(self) -> dict[str, float]:
        out: defaultdict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            out[s[NAME]] += t
        return dict(out)

    def root_time(self) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] is None)

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "thread_id"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
