"""In-memory span recorder for the traced benchmark run.

A span is (id, name, start, end, parent, cmd): ``cmd`` is the id of the
root span of the command it belongs to, so all spans of one command share
it.  Spans are opened by the benchmark around its own calls, and by
wrappers it installs on the names one module imports from another (for
example ``tsoplan.cli.tso``), which records each call into a layer at the
layer boundary without touching the program's source.  Calls too fine to
keep as spans are added to the enclosing span as aggregated child time.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.agg: dict[tuple[int | None, str], list[float]] = defaultdict(lambda: [0.0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.last: dict[str, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._cmd: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self) -> int | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        # A worker thread's first span hangs under the main thread's open span.
        return self._main_stack[-1] if self._main_stack else None

    @contextmanager
    def span(self, name: str, command: bool = False):
        sid = next(self._ids)
        parent = self._parent()
        if command:
            self._cmd = sid
        stack = self._stack()
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self._cmd))
            if command:
                self._cmd = None

    def add(self, name: str, seconds: float) -> None:
        """Aggregate one call's time as a child of the innermost open span."""
        slot = self.agg[(self._parent(), name)]
        slot[0] += seconds
        slot[1] += 1

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr by a wrapper that records a span per call.

        ``count(result)``, when given, is added to ``counts[name]``.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            self.last[name] = result
            if count is not None:
                self.counts[name] += count(result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its children cover.

        Child spans may overlap (worker threads), so their union is taken;
        aggregated child time is sequential and is subtracted as a sum.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        aggregated: dict[int | None, float] = defaultdict(float)
        for (parent, _), (seconds, _) in self.agg.items():
            aggregated[parent] += seconds
        out = {}
        for sid, _, start, end, _, _ in self.spans:
            covered = 0.0
            cur_start = cur_end = None
            for c_start, c_end in sorted(children.get(sid, ())):
                if cur_end is None or c_start > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = c_start, c_end
                else:
                    cur_end = max(cur_end, c_end)
            if cur_end is not None:
                covered += cur_end - cur_start
            out[sid] = (end - start) - covered - aggregated[sid]
        return out

    def write(self, path) -> None:
        """Write every span and aggregate as one JSON object per line."""
        names = {sid: name for sid, name, *_ in self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, cmd in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "cmd": cmd,
                }) + "\n")
            for (parent, name), (seconds, calls) in self.agg.items():
                fh.write(json.dumps({
                    "aggregate": name, "parent": parent, "parent_name": names.get(parent),
                    "seconds": seconds, "calls": calls,
                }) + "\n")
