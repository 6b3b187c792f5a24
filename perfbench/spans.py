"""In-memory span tracer that wraps the program's public callables.

The benchmark traces the program from the outside: :class:`Tracer` replaces
each named public function or method with a wrapper that records a span
(name, start, end, parent, thread) and, where the callable returns
something countable, a count.  Nothing under ``src/`` knows it is traced,
and :meth:`Tracer.uninstall` restores every original object.

A function imported by name into other modules (``from repro.core.grez
import assign_zones_greedy``) is bound in each importing module, so the
wrapper replaces every binding of the original object in every loaded
``repro`` module, not just the defining one.

Spans opened on a thread with no open span of its own (the federation's
shard workers) take the root span open on the driving thread as parent, so
self time (duration minus the union of child intervals) stays correct when
children run in parallel.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Target", "Tracer", "self_times"]

#: (module, attribute path, span name, count-of-result or None).
Target = Tuple[str, str, str, Optional[Callable[[object], int]]]

# A span is a list [id, parent, name, thread id, start ns, end ns, count].
_ID, _PARENT, _NAME, _TID, _START, _END, _COUNT = range(7)


class Tracer:
    """Records spans around wrapped callables; writes them out as JSONL."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: Optional[int] = None
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][_ID] if stack else self._root
        with self._lock:
            span = [len(self.spans), parent, name, threading.get_ident(), 0, 0, 0]
            self.spans.append(span)
        if not stack and parent is None:
            self._root = span[_ID]
        stack.append(span)
        span[_START] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[_END] = time.perf_counter_ns()
        self._local.stack.pop()
        if self._root == span[_ID]:
            self._root = None

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span[_COUNT] = int(count(result))
            return result

        return traced

    # ------------------------------------------------------------------ #
    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target; raises if a named callable does not exist."""
        for module_name, path, name, count in targets:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:
                self._patch_method(owner, attr, name, count)
            else:
                self._patch_function(getattr(owner, attr), attr, name, count)

    def _patch_function(self, original, attr: str, name: str, count) -> None:
        wrapper = self.wrap(original, name, count)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            if getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, name: str, count) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper: object = classmethod(self.wrap(original.__func__, name, count))
        else:
            wrapper = self.wrap(original, name, count)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped callable, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    def write_jsonl(self, path: str) -> None:
        """Write one JSON object per span; ``self_ns`` is precomputed."""
        own = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span[_ID],
                            "parent": span[_PARENT],
                            "name": span[_NAME],
                            "thread": span[_TID],
                            "start_ns": span[_START],
                            "end_ns": span[_END],
                            "self_ns": own[span[_ID]],
                            "count": span[_COUNT],
                        },
                        separators=(",", ":"),
                    )
                )
                out.write("\n")

    def totals(self) -> Dict[str, Tuple[int, float, int]]:
        """Per span name: (calls, summed self time in seconds, summed count)."""
        own = self_times(self.spans)
        totals: Dict[str, list] = {}
        for span in self.spans:
            entry = totals.setdefault(span[_NAME], [0, 0, 0])
            entry[0] += 1
            entry[1] += own[span[_ID]]
            entry[2] += span[_COUNT]
        return {k: (calls, ns / 1e9, n) for k, (calls, ns, n) in totals.items()}


def self_times(spans: List[list]) -> List[int]:
    """Each span's duration minus the union of its children's intervals (ns)."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span[_PARENT] is not None:
            children.setdefault(span[_PARENT], []).append((span[_START], span[_END]))
    own = []
    for span in spans:
        start, end = span[_START], span[_END]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span[_ID], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        own.append(end - start - covered)
    return own
