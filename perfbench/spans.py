"""Per-layer timing taken from outside the program.

The program under test carries no benchmark tracing. Instead, a
:class:`Hooks` object replaces public entry points of each layer with a
wrapper that records a span — name, start, end, the step or batch it
belongs to, and the thread — in memory, and puts the original back when
its ``with`` block ends. At the end of a traced run the spans are written
in the ``repro.obs`` span-event shape, so ``repro.obs.Profiler.from_events``
renders them as a Chrome trace and computes self-times.
"""

from __future__ import annotations

import json
import threading
import time
from functools import wraps

clock = time.perf_counter

_MISSING = object()


class SpanLog:
    """Closed spans kept as ``(name, start, end, unit, thread)`` tuples.

    ``unit`` is the id of the step (training) or batch (serving) that was
    current when the span opened; ``thread`` is 0 for the first thread
    that recorded a span and 1, 2, … for later ones (the shard prefetcher,
    the serving batcher).
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.unit = -1
        #: wrappers record only while this is set; the benchmark clears it
        #: for untraced blocks to measure what tracing costs.
        self.active = True
        self._threads: dict[int, int] = {}
        self._lock = threading.Lock()

    def thread_index(self) -> int:
        ident = threading.get_ident()
        index = self._threads.get(ident)
        if index is None:
            with self._lock:
                index = self._threads.setdefault(ident, len(self._threads))
        return index

    def record(self, name: str, start: float, end: float, unit: int | None = None) -> None:
        self.spans.append(
            (name, start, end, self.unit if unit is None else unit, self.thread_index())
        )

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record(name, start, clock())

        return traced

    def totals(self, units: set[int]) -> dict[str, float]:
        """Seconds per span name, over spans whose unit is in ``units``."""
        out: dict[str, float] = {}
        for name, start, end, unit, _ in self.spans:
            if unit in units:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def events(self, parent: str | None, unit_label: str) -> list[dict]:
        """The spans as ``repro.obs`` span events.

        Spans named ``parent`` are roots; every other span on the same
        thread nests under the ``parent`` span of its unit (path
        ``parent/name``). Spans on other threads are roots of their own
        track.
        """
        wall_offset = time.time() - clock()
        parent_thread = {
            unit: thread for name, _, _, unit, thread in self.spans if name == parent
        }
        events = []
        for name, start, end, unit, thread in self.spans:
            nested = name != parent and parent_thread.get(unit) == thread
            event = {
                "type": "span",
                "name": name,
                "path": f"{parent}/{name}" if nested else name,
                "depth": 1 if nested else 0,
                "ts": start + wall_offset,
                "perf_ts": start,
                "seconds": end - start,
                "labels": {unit_label: str(unit)},
            }
            if thread:
                event["thread"] = thread
            events.append(event)
        events.sort(key=lambda event: event["perf_ts"])
        return events

    def write(self, path, parent: str | None, unit_label: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events(parent, unit_label):
                handle.write(json.dumps(event) + "\n")


class Hooks:
    """Attribute replacements installed together and removed together.

    ``add(owner, name, replacement)`` registers a replacement for
    ``owner.name`` — an instance, class or module attribute. Entering the
    ``with`` block installs every registered replacement; leaving it
    restores the originals.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[object, str, object, object]] = []

    def add(self, owner, name: str, replacement) -> None:
        self._entries.append((owner, name, vars(owner).get(name, _MISSING), replacement))

    def __enter__(self) -> "Hooks":
        for owner, name, _, replacement in self._entries:
            setattr(owner, name, replacement)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original, _ in reversed(self._entries):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
