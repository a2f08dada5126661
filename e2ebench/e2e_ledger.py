"""In-memory span ledger for the traced run of the served-rewrite benchmark.

The traced run wraps the public entry points of each layer on the objects
a :class:`repro.ViewServer` holds (its catalog, cache, snapshot manager,
every published snapshot's matcher, optimizer, filter tree and shards, an
attached CDC pipeline and the serving pool) from this file, so no program
file changes. Every wrapped call records one span: name, start, end,
parent span and request id. Spans nest per thread; a layer's self time is
its spans' durations minus the time their child spans cover.

Gen-2 garbage collections are recorded as ``runtime.gc`` spans under
whatever span was open when the collector ran, so a stalled request's GC
pause is charged to ``runtime.gc`` rather than to the layer it interrupted.
"""

from __future__ import annotations

import gc
import gzip
import itertools
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable

#: Span record layout (a list, for cheap in-place end stamping).
SPAN_ID, NAME, START, END, PARENT, REQUEST, THREAD = range(7)

GC_SPAN = "runtime.gc"
#: Benchmark-side input generation inside a loop: excluded from the wall.
INPUT_SPAN = "bench.inputs"
SWEEP_SPAN = "core.filtertree.sweep"

_MISSING = object()


class Ledger:
    """Records nested spans per thread and wraps layer entry points."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = True
        self._stacks: dict[int, list[list]] = {}
        # itertools.count's next() is atomic under the GIL, so span ids
        # need no lock (a lock held across a pool fork could deadlock the
        # child).
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._gc_open: dict[int, list] = {}

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str, request: bool = False) -> list:
        """Open a span on this thread; ``request`` starts a new request id."""
        thread = threading.get_ident()
        stack = self._stacks.get(thread)
        if stack is None:
            stack = self._stacks[thread] = []
        parent = stack[-1] if stack else None
        if request:
            request_id = next(self._request_ids)
        else:
            request_id = parent[REQUEST] if parent is not None else 0
        span = [
            next(self._span_ids),
            name,
            perf_counter(),
            0.0,
            parent[SPAN_ID] if parent is not None else 0,
            request_id,
            thread,
        ]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        """Close the innermost open span of this thread (which is ``span``)."""
        span[END] = perf_counter()
        self._stacks[span[THREAD]].pop()
        self.spans.append(span)

    def call(self, name: str, function: Callable, *args, **kwargs):
        """Run ``function`` inside a span named ``name``."""
        span = self.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            self.end(span)

    # -- wrapping -------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        on_result: Callable | None = None,
        static: bool = False,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``owner`` is normally an instance (the wrapper shadows the class
        method in the instance dict); ``static=True`` patches a class
        attribute reached as ``Class.attribute(...)``. A callable already
        wrapped by this ledger is left alone, so shard trees shared
        between epochs are wrapped once. ``on_result(result, args)`` runs
        after the call, outside the span.
        """
        original = getattr(owner, attribute)
        if getattr(original, "_ledger", None) is self:
            return
        ledger = self

        def wrapper(*args, **kwargs):
            span = ledger.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                ledger.end(span)
            if on_result is not None:
                on_result(result, args)
            return result

        wrapper._ledger = self
        raw = vars(owner).get(attribute, _MISSING)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, staticmethod(wrapper) if static else wrapper)

    def track_gc(self) -> None:
        """Record gen-2 collections as spans (see the module docstring)."""
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        thread = threading.get_ident()
        if phase == "start":
            self._gc_open[thread] = self.begin(GC_SPAN)
        else:
            span = self._gc_open.pop(thread, None)
            if span is not None:
                self.end(span)
                self.counts["gc_collections"] += 1

    def uninstall(self) -> None:
        """Undo every patch and stop GC tracking (idempotent)."""
        self.active = False
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, raw)

    # -- output ---------------------------------------------------------------

    def dump(self, path, origin: float = 0.0) -> int:
        """Write spans as gzip TSV, times in µs after ``origin``."""
        with gzip.open(path, "wt") as out:
            out.write("span\tname\tstart_us\tend_us\tparent\trequest\tthread\n")
            for span in self.spans:
                out.write(
                    f"{span[SPAN_ID]}\t{span[NAME]}\t"
                    f"{(span[START] - origin) * 1e6:.1f}\t"
                    f"{(span[END] - origin) * 1e6:.1f}\t"
                    f"{span[PARENT]}\t{span[REQUEST]}\t{span[THREAD]}\n"
                )
        return len(self.spans)


@dataclass
class SelfTimes:
    """Per-layer self time over one traced window."""

    #: layer name -> self seconds, client threads only.
    layers: dict[str, float]
    #: layer name -> self seconds on other threads (pool reader threads).
    other_threads: dict[str, float]
    #: per shard index -> sweep seconds (all threads).
    shard_sweeps: dict[int, float]
    #: wall seconds summed over the client threads.
    wall: float
    #: wall not covered by any root span on a client thread.
    unattributed: float
    #: spans inside the window.
    span_count: int

    @property
    def attributed(self) -> float:
        return sum(self.layers.values())


def self_times(
    spans: Iterable[list],
    windows: dict[int, tuple[float, float]],
) -> SelfTimes:
    """Self time per layer over the given client-thread windows.

    ``windows`` maps each client thread id to the (start, end) of its
    traced loop; spans that start outside their thread's window (or on a
    thread with no window, e.g. pool reader threads) are reported under
    ``other_threads`` when they fall between the earliest start and the
    latest end. ``bench.inputs`` subtrees (the benchmark making its next
    input) are taken out of the wall. Unattributed time is measured directly, as the part of
    each client thread's window that no root span covers, so the identity
    ``sum(self) + unattributed == wall`` checks the self-time arithmetic
    rather than defining it.
    """
    first = min(start for start, _ in windows.values())
    last = max(end for _, end in windows.values())
    chosen = [s for s in spans if first <= s[START] and s[END] <= last]
    parents = {span[SPAN_ID]: span for span in chosen}
    children: dict[int, float] = defaultdict(float)
    for span in chosen:
        if span[PARENT]:
            children[span[PARENT]] += span[END] - span[START]
    layers: dict[str, float] = defaultdict(float)
    other: dict[str, float] = defaultdict(float)
    shards: dict[int, float] = defaultdict(float)
    roots: dict[int, list[tuple[float, float]]] = defaultdict(list)
    excluded = 0.0
    for span in chosen:
        root = span
        while root[PARENT] and root[PARENT] in parents:
            root = parents[root[PARENT]]
        window = windows.get(span[THREAD])
        on_client = window is not None and window[0] <= span[START] <= window[1]
        if root[NAME] == INPUT_SPAN:
            # The benchmark generating its next input: not the program's
            # time, so the whole subtree leaves the wall.
            if span is root and on_client:
                excluded += span[END] - span[START]
            continue
        duration = span[END] - span[START]
        own = duration - children.get(span[SPAN_ID], 0.0)
        name = span[NAME]
        if name.startswith(SWEEP_SPAN + "["):
            shards[int(name[len(SWEEP_SPAN) + 1:-1])] += own
            name = SWEEP_SPAN
        if on_client:
            layers[name] += own
            if not span[PARENT]:
                roots[span[THREAD]].append((span[START], span[END]))
        else:
            other[name] += own
    wall = sum(end - start for start, end in windows.values()) - excluded
    covered = 0.0
    for thread, intervals in roots.items():
        covered += _union_length(intervals, windows[thread])
    return SelfTimes(
        layers=dict(layers),
        other_threads=dict(other),
        shard_sweeps=dict(shards),
        wall=wall,
        unattributed=wall - covered,
        span_count=len(chosen),
    )


def _union_length(
    intervals: list[tuple[float, float]], window: tuple[float, float]
) -> float:
    total = 0.0
    reach = window[0]
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, window[1])
        if end > start:
            total += end - start
            reach = end
    return total


def sweep_name(shard: int) -> str:
    """Span name of one shard's candidate sweep."""
    return f"{SWEEP_SPAN}[{shard}]"
