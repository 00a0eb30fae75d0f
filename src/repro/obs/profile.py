"""Scan-phase profiling and JS-interpreter hotspot attribution.

Three pieces, all deterministic and dependency-free:

* :class:`ScanProfile` — per-scan phase attribution.  A scan holds a
  *phase stack*; every transition accrues the elapsed wall time to the
  phase on top, so the per-phase durations **sum exactly to the scan's
  total** by construction (time not claimed by any instrumented site
  lands in the ``"other"`` bucket).  Phases are the paper's Table X/XI
  cost centres: ``parse``, ``decompress``, ``xref-resolve``, ``jsast``,
  ``instrument``, ``js-exec``, ``monitor``, ``verdict``.
* :class:`JSProfile` — hotspot accounting inside the ``repro.js``
  bytecode VM: sampled self-time and hit counts per AST node type,
  calls/self-time per function call-site, and flamegraph-ready
  collapsed-stack lines (``repro profile FILE --collapsed out.txt``).
  Unprofiled, the VM's dispatch loop does no profiling work at all.
* :class:`SlowScanBuffer` — a ring buffer retaining full detail (span
  trees, phase breakdowns) only for scans slower than a fixed threshold
  or the rolling p99 (``GET /debug/slow`` on the service).

The active :class:`ScanProfile` travels via a :mod:`contextvars` scope
(mirroring :mod:`repro.limits`) so deep components — the PDF parser,
the stream decoder, the runtime monitor — can mark phases without
threading a ``profile`` parameter through every signature:

    with profile_mod.activate(ScanProfile().start()) as prof:
        ...  # instrumented call sites use profile_mod.phase("parse")
    prof.finish()
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Canonical phase names, in pipeline order.  ``other`` absorbs
#: everything outside an instrumented site (orchestration, span
#: bookkeeping, report assembly) so the breakdown always adds up.
PHASES: Tuple[str, ...] = (
    "parse",
    "decompress",
    "xref-resolve",
    "recovery-scan",
    "jsast",
    "absint",
    "instrument",
    "js-exec",
    "monitor",
    "verdict",
    "other",
)


class _CallNode:
    """One call path: a callee under its caller, with its totals."""

    __slots__ = ("name", "parent", "children", "calls", "seconds", "self_seconds")

    def __init__(self, name: str, parent: Optional["_CallNode"]) -> None:
        self.name = name
        self.parent = parent
        self.children: Dict[str, "_CallNode"] = {}
        self.calls = 0
        #: Inclusive seconds (recursion double-counts, as in any profiler).
        self.seconds = 0.0
        self.self_seconds = 0.0

    def child(self, name: str) -> "_CallNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _CallNode(name, self)
        return node

    def walk(self, path: Tuple[str, ...] = ()) -> Iterator[Tuple[Tuple[str, ...], "_CallNode"]]:
        """Every node below this one, with its path from the root."""
        for node in self.children.values():
            below = path + (node.name,)
            yield below, node
            yield from node.walk(below)

    def merge(self, other: "_CallNode") -> None:
        for name, theirs in other.children.items():
            mine = self.child(name)
            mine.calls += theirs.calls
            mine.seconds += theirs.seconds
            mine.self_seconds += theirs.self_seconds
            mine.merge(theirs)


class JSProfile:
    """Hotspot accounting for the bytecode VM.

    **Node hotspots are sampled.**  About every
    :data:`repro.js.vm.SAMPLE_STEPS` steps the VM calls :meth:`sample`
    with the AST node kind whose step it is executing.  The wall time
    until the next sample (or until :meth:`pause`, when a script
    returns) is billed to that kind as its self time, so the node self
    times of a run add up to its sampled JS time.  ``hits`` counts
    samples; samples are placed by step count, so a document profiled
    twice gets identical hits.

    **Call sites are timed.**  Each call is bracketed by
    :meth:`enter_call`/:meth:`exit_call`, which walk a call tree keyed
    by callee name.  A child-time accumulator stack gives every call
    ``self = inclusive - children``; the tree's paths are the
    collapsed-stack (flamegraph) source.
    """

    __slots__ = (
        "clock",
        "node_stats",
        "_billing",
        "_billing_since",
        "_calls",
        "_call_node",
        "_call_frames",
    )

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: kind -> [self_seconds, hits].
        self.node_stats: Dict[str, List[Any]] = {}
        #: The node_stats record the running interval is billed to.
        self._billing: Optional[List[Any]] = None
        self._billing_since = 0.0
        self._calls = _CallNode("(root)", None)
        self._call_node = self._calls
        self._call_frames: List[float] = [0.0]

    # -- node samples (the VM's sampling interrupt) ----------------------

    def sample(self, kind: str) -> None:
        """Bill the elapsed interval, then start billing ``kind``."""
        now = self.clock()
        billing = self._billing
        if billing is not None:
            billing[0] += now - self._billing_since
        stat = self.node_stats.get(kind)
        if stat is None:
            stat = self.node_stats[kind] = [0.0, 0]
        stat[1] += 1
        self._billing = stat
        self._billing_since = now

    def pause(self) -> None:
        """Bill the elapsed interval and stop billing until the next sample."""
        billing = self._billing
        if billing is not None:
            billing[0] += self.clock() - self._billing_since
            self._billing = None

    # -- call-sites -------------------------------------------------------

    def enter_call(self, name: str) -> float:
        """Start timing a call to ``name``; returns its start time."""
        self._call_node = self._call_node.child(name)
        self._call_frames.append(0.0)
        return self.clock()

    def exit_call(self, start: float) -> None:
        """Finish the innermost call started at ``start``."""
        elapsed = self.clock() - start
        frames = self._call_frames
        child = frames.pop()
        frames[-1] += elapsed
        node = self._call_node
        node.calls += 1
        node.seconds += elapsed
        if elapsed > child:
            node.self_seconds += elapsed - child
        self._call_node = node.parent  # type: ignore[assignment]

    # -- reading ----------------------------------------------------------

    @property
    def node_self_seconds(self) -> Dict[str, float]:
        """Accumulated self seconds per AST node type."""
        return {kind: stat[0] for kind, stat in self.node_stats.items()}

    @property
    def node_hits(self) -> Dict[str, int]:
        """Sample counts per AST node type."""
        return {kind: stat[1] for kind, stat in self.node_stats.items()}

    @property
    def total_self_seconds(self) -> float:
        return sum(stat[0] for stat in self.node_stats.values())

    def hotspots(self, top: int = 10) -> List[Dict[str, Any]]:
        """Node types ranked by accumulated self-time."""
        ranked = sorted(
            self.node_stats.items(), key=lambda kv: -kv[1][0]
        )[: max(0, top)]
        return [
            {
                "node": kind,
                "self_seconds": stat[0],
                "hits": stat[1],
            }
            for kind, stat in ranked
        ]

    def call_sites(self, top: int = 10) -> List[Dict[str, Any]]:
        """Functions ranked by inclusive time, summed over call paths."""
        rows: Dict[str, Dict[str, Any]] = {}
        for _path, node in self._calls.walk():
            row = rows.get(node.name)
            if row is None:
                row = rows[node.name] = {
                    "function": node.name, "seconds": 0.0,
                    "self_seconds": 0.0, "calls": 0,
                }
            row["seconds"] += node.seconds
            row["self_seconds"] += node.self_seconds
            row["calls"] += node.calls
        ranked = sorted(rows.values(), key=lambda row: -row["seconds"])
        return ranked[: max(0, top)]

    def collapsed_lines(self) -> List[str]:
        """Flamegraph-folded lines: ``(root);a;b <microseconds>``.

        Feed straight into ``flamegraph.pl`` / speedscope ("collapsed
        stacks" import).  Values are integer microseconds of self-time.
        """
        return sorted(
            ";".join(("(root)",) + path) + f" {int(round(node.self_seconds * 1e6))}"
            for path, node in self._calls.walk()
        )

    def merge(self, other: "JSProfile") -> None:
        """Fold another profile's aggregates into this one."""
        for key, stat in other.node_stats.items():
            mine = self.node_stats.get(key)
            if mine is None:
                self.node_stats[key] = [stat[0], stat[1]]
            else:
                mine[0] += stat[0]
                mine[1] += stat[1]
        self._calls.merge(other._calls)

    def to_dict(self, top: int = 10) -> Dict[str, Any]:
        return {
            "total_self_seconds": self.total_self_seconds,
            "hotspots": self.hotspots(top),
            "call_sites": self.call_sites(top),
        }


class ScanProfile:
    """Deterministic per-scan phase attribution + counters.

    Not thread-safe — one scan runs on one thread (the contextvar scope
    keeps concurrent scans from seeing each other's profile).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.phase_self_seconds: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.js = JSProfile(clock)
        self.total_seconds = 0.0
        self.finished = False
        self._stack: List[str] = ["other"]
        self._last: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ScanProfile":
        self._last = self.clock()
        return self

    def finish(self) -> "ScanProfile":
        """Close the clock; afterwards phase sums equal the total."""
        if self._last is not None:
            self._accrue(self.clock())
        self.total_seconds = sum(self.phase_self_seconds.values())
        self.finished = True
        return self

    # -- phase stack -------------------------------------------------------

    def _accrue(self, now: float) -> None:
        top = self._stack[-1]
        assert self._last is not None
        self.phase_self_seconds[top] = (
            self.phase_self_seconds.get(top, 0.0) + (now - self._last)
        )
        self._last = now

    def push(self, name: str) -> None:
        if self._last is not None:
            self._accrue(self.clock())
        self._stack.append(name)

    def pop(self) -> None:
        if self._last is not None:
            self._accrue(self.clock())
        if len(self._stack) > 1:
            self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator["ScanProfile"]:
        self.push(name)
        try:
            yield self
        finally:
            self.pop()

    # -- counters ----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- reading -----------------------------------------------------------

    def phase_seconds(self) -> Dict[str, float]:
        """All canonical phases (zero-filled) plus anything extra."""
        out = {name: 0.0 for name in PHASES}
        out.update(self.phase_self_seconds)
        return out

    def to_dict(self, top: int = 10) -> Dict[str, Any]:
        return {
            "total_seconds": self.total_seconds,
            "phases": self.phase_seconds(),
            "counters": dict(self.counters),
            "js": self.js.to_dict(top),
        }


# -- ambient scope (mirrors repro.limits) -----------------------------------

_active: contextvars.ContextVar[Optional[ScanProfile]] = contextvars.ContextVar(
    "repro_scan_profile", default=None
)


def current() -> Optional[ScanProfile]:
    """The :class:`ScanProfile` active for this scan, or None."""
    return _active.get()


@contextlib.contextmanager
def activate(profile: ScanProfile) -> Iterator[ScanProfile]:
    """Make ``profile`` the ambient profile for the calling context."""
    token = _active.set(profile)
    try:
        yield profile
    finally:
        _active.reset(token)


@contextlib.contextmanager
def phase(name: str) -> Iterator[Optional[ScanProfile]]:
    """Attribute the enclosed block to ``name`` (no-op when inactive).

    This is the mark the instrumented call sites use — a contextvar
    lookup plus an is-None check when profiling is off.
    """
    profile = _active.get()
    if profile is None:
        yield None
        return
    profile.push(name)
    try:
        yield profile
    finally:
        profile.pop()


def count(name: str, amount: float = 1) -> None:
    """Bump a counter on the active profile (no-op when inactive)."""
    profile = _active.get()
    if profile is not None:
        profile.count(name, amount)


# -- slow-scan exemplars ------------------------------------------------------


class SlowScanBuffer:
    """Ring buffer of slow-scan exemplars (full detail, bounded memory).

    A scan is *slow* when its latency is at or above the fixed
    ``threshold_seconds``, or — when no threshold is configured — at or
    above the rolling p99 of the last ``window`` latencies (armed only
    once ``min_samples`` scans have been observed, so a cold service
    does not flag its first request).  Thread-safe.
    """

    def __init__(
        self,
        capacity: int = 32,
        threshold_seconds: Optional[float] = None,
        window: int = 512,
        min_samples: int = 30,
    ) -> None:
        import threading

        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.threshold_seconds = threshold_seconds
        self.min_samples = max(1, min_samples)
        self._lock = threading.Lock()
        self._entries: deque = deque(maxlen=capacity)
        self._window: deque = deque(maxlen=max(window, self.min_samples))
        self._observed = 0
        self._retained = 0

    def _threshold_locked(self) -> Optional[float]:
        if self.threshold_seconds is not None:
            return self.threshold_seconds
        if len(self._window) < self.min_samples:
            return None
        ordered = sorted(self._window)
        rank = 0.99 * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] + (ordered[high] - ordered[low]) * fraction

    def observe(
        self,
        name: str,
        seconds: float,
        digest: Optional[str] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Record one scan latency; returns True when it was retained."""
        with self._lock:
            threshold = self._threshold_locked()
            self._window.append(seconds)
            self._observed += 1
            if threshold is None or seconds < threshold:
                return False
            self._retained += 1
            entry: Dict[str, Any] = {
                "name": name,
                "seconds": seconds,
                "threshold_seconds": threshold,
                "sequence": self._observed,
            }
            if digest:
                entry["sha256"] = digest
            if detail:
                entry.update(detail)
            self._entries.append(entry)
            return True

    def snapshot(self) -> Dict[str, Any]:
        """Current exemplars (newest first) plus buffer state."""
        with self._lock:
            return {
                "threshold_seconds": self.threshold_seconds,
                "effective_threshold_seconds": self._threshold_locked(),
                "capacity": self.capacity,
                "observed": self._observed,
                "retained": self._retained,
                "entries": list(reversed(self._entries)),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._window.clear()
            self._observed = 0
            self._retained = 0
