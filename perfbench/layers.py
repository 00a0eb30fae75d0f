"""Per-layer metrics for the traced run.

Two kinds of measurement, both made from the benchmark's own files by
wrapping public functions of ``src/repro`` for the duration of a pass
(nothing in the program changes):

* **Inner pass** — each document through ``ProtectionPipeline.scan``
  with every layer's entry point wrapped in a span (name, start, end,
  parent, request id).  A layer's self time is its spans' durations
  minus their direct children; re-entrant calls into a layer already on
  the stack (recursive folding, ``eval`` inside the VM) belong to the
  outer span.  Because every span nests under the scan, the self times
  plus the scan's own self time (``core.unattributed_ms``) sum to
  ``core.scan_ms``.
* **Ledger** — the same documents, sequentially, through each stack
  entry point: bare ``scan`` → ``BatchScanner.scan_one`` →
  ``ScanService.handle_scan`` → HTTP over that service → in-process
  ``ClusterRouter`` with two shard processes → HTTP over that router.
  A layer's ``added_ms`` is the median over documents of its time minus
  the time of the layer beneath on the same document.  Only counting
  and timing shims (no spans) are installed here, so the ledger itself
  runs untraced; ``trace.overhead_ratio`` compares the inner pass with
  the ledger's bare pass on the same documents.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time
import tracemalloc
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.cluster.router as router_mod
import repro.cluster.transport as transport_mod
import repro.core.instrument as instrument_mod
import repro.jsast.rules_absint as rules_absint_mod
import repro.pdf.document as document_mod
from repro.batch import scanner as scanner_mod
from repro.batch.scanner import BatchScanner
from repro.cluster import ClusterConfig, ClusterRouter
from repro.core.instrument import Instrumenter
from repro.core.pipeline import PipelineSettings, ProtectionPipeline
import repro.js.compiler as compiler_mod
from repro.js.compiler import clear_code_cache
from repro.js.vm import BytecodeInterpreter
from repro.jsast.fold import ConstantFolder
from repro.reader.reader import Reader
from repro.serve import ScanService, start_server

from perfbench.client import ClientError, KeepAliveConnection
from perfbench.oracle import Observation, observe_reply, observe_report
from perfbench.workloads import Doc

#: Span name of the scan root; its self time is ``core.unattributed_ms``.
SCAN = "core.scan"

#: (span name, owner, attribute) of every wrapped entry point.  Module
#: attributes are wrapped where the caller looks them up.
INNER_LAYERS: Tuple[Tuple[str, Any, str], ...] = (
    (SCAN, ProtectionPipeline, "scan"),
    ("pdf.parse", document_mod, "parse_pdf"),
    ("core.instrument", Instrumenter, "instrument"),
    ("jsast.analyze", instrument_mod, "analyze_document"),
    ("jsast.absint", rules_absint_mod, "interpret_script"),
    ("jsast.fold", ConstantFolder, "run"),
    ("jsast.fold", ConstantFolder, "fold_expr"),
    ("js.vm", BytecodeInterpreter, "run"),
    ("js.vm", BytecodeInterpreter, "eval_in_scope"),
    ("reader.open", Reader, "open"),
)

#: Layers whose self time is reported as ``<layer>_ms``.
SELF_TIME_LAYERS = (
    "pdf.parse", "core.instrument", "jsast.analyze", "jsast.absint",
    "jsast.fold", "js.vm", "reader.open",
)
#: Layers whose span count per document is reported as ``<layer>_calls``.
CALL_COUNT_LAYERS = ("pdf.parse", "js.vm")

#: Every per-layer metric of a traced run and its unit.
UNITS: Dict[str, str] = {
    **{f"{layer}_ms": "ms" for layer in SELF_TIME_LAYERS},
    **{f"{layer}_calls": "calls/doc" for layer in CALL_COUNT_LAYERS},
    "core.scan_ms": "ms",
    "core.unattributed_ms": "ms",
    "jsast.triaged_ratio": "ratio",
    "obs.profiled_ratio": "ratio",
    "batch.added_ms": "ms",
    "batch.digest_calls": "calls/req",
    "batch.cache_hit_ratio": "ratio",
    "serve.added_ms": "ms",
    "serve.mem_x_body": "x",
    "serve.queue_wait_ms": "ms",
    "serve.http.added_ms": "ms",
    "serve.http.fresh_added_ms": "ms",
    "cluster.added_ms": "ms",
    "cluster.request_ms": "ms",
    "cluster.digest_calls": "calls/req",
    "cluster.frame_bytes_ratio": "ratio",
    "cluster.router_mem_x_body": "x",
    "cluster.http.added_ms": "ms",
    "stack.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "request": self.request}


@contextlib.contextmanager
def patched(owner: Any, attribute: str, replacement: Any) -> Iterator[None]:
    """Replace ``owner.attribute`` for the block."""
    original = getattr(owner, attribute)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


class SpanRecorder:
    """In-memory spans of one thread, recorded by wrapped entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request = 0
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}
        self._thread = threading.get_ident()

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        recorder = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if recorder._open.get(name) or threading.get_ident() != recorder._thread:
                return function(*args, **kwargs)
            index = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, recorder.request)
            recorder.spans.append(span)
            recorder._stack.append(index)
            recorder._open[name] = 1
            try:
                return function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                recorder._stack.pop()
                recorder._open[name] = 0

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every entry point of :data:`INNER_LAYERS` for the block."""
        with contextlib.ExitStack() as stack:
            for name, owner, attribute in INNER_LAYERS:
                stack.enter_context(
                    patched(owner, attribute, self.wrap(name, getattr(owner, attribute)))
                )
            yield


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds of each span name not covered by its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = (span.end - span.start) - covered[index]
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def inner_metrics(spans: Sequence[Span], documents: int, triaged: int) -> Dict[str, float]:
    """The inner-pass per-layer metrics, per scanned document."""
    per_doc = 1000.0 / max(1, documents)
    own = self_times(spans)
    metrics = {f"{layer}_ms": own.get(layer, 0.0) * per_doc for layer in SELF_TIME_LAYERS}
    for layer in CALL_COUNT_LAYERS:
        count = sum(1 for span in spans if span.name == layer)
        metrics[f"{layer}_calls"] = count / max(1, documents)
    metrics["core.scan_ms"] = sum(
        span.end - span.start for span in spans if span.name == SCAN
    ) * per_doc
    metrics["core.unattributed_ms"] = own.get(SCAN, 0.0) * per_doc
    metrics["jsast.triaged_ratio"] = triaged / max(1, documents)
    return metrics


class WarmCodeCache:
    """Resets the per-process JS compile cache to its post-warm-up state.

    ``repro.js.compiler`` memoises compiled scripts per process, keyed by
    source text.  Production meets every new document cold while the
    shared instrumentation code stays compiled; a pass that scans the
    same document more than once in one process would otherwise see it
    warm the second time.  :meth:`restore` before each timed scan keeps
    every measurement in the production state.
    """

    def __init__(self) -> None:
        clear_code_cache()
        self._snapshot: Dict[str, Any] = {}

    def capture(self) -> None:
        with compiler_mod._CACHE_LOCK:
            self._snapshot = dict(compiler_mod._CODE_CACHE)

    def restore(self) -> None:
        with compiler_mod._CACHE_LOCK:
            compiler_mod._CODE_CACHE.clear()
            compiler_mod._CODE_CACHE.update(self._snapshot)


@dataclass
class InnerResult:
    metrics: Dict[str, float]
    spans: List[Span]
    #: Positions in ``docs`` that were scanned, with their verdicts
    #: (each document is scanned untraced and traced).
    verdicts: List[Tuple[int, Observation]]


def inner_pass(
    docs: Sequence[Doc],
    warmup: Sequence[Doc],
    settings: PipelineSettings,
    budget: float,
    min_docs: int,
) -> InnerResult:
    """Scan ``docs`` (cycling) for ``budget`` seconds and at least
    ``min_docs`` documents, each once untraced and once with spans on;
    the pair gives ``trace.overhead_ratio``."""
    cache = WarmCodeCache()
    pipeline = settings.build()
    for doc in warmup:
        pipeline.scan(doc.data, doc.name)
    cache.capture()
    recorder = SpanRecorder()
    verdicts: List[Tuple[int, Observation]] = []
    untraced = traced = 0.0
    triaged = count = 0
    stop_at = time.perf_counter() + budget
    while count < min_docs or time.perf_counter() < stop_at:
        index = count % len(docs)
        doc = docs[index]
        recorder.request = count
        # Alternate which scan goes first so neither gains from order.
        for traced_scan in ((False, True) if count % 2 else (True, False)):
            cache.restore()
            with recorder.installed() if traced_scan else contextlib.nullcontext():
                start = time.perf_counter()
                report = pipeline.scan(doc.data, doc.name)
                elapsed = time.perf_counter() - start
            if traced_scan:
                traced += elapsed
                triaged += bool(report.triaged)
            else:
                untraced += elapsed
            verdicts.append((index, observe_report(report)))
        count += 1
    metrics = inner_metrics(recorder.spans, count, triaged)
    metrics["trace.overhead_ratio"] = untraced / traced
    return InnerResult(metrics, recorder.spans, verdicts)


# -- the ledger ----------------------------------------------------------


class _Meter:
    """Counting and timing shims, attributed to the ledger layer that is
    running (``layer`` is set before each call; the calls are
    sequential, so server threads see the caller's layer)."""

    def __init__(self) -> None:
        self.layer = ""
        self.digests: Dict[str, int] = {}
        self.frame_bytes: Dict[str, int] = {}
        self.request_seconds: Dict[str, List[float]] = {}

    def counting_digests(self, digest: Callable[[bytes], str]) -> Callable[[bytes], str]:
        def counted(data: bytes) -> str:
            self.digests[self.layer] = self.digests.get(self.layer, 0) + 1
            return digest(data)

        return counted

    def frame_json(self, real_json: Any) -> Any:
        """Stands in for ``json`` inside the cluster transport: adds up
        the scan frames the router serialises (ASCII JSON, so characters
        are bytes, plus the 4-byte length prefix)."""
        meter = self

        class FrameJson:
            loads = staticmethod(real_json.loads)

            @staticmethod
            def dumps(payload: Any, **kwargs: Any) -> str:
                text = real_json.dumps(payload, **kwargs)
                if isinstance(payload, dict) and payload.get("op") == "scan":
                    meter.frame_bytes[meter.layer] = (
                        meter.frame_bytes.get(meter.layer, 0) + 4 + len(text))
                return text

        return FrameJson

    def timing_requests(self, request: Callable[..., Any]) -> Callable[..., Any]:
        """Times ``transport.request`` round trips that carry a scan."""
        def timed(address: Any, payload: Dict[str, Any], *args: Any, **kwargs: Any) -> Any:
            if payload.get("op") != "scan":
                return request(address, payload, *args, **kwargs)
            start = time.perf_counter()
            try:
                return request(address, payload, *args, **kwargs)
            finally:
                self.request_seconds.setdefault(self.layer, []).append(
                    time.perf_counter() - start)

        return timed


def _reply_key(status: int, payload: Optional[Dict[str, Any]]) -> Optional[Observation]:
    if status != 200 or not payload or "verdict" not in payload:
        return None
    return observe_reply(payload["verdict"])


@contextlib.contextmanager
def _over_http(service: Any, timeout: float) -> Iterator[Tuple[Callable[[Doc], Any], Callable[[Doc], Any]]]:
    """``POST /scan`` to ``start_server(service)``: yields a call on one
    keep-alive connection and a call on a fresh connection each time."""
    handle = start_server(service)
    host, port = handle.url.rsplit("//", 1)[1].rsplit(":", 1)
    shared = KeepAliveConnection(host, int(port), timeout)

    def post(connection: KeepAliveConnection, doc: Doc) -> Optional[Observation]:
        try:
            reply = connection.request("POST", f"/scan?name={doc.name}&nocache=1", doc.data)
            return _reply_key(reply.status, reply.json())
        except (ClientError, ValueError):
            return None

    def fresh(doc: Doc) -> Optional[Observation]:
        connection = KeepAliveConnection(host, int(port), timeout)
        try:
            return post(connection, doc)
        finally:
            connection.close()

    try:
        yield functools.partial(post, shared), fresh
    finally:
        shared.close()
        handle.stop()


@contextlib.contextmanager
def _cluster(settings: PipelineSettings) -> Iterator[ClusterRouter]:
    """An in-process router over two freshly forked shard processes."""
    router = ClusterRouter(settings=settings, config=ClusterConfig(shards=2, shard_jobs=1))
    try:
        router.start()
        if not router.wait_all_live(60.0):
            raise RuntimeError("in-process cluster did not come up")
        yield router
    finally:
        router.drain()


def _handler_call(service: Any) -> Callable[[Doc], Optional[Observation]]:
    def call(doc: Doc) -> Optional[Observation]:
        result = service.handle_scan(doc.data, doc.name, use_cache=False)
        return _reply_key(result.status, result.payload)

    return call


def _peak_ratio(call: Callable[[Doc], Any], docs: Sequence[Doc]) -> float:
    """Median over ``docs`` of the traced-allocation peak during ``call``
    divided by the body size."""
    ratios = []
    tracemalloc.start()
    try:
        for doc in docs:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call(doc)
            ratios.append((tracemalloc.get_traced_memory()[1] - base) / len(doc.data))
    finally:
        tracemalloc.stop()
    return statistics.median(ratios)


@dataclass
class LedgerResult:
    metrics: Dict[str, float]
    #: Seconds per document of each ledger layer.
    times: Dict[str, List[float]]
    verdicts: List[Tuple[int, Optional[Observation]]]


def _median_added(upper: Sequence[float], lower: Sequence[float]) -> float:
    return statistics.median(u - l for u, l in zip(upper, lower)) * 1000.0


#: Ledger layers each document passes through back to back, so slow
#: drift in machine speed cancels out of per-document differences.  The
#: cluster layers run in shard processes, which each meet a document
#: once: ``cluster`` and ``cluster_http`` use separate routers.
INTERLEAVED = ("bare", "profiled", "batch", "service", "service_http_fresh", "cluster")
#: Keep-alive layers, each driven as its own run of back-to-back
#: requests on one connection, as the closed loop drives them: an idle
#: gap would put the connection back into TCP quick-ACK mode and hide
#: the server's write/delayed-ACK stall.
BACK_TO_BACK = ("service_http", "cluster_http")
LEDGER_LAYERS = INTERLEAVED + BACK_TO_BACK
IN_PROCESS = frozenset(("bare", "profiled", "batch", "service", "service_http_fresh",
                        "service_http"))


def ledger(
    docs: Sequence[Doc],
    warmup: Sequence[Doc],
    settings: PipelineSettings,
    memory_docs: int,
    timeout: float,
) -> LedgerResult:
    """Sequential single-client passes through each stack entry point."""
    meter = _Meter()
    cache = WarmCodeCache()
    times: Dict[str, List[float]] = {layer: [] for layer in LEDGER_LAYERS}
    verdicts: List[Tuple[int, Optional[Observation]]] = []
    with contextlib.ExitStack() as stack:
        # Fork the shard processes before this process starts threads.
        direct_router = stack.enter_context(_cluster(settings))
        http_router = stack.enter_context(_cluster(settings))
        bare = settings.build()
        profiled = replace(settings, profile=True).build()
        scanner = BatchScanner(jobs=1, settings=settings, cache=False)
        stack.callback(scanner.shutdown)
        service = ScanService(settings=settings, jobs=1)
        stack.callback(service.drain)
        service_http, service_http_fresh = stack.enter_context(
            _over_http(ScanService(settings=settings, jobs=1), timeout))
        cluster_http, _ = stack.enter_context(_over_http(http_router, timeout))
        calls: Dict[str, Callable[[Doc], Optional[Observation]]] = {
            "bare": lambda doc: observe_report(bare.scan(doc.data, doc.name)),
            "profiled": lambda doc: observe_report(profiled.scan(doc.data, doc.name)),
            "batch": lambda doc: observe_reply(
                scanner.scan_one(doc.name, doc.data).summary.to_dict()),
            "service": _handler_call(service),
            "service_http": service_http,
            "service_http_fresh": service_http_fresh,
            "cluster": _handler_call(direct_router),
            "cluster_http": cluster_http,
        }
        stack.enter_context(patched(
            scanner_mod, "content_digest", meter.counting_digests(scanner_mod.content_digest)))
        stack.enter_context(patched(
            router_mod, "content_digest", meter.counting_digests(router_mod.content_digest)))
        stack.enter_context(patched(router_mod, "request", meter.timing_requests(router_mod.request)))
        stack.enter_context(patched(transport_mod, "json", meter.frame_json(transport_mod.json)))

        for layer in LEDGER_LAYERS:
            for doc in warmup:
                calls[layer](doc)
        cache.capture()
        meter.digests.clear()
        meter.frame_bytes.clear()
        meter.request_seconds.clear()

        def measure(layer: str, index: int, doc: Doc) -> None:
            if layer in IN_PROCESS:
                cache.restore()
            meter.layer = layer
            start = time.perf_counter()
            key = calls[layer](doc)
            times[layer].append(time.perf_counter() - start)
            verdicts.append((index, key))

        for index, doc in enumerate(docs):
            for layer in INTERLEAVED:
                measure(layer, index, doc)
        for layer in BACK_TO_BACK:
            for index, doc in enumerate(docs):
                measure(layer, index, doc)
        meter.layer = ""
        memory = {
            "serve.mem_x_body": _peak_ratio(calls["service"], docs[:memory_docs]),
            "cluster.router_mem_x_body": _peak_ratio(calls["cluster"], docs[:memory_docs]),
        }

    count = len(docs)
    metrics = {
        "obs.profiled_ratio": sum(times["profiled"]) / sum(times["bare"]),
        "batch.added_ms": _median_added(times["batch"], times["bare"]),
        "batch.digest_calls": meter.digests.get("batch", 0) / count,
        "serve.added_ms": _median_added(times["service"], times["batch"]),
        "serve.http.added_ms": _median_added(times["service_http"], times["service"]),
        "serve.http.fresh_added_ms": _median_added(
            times["service_http_fresh"], times["service"]),
        "cluster.added_ms": _median_added(times["cluster"], times["service"]),
        "cluster.request_ms": statistics.median(meter.request_seconds["cluster"]) * 1000.0,
        "cluster.digest_calls": meter.digests.get("cluster", 0) / count,
        "cluster.frame_bytes_ratio": meter.frame_bytes.get("cluster", 0) / sum(
            len(doc.data) for doc in docs),
        "cluster.http.added_ms": _median_added(times["cluster_http"], times["cluster"]),
        **memory,
    }
    return LedgerResult(metrics, times, verdicts)
