"""Shard worker: one :class:`~repro.serve.app.ScanService` behind the
framed-JSON socket transport.

The cluster's unit of capacity is a *shard process*: a private Python
interpreter (its own GIL) running the exact service core the standalone
daemon uses — admission control, per-request deadlines, async jobs,
abandoned-worker accounting — reached through
:mod:`repro.cluster.transport` frames instead of HTTP.  The router is
the only client; it speaks the same vocabulary as the HTTP handler
(``scan``/``submit``/``job``/``health``/``metrics``/``slow``) so every
service semantic keeps its single implementation in ``repro.serve``.

:class:`ShardServer` is deliberately transport-only: it owns a
listening socket and turns frames into ``ScanService`` calls.  Tests
run it in-process on a thread (no fork needed to cover the dispatch
table); :func:`run_shard` is the ``multiprocessing`` target that wraps
it with config materialisation, readiness signalling and SIGTERM
drain.

Fault injection: ``ShardConfig.wedge_marker`` (tests only) wraps the
pipeline so any document whose *name* contains the marker sleeps
before scanning — a deterministic stand-in for the pathological inputs
that wedge a worker thread.  Because the wrapper sits below the
service, the real abandoned-worker accounting fires, which is exactly
the signal the router's supervisor uses to drain and respawn.
"""

from __future__ import annotations

import base64
import binascii
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro import obs as obs_mod
from repro.batch.scanner import DEFAULT_BACKEND, BatchScanner, _settings_fingerprint
from repro.cluster.cache import CacheSpec, build_backend
from repro.cluster.transport import (
    Address,
    TransportError,
    recv_frame,
    send_frame,
)
from repro.core.pipeline import PipelineSettings
from repro.serve.admission import AdmissionConfig
from repro.serve.app import HANG_GRACE_SECONDS, ScanService, ServeResult


@dataclass(frozen=True)
class ShardConfig:
    """Everything a shard process needs, in picklable form."""

    shard_id: int
    settings: Optional[PipelineSettings] = None
    jobs: int = 2
    backend: str = DEFAULT_BACKEND
    queue_depth: int = 16
    max_in_flight: Optional[int] = None
    deadline_seconds: Optional[float] = 30.0
    retry_after_seconds: float = 1.0
    max_pending_async: Optional[int] = None
    hang_grace: float = HANG_GRACE_SECONDS
    cache: CacheSpec = field(default_factory=CacheSpec)
    #: Collect shard-local obs metrics (MemorySink) so ``/metrics``
    #: aggregation has per-shard counters to merge.
    metrics: bool = False
    #: Test-only fault hook: documents whose *name* contains this
    #: marker sleep ``wedge_seconds`` before scanning.
    wedge_marker: Optional[str] = None
    wedge_seconds: float = 30.0


class _WedgingPipeline:
    """Pipeline wrapper that sleeps on marked documents (fault tests)."""

    def __init__(self, inner: Any, marker: str, seconds: float) -> None:
        self._inner = inner
        self._marker = marker
        self._seconds = seconds
        self.obs = getattr(inner, "obs", None)

    def scan(self, data: bytes, name: str = "document.pdf") -> Any:
        if self._marker in name:
            time.sleep(self._seconds)
        return self._inner.scan(data, name)


def build_service(config: ShardConfig) -> ScanService:
    """Materialise one shard's :class:`ScanService` from its config."""
    settings = config.settings if config.settings is not None else PipelineSettings()
    obs = obs_mod.Observability.in_memory() if config.metrics else None
    fingerprint = _settings_fingerprint(settings)
    cache = build_backend(config.cache, fingerprint)
    if config.wedge_marker is not None:
        marker, seconds = config.wedge_marker, config.wedge_seconds
        shared_obs = obs if obs is not None else obs_mod.get_default()

        def pipeline_factory() -> _WedgingPipeline:
            return _WedgingPipeline(
                settings.build(obs=shared_obs), marker, seconds
            )
    else:
        pipeline_factory = None

    scanner = BatchScanner(
        jobs=config.jobs,
        backend=config.backend if pipeline_factory is None else "thread",
        settings=settings,
        pipeline_factory=pipeline_factory,
        cache=cache,
        obs=obs,
    )
    admission = AdmissionConfig(
        max_queue_depth=config.queue_depth,
        max_in_flight=(
            config.max_in_flight if config.max_in_flight is not None
            else config.jobs
        ),
        deadline_seconds=config.deadline_seconds,
        retry_after_seconds=config.retry_after_seconds,
    )
    return ScanService(
        scanner=scanner,
        admission=admission,
        max_pending_async=config.max_pending_async,
        hang_grace=config.hang_grace,
        obs=obs,
    )


class ShardServer:
    """Serve one :class:`ScanService` over framed JSON on a TCP socket."""

    def __init__(
        self,
        service: ScanService,
        shard_id: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.shard_id = shard_id
        self._host = host
        self._port = port
        self._sock: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._closed = False
        #: Invoked once after a completed stop (the process target uses
        #: it to unblock its main thread and exit).
        self.on_stop: Optional[Any] = None

    @property
    def address(self) -> Address:
        assert self._sock is not None, "shard server not started"
        return self._sock.getsockname()[:2]

    def start(self) -> "ShardServer":
        if self._sock is not None:
            return self
        self.service.start()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(128)
        sock.settimeout(0.2)  # the accept loop polls _stopped
        self._sock = sock
        self._thread = threading.Thread(
            target=self._serve, name=f"repro-shard-{self.shard_id}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain_timeout: Optional[float] = 10.0) -> None:
        if self._closed:
            return
        self._closed = True
        self._stopped.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self.service.drain(drain_timeout)
        if self.on_stop is not None:
            self.on_stop()

    # -- the serve loop ----------------------------------------------------

    def _serve(self) -> None:
        assert self._sock is not None
        while not self._stopped.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn: socket.socket) -> None:
        # Generous per-connection timeout: the router bounds its own
        # waits; this only stops a dead router pinning handler threads.
        conn.settimeout(600.0)
        try:
            while True:
                try:
                    frame = recv_frame(conn)
                except TransportError:
                    break
                if frame is None:
                    break
                try:
                    reply = self.dispatch(frame)
                except Exception as error:  # noqa: BLE001 - shard must stay up
                    reply = {
                        "ok": False, "status": 500,
                        "payload": {
                            "error": f"{type(error).__name__}: {error}"
                        },
                    }
                try:
                    send_frame(conn, reply)
                except TransportError:
                    break
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Map one frame onto the service; always returns a reply dict."""
        op = frame.get("op")
        if op == "ping":
            return {"ok": True, "shard": self.shard_id, "pid": os.getpid()}
        if op == "scan":
            return self._scan(frame, asynchronous=False)
        if op == "submit":
            return self._scan(frame, asynchronous=True)
        if op == "job":
            return _encode(self.service.handle_job_status(
                str(frame.get("job", ""))
            ))
        if op == "health":
            reply = _encode(self.service.health())
            reply["payload"]["shard"] = self.shard_id
            reply["payload"]["pid"] = os.getpid()
            return reply
        if op == "metrics":
            return _encode(self.service.metrics())
        if op == "slow":
            return _encode(self.service.debug_slow())
        if op == "shutdown":
            # Acknowledge first; the caller's frame exchange must not
            # race the drain.  The actual stop happens on another
            # thread so this handler can still send the reply.
            threading.Thread(
                target=self.stop,
                kwargs={"drain_timeout": frame.get("drain_timeout", 10.0)},
                daemon=True,
            ).start()
            return {"ok": True, "shard": self.shard_id, "stopping": True}
        return {"ok": False, "status": 400,
                "payload": {"error": f"unknown op {op!r}"}}

    def _scan(self, frame: Dict[str, Any], asynchronous: bool) -> Dict[str, Any]:
        try:
            data = base64.b64decode(frame.get("data_b64", ""), validate=True)
        except (binascii.Error, ValueError) as error:
            return {"ok": True, "status": 400,
                    "payload": {"error": f"bad base64 body: {error}"}}
        name = str(frame.get("name", "document.pdf"))
        limits = frame.get("limits")
        use_cache = bool(frame.get("use_cache", True))
        if asynchronous:
            result = self.service.handle_async_submit(
                data, name, limits, use_cache
            )
        else:
            deadline_left = frame.get("deadline_left")
            result = self.service.handle_scan(
                data, name, limits, use_cache,
                deadline_left=(
                    float(deadline_left) if deadline_left is not None else None
                ),
            )
        return _encode(result)


def _encode(result: ServeResult) -> Dict[str, Any]:
    return {
        "ok": True,
        "status": result.status,
        "payload": result.payload,
        "retry_after": result.retry_after,
    }


def decode_result(reply: Dict[str, Any]) -> ServeResult:
    """Reply frame back into a :class:`ServeResult` (router side)."""
    payload = reply.get("payload")
    if not isinstance(payload, dict):
        payload = {"error": "malformed shard reply"}
    retry_after = reply.get("retry_after")
    return ServeResult(
        int(reply.get("status", 500)),
        payload,
        retry_after=float(retry_after) if retry_after is not None else None,
    )


def run_shard(config: ShardConfig, ready: Any) -> None:
    """Process target: build the service, listen, report, serve, drain.

    ``ready`` is a pipe end; the shard sends ``["host", port]`` once
    listening (or ``{"error": ...}`` if construction failed) and closes
    it.  SIGTERM triggers a graceful stop — drain in-flight scans, then
    exit 0 — which is what the router's supervisor sends on respawn.
    """
    import signal

    try:
        server = ShardServer(
            build_service(config), shard_id=config.shard_id
        ).start()
    except Exception as error:  # noqa: BLE001 - report, don't hang the router
        try:
            ready.send({"error": f"{type(error).__name__}: {error}"})
            ready.close()
        except OSError:
            pass
        raise
    ready.send(list(server.address))
    ready.close()
    done = threading.Event()
    server.on_stop = done.set  # shutdown op ends the process too
    signal.signal(signal.SIGTERM, lambda *_: done.set())
    signal.signal(signal.SIGINT, lambda *_: done.set())
    done.wait()
    server.stop()
    # Exit without running interpreter shutdown joins: a wedged scan
    # thread (abandoned past its budget) would otherwise pin this
    # process open past the supervisor's terminate grace.  Drain
    # already finished everything that could finish.
    os._exit(0)


__all__ = [
    "ShardConfig",
    "ShardServer",
    "build_service",
    "decode_result",
    "run_shard",
]
