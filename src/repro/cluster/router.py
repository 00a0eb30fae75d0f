"""The cluster front router (``repro.cluster.router``).

:class:`ClusterRouter` fans one host's scan traffic out over N shard
processes.  It duck-types the :class:`~repro.serve.app.ScanService`
method surface (``handle_scan`` / ``handle_batch`` /
``handle_async_submit`` / ``handle_job_status`` / ``health`` /
``metrics`` / ``metrics_prometheus`` / ``debug_slow`` / ``start`` /
``drain``), so the existing HTTP layer
(:func:`repro.serve.http.start_server`) serves a cluster without
changing a line — the router *is* a scan service whose workers happen
to be processes.

Routing
-------
Requests are keyed by the document's SHA-256 digest on a consistent-
hash ring (:mod:`repro.cluster.ring`).  Digest affinity gives each
shard's verdict cache exactly its hash range; ring stability means a
dead shard only spills its own range onto ring successors while it
restarts.

Failure semantics (the contract the fault-injection suite enforces)
-------------------------------------------------------------------
* **Shard unreachable before the request is sent** — nothing executed;
  the router silently re-routes to the next live shard on the ring and
  marks the shard for respawn.
* **Connection breaks mid-request** (SIGKILL mid-scan) — the response
  is lost and the scan may have partially run; the router answers a
  structured ``503`` with ``reason: "shard-failure"`` and a
  ``Retry-After`` hint (at-most-once; clients retry idempotently by
  digest), marks the shard dead — immediately shrinking the live set —
  and respawns it in the background.
* **Wedged shard** — the supervisor probes ``health`` every
  ``probe_interval`` seconds; a probe timeout, a dead process, or
  ``abandoned_workers >= wedge_threshold`` (the serve layer's hung-
  worker accounting) triggers drain + respawn: SIGTERM (graceful
  drain), a short join, then SIGKILL.  Respawn bumps the shard's
  generation, which also invalidates its process-local async jobs —
  polls for them get a structured 404 ``reason: "shard-restarted"``.

Deadlines propagate downward, never upward: the router's per-request
budget rides the ``deadline_left`` seam into the shard's admission
ticket (:func:`repro.limits.merge_deadlines`), so an abandoned router
request cannot keep burning a shard worker.
"""

from __future__ import annotations

import base64
import concurrent.futures as cf
import multiprocessing as mp
import re
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs as obs_mod
from repro.batch.cache import content_digest
from repro.batch.scanner import DEFAULT_BACKEND, _settings_fingerprint
from repro.cluster.cache import (
    KIND_DISK,
    KIND_SERVER,
    CacheSpec,
    run_cache_server,
)
from repro.cluster.ring import DEFAULT_REPLICAS, HashRing
from repro.cluster.transport import Address, TransportError, request
from repro.cluster.worker import ShardConfig, decode_result, run_shard
from repro.core.pipeline import PipelineSettings
from repro.limits import merge_deadlines
from repro.obs.metrics import Metrics
from repro.serve.app import HANG_GRACE_SECONDS, ServeResult, fan_out

#: Shard lifecycle states.
SHARD_LIVE = "live"
SHARD_DEAD = "dead"
SHARD_RESTARTING = "restarting"
SHARD_STOPPED = "stopped"

#: Cluster-level shed/failure reasons (stable strings, like the serve
#: layer's shed vocabulary).
REASON_SHARD_FAILURE = "shard-failure"
REASON_NO_LIVE_SHARDS = "no-live-shards"
REASON_ROUTER_DEADLINE = "router-deadline"
REASON_DRAINING = "draining"
REASON_BAD_JOB_ID = "bad-job-id"
REASON_SHARD_RESTARTED = "shard-restarted"
REASON_UNKNOWN_JOB = "unknown-job"

_JOB_TOKEN = re.compile(r"^s(\d+)\.g(\d+)\.(.+)$")

_LATENCY_BUCKETS = (0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30)


@dataclass(frozen=True)
class ClusterConfig:
    """Tuning knobs for one :class:`ClusterRouter`."""

    #: Worker shard processes.
    shards: int = 4
    #: Scan workers inside each shard.
    shard_jobs: int = 2
    #: Worker backend *inside* a shard ("thread"/"process").
    backend: str = DEFAULT_BACKEND
    #: Per-shard admission queue depth.
    queue_depth: int = 16
    #: Per-shard concurrent scans (defaults to ``shard_jobs``).
    max_in_flight: Optional[int] = None
    #: Router-level per-request deadline (queue wait + scan + hops).
    deadline_seconds: Optional[float] = 30.0
    #: ``Retry-After`` hint on router-level 503s.
    retry_after_seconds: float = 1.0
    #: Per-shard async-backlog cap (None = shard default).
    max_pending_async: Optional[int] = None
    #: Hung-worker grace inside shards (see ``repro.serve``).
    hang_grace: float = HANG_GRACE_SECONDS
    #: Supervisor probe cadence / per-probe timeout.
    probe_interval: float = 0.5
    probe_timeout: float = 2.0
    #: ``abandoned_workers`` at or above this marks a shard wedged.
    wedge_threshold: int = 1
    #: Virtual ring points per shard.
    replicas: int = DEFAULT_REPLICAS
    #: Seconds to wait for a shard process to report its port.
    spawn_timeout: float = 60.0
    #: Seconds a SIGTERMed shard gets to drain before SIGKILL.
    terminate_grace: float = 2.0
    #: Collect per-shard obs metrics (MemorySink in each shard).
    shard_metrics: bool = False

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.probe_interval <= 0 or self.probe_timeout <= 0:
            raise ValueError("probe interval/timeout must be positive")


@dataclass
class ShardHandle:
    """Router-side record of one shard process."""

    shard_id: int
    state: str = SHARD_RESTARTING
    generation: int = 0
    respawns: int = 0
    process: Optional[Any] = None
    address: Optional[Address] = None
    #: Last health payload the supervisor saw (introspection only).
    last_health: Optional[Dict[str, Any]] = None
    lock: threading.Lock = field(default_factory=threading.Lock)

    def snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "shard": self.shard_id,
            "state": self.state,
            "generation": self.generation,
            "respawns": self.respawns,
        }
        if self.process is not None:
            out["pid"] = self.process.pid
        if self.last_health is not None:
            out["health"] = self.last_health
        return out


class ClusterRouter:
    """Consistent-hash front router over shard processes.

    Construct, :meth:`start` (forks the fleet), then call the
    ``handle_*`` surface directly or mount it behind
    :func:`repro.serve.http.start_server`.  :meth:`drain` is terminal,
    like the single-process service's.
    """

    def __init__(
        self,
        settings: Optional[PipelineSettings] = None,
        config: Optional[ClusterConfig] = None,
        cache: Optional[CacheSpec] = None,
        obs: Optional[obs_mod.Observability] = None,
        wedge_marker: Optional[str] = None,
        wedge_seconds: float = 30.0,
    ) -> None:
        self.settings = settings if settings is not None else PipelineSettings()
        self.config = config if config is not None else ClusterConfig()
        self.cache_spec = cache if cache is not None else CacheSpec()
        self.obs = obs if obs is not None else obs_mod.get_default()
        self._wedge_marker = wedge_marker
        self._wedge_seconds = wedge_seconds
        self.ring = HashRing(
            range(self.config.shards), replicas=self.config.replicas
        )
        self.shards: List[ShardHandle] = [
            ShardHandle(shard_id=i) for i in range(self.config.shards)
        ]
        self.started_at = time.time()
        self._started = False
        self._drained = False
        self._lock = threading.Lock()  # guards state flips + counters
        self._counters: Dict[str, Any] = {
            "requests": 0,
            "by_status": {},
            "by_shard": {},
            "reroutes": 0,
            "shard_failures": 0,
            "respawns": {},
        }
        self._supervisor: Optional[threading.Thread] = None
        self._stop_probing = threading.Event()
        self._cache_process: Optional[Any] = None
        try:
            # Forked shards skip re-importing the tree (~0.2 s each);
            # platforms without fork (Windows/macOS-spawn) still work,
            # just boot slower.
            self._mp = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._mp = mp.get_context()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ClusterRouter":
        with self._lock:
            if self._drained:
                raise RuntimeError(
                    "cluster has been drained; build a new ClusterRouter"
                )
            if self._started:
                return self
            self._started = True
        self._start_cache_server()
        for handle in self.shards:
            self._spawn(handle)
        self._supervisor = threading.Thread(
            target=self._probe_loop, name="repro-cluster-supervisor",
            daemon=True,
        )
        self._supervisor.start()
        return self

    def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Terminal shutdown: stop probing, drain every shard, reap."""
        with self._lock:
            if self._drained:
                return True
            self._drained = True
        self._stop_probing.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        per_shard = None
        if timeout is not None:
            per_shard = max(1.0, timeout / max(1, len(self.shards)))
        clean = True
        for handle in self.shards:
            clean &= self._stop_shard(handle, per_shard)
        self._stop_cache_server()
        return clean

    def _stop_shard(self, handle: ShardHandle, timeout: Optional[float]) -> bool:
        with handle.lock:
            handle.state = SHARD_STOPPED
            process, address = handle.process, handle.address
        if process is None:
            return True
        if address is not None:
            try:
                request(
                    address,
                    {"op": "shutdown", "drain_timeout": timeout},
                    timeout=self.config.probe_timeout,
                )
            except TransportError:
                pass
        process.join(timeout=timeout if timeout is not None else 30.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=self.config.terminate_grace)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)
            return False
        return True

    # -- shard process management -----------------------------------------

    def _shard_config(self, handle: ShardHandle) -> ShardConfig:
        spec = self.cache_spec
        if spec.kind == KIND_SERVER and spec.address is None:
            raise RuntimeError("cache server address not resolved yet")
        if spec.kind == KIND_DISK and spec.path is not None:
            # One file per shard: hash ranges are disjoint, so sharing
            # a file would only serialise writers for no extra hits.
            spec = replace(spec, path=f"{spec.path}.shard{handle.shard_id}")
        return ShardConfig(
            shard_id=handle.shard_id,
            settings=self.settings,
            jobs=self.config.shard_jobs,
            backend=self.config.backend,
            queue_depth=self.config.queue_depth,
            max_in_flight=self.config.max_in_flight,
            deadline_seconds=self.config.deadline_seconds,
            retry_after_seconds=self.config.retry_after_seconds,
            max_pending_async=self.config.max_pending_async,
            hang_grace=self.config.hang_grace,
            cache=spec,
            metrics=self.config.shard_metrics,
            wedge_marker=self._wedge_marker,
            wedge_seconds=self._wedge_seconds,
        )

    def _spawn(self, handle: ShardHandle) -> None:
        """Fork one shard and wait for its listening address.

        Caller must hold ``handle.lock`` or be the only thread that can
        see the handle (initial start).
        """
        parent, child = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=run_shard,
            args=(self._shard_config(handle), child),
            name=f"repro-shard-{handle.shard_id}",
            # Daemonic processes cannot fork children, which a shard
            # running the "process" worker backend must do.
            daemon=(self.config.backend != "process"),
        )
        process.start()
        child.close()
        if not parent.poll(self.config.spawn_timeout):
            process.kill()
            raise RuntimeError(
                f"shard {handle.shard_id} did not report within "
                f"{self.config.spawn_timeout:g}s"
            )
        message = parent.recv()
        parent.close()
        if isinstance(message, dict):
            process.join(timeout=5.0)
            raise RuntimeError(
                f"shard {handle.shard_id} failed to start: "
                f"{message.get('error')}"
            )
        host, port = message
        handle.process = process
        handle.address = (host, int(port))
        handle.state = SHARD_LIVE
        self._set_shard_gauges()

    def _shard_failed(
        self, handle: ShardHandle, expected_generation: int, reason: str
    ) -> None:
        """Mark a live shard dead and respawn it in the background.

        Idempotent per generation: concurrent request threads and the
        supervisor all report failures, but only the first transition
        wins — the rest see a bumped generation or a non-live state.
        """
        with self._lock:
            if (
                handle.generation != expected_generation
                or handle.state != SHARD_LIVE
                or self._drained
            ):
                return
            handle.state = SHARD_DEAD
            handle.generation += 1
            self._counters["shard_failures"] += 1
            by_reason = self._counters["respawns"]
            by_reason[reason] = by_reason.get(reason, 0) + 1
        if self.obs.enabled:
            self.obs.metrics.inc("cluster_respawns", reason=reason)
        self._set_shard_gauges()
        threading.Thread(
            target=self._respawn, args=(handle, reason),
            name=f"repro-respawn-{handle.shard_id}", daemon=True,
        ).start()

    def _respawn(self, handle: ShardHandle, reason: str) -> None:
        # Non-blocking: a respawn already in progress holds the lock,
        # and piling further threads behind it helps nobody.
        if not handle.lock.acquire(blocking=False):
            return
        try:
            if handle.state != SHARD_DEAD:
                return
            handle.state = SHARD_RESTARTING
            old = handle.process
            if old is not None and old.is_alive():
                # Graceful first: SIGTERM lets the shard drain admitted
                # scans; a wedged one gets the grace, then SIGKILL.
                old.terminate()
                old.join(timeout=self.config.terminate_grace)
                if old.is_alive():
                    old.kill()
                    old.join(timeout=5.0)
            try:
                self._spawn(handle)
            except RuntimeError:
                handle.state = SHARD_DEAD
                return
            handle.respawns += 1
        finally:
            handle.lock.release()
        self._set_shard_gauges()

    def _live_ids(self) -> Set[int]:
        return {
            handle.shard_id
            for handle in self.shards
            if handle.state == SHARD_LIVE
        }

    # -- supervision -------------------------------------------------------

    def _probe_loop(self) -> None:
        while not self._stop_probing.wait(self.config.probe_interval):
            for handle in self.shards:
                if self._stop_probing.is_set():
                    return
                if handle.state == SHARD_DEAD:
                    # A previous respawn attempt failed (spawn error);
                    # keep trying — _respawn is idempotent per state.
                    threading.Thread(
                        target=self._respawn, args=(handle, "retry"),
                        daemon=True,
                    ).start()
                    continue
                if handle.state != SHARD_LIVE:
                    continue
                generation = handle.generation
                process, address = handle.process, handle.address
                if process is None or address is None:
                    continue
                if not process.is_alive():
                    self._shard_failed(handle, generation, "exited")
                    continue
                try:
                    reply = request(
                        address, {"op": "health"},
                        timeout=self.config.probe_timeout,
                    )
                except TransportError:
                    self._shard_failed(handle, generation, "unresponsive")
                    continue
                payload = reply.get("payload")
                if not isinstance(payload, dict):
                    continue
                handle.last_health = payload
                abandoned = int(payload.get("abandoned_workers", 0) or 0)
                if self.obs.enabled:
                    shard_label = str(handle.shard_id)
                    self.obs.metrics.set_gauge(
                        "cluster_shard_abandoned_workers", abandoned,
                        shard=shard_label,
                    )
                    self.obs.metrics.set_gauge(
                        "cluster_shard_in_flight",
                        int(payload.get("in_flight", 0) or 0),
                        shard=shard_label,
                    )
                    self.obs.metrics.set_gauge(
                        "cluster_shard_queue_depth",
                        int(payload.get("queue_depth", 0) or 0),
                        shard=shard_label,
                    )
                if abandoned >= self.config.wedge_threshold:
                    # The serve layer's hung-worker accounting is the
                    # wedge signal: this shard answered its probe but
                    # is burning slots on scans nobody waits for.
                    self._shard_failed(handle, generation, "wedged")

    def _set_shard_gauges(self) -> None:
        if not self.obs.enabled:
            return
        self.obs.metrics.set_gauge("cluster_live_shards", len(self._live_ids()))
        for handle in self.shards:
            self.obs.metrics.set_gauge(
                "cluster_shard_up",
                1 if handle.state == SHARD_LIVE else 0,
                shard=str(handle.shard_id),
            )

    # -- request paths -----------------------------------------------------

    def handle_scan(
        self,
        data: bytes,
        name: str = "document.pdf",
        limits_spec: Optional[str] = None,
        use_cache: bool = True,
        deadline_left: Optional[float] = None,
    ) -> ServeResult:
        start = time.perf_counter()
        result = self._route_scan(
            data, name, limits_spec, use_cache, deadline_left,
            asynchronous=False,
        )
        self._record_request(result, time.perf_counter() - start)
        return result

    def handle_async_submit(
        self,
        data: bytes,
        name: str = "document.pdf",
        limits_spec: Optional[str] = None,
        use_cache: bool = True,
    ) -> ServeResult:
        start = time.perf_counter()
        result = self._route_scan(
            data, name, limits_spec, use_cache, None, asynchronous=True,
        )
        self._record_request(result, time.perf_counter() - start)
        return result

    def _route_scan(
        self,
        data: bytes,
        name: str,
        limits_spec: Optional[str],
        use_cache: bool,
        deadline_left: Optional[float],
        asynchronous: bool,
    ) -> ServeResult:
        if self._drained:
            return self._unroutable(REASON_DRAINING, "cluster draining", name)
        self.start()
        digest = content_digest(data)
        now = time.monotonic()
        deadline_at = merge_deadlines(
            now + self.config.deadline_seconds
            if self.config.deadline_seconds is not None else None,
            now + deadline_left if deadline_left is not None else None,
        )
        frame: Dict[str, Any] = {
            "op": "submit" if asynchronous else "scan",
            "name": name,
            "data_b64": base64.b64encode(data).decode("ascii"),
            "use_cache": use_cache,
        }
        if limits_spec:
            frame["limits"] = limits_spec
        tried: Set[int] = set()
        while True:
            live = self._live_ids() - tried
            shard_id = self.ring.owner(digest, live=live)
            if shard_id is None:
                return self._unroutable(
                    REASON_NO_LIVE_SHARDS,
                    "no live shard for this document", name, digest,
                )
            handle = self.shards[shard_id]
            generation = handle.generation
            address = handle.address
            if address is None:
                tried.add(shard_id)
                continue
            remaining: Optional[float] = None
            if deadline_at is not None:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    return ServeResult(
                        503,
                        {"error": "request deadline elapsed while routing",
                         "reason": REASON_ROUTER_DEADLINE, "name": name,
                         "sha256": digest},
                        retry_after=self.config.retry_after_seconds,
                    )
                frame["deadline_left"] = remaining
            # The wire wait covers the shard's own deadline handling
            # (worker abandon + grace) plus slack; with no deadline
            # configured anywhere, cap at 10 minutes so a vanished
            # peer can never hang the router thread.
            timeout = (
                remaining + self.config.hang_grace + 2.0
                if remaining is not None else 600.0
            )
            try:
                reply = request(address, frame, timeout=timeout)
            except TransportError as error:
                self._shard_failed(handle, generation, (
                    "mid-request" if error.mid_request else "unreachable"
                ))
                if error.mid_request:
                    return ServeResult(
                        503,
                        {"error": "shard failed while handling this request",
                         "reason": REASON_SHARD_FAILURE, "name": name,
                         "sha256": digest, "shard": shard_id},
                        retry_after=self.config.retry_after_seconds,
                    )
                with self._lock:
                    self._counters["reroutes"] += 1
                tried.add(shard_id)
                continue
            result = decode_result(reply)
            result.payload.setdefault("name", name)
            result.payload["shard"] = shard_id
            if asynchronous and result.status == 202:
                raw = str(result.payload.get("job", ""))
                token = f"s{shard_id}.g{generation}.{raw}"
                result.payload["job"] = token
                result.payload["poll"] = f"/jobs/{token}"
            with self._lock:
                by_shard = self._counters["by_shard"]
                key = str(shard_id)
                by_shard[key] = by_shard.get(key, 0) + 1
            return result

    def handle_batch(
        self,
        items: Sequence[Tuple[str, bytes]],
        limits_spec: Optional[str] = None,
    ) -> ServeResult:
        """Multi-status batch: every item routed by its own digest."""
        if self._drained:
            return self._unroutable(REASON_DRAINING, "cluster draining", "")
        workers = max(1, min(16, len(items)))
        with cf.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-cluster-batch"
        ) as pool:
            return fan_out(pool, self.handle_scan, items, limits_spec)

    def handle_job_status(self, job_token: str) -> ServeResult:
        """Route an async-job poll to the shard that owns the job.

        Job ids are rewritten to ``s<shard>.g<generation>.<id>`` at
        submission.  Jobs live in shard memory, so a poll can only be
        answered by the same shard *process*: a generation mismatch
        means that process is gone, and the poll gets a structured 404
        (``reason: "shard-restarted"``) instead of a misleading
        "unknown job" from the replacement.
        """
        match = _JOB_TOKEN.match(job_token)
        if match is None:
            return ServeResult(404, {
                "error": f"malformed job id {job_token!r} "
                         "(expected s<shard>.g<generation>.<id>)",
                "reason": REASON_BAD_JOB_ID,
            })
        shard_id, generation, raw = (
            int(match.group(1)), int(match.group(2)), match.group(3),
        )
        if shard_id >= len(self.shards):
            return ServeResult(404, {
                "error": f"job {job_token!r} names shard {shard_id}, "
                         f"but the cluster has {len(self.shards)}",
                "reason": REASON_BAD_JOB_ID,
            })
        handle = self.shards[shard_id]
        if generation != handle.generation:
            return ServeResult(404, {
                "error": "async jobs are process-local and shard "
                         f"{shard_id} restarted since this job was "
                         "accepted; resubmit the document",
                "reason": REASON_SHARD_RESTARTED, "shard": shard_id,
            })
        address = handle.address
        if handle.state != SHARD_LIVE or address is None:
            return ServeResult(
                503,
                {"error": f"shard {shard_id} is {handle.state}",
                 "reason": REASON_SHARD_FAILURE, "shard": shard_id},
                retry_after=self.config.retry_after_seconds,
            )
        try:
            reply = request(
                address, {"op": "job", "job": raw},
                timeout=self.config.probe_timeout,
            )
        except TransportError as error:
            self._shard_failed(handle, generation, (
                "mid-request" if error.mid_request else "unreachable"
            ))
            return ServeResult(
                503,
                {"error": "shard failed while answering the poll",
                 "reason": REASON_SHARD_FAILURE, "shard": shard_id},
                retry_after=self.config.retry_after_seconds,
            )
        result = decode_result(reply)
        if result.status == 404:
            result.payload.setdefault("reason", REASON_UNKNOWN_JOB)
        result.payload["shard"] = shard_id
        return result

    # -- introspection -----------------------------------------------------

    def health(self) -> ServeResult:
        live = len(self._live_ids())
        total = len(self.shards)
        if self._drained:
            status, code = "draining", 503
        elif live == total:
            status, code = "ok", 200
        elif live:
            status, code = "degraded", 200
        else:
            status, code = "down", 503
        with self._lock:
            respawns = sum(self._counters["respawns"].values())
        return ServeResult(code, {
            "status": status,
            "uptime_seconds": time.time() - self.started_at,
            "shards": [handle.snapshot() for handle in self.shards],
            "live_shards": live,
            "total_shards": total,
            "respawns": respawns,
        })

    def stats(self) -> Dict[str, Any]:
        """Router-local counters only — no shard round-trips."""
        with self._lock:
            return {
                key: (dict(value) if isinstance(value, dict) else value)
                for key, value in self._counters.items()
            }

    def metrics(self) -> ServeResult:
        router = self.stats()
        shards: Dict[str, Any] = {}
        for handle in self.shards:
            address = handle.address
            if handle.state != SHARD_LIVE or address is None:
                shards[str(handle.shard_id)] = {"state": handle.state}
                continue
            try:
                reply = request(
                    address, {"op": "metrics"},
                    timeout=self.config.probe_timeout,
                )
                shards[str(handle.shard_id)] = reply.get("payload", {})
            except TransportError as error:
                shards[str(handle.shard_id)] = {"error": str(error)}
        payload: Dict[str, Any] = {
            "router": router,
            "live_shards": len(self._live_ids()),
            "shards": shards,
        }
        if self.obs.enabled:
            payload["metrics"] = self.obs.metrics.snapshot()
            latency = self.obs.metrics.histogram(
                "cluster_router_latency_seconds"
            )
            if latency is not None and latency.count:
                payload["latency"] = {
                    "p50_seconds": latency.quantile(0.5),
                    "p95_seconds": latency.quantile(0.95),
                }
        return ServeResult(200, payload)

    def metrics_prometheus(self) -> str:
        live = Metrics()
        live.set_gauge("cluster_live_shards", len(self._live_ids()))
        live.set_gauge("cluster_uptime_seconds", time.time() - self.started_at)
        with self._lock:
            live.set_gauge("cluster_requests_total", self._counters["requests"])
            live.set_gauge("cluster_reroutes_total", self._counters["reroutes"])
            for status, count in self._counters["by_status"].items():
                live.set_gauge(
                    "cluster_requests_by_status", count, status=str(status)
                )
            for reason, count in self._counters["respawns"].items():
                live.set_gauge("cluster_respawns_total", count, reason=reason)
        for handle in self.shards:
            label = str(handle.shard_id)
            live.set_gauge(
                "cluster_shard_up",
                1 if handle.state == SHARD_LIVE else 0, shard=label,
            )
            live.set_gauge(
                "cluster_shard_generation", handle.generation, shard=label
            )
            if handle.last_health is not None:
                for key in ("in_flight", "queue_depth", "abandoned_workers",
                            "pending_jobs"):
                    value = handle.last_health.get(key)
                    if isinstance(value, (int, float)):
                        live.set_gauge(
                            f"cluster_shard_{key}", value, shard=label
                        )
        text = live.render_prometheus()
        if self.obs.enabled:
            text += self.obs.metrics.render_prometheus()
        return text

    def debug_slow(self) -> ServeResult:
        shards: Dict[str, Any] = {}
        for handle in self.shards:
            address = handle.address
            if handle.state != SHARD_LIVE or address is None:
                continue
            try:
                reply = request(
                    address, {"op": "slow"},
                    timeout=self.config.probe_timeout,
                )
                shards[str(handle.shard_id)] = reply.get("payload", {})
            except TransportError:
                continue
        return ServeResult(200, {"shards": shards})

    # -- internals ---------------------------------------------------------

    def respawn_shard(self, shard_id: int, reason: str = "manual") -> None:
        """Operator/test hook: force one shard through drain + respawn."""
        handle = self.shards[shard_id]
        self._shard_failed(handle, handle.generation, reason)

    def wait_all_live(self, timeout: float = 30.0) -> bool:
        """Block until every shard is live (tests; respawn settling)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if len(self._live_ids()) == len(self.shards):
                return True
            time.sleep(0.02)
        return len(self._live_ids()) == len(self.shards)

    def _start_cache_server(self) -> None:
        spec = self.cache_spec
        if spec.kind != KIND_SERVER or spec.address is not None:
            return
        parent, child = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=run_cache_server,
            args=("127.0.0.1", 0, _settings_fingerprint(self.settings)),
            kwargs={"path": spec.path, "ready": child},
            name="repro-cache-server",
            daemon=True,
        )
        process.start()
        child.close()
        if not parent.poll(self.config.spawn_timeout):
            process.kill()
            raise RuntimeError("cache server did not report its address")
        host, port = parent.recv()
        parent.close()
        self._cache_process = process
        self.cache_spec = replace(spec, address=(host, int(port)))

    def _stop_cache_server(self) -> None:
        process, self._cache_process = self._cache_process, None
        if process is None:
            return
        process.terminate()
        process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=2.0)

    def kill_cache_server(self) -> bool:
        """Test hook: SIGKILL the router-owned cache server, if any."""
        process = self._cache_process
        if process is None or not process.is_alive():
            return False
        process.kill()
        process.join(timeout=5.0)
        return True

    def _unroutable(
        self,
        reason: str,
        message: str,
        name: str,
        digest: Optional[str] = None,
    ) -> ServeResult:
        payload: Dict[str, Any] = {
            "error": message, "reason": reason, "name": name,
        }
        if digest is not None:
            payload["sha256"] = digest
        return ServeResult(
            503, payload, retry_after=self.config.retry_after_seconds
        )

    def _record_request(self, result: ServeResult, seconds: float) -> None:
        with self._lock:
            self._counters["requests"] += 1
            by_status = self._counters["by_status"]
            key = str(result.status)
            by_status[key] = by_status.get(key, 0) + 1
        if self.obs.enabled:
            self.obs.metrics.inc(
                "cluster_requests", status=str(result.status)
            )
            self.obs.metrics.observe(
                "cluster_router_latency_seconds", seconds,
                buckets=_LATENCY_BUCKETS,
            )


__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "REASON_BAD_JOB_ID",
    "REASON_DRAINING",
    "REASON_NO_LIVE_SHARDS",
    "REASON_ROUTER_DEADLINE",
    "REASON_SHARD_FAILURE",
    "REASON_SHARD_RESTARTED",
    "REASON_UNKNOWN_JOB",
    "SHARD_DEAD",
    "SHARD_LIVE",
    "SHARD_RESTARTING",
    "SHARD_STOPPED",
    "ShardHandle",
]
