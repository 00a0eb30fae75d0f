"""Shared verdict-cache backends for the scan cluster.

Three :class:`~repro.batch.cache.CacheBackend` implementations cover
the deployment ladder:

* :class:`~repro.batch.cache.VerdictCache` — per-process in-memory LRU
  (optionally snapshotted to JSON at flush time).  Digest affinity in
  the router means each shard's LRU naturally holds exactly its hash
  range, so this is the cluster default.
* :class:`DiskCacheBackend` — write-through JSON: every ``put`` merges
  the file and atomically rewrites it (tmp + rename), so shards on one
  host share verdicts through the filesystem and survive restarts.
  Concurrency model is load-merge-save under last-writer-wins — the
  file is always a valid, fingerprint-checked snapshot, and concurrent
  writers can at worst re-scan a document, never corrupt the store.
* :class:`SocketCacheBackend` — a client for :class:`CacheServer`, the
  framed-JSON TCP server (a :class:`~repro.cluster.transport.FrameServer`,
  like the shards) that lets many shards (or many *hosts*) share
  one verdict store.  Every remote answer also feeds a local LRU, so
  when the server dies the shard degrades to its local cache and keeps
  scanning (asserted by the conformance suite's crash test); the
  remote is retried after ``retry_seconds``.

The server checks the client's settings fingerprint on every op: a
shard running a different detector configuration gets misses and its
puts are refused, which is the same "never serve a verdict across
configurations" rule the on-disk format enforces with its header.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.batch.cache import VerdictCache
from repro.batch.report import VerdictSummary
from repro.cluster.transport import (
    Address,
    FrameServer,
    TransportError,
    request,
)


class DiskCacheBackend(VerdictCache):
    """Write-through on-disk JSON verdict store.

    The base class persists only on explicit ``save()``; here every
    ``put`` does load-merge-save so sibling processes pointed at the
    same file see each other's verdicts within one scan's latency.
    Reads that miss memory re-load the file once before giving up, so
    a verdict written by another shard is found without restarting.
    """

    def __init__(
        self,
        path: Union[str, Path],
        max_entries: int = 4096,
        fingerprint: str = "",
    ) -> None:
        if path is None:
            raise ValueError("DiskCacheBackend requires a path")
        super().__init__(
            max_entries=max_entries, path=path, fingerprint=fingerprint
        )
        #: Serialises the load-merge-save cycle inside this process;
        #: cross-process writers are last-writer-wins on the rename.
        self._disk_lock = threading.Lock()

    def get(self, digest: str) -> Optional[VerdictSummary]:
        entry = super().get(digest)
        if entry is not None:
            return entry
        # Memory miss: another process may have written the file since
        # our last merge.  load() silently ignores missing/corrupt/
        # mismatched files, so this can only turn a miss into a hit.
        self.load()
        entry = self.peek(digest)
        if entry is not None:
            self.hits += 1
            self.misses -= 1  # undo the miss super().get charged
        return entry

    def put(self, digest: str, summary: VerdictSummary) -> None:
        if summary.errored:
            return
        with self._disk_lock:
            self.load()
            super().put(digest, summary)
            self.save()


# -- socket cache server ------------------------------------------------------

#: Wire ops the cache server understands.
OP_GET = "get"
OP_PUT = "put"
OP_STATS = "stats"
OP_PING = "ping"


class CacheServer(FrameServer):
    """Framed-JSON TCP server sharing one :class:`VerdictCache`.

    Thread-per-connection over the blocking transport — cache ops are
    microseconds of dict work, so the simple model comfortably outruns
    the scan workers that call it.  Run in-process (tests), as a
    router-owned child process (``repro cluster --cache server``) or
    standalone (``repro cache-server``) for multi-host sharing.
    """

    connection_timeout = 10.0

    def __init__(
        self,
        cache: Optional[VerdictCache] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        fingerprint: str = "",
    ) -> None:
        super().__init__(host, port, name="repro-cache-server")
        self.cache = cache if cache is not None else VerdictCache(
            fingerprint=fingerprint
        )
        self.rejected_fingerprint = 0
        self._lock = threading.Lock()

    def stop(self) -> None:
        super().stop()
        self.cache.flush()

    def error_reply(self, error: Exception) -> Dict[str, Any]:
        return {"ok": False, "error": f"{type(error).__name__}: {error}"}

    def dispatch(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        op = frame.get("op")
        if op == OP_PING:
            return {"ok": True, "entries": len(self.cache)}
        if op == OP_STATS:
            return {"ok": True, "stats": self.cache.stats}
        fingerprint = frame.get("fingerprint", "")
        if fingerprint != self.cache.fingerprint:
            # A different detector configuration: miss on get, refuse
            # on put — verdicts never cross configurations.
            with self._lock:
                self.rejected_fingerprint += 1
            return {"ok": True, "found": False, "stored": False,
                    "reason": "fingerprint-mismatch"}
        digest = frame.get("digest", "")
        if op == OP_GET:
            entry = self.cache.get(digest)
            if entry is None:
                return {"ok": True, "found": False}
            return {"ok": True, "found": True, "entry": entry.to_dict()}
        if op == OP_PUT:
            record = frame.get("entry")
            try:
                summary = VerdictSummary.from_dict(record)
            except (KeyError, TypeError, ValueError) as error:
                return {"ok": False, "error": f"bad entry: {error}"}
            self.cache.put(digest, summary)
            return {"ok": True, "stored": True}
        return {"ok": False, "error": f"unknown op {op!r}"}


def run_cache_server(
    host: str,
    port: int,
    fingerprint: str,
    path: Optional[str] = None,
    ready: Any = None,
) -> None:
    """Process target: serve a verdict cache until SIGTERM.

    ``ready`` is an optional pipe end that receives the bound address
    once listening (the router uses it to learn the ephemeral port).
    """
    import signal

    cache: VerdictCache
    if path:
        cache = DiskCacheBackend(path, fingerprint=fingerprint)
    else:
        cache = VerdictCache(fingerprint=fingerprint)
    server = CacheServer(cache=cache, host=host, port=port)
    server.start()
    if ready is not None:
        ready.send(list(server.address))
        ready.close()
    done = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: done.set())
    signal.signal(signal.SIGINT, lambda *_: done.set())
    done.wait()
    server.stop()


class SocketCacheBackend:
    """Cache-server client with a local LRU and graceful degradation.

    Lookup order: local LRU (free) → remote server (one round trip).
    Remote hits are copied into the local LRU; puts write through to
    both.  A :class:`~repro.cluster.transport.TransportError` flips the
    backend into degraded mode — purely local, scans unaffected — and
    the remote is re-probed after ``retry_seconds``.
    """

    def __init__(
        self,
        address: Address,
        fingerprint: str = "",
        max_entries: int = 4096,
        timeout: float = 2.0,
        retry_seconds: float = 5.0,
    ) -> None:
        self.address = (address[0], int(address[1]))
        self.fingerprint = fingerprint
        self.local = VerdictCache(
            max_entries=max_entries, fingerprint=fingerprint
        )
        self.timeout = timeout
        self.retry_seconds = retry_seconds
        self.path = None  # protocol parity with VerdictCache
        self._lock = threading.Lock()
        self._degraded_until = 0.0
        self.remote_hits = 0
        self.remote_errors = 0

    # -- degradation bookkeeping ------------------------------------------

    def _remote_available(self) -> bool:
        with self._lock:
            return time.monotonic() >= self._degraded_until

    def _note_remote_error(self) -> None:
        with self._lock:
            self.remote_errors += 1
            self._degraded_until = time.monotonic() + self.retry_seconds

    def _call(self, payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        if not self._remote_available():
            return None
        try:
            reply = request(self.address, payload, timeout=self.timeout)
        except TransportError:
            self._note_remote_error()
            return None
        if not reply.get("ok"):
            self._note_remote_error()
            return None
        with self._lock:
            self._degraded_until = 0.0
        return reply

    # -- CacheBackend surface ---------------------------------------------

    def get(self, digest: str) -> Optional[VerdictSummary]:
        entry = self.local.get(digest)
        if entry is not None:
            return entry
        reply = self._call({
            "op": OP_GET, "digest": digest, "fingerprint": self.fingerprint,
        })
        if reply is None or not reply.get("found"):
            return None
        try:
            summary = VerdictSummary.from_dict(reply.get("entry"))
        except (KeyError, TypeError, ValueError):
            return None
        with self._lock:
            self.remote_hits += 1
        self.local.put(digest, summary)
        # Correct the local counters: this lookup was a hit overall.
        self.local.misses -= 1
        self.local.hits += 1
        return summary

    def put(self, digest: str, summary: VerdictSummary) -> None:
        if summary.errored:
            return
        self.local.put(digest, summary)
        self._call({
            "op": OP_PUT, "digest": digest, "fingerprint": self.fingerprint,
            "entry": summary.to_dict(),
        })

    @property
    def stats(self) -> Dict[str, Any]:
        out = dict(self.local.stats)
        with self._lock:
            out.update({
                "remote_hits": self.remote_hits,
                "remote_errors": self.remote_errors,
                "degraded": time.monotonic() < self._degraded_until,
            })
        return out

    def flush(self) -> None:
        self.local.flush()

    def close(self) -> None:
        self.flush()

    def save(self) -> None:  # VerdictCache API parity (scanner calls it)
        self.flush()


# -- picklable backend specification -----------------------------------------

#: Backend kinds a :class:`CacheSpec` can name.
KIND_NONE = "none"
KIND_MEMORY = "memory"
KIND_DISK = "disk"
KIND_SERVER = "server"

_KINDS = (KIND_NONE, KIND_MEMORY, KIND_DISK, KIND_SERVER)


@dataclass(frozen=True)
class CacheSpec:
    """Declarative, picklable cache topology for shard configs.

    The router ships one of these to every shard process; the shard
    calls :func:`build_backend` with its settings fingerprint.  For
    ``kind="server"`` with no address, the *router* spawns a cache
    server first and fills the address in, so one flag fans out to the
    whole fleet.
    """

    kind: str = KIND_MEMORY
    path: Optional[str] = None
    address: Optional[Tuple[str, int]] = None
    max_entries: int = 4096

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown cache kind {self.kind!r}")
        if self.kind == KIND_DISK and not self.path:
            raise ValueError("disk cache needs a path")


def build_backend(
    spec: CacheSpec, fingerprint: str
) -> Union[VerdictCache, SocketCacheBackend, None, bool]:
    """Materialise a spec into what ``BatchScanner(cache=...)`` accepts."""
    if spec.kind == KIND_NONE:
        return False  # caching *and* dedup off
    if spec.kind == KIND_MEMORY:
        return VerdictCache(
            max_entries=spec.max_entries, fingerprint=fingerprint
        )
    if spec.kind == KIND_DISK:
        assert spec.path is not None
        return DiskCacheBackend(
            spec.path, max_entries=spec.max_entries, fingerprint=fingerprint
        )
    if spec.address is None:
        raise ValueError("server cache spec has no address (router fills it)")
    return SocketCacheBackend(
        spec.address, fingerprint=fingerprint, max_entries=spec.max_entries
    )


__all__ = [
    "CacheServer",
    "CacheSpec",
    "DiskCacheBackend",
    "KIND_DISK",
    "KIND_MEMORY",
    "KIND_NONE",
    "KIND_SERVER",
    "SocketCacheBackend",
    "build_backend",
    "run_cache_server",
]
