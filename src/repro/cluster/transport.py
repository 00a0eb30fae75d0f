"""Framed JSON-over-TCP transport between router, shards and cache server.

One frame = a 4-byte big-endian length prefix + that many bytes of
UTF-8 JSON.  Document bodies travel base64-encoded inside the JSON
(``data_b64``), mirroring the HTTP batch endpoint's wire shape, so the
whole protocol stays introspectable with ``nc`` + ``jq`` and needs no
third-party serialisation.

Failure taxonomy matters more than speed here: the router must tell

* **could not connect** (shard just died / still booting) — safe to
  re-route the request to the next live shard, nothing was executed;
* **connection broke mid-request** (shard SIGKILLed while scanning) —
  the request may have partially executed; the router answers a
  structured 503 + Retry-After instead of silently retrying, because a
  retry would double-execute against an at-most-once expectation.

:class:`TransportError.mid_request` carries that distinction.  Every
socket carries a timeout — a wedged peer produces a timeout error, not
a hung caller (the "never a hang" clause of the fault-injection suite).

:class:`FrameServer` is the one server side of the protocol: shards
(:class:`~repro.cluster.worker.ShardServer`) and the shared verdict
cache (:class:`~repro.cluster.cache.CacheServer`) subclass it and
supply only their ``dispatch``, error-reply shape, connection timeout
and stop teardown.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Any, Dict, Optional, Tuple

#: Frames larger than this are refused on read — above the HTTP body
#: cap (64 MiB) plus base64 overhead and envelope slack.
MAX_FRAME_BYTES = 96 * 1024 * 1024

_LEN = struct.Struct(">I")

Address = Tuple[str, int]


class TransportError(Exception):
    """A frame exchange failed.

    ``mid_request`` is False when the failure happened before the
    request was delivered (connect refused/timed out — safe to try
    another shard) and True once bytes were on the wire (response lost;
    the caller must surface the failure, not retry blindly).
    """

    def __init__(self, message: str, mid_request: bool = False) -> None:
        super().__init__(message)
        self.mid_request = mid_request


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}",
            mid_request=False,
        )
    try:
        sock.sendall(_LEN.pack(len(body)) + body)
    except (OSError, ValueError) as error:
        raise TransportError(f"send failed: {error}", mid_request=True) from error


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; None on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _LEN.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"peer announced {length}-byte frame (cap {MAX_FRAME_BYTES})",
            mid_request=True,
        )
    body = _recv_exact(sock, length, allow_eof=False)
    assert body is not None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise TransportError(f"bad frame: {error}", mid_request=True) from error
    if not isinstance(payload, dict):
        raise TransportError("frame payload must be a JSON object", mid_request=True)
    return payload


def _recv_exact(
    sock: socket.socket, count: int, allow_eof: bool
) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except socket.timeout as error:
            raise TransportError(
                f"peer silent for {sock.gettimeout():g}s", mid_request=True
            ) from error
        except OSError as error:
            raise TransportError(f"recv failed: {error}", mid_request=True) from error
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise TransportError(
                "connection closed mid-frame", mid_request=True
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def request(
    address: Address,
    payload: Dict[str, Any],
    timeout: Optional[float] = 5.0,
    connect_timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """One request/response round trip on a fresh connection.

    Connect failures raise with ``mid_request=False``; anything after
    the connect raises with ``mid_request=True``.
    """
    try:
        sock = socket.create_connection(
            address, timeout=connect_timeout if connect_timeout else timeout
        )
    except OSError as error:
        raise TransportError(
            f"cannot connect to {address[0]}:{address[1]}: {error}",
            mid_request=False,
        ) from error
    try:
        sock.settimeout(timeout)
        send_frame(sock, payload)
        reply = recv_frame(sock)
    finally:
        try:
            sock.close()
        except OSError:
            pass
    if reply is None:
        raise TransportError("peer closed without replying", mid_request=True)
    return reply


class FrameServer:
    """Thread-per-connection server: ``recv_frame`` → ``dispatch`` →
    ``send_frame`` until the peer hangs up.

    Subclasses implement :meth:`dispatch` (one request frame to one
    reply dict) and :meth:`error_reply` (the reply when ``dispatch``
    raises — the server must stay up), and set ``connection_timeout``:
    how long a connection may sit silent before its handler thread
    gives up on it.  ``name`` names the accept thread.
    """

    connection_timeout: float

    def __init__(self, host: str, port: int, name: str) -> None:
        self._host = host
        self._port = port
        self._name = name
        self._sock: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()

    @property
    def address(self) -> Address:
        assert self._sock is not None, "server not started"
        return self._sock.getsockname()[:2]

    def start(self) -> "FrameServer":
        if self._sock is not None:
            return self
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(128)
        sock.settimeout(0.2)  # the accept loop polls _stopped
        self._sock = sock
        self._thread = threading.Thread(
            target=self._serve, name=self._name, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and close the listener (idempotent).  Open
        connections finish their current frame on their own threads."""
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

    def dispatch(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def error_reply(self, error: Exception) -> Dict[str, Any]:
        raise NotImplementedError

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
        conn.settimeout(self.connection_timeout)
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
                except Exception as error:  # noqa: BLE001 - server must stay up
                    reply = self.error_reply(error)
                try:
                    send_frame(conn, reply)
                except TransportError:
                    break
        finally:
            try:
                conn.close()
            except OSError:
                pass


__all__ = [
    "Address",
    "FrameServer",
    "MAX_FRAME_BYTES",
    "TransportError",
    "recv_frame",
    "request",
    "send_frame",
]
