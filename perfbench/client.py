"""A minimal keep-alive HTTP/1.1 client and the closed-loop driver.

The client speaks raw sockets rather than ``http.client`` so that the
only Nagle/delayed-ACK behaviour the benchmark sees is the server's:
``TCP_NODELAY`` is set and each request leaves in one ``sendall`` (two
for bodies above 64 KiB, which the no-delay socket sends at once).
Every request carries a deadline; a request that misses it counts as
failed and its connection is replaced, so a hung server never stalls
the run.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Bodies up to this size are concatenated with the request head.
_INLINE_BODY = 64 * 1024


class ClientError(Exception):
    """A transport failure: refused, reset, malformed reply or timeout."""


class ClientTimeout(ClientError):
    """The reply did not arrive before the request's deadline."""


@dataclass
class Reply:
    status: int
    body: bytes

    def json(self) -> Dict[str, Any]:
        return json.loads(self.body.decode("utf-8"))


class KeepAliveConnection:
    """One persistent HTTP/1.1 connection to ``host:port``."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._buffer = bytearray()

    def _connect(self) -> socket.socket:
        if self._sock is None:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as error:
                raise ClientError(f"connect failed: {error}") from error
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._buffer.clear()
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._buffer.clear()

    def request(self, method: str, path: str, body: bytes = b"") -> Reply:
        """One exchange; on any failure the connection is dropped."""
        deadline = time.monotonic() + self.timeout
        try:
            sock = self._connect()
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            if len(body) <= _INLINE_BODY:
                sock.sendall(head + body)
            else:
                sock.sendall(head)
                sock.sendall(body)
            return self._read_reply(sock, deadline)
        except socket.timeout as error:
            self.close()
            raise ClientTimeout(f"no reply within {self.timeout:g}s") from error
        except OSError as error:
            self.close()
            raise ClientError(f"{type(error).__name__}: {error}") from error
        except ClientError:
            self.close()
            raise

    def _fill(self, sock: socket.socket, deadline: float) -> None:
        left = deadline - time.monotonic()
        if left <= 0:
            raise ClientTimeout(f"no reply within {self.timeout:g}s")
        sock.settimeout(left)
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ClientError("server closed the connection")
        self._buffer += chunk

    def _read_reply(self, sock: socket.socket, deadline: float) -> Reply:
        while True:
            end = self._buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._fill(sock, deadline)
        head = bytes(self._buffer[:end]).decode("latin-1").split("\r\n")
        del self._buffer[: end + 4]
        try:
            status = int(head[0].split(" ", 2)[1])
        except (IndexError, ValueError) as error:
            raise ClientError(f"bad status line {head[0]!r}") from error
        length = 0
        for line in head[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError as error:
                    raise ClientError(f"bad Content-Length {value!r}") from error
        while len(self._buffer) < length:
            self._fill(sock, deadline)
        body = bytes(self._buffer[:length])
        del self._buffer[:length]
        return Reply(status, body)


def get_json(host: str, port: int, path: str, timeout: float) -> Tuple[int, Dict[str, Any]]:
    """One GET on a fresh connection (health checks)."""
    connection = KeepAliveConnection(host, port, timeout)
    try:
        reply = connection.request("GET", path)
        return reply.status, reply.json()
    finally:
        connection.close()


@dataclass
class Sample:
    """What one measured request produced (``payload`` None on failure)."""

    index: int
    status: int
    latency: float
    payload: Optional[Dict[str, Any]]
    error: Optional[str] = None


def closed_loop(
    host: str,
    port: int,
    schedule: Sequence[Tuple[str, bytes]],
    clients: int,
    seconds: float,
    timeout: float,
) -> Tuple[List[Sample], float]:
    """Drive ``schedule`` (``(path, body)`` pairs, taken in order and
    wrapped if exhausted) from ``clients`` threads, each holding one
    keep-alive connection and sending its next request only after the
    previous reply.  No request starts after ``seconds``; in-flight ones
    finish.  Returns the samples and the loop's wall time.
    """
    lock = threading.Lock()
    cursor = [0]
    samples: List[Sample] = []
    start = time.perf_counter()
    stop_at = start + seconds

    def worker() -> None:
        connection = KeepAliveConnection(host, port, timeout)
        local: List[Sample] = []
        try:
            while time.perf_counter() < stop_at:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                path, body = schedule[index % len(schedule)]
                sent = time.perf_counter()
                try:
                    reply = connection.request("POST", path, body)
                except ClientError as error:
                    local.append(Sample(index, 0, time.perf_counter() - sent,
                                        None, f"{type(error).__name__}: {error}"))
                    continue
                latency = time.perf_counter() - sent
                try:
                    payload = reply.json()
                except ValueError as error:
                    local.append(Sample(index, reply.status, latency, None,
                                        f"bad JSON reply: {error}"))
                    continue
                local.append(Sample(index, reply.status, latency, payload))
        finally:
            connection.close()
            with lock:
                samples.extend(local)

    threads = [
        threading.Thread(target=worker, name=f"perfbench-client-{i}", daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        # Each request is bounded by ``timeout``, so this join is too.
        thread.join(seconds + timeout + 30.0)
    wall = time.perf_counter() - start
    samples.sort(key=lambda sample: sample.index)
    return samples, wall
