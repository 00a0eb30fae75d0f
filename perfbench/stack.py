"""Boot, inspect and stop the production stack: ``repro cluster``.

The cluster runs as a subprocess of the benchmark (HTTP front and
router in one process, each shard a forked child of it), exactly as an
operator starts it.  :class:`ClusterProcess` owns that subprocess:

* :meth:`ClusterProcess.boot` times spawn → ``/healthz`` reporting every
  shard live, under a boot timeout; a boot failure raises with the
  server's stderr attached;
* :meth:`ClusterProcess.peak_rss_mb` reads ``VmHWM`` of the router and
  the shards from ``/proc``, and :meth:`ClusterProcess.reset_peak_rss`
  resets it to the current RSS, so a run can take the peak of each
  window of its loop;
* :meth:`ClusterProcess.stop` sends SIGTERM (the CLI's drain path),
  escalates to SIGKILL after a grace, and reports any router or shard
  process that outlived the drain.

:func:`become_subreaper` and :func:`reap_descendants` are the last line
of defence on every path out of a run: descendants orphaned by their
parent are re-parented to the benchmark, which kills and waits for each
before it exits.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench.client import ClientError, get_json

#: ``repro cluster --cache``: the default per-shard in-memory verdict
#: cache (requests of the cache-off workloads bypass it with nocache=1).
CACHE = "memory"
#: Seconds a boot may take before the run fails.
BOOT_TIMEOUT = 60.0
#: Seconds the SIGTERM drain may take before SIGKILL.
DRAIN_TIMEOUT = 30.0
#: ``prctl`` option that re-parents orphaned descendants to the caller.
PR_SET_CHILD_SUBREAPER = 36


class BootError(RuntimeError):
    """The cluster did not come up; the message carries its stderr."""


@dataclass(frozen=True)
class ClusterSpec:
    """The cluster configuration a workload runs against."""

    shards: int = 2
    shard_jobs: int = 1
    triage: bool = False

    def argv(self) -> List[str]:
        argv = [
            sys.executable, "-m", "repro", "cluster",
            "--host", "127.0.0.1", "--port", "0",
            "--shards", str(self.shards),
            "--shard-jobs", str(self.shard_jobs),
            "--cache", CACHE,
        ]
        if self.triage:
            argv.append("--triage")
        return argv


def _process_state(pid: int) -> Optional[str]:
    """The ``/proc`` state letter of ``pid``, or None when it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            text = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    return text[text.rfind(")") + 2:].split(" ", 1)[0]


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    state = _process_state(pid)
    return state is not None and state not in ("Z", "X")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (every thread's ``children`` list)."""
    children: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return children
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                children.extend(int(text) for text in handle.read().split())
        except (OSError, ValueError):
            continue
    return children


def become_subreaper() -> None:
    """Make orphaned descendants children of this process (Linux)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_descendants() -> List[str]:
    """Kill and wait for every child of this process (orphaned
    descendants included, after :func:`become_subreaper`); returns a
    description of each that was still running."""
    stray: List[str] = []
    pending = child_pids(os.getpid())
    while pending:
        for pid in pending:
            if alive(pid):
                try:
                    with open(f"/proc/{pid}/cmdline", "rb") as handle:
                        command = handle.read().replace(b"\0", b" ").decode("utf-8", "replace")
                except OSError:
                    command = "?"
                stray.append(f"process {pid} outlived the run: {command.strip()[:200]}")
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        # A killed process's own children are re-parented here in turn.
        pending = child_pids(os.getpid())
    return stray


def vm_hwm_mb(pid: int) -> Optional[float]:
    """Peak resident set (``VmHWM``) of ``pid`` in MB, None if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        return None
    return None


@dataclass
class ClusterProcess:
    """One ``repro cluster`` subprocess."""

    spec: ClusterSpec
    root: str
    process: Optional[subprocess.Popen] = None
    port: int = 0
    shard_pids: List[int] = field(default_factory=list)
    setup_seconds: float = 0.0
    _stderr: List[str] = field(default_factory=list)
    _stderr_thread: Optional[threading.Thread] = None

    @property
    def stderr_text(self) -> str:
        return "".join(self._stderr)

    def boot(self, timeout: float = BOOT_TIMEOUT) -> "ClusterProcess":
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONUNBUFFERED"] = "1"
        start = time.perf_counter()
        deadline = time.monotonic() + timeout
        self.process = subprocess.Popen(
            self.spec.argv(), cwd=self.root, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        self._stderr_thread = threading.Thread(
            target=self._drain_stderr, daemon=True
        )
        self._stderr_thread.start()
        try:
            self.port = self._read_port(deadline)
            self._wait_healthy(deadline)
        except BootError:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - start
        return self

    def _drain_stderr(self) -> None:
        assert self.process is not None and self.process.stderr is not None
        for line in self.process.stderr:
            self._stderr.append(line)

    def _read_port(self, deadline: float) -> int:
        """The port from the CLI's ``listening on http://host:port`` line."""
        assert self.process is not None and self.process.stdout is not None
        found: Dict[str, str] = {}

        def read() -> None:
            assert self.process is not None and self.process.stdout is not None
            found["line"] = self.process.stdout.readline()

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(max(0.0, deadline - time.monotonic()))
        line = found.get("line", "")
        marker = "listening on http://"
        if marker not in line:
            raise BootError(self._failure("no listening line on stdout"))
        address = line.split(marker, 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    def _wait_healthy(self, deadline: float) -> None:
        assert self.process is not None
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise BootError(self._failure("cluster exited during boot"))
            try:
                status, health = get_json("127.0.0.1", self.port, "/healthz", 5.0)
            except (ClientError, ValueError):
                time.sleep(0.01)
                continue
            shards = health.get("shards", [])
            if status == 200 and shards and all(
                shard.get("state") == "live" for shard in shards
            ) and health.get("live_shards") == self.spec.shards:
                self.shard_pids = [int(shard["pid"]) for shard in shards]
                return
            time.sleep(0.01)
        raise BootError(self._failure(f"not healthy within {BOOT_TIMEOUT:g}s"))

    def _failure(self, reason: str) -> str:
        if self.process is not None and self.process.poll() is None:
            self.shard_pids = child_pids(self.process.pid)
            self.process.kill()
            self.process.wait(10.0)
        if self._stderr_thread is not None:
            self._stderr_thread.join(5.0)
        return f"cluster boot failed: {reason}\n--- server stderr ---\n{self.stderr_text}"

    def peak_rss_mb(self) -> Dict[str, float]:
        """``VmHWM`` of the router and the largest over the shards."""
        assert self.process is not None
        router = vm_hwm_mb(self.process.pid) or 0.0
        shards = [vm_hwm_mb(pid) or 0.0 for pid in self.shard_pids]
        return {"router": router, "shard": max(shards, default=0.0)}

    def reset_peak_rss(self) -> bool:
        """Reset ``VmHWM`` of the router and the shards to their current
        RSS (``clear_refs`` 5); False if the kernel refused."""
        assert self.process is not None
        done = True
        for pid in [self.process.pid, *self.shard_pids]:
            try:
                with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
                    handle.write("5")
            except OSError:
                done = False
        return done

    def stop(self, timeout: float = DRAIN_TIMEOUT) -> List[str]:
        """SIGTERM drain; returns a description of each process that
        outlived it (each is then killed)."""
        leftovers: List[str] = []
        process = self.process
        if process is None:
            return leftovers
        if process.poll() is None:
            # Shards are the router's children; catch any the health
            # payload did not list (e.g. one mid-respawn).
            self.shard_pids = sorted(set(self.shard_pids) | set(child_pids(process.pid)))
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout)
            except subprocess.TimeoutExpired:
                leftovers.append(f"router pid {process.pid} ignored SIGTERM")
                process.kill()
                process.wait(10.0)
        if process.returncode not in (0, None):
            leftovers.append(f"router exited with code {process.returncode}")
        grace = time.monotonic() + 10.0
        for pid in self.shard_pids:
            while alive(pid) and time.monotonic() < grace:
                time.sleep(0.02)
            if alive(pid):
                leftovers.append(f"shard pid {pid} outlived the router")
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if process.stdout is not None:
            process.stdout.close()
        if self._stderr_thread is not None:
            self._stderr_thread.join(5.0)
        if process.stderr is not None:
            process.stderr.close()
        self.process = None
        return leftovers
