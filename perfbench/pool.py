"""Parallel work in plain worker subprocesses.

The oracle and the large-body generator each split their work over a
few ``python3 -c`` workers that take a pickled call on stdin and write
the pickled result to stdout.  Plain subprocesses rather than a
``multiprocessing`` pool, because a pool starts a resource-tracker
process that outlives the benchmark; every worker here is waited for
on every path out of :func:`map_chunked`.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from typing import Any, Callable, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_WORKER = "from perfbench.pool import worker_main; worker_main()"


def map_chunked(
    function: Callable[[List[Any]], List[Any]], items: Sequence[Any], processes: int
) -> List[Any]:
    """``function`` over ``processes`` interleaved chunks of ``items``,
    one worker subprocess per chunk; ``function`` must be picklable and
    return one result per item of its chunk.  Results come back in the
    order of ``items``."""
    if processes <= 1 or len(items) < 2:
        return list(function(list(items)))
    # Interleaved chunks balance slow and fast items across workers.
    chunks = [list(items[i::processes]) for i in range(processes)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    workers: List[subprocess.Popen] = []
    try:
        for _ in chunks:
            workers.append(subprocess.Popen(
                [sys.executable, "-c", _WORKER], cwd=ROOT, env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            ))
        # Each worker reads all of its input before it writes anything.
        for worker, chunk in zip(workers, chunks):
            assert worker.stdin is not None
            pickle.dump((function, chunk), worker.stdin, pickle.HIGHEST_PROTOCOL)
            worker.stdin.close()
        results: List[Any] = [None] * len(items)
        for offset, worker in enumerate(workers):
            assert worker.stdout is not None
            output = worker.stdout.read()
            if worker.wait() != 0:
                raise RuntimeError(f"worker subprocess exited with code {worker.returncode}")
            results[offset::processes] = pickle.loads(output)
        return results
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait()
            for stream in (worker.stdin, worker.stdout):
                if stream is not None:
                    stream.close()


def worker_main() -> None:
    """Worker side: ``(function, chunk)`` pickled on stdin,
    ``function(chunk)`` pickled on stdout."""
    function, chunk = pickle.load(sys.stdin.buffer)
    pickle.dump(function(chunk), sys.stdout.buffer, pickle.HIGHEST_PROTOCOL)
    sys.stdout.buffer.flush()
