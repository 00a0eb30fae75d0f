"""Gateway scan benchmark: one closed-loop workload against ``repro cluster``.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload full_mixed --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload full_mixed --seed 1 --seconds 40 --trace 1

``--trace 0`` boots the cluster (2 shard processes x 1 worker) as a
subprocess several times to time set-up, drives the workload from 2
client threads with one keep-alive connection each for ``--seconds``,
checks every verdict against the bare-scan oracle and reports the
end-to-end metrics.  ``--trace 1`` runs a shorter untraced loop for the
reply-derived layer metrics, then the in-process traced passes of
:mod:`perfbench.layers`, and reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with the
base it was measured on, is also written to
``perfbench/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "perfbench", "results")

#: Closed-loop client threads, each with one keep-alive connection.
CLIENTS = 2
#: Cluster boots per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_BOOTS = 3
#: Seconds one request may take before it counts as failed.
REQUEST_TIMEOUT = 60.0
#: Share of ``--seconds`` the traced run spends in its untraced loop and
#: in the inner pass.
TRACE_LOOP_SHARE, TRACE_INNER_SHARE = 0.5, 0.2
#: Documents per ledger pass and per tracemalloc pass.
LEDGER_DOCS = {"full_mixed": 40, "triage_repeat": 40, "large_bodies": 10}
MEMORY_DOCS = 3
#: Warm-up documents each traced pass sends through each layer first.
LAYER_WARMUP_DOCS = 3
#: Seconds per window of the loop whose peak RSS is read; the RSS
#: metrics are the median over windows.  A whole-run peak is set by the
#: rare moment two of the largest bodies overlap in the router, so it
#: jumps between runs.
RSS_WINDOW = 5.0
MB = float(1 << 20)


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("full_mixed", "triage_repeat", "large_bodies"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro source tree under {os.path.join(ROOT, 'src')}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.stack import BootError, become_subreaper, reap_descendants

    become_subreaper()
    try:
        result = _run(args)
    except BootError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        stray = reap_descendants()
        for line in stray:
            print(f"error: {line}", file=sys.stderr)
    if stray:
        result["correct"] = False
        result["notes"].extend(stray)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
    cluster = result["cluster"]
    print(f"base: nproc={result['nproc']} python={result['python']} commit={result['commit']} "
          f"cluster={cluster['shards']}x{cluster['shard_jobs']} triage={cluster['triage']} "
          f"cache={cluster['cache']} nocache={cluster['requests_bypass_cache']} "
          f"clients={result['clients']} seed={result['seed']} seconds={result['seconds']:g} "
          f"requests={result.get('requests', result.get('loop_requests'))}"
          + (f" reportable=p{result['reportable_percentile']:g}"
             if result.get("reportable_percentile") else ""))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for line in result["notes"]:
        print(f"note: {line}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _run(args: argparse.Namespace) -> Dict[str, Any]:
    from perfbench.stack import CACHE
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    base = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "cluster": {
            "shards": workload.cluster.shards,
            "shard_jobs": workload.cluster.shard_jobs,
            "triage": workload.cluster.triage,
            "cache": CACHE,
            "requests_bypass_cache": workload.bypass_cache,
        },
        "clients": CLIENTS,
        "loop": "closed",
    }
    if args.trace:
        return {**base, **_traced(workload, args.seconds, args.seed)}
    return {**base, **_untraced(workload, args.seconds)}


def _boot(workload: Any, boots: int) -> Tuple[Any, List[float], List[str]]:
    """Boot ``boots`` times; all but the last are stopped again.  Returns
    the live cluster, every boot's seconds and any leftover processes."""
    from perfbench.stack import ClusterProcess

    seconds: List[float] = []
    leftovers: List[str] = []
    for attempt in range(boots):
        cluster = ClusterProcess(workload.cluster, ROOT).boot()
        seconds.append(cluster.setup_seconds)
        if attempt < boots - 1:
            leftovers.extend(cluster.stop())
    return cluster, seconds, leftovers


def _warm_up(workload: Any, port: int) -> List[str]:
    """Send every warm-up document once from each client, concurrently,
    so the server's heaps and threads reach the loop's steady state."""
    from perfbench.client import ClientError, KeepAliveConnection

    problems: List[str] = []

    def client() -> None:
        connection = KeepAliveConnection("127.0.0.1", port, REQUEST_TIMEOUT)
        try:
            for doc in workload.warmup:
                try:
                    reply = connection.request("POST", workload.path(doc), doc.data)
                except ClientError as error:
                    problems.append(f"warm-up {doc.name}: {error}")
                    continue
                if reply.status != 200:
                    problems.append(f"warm-up {doc.name}: HTTP {reply.status}")
        finally:
            connection.close()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        # Bounded: each request has REQUEST_TIMEOUT.
        thread.join(REQUEST_TIMEOUT * (len(workload.warmup) + 1))
    return problems


class _RssWindows:
    """Peak RSS of the router and the largest shard over each window of
    the loop: ``VmHWM`` read and reset at every window boundary."""

    def __init__(self, cluster: Any, seconds: float) -> None:
        self.cluster = cluster
        self.windows = max(1, round(seconds / RSS_WINDOW))
        self.interval = seconds / self.windows
        self.peaks: List[Dict[str, float]] = []
        self.notes: List[str] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "_RssWindows":
        self._reset()
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()
        # The last window runs until the in-flight requests finish.
        self.peaks.append(self.cluster.peak_rss_mb())

    def _reset(self) -> None:
        if not self.cluster.reset_peak_rss() and not self.notes:
            self.notes.append("could not reset VmHWM: RSS windows hold the peak so far")

    def _sample(self) -> None:
        for _ in range(self.windows - 1):
            if self._stop.wait(self.interval):
                return
            self.peaks.append(self.cluster.peak_rss_mb())
            self._reset()

    def median(self) -> Dict[str, float]:
        return {key: statistics.median(peak[key] for peak in self.peaks)
                for key in ("router", "shard")}


def _measured_loop(workload: Any, seconds: float, boots: int) -> Dict[str, Any]:
    """Boot, warm up, run the closed loop with its RSS windows, drain."""
    from perfbench.client import closed_loop

    cluster, setup, leftovers = _boot(workload, boots)
    try:
        notes = _warm_up(workload, cluster.port)
        with _RssWindows(cluster, seconds) as rss:
            samples, wall = closed_loop(
                "127.0.0.1", cluster.port, workload.schedule(), CLIENTS, seconds,
                REQUEST_TIMEOUT,
            )
    finally:
        leftovers.extend(cluster.stop())
    return {"samples": samples, "wall": wall, "setup": setup, "rss": rss.median(),
            "rss_windows": rss.peaks, "leftovers": leftovers, "notes": notes + rss.notes,
            "server_stderr": cluster.stderr_text[-4000:]}


def _judge(workload: Any, samples: Sequence[Any], oracle: Dict[int, Any],
           in_process: Sequence[Tuple[int, Any]] = ()) -> Dict[str, Any]:
    """Classify each reply (and each in-process verdict) against the oracle."""
    from perfbench.oracle import judge, observe_reply

    ok, failed, errors = [], 0, []
    observed = list(in_process)
    for sample in samples:
        doc = workload.order[sample.index % len(workload.order)]
        if sample.status != 200 or sample.payload is None or "verdict" not in sample.payload:
            failed += 1
            errors.append(sample.error or f"HTTP {sample.status}")
            continue
        observed.append((doc, observe_reply(sample.payload["verdict"])))
        ok.append(sample)
    judgement = judge(observed, oracle)
    return {"ok": ok, "transport_or_status_failures": failed,
            "mismatches": judgement.mismatches,
            "crash_convictions": judgement.crash_convictions, "errors": errors[:10]}


def _verdict_fields(judged: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "verdict_mismatches": len(judged["mismatches"]),
        "mismatch_detail": [list(map(str, m)) for m in judged["mismatches"][:10]],
        "crash_convictions": judged["crash_convictions"],
        "errors": judged["errors"],
    }


def _notes(run: Dict[str, Any], judged: Dict[str, Any]) -> List[str]:
    notes = list(run["notes"]) + run["leftovers"]
    if judged["crash_convictions"]:
        notes.append(
            f"{judged['crash_convictions']} verdict(s) proven malicious by triage where the "
            "bare scan crashed the reader and reports benign (equivalent by the triage "
            "contract; differs from the strict bare-scan tuple)")
    return notes


def _sample_rows(workload: Any, samples: Sequence[Any]) -> List[List[Any]]:
    """Per request: document index, status, latency ms and the reply's
    shard, cached, seconds and queue_wait fields."""
    rows = []
    for sample in samples:
        payload = sample.payload or {}
        rows.append([workload.order[sample.index % len(workload.order)], sample.status,
                     round(sample.latency * 1000.0, 3), payload.get("shard"),
                     payload.get("cached"), payload.get("seconds"), payload.get("queue_wait")])
    return rows


def _loop_docs(workload: Any, samples: Sequence[Any]) -> List[int]:
    seen: Dict[int, None] = {}
    for sample in samples:
        seen.setdefault(workload.order[sample.index % len(workload.order)], None)
    return list(seen)


def _oracle_for(workload: Any, indices: Sequence[int]) -> Dict[int, Any]:
    from perfbench.oracle import compute_oracle

    items = [(i, workload.docs[i].name, workload.docs[i].data) for i in indices]
    return compute_oracle(items, workload.settings)


def _untraced(workload: Any, seconds: float) -> Dict[str, Any]:
    from perfbench.stats import percentile, reportable_percentile
    from perfbench.workloads import composition

    run = _measured_loop(workload, seconds, SETUP_BOOTS)
    samples, wall = run["samples"], run["wall"]
    sent = _loop_docs(workload, samples)
    oracle_start = time.perf_counter()
    oracle = _oracle_for(workload, sent)
    oracle_seconds = time.perf_counter() - oracle_start
    judged = _judge(workload, samples, oracle)
    ok = judged["ok"]
    latencies = [sample.latency * 1000.0 for sample in ok]
    bodies = sum(
        len(workload.docs[workload.order[s.index % len(workload.order)]].data) for s in ok)
    attempted = len(samples)
    failed = judged["transport_or_status_failures"] + len(judged["mismatches"])
    metrics = {
        "setup_s": _metric(statistics.median(run["setup"]), "s"),
        "docs_per_s": _metric(len(ok) / wall, "docs/s"),
        "body_mb_per_s": _metric(bodies / MB / wall, "MB/s"),
        "latency_p50_ms": _metric(percentile(latencies, 50) if latencies else 0.0, "ms"),
        "latency_p90_ms": _metric(percentile(latencies, 90) if latencies else 0.0, "ms"),
        "router_rss_peak_mb": _metric(run["rss"]["router"], "MB"),
        "shard_rss_peak_mb": _metric(run["rss"]["shard"], "MB"),
    }
    rep = reportable_percentile(len(latencies))
    notes = _notes(run, judged)
    if rep is None or rep < 90:
        notes.append(f"only {len(latencies)} replies: p90 has fewer than 10 samples beyond it")
    if len(samples) > len(workload.order):
        notes.append("schedule wrapped: documents were re-sent")
    sent_docs = [workload.docs[workload.order[s.index % len(workload.order)]] for s in samples]
    return {
        "correct": not judged["mismatches"] and not run["leftovers"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failed_ratio": failed / max(1, attempted),
        **_verdict_fields(judged),
        "requests": attempted,
        "replies_200": len(ok),
        "reportable_percentile": rep,
        "latency_reportable_ms": percentile(latencies, rep) if rep else None,
        "setup_boots_s": run["setup"],
        "rss_window_peaks_mb": run["rss_windows"],
        "wall_s": wall,
        "oracle_s": oracle_seconds,
        "distinct_documents_sent": len(sent),
        "composition": composition(sent_docs),
        "samples": _sample_rows(workload, samples),
        "server_stderr": run["server_stderr"],
        "notes": notes,
    }


def _traced(workload: Any, seconds: float, seed: int) -> Dict[str, Any]:
    from perfbench import layers
    from perfbench.workloads import composition

    run = _measured_loop(workload, max(1.0, seconds * TRACE_LOOP_SHARE), 1)
    samples, wall = run["samples"], run["wall"]
    loop_docs = _loop_docs(workload, samples)
    ok_samples = [s for s in samples if s.status == 200 and s.payload]
    stack_overhead = [
        s.latency - float(s.payload.get("seconds", 0.0)) - float(s.payload.get("queue_wait", 0.0))
        for s in ok_samples
    ]

    unique = list(dict.fromkeys(workload.order))
    ledger_count = LEDGER_DOCS[workload.name]
    inner_docs = [workload.docs[i] for i in unique]
    warmup = workload.warmup[:LAYER_WARMUP_DOCS]
    inner = layers.inner_pass(inner_docs, warmup, workload.settings,
                              seconds * TRACE_INNER_SHARE, ledger_count)
    # Cycles through the documents when the workload has fewer.
    ledger_docs = [inner_docs[i % len(inner_docs)] for i in range(ledger_count)]
    ledger = layers.ledger(
        ledger_docs, warmup, workload.settings, MEMORY_DOCS, REQUEST_TIMEOUT)

    in_process = [(unique[i % len(unique)], key) for i, key in inner.verdicts + ledger.verdicts]
    oracle = _oracle_for(workload, sorted(set(loop_docs) | {doc for doc, _ in in_process}))
    judged = _judge(workload, samples, oracle, in_process)
    wrong = judged["mismatches"]

    per_layer: Dict[str, float] = dict(inner.metrics)
    per_layer.update(ledger.metrics)
    per_layer["batch.cache_hit_ratio"] = (
        sum(1 for s in ok_samples if s.payload.get("cached")) / max(1, len(ok_samples)))
    per_layer["serve.queue_wait_ms"] = 1000.0 * statistics.fmean(
        float(s.payload.get("queue_wait", 0.0)) for s in ok_samples) if ok_samples else 0.0
    per_layer["stack.overhead_ms"] = (
        1000.0 * statistics.median(stack_overhead) if stack_overhead else 0.0)
    metrics = {name: _metric(per_layer[name], unit) for name, unit in layers.UNITS.items()}

    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"spans-{workload.name}-seed{seed}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in inner.spans:
            handle.write(json.dumps(span.to_dict()) + "\n")

    attempted = len(samples) + len(inner.verdicts) + len(ledger.verdicts)
    failed = judged["transport_or_status_failures"] + len(wrong)
    return {
        "correct": not wrong and not run["leftovers"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        **_verdict_fields(judged),
        "loop_requests": len(samples),
        "loop_docs_per_s": len(ok_samples) / wall,
        "inner_scans": len(inner.verdicts) // 2,
        "ledger_documents": ledger_count,
        "ledger_ms": {layer: [t * 1000.0 for t in times] for layer, times in ledger.times.items()},
        "spans_file": os.path.relpath(spans_path, ROOT),
        "composition": composition(ledger_docs),
        "notes": _notes(run, judged),
    }


if __name__ == "__main__":
    sys.exit(main())
