"""Tests for the benchmark's own helpers (not for the program it measures)."""

import hashlib
import os
import shutil
import socket
import subprocess
import sys
import threading
import time

import pytest

from perfbench import layers, stats, workloads
from perfbench.client import closed_loop
from perfbench.oracle import (
    Expected, Observation, compute_oracle, judge, observe_reply,
)
from repro.core.pipeline import PipelineSettings

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- the percentile rule ---------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_reportable_percentile_is_highest_with_ten_beyond(count, expected):
    assert stats.reportable_percentile(count) == expected
    if expected is not None:
        assert stats.beyond(count, expected) >= stats.MIN_BEYOND
        higher = [p for p in stats.PERCENTILES if p > expected]
        assert all(stats.beyond(count, p) < stats.MIN_BEYOND for p in higher)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert sum(1 for v in values if v > stats.percentile(values, 90)) == 10
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- seed determinism --------------------------------------------------------


def _fingerprint(workload):
    digest = hashlib.sha256()
    for doc in list(workload.docs) + list(workload.warmup):
        digest.update(doc.name.encode() + doc.kind.encode() + doc.data)
    digest.update(repr(workload.order).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", ["full_mixed", "triage_repeat"])
def test_same_seed_same_workload_other_seed_other_workload(name):
    build = workloads.WORKLOADS[name]
    first, again, other = build(3, 0.5), build(3, 0.5), build(4, 0.5)
    assert _fingerprint(first) == _fingerprint(again)
    assert _fingerprint(first) != _fingerprint(other)
    names = [doc.name for doc in first.docs]
    assert len(set(names)) == len(names)
    assert len({doc.data for doc in first.docs}) == len(first.docs)


def test_large_bodies_seeded_and_spanning_the_tiers(monkeypatch):
    monkeypatch.setattr(workloads, "LARGE_DISTINCT", 2)
    first, again = workloads.large_bodies(3, 1.0), workloads.large_bodies(3, 1.0)
    assert _fingerprint(first) == _fingerprint(again)
    sizes = [len(doc.data) for doc in first.docs]
    assert all(0.95 * workloads.LARGE_MIN <= s <= 1.05 * workloads.LARGE_MAX for s in sizes)
    other = workloads.large_bodies(4, 1.0)
    assert _fingerprint(first) != _fingerprint(other)
    # Sizes are fixed; the seed draws the padding, hence the digests.
    assert [len(doc.data) for doc in other.docs] == sizes
    drawn = workloads.large_sizes(16)
    assert drawn[0] == workloads.LARGE_MIN and drawn[-1] == workloads.LARGE_MAX
    assert drawn == sorted(drawn)


def test_full_mixed_thirds_and_every_malicious_kind():
    from repro.corpus.malicious import MaliciousKind

    workload = workloads.full_mixed(5, 2.0)
    kinds = workloads.composition(workload.docs)["kinds"]
    third = len(workload.docs) // 3
    js_kinds = {f"benign-{kind.value}" for kind in workloads.JS_KINDS}
    with_js = sum(n for kind, n in kinds.items() if kind.startswith("benign-") and kind != "benign-plain")
    assert kinds["benign-plain"] == with_js == third
    assert max(kinds[k] for k in js_kinds) - min(kinds[k] for k in js_kinds) <= 1
    assert {f"malicious-{kind.value}" for kind in MaliciousKind} <= set(kinds)
    # Any prefix keeps the malicious kinds in proportion.
    malicious = [doc.kind for doc in workload.docs if doc.kind.startswith("malicious")]
    half = workloads.composition([d for d in workload.docs if d.kind.startswith("malicious")][
        :len(malicious) // 2])["kinds"]
    for kind, count in half.items():
        assert abs(count - malicious.count(kind) / 2) <= 1
    assert workload.bypass_cache and not workload.cluster.triage


def test_triage_repeat_sends_each_document_three_times_per_block():
    workload = workloads.triage_repeat(5, 0.5)
    order = workload.order
    assert all(order.count(i) == workloads.REPEATS for i in range(len(workload.docs)))
    block = workloads.BLOCK * workloads.REPEATS
    for start in range(0, len(order), block):
        assert sorted(set(order[start:start + block])) == sorted(order[start:start + block])[::3]
    benign, with_js, malicious = workloads.table_v_mix(len(workload.docs))
    assert 0.25 < malicious / len(workload.docs) < 0.31 and with_js >= 1
    assert workload.cluster.triage and not workload.bypass_cache


# -- the oracle comparator -------------------------------------------------


def test_oracle_comparator_flags_an_injected_wrong_verdict():
    workload = workloads.full_mixed(6, 0.1)
    items = [(i, doc.name, doc.data) for i, doc in enumerate(workload.docs[:4])]
    oracle = compute_oracle(items, PipelineSettings(triage=True), processes=1)
    assert sorted(oracle) == [0, 1, 2, 3]
    observed = [(i, Observation(oracle[i].key)) for i in oracle]
    assert judge(observed, oracle).mismatches == []
    malicious, errored, limit = oracle[2].key
    wrong = Observation((not malicious, errored, limit))
    observed[2] = (2, wrong)
    assert judge(observed, oracle).mismatches == [(2, wrong, oracle[2])]
    assert judge([(9, observed[0][1])], oracle).mismatches == [(9, observed[0][1], None)]
    assert judge([(0, None)], oracle).mismatches == [(0, None, oracle[0])]


def test_triage_conviction_of_a_crashing_document_is_counted_not_failed():
    crashed_benign = Expected((False, False, None), crashed=True)
    proven = Observation((True, False, None), triaged=True)
    judgement = judge([(0, proven)], {0: crashed_benign})
    assert judgement.mismatches == [] and judgement.crash_convictions == 1
    # Without triage, or without the crash, the same reply is a mismatch.
    assert judge([(0, Observation((True, False, None)))], {0: crashed_benign}).mismatches
    assert judge([(0, proven)], {0: Expected((False, False, None))}).mismatches


def test_observe_reply_reads_reply_verdicts():
    reply = {"malicious": True, "malscore": 12.0, "errored": False, "limit_kind": None,
             "triaged": True}
    assert observe_reply(reply) == Observation((True, False, None), triaged=True)
    assert observe_reply({"errored": True, "limit_kind": "stream-bytes"}).key == (
        False, True, "stream-bytes")


# -- per-layer self times -------------------------------------------------


def test_self_times_subtract_direct_children():
    spans = [
        layers.Span("core.scan", 0.0, 10.0, None, 0),
        layers.Span("core.instrument", 1.0, 5.0, 0, 0),
        layers.Span("pdf.parse", 1.5, 2.5, 1, 0),
        layers.Span("reader.open", 6.0, 9.0, 0, 0),
        layers.Span("js.vm", 7.0, 8.5, 3, 0),
    ]
    own = layers.self_times(spans)
    assert own == pytest.approx({
        "core.scan": 3.0, "core.instrument": 3.0, "pdf.parse": 1.0,
        "reader.open": 1.5, "js.vm": 1.5,
    })
    metrics = layers.inner_metrics(spans, documents=1, triaged=0)
    assert metrics["core.scan_ms"] == pytest.approx(10_000.0)
    assert metrics["pdf.parse_calls"] == 1.0


def test_inner_pass_self_times_sum_to_scan_time():
    workload = workloads.full_mixed(7, 0.1)
    result = layers.inner_pass(workload.docs[:6], workload.warmup[:1],
                               workload.settings, budget=0.0, min_docs=6)
    metrics = result.metrics
    parts = sum(metrics[f"{layer}_ms"] for layer in layers.SELF_TIME_LAYERS)
    assert parts + metrics["core.unattributed_ms"] == pytest.approx(metrics["core.scan_ms"])
    assert metrics["pdf.parse_calls"] == 2.0
    assert all(span.request < 6 for span in result.spans)
    assert set(layers.UNITS) >= set(metrics)


# -- run hygiene ----------------------------------------------------------


def test_hung_request_counts_as_failed_and_does_not_stall_the_loop():
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(8)
    accepted = []
    stop = threading.Event()

    def accept():
        server.settimeout(0.1)
        while not stop.is_set():
            try:
                accepted.append(server.accept()[0])  # never replies
            except socket.timeout:
                continue

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    try:
        start = time.monotonic()
        samples, _ = closed_loop("127.0.0.1", server.getsockname()[1],
                                 [("/scan", b"%PDF-1.4")], clients=2, seconds=0.2,
                                 timeout=0.5)
        assert time.monotonic() - start < 5.0
        assert samples and all(s.status == 0 and s.payload is None for s in samples)
        assert all("ClientTimeout" in s.error for s in samples)
    finally:
        stop.set()
        thread.join(5.0)
        for conn in accepted:
            conn.close()
        server.close()


def test_boot_failure_raises_with_the_server_stderr():
    from perfbench.stack import BootError, ClusterProcess, ClusterSpec

    cluster = ClusterProcess(ClusterSpec(shards=0), ROOT)
    with pytest.raises(BootError) as raised:
        cluster.boot(timeout=60.0)
    assert "shards must be >= 1" in str(raised.value)
    assert cluster.process is None


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert "src" in done.stderr


def test_worker_subprocesses_keep_item_order_and_are_waited_for():
    from perfbench.pool import map_chunked
    from perfbench.stack import alive, child_pids

    items = list(range(7))
    assert map_chunked(list, items, 2) == items
    assert not [pid for pid in child_pids(os.getpid()) if alive(pid)]


def test_oracle_in_worker_subprocesses_matches_in_process():
    workload = workloads.full_mixed(6, 0.1)
    items = [(i, doc.name, doc.data) for i, doc in enumerate(workload.docs[:4])]
    settings = PipelineSettings()
    assert compute_oracle(items, settings, processes=2) == compute_oracle(
        items, settings, processes=1)


def test_orphaned_descendant_is_killed_and_reaped():
    from perfbench.stack import alive, become_subreaper, child_pids, reap_descendants

    become_subreaper()
    done = subprocess.run(["sh", "-c", "sleep 60 </dev/null >/dev/null 2>&1 & echo $!"],
                          capture_output=True, text=True, check=True, timeout=10)
    orphan = int(done.stdout)
    assert orphan in child_pids(os.getpid())
    stray = reap_descendants()
    assert len(stray) == 1 and "sleep 60" in stray[0]
    assert not alive(orphan)
