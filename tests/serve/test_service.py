"""In-process service semantics: verdict identity, caching, limits,
shedding and drain — no sockets involved."""

import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time

import pytest

from repro.batch import BatchScanner
from repro.limits import ScanLimits
from repro.serve import AdmissionConfig, ScanService
from repro.serve.jobs import JOB_DONE

from tests.serve.conftest import (
    BOMB_LIMITS_SPEC,
    assert_verdict_matches,
    service_settings,
)

pytestmark = pytest.mark.serve


class TestScanPath:
    @pytest.mark.parametrize("name", ["benign.pdf", "plain.pdf", "malicious.pdf"])
    def test_verdict_matches_pipeline_scan(
        self, service, corpus_docs, expected_verdicts, name
    ):
        result = service.handle_scan(corpus_docs[name], name)
        assert result.status == 200
        assert_verdict_matches(result.payload, expected_verdicts[name], name)
        assert result.payload["cached"] is False
        assert result.payload["report"] is not None

    def test_malformed_document_yields_structured_errored_report(
        self, service, corpus_docs, expected_verdicts
    ):
        result = service.handle_scan(corpus_docs["garbage.pdf"], "garbage.pdf")
        assert result.status == 200  # the *scan* succeeded; the doc errored
        assert result.payload["verdict"]["errored"] is True
        assert_verdict_matches(
            result.payload, expected_verdicts["garbage.pdf"], "garbage.pdf"
        )

    def test_second_request_is_cache_hit_with_same_verdict(
        self, service, corpus_docs
    ):
        first = service.handle_scan(corpus_docs["benign.pdf"], "benign.pdf")
        second = service.handle_scan(corpus_docs["benign.pdf"], "benign.pdf")
        assert first.payload["cached"] is False
        assert second.payload["cached"] is True
        assert second.payload["verdict"] == first.payload["verdict"]

    def test_limit_hit_document_reports_blown_budget(self, service, corpus_docs):
        result = service.handle_scan(
            corpus_docs["bomb.pdf"], "bomb.pdf", limits_spec=BOMB_LIMITS_SPEC
        )
        assert result.status == 200
        verdict = result.payload["verdict"]
        assert verdict["errored"] is True
        assert verdict["limit_kind"] == "stream-bytes"

    def test_limit_hit_matches_one_shot_pipeline(self, service, corpus_docs):
        """Per-request limits must behave exactly like a one-shot scan
        run under the same ``ScanLimits``."""
        from repro import limits as limits_mod

        limits = ScanLimits.parse(BOMB_LIMITS_SPEC)
        with limits_mod.activate(limits):
            one_shot = service_settings().build().scan(
                corpus_docs["bomb.pdf"], "bomb.pdf"
            )
        result = service.handle_scan(
            corpus_docs["bomb.pdf"], "bomb.pdf", limits_spec=BOMB_LIMITS_SPEC
        )
        assert result.payload["verdict"]["limit_kind"] == one_shot.limit_kind
        assert result.payload["verdict"]["errored"] == one_shot.errored

    def test_custom_limits_bypass_the_cache(self, service, corpus_docs):
        service.handle_scan(corpus_docs["benign.pdf"], "benign.pdf")
        relaxed = service.handle_scan(
            corpus_docs["benign.pdf"], "benign.pdf",
            limits_spec="deadline=25",
        )
        assert relaxed.payload["cached"] is False

    def test_nocache_forces_fresh_scan_with_full_report(self, service, corpus_docs):
        """Cache hits answer ``"report": null``; ``use_cache=False`` is
        the documented opt-out for clients that need the OpenReport."""
        first = service.handle_scan(corpus_docs["benign.pdf"], "benign.pdf")
        fresh = service.handle_scan(
            corpus_docs["benign.pdf"], "benign.pdf", use_cache=False
        )
        assert fresh.payload["cached"] is False
        assert fresh.payload["report"] is not None
        assert fresh.payload["verdict"] == first.payload["verdict"]

    def test_empty_body_is_rejected(self, service):
        result = service.handle_scan(b"", "empty.pdf")
        assert result.status == 400

    def test_bad_limits_spec_is_rejected(self, service, corpus_docs):
        result = service.handle_scan(
            corpus_docs["benign.pdf"], "benign.pdf", limits_spec="bogus"
        )
        assert result.status == 400
        assert "limits" in result.payload["error"]


class TestBatchPath:
    def test_multi_status_batch(self, service, corpus_docs, expected_verdicts):
        items = [(name, corpus_docs[name])
                 for name in ("benign.pdf", "plain.pdf", "garbage.pdf")]
        result = service.handle_batch(items)
        assert result.status == 200
        assert result.payload["total"] == 3
        assert result.payload["counts"]["ok"] == 3
        by_name = {entry["name"]: entry for entry in result.payload["items"]}
        for name, _ in items:
            assert_verdict_matches(by_name[name], expected_verdicts[name], name)


class TestAsyncPath:
    def test_job_runs_to_done_with_matching_verdict(
        self, service, corpus_docs, expected_verdicts
    ):
        accepted = service.handle_async_submit(
            corpus_docs["benign.pdf"], "benign.pdf"
        )
        assert accepted.status == 202
        job_id = accepted.payload["job"]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status = service.handle_job_status(job_id)
            if status.payload["state"] in ("done", "shed"):
                break
            time.sleep(0.02)
        assert status.payload["state"] == JOB_DONE
        assert status.payload["status"] == 200
        assert_verdict_matches(
            status.payload["result"], expected_verdicts["benign.pdf"]
        )

    def test_unknown_job_is_404(self, service):
        assert service.handle_job_status("deadbeef").status == 404

    def test_async_firehose_is_shed_with_429_at_submission(self):
        """Submissions beyond ``max_pending_async`` must be refused
        before their bodies are parked on the job pool's queue — the
        unbounded-202 regression."""
        release = threading.Event()

        class BlockingPipeline:
            def scan(self, data, name):
                release.wait(30.0)
                raise RuntimeError("released")

        scanner = BatchScanner(
            jobs=1, settings=service_settings(),
            pipeline_factory=BlockingPipeline, cache=False,
        )
        service = ScanService(
            scanner=scanner,
            admission=AdmissionConfig(max_in_flight=1, deadline_seconds=30.0),
            max_pending_async=2,
        ).start()
        try:
            results = [
                service.handle_async_submit(b"%PDF-1.4 x", f"{i}.pdf")
                for i in range(5)
            ]
            accepted = [r for r in results if r.status == 202]
            shed = [r for r in results if r.status == 429]
            assert len(accepted) == 2
            assert len(shed) == 3
            for result in shed:
                assert result.payload["reason"] == "async-backlog"
                assert result.retry_after is not None
            assert service.jobs.pending_count() == 2
            assert service.metrics().payload["admission"]["shed"][
                "async-backlog"
            ] == 3
        finally:
            release.set()
            service.drain(timeout=10.0)


class TestOverloadAndDrain:
    def test_draining_service_sheds_with_503(self, corpus_docs):
        service = ScanService(settings=service_settings(), jobs=1).start()
        service.admission.start_drain()
        result = service.handle_scan(corpus_docs["benign.pdf"], "benign.pdf")
        assert result.status == 503
        assert result.payload["reason"] == "draining"
        assert result.retry_after is not None
        assert service.health().status == 503
        assert service.drain(timeout=10.0) is True

    def test_queue_full_sheds_with_429(self, corpus_docs):
        service = ScanService(
            settings=service_settings(),
            jobs=1,
            admission=AdmissionConfig(
                max_queue_depth=1, max_in_flight=1, deadline_seconds=10.0
            ),
        ).start()
        try:
            # Occupy the in-flight slot and the single queue slot directly
            # via admission, so the next request cannot even queue.
            holder = service.admission.admit()
            service.admission.acquire(holder)
            waiter = service.admission.admit()
            try:
                result = service.handle_scan(
                    corpus_docs["benign.pdf"], "benign.pdf"
                )
            finally:
                service.admission.release(waiter)
                service.admission.release(holder)
            assert result.status == 429
            assert result.payload["reason"] == "queue-full"
            assert result.retry_after is not None
        finally:
            service.drain(timeout=10.0)

    def test_hung_worker_is_abandoned_not_waited_forever(self):
        """A worker that ignores its budget (stub pipeline sleeping past
        the deadline) gets a 503 after deadline + grace, not a hang —
        and the squatted pool slot is visible to operators until the
        worker finally returns it."""
        class SleepyPipeline:
            def scan(self, data, name):
                time.sleep(0.8)
                raise AssertionError("result is discarded anyway")

        scanner = BatchScanner(
            jobs=1, settings=service_settings(),
            pipeline_factory=SleepyPipeline, cache=False,
        )
        service = ScanService(
            scanner=scanner,
            admission=AdmissionConfig(
                max_in_flight=1, deadline_seconds=0.15
            ),
            hang_grace=0.1,
        ).start()
        try:
            start = time.monotonic()
            result = service.handle_scan(b"%PDF-1.4 whatever", "hung.pdf")
            elapsed = time.monotonic() - start
            assert result.status == 503
            assert "abandoned" in result.payload["error"]
            assert result.retry_after is not None
            assert elapsed < 5.0
            # The hung worker still occupies its slot: surfaced in
            # /healthz so max_in_flight vs. reality is not invisible.
            assert service.abandoned_workers == 1
            assert service.health().payload["abandoned_workers"] == 1
            deadline = time.monotonic() + 5.0
            while service.abandoned_workers:  # worker finishes its sleep
                assert time.monotonic() < deadline, "slot never returned"
                time.sleep(0.02)
            assert service.health().payload["abandoned_workers"] == 0
        finally:
            service.drain(timeout=5.0)

    def test_drain_is_terminal_and_does_not_restart_pools(self, corpus_docs):
        """The drain-resurrection regression: requests arriving after
        drain() must get 503, not silently rebuild the executors."""
        service = ScanService(settings=service_settings(), jobs=1).start()
        assert service.drain(timeout=10.0) is True
        sync = service.handle_scan(corpus_docs["benign.pdf"], "late.pdf")
        assert sync.status == 503
        batch = service.handle_batch([("late.pdf", corpus_docs["benign.pdf"])])
        assert batch.status == 503
        assert batch.retry_after is not None
        job = service.handle_async_submit(corpus_docs["benign.pdf"], "late.pdf")
        assert job.status == 503
        assert service._async_pool is None  # pools stayed down
        assert not service.scanner.started
        with pytest.raises(RuntimeError):
            service.start()

    def test_health_reports_serving_state(self, service):
        health = service.health()
        assert health.status == 200
        assert health.payload["status"] == "ok"
        assert health.payload["workers"] == service.scanner.jobs

    def test_metrics_payload_shape(self, service, corpus_docs):
        service.handle_scan(corpus_docs["plain.pdf"], "plain.pdf")
        metrics = service.metrics()
        assert metrics.status == 200
        assert metrics.payload["admission"]["admitted"] >= 1
        assert "jobs" in metrics.payload
        assert "cache" in metrics.payload


class TestDeadWorker:
    def test_killed_pool_worker_is_replaced_on_next_submit(
        self, corpus_docs, expected_verdicts
    ):
        """A SIGKILLed process-pool worker breaks the executor; the next
        request must get a fresh pool and the bare ``pipeline.scan``
        verdict, not a permanent 503 while ``/healthz`` says 200."""
        before = {child.pid for child in multiprocessing.active_children()}
        service = ScanService(
            settings=service_settings(), jobs=1, backend="process", cache=False,
        ).start()
        try:
            first = service.handle_scan(corpus_docs["benign.pdf"], "benign.pdf")
            assert first.status == 200
            workers = [
                child for child in multiprocessing.active_children()
                if child.pid not in before
            ]
            assert workers, "process backend started no pool worker"
            for worker in workers:
                os.kill(worker.pid, signal.SIGKILL)
            # A sentinel turns ready when its process exits.  The pool's
            # manager thread watches the same sentinels and marks the
            # executor broken; give it a moment to do so.
            sentinels = [worker.sentinel for worker in workers]
            deadline = time.monotonic() + 10.0
            while sentinels and time.monotonic() < deadline:
                for ready in multiprocessing.connection.wait(sentinels, 1.0):
                    sentinels.remove(ready)
            assert not sentinels, "killed pool worker never exited"
            time.sleep(0.5)
            for _ in range(3):
                result = service.handle_scan(
                    corpus_docs["benign.pdf"], "benign.pdf"
                )
                assert result.status == 200, result.payload
                assert_verdict_matches(
                    result.payload, expected_verdicts["benign.pdf"],
                    "benign.pdf",
                )
        finally:
            service.drain(timeout=10.0)
