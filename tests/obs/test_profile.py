"""Scan-phase profiler + JS hotspot attribution (repro.obs.profile)."""

import json

import pytest

from repro.core.pipeline import ProtectionPipeline
from repro.js.vm import SAMPLE_STEPS, BytecodeInterpreter
from repro.obs import profile as profile_mod
from repro.obs.profile import PHASES, JSProfile, ScanProfile, SlowScanBuffer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- ScanProfile -----------------------------------------------------------


class TestScanProfile:
    def test_phase_stack_attribution(self):
        clock = FakeClock()
        profile = ScanProfile(clock=clock).start()
        clock.advance(1.0)  # "other" before any phase
        profile.push("parse")
        clock.advance(2.0)
        profile.pop()
        clock.advance(0.5)  # back to "other"
        profile.finish()
        assert profile.phase_self_seconds["parse"] == pytest.approx(2.0)
        assert profile.phase_self_seconds["other"] == pytest.approx(1.5)
        assert profile.total_seconds == pytest.approx(3.5)

    def test_nested_phases_accrue_self_time(self):
        clock = FakeClock()
        profile = ScanProfile(clock=clock).start()
        with profile.phase("parse"):
            clock.advance(1.0)
            with profile.phase("decompress"):
                clock.advance(3.0)
            clock.advance(1.0)
        profile.finish()
        # Each phase keeps its *self* time, not inclusive time.
        assert profile.phase_self_seconds["parse"] == pytest.approx(2.0)
        assert profile.phase_self_seconds["decompress"] == pytest.approx(3.0)

    def test_phases_sum_exactly_to_total(self):
        clock = FakeClock()
        profile = ScanProfile(clock=clock).start()
        for name in ("parse", "jsast", "js-exec"):
            with profile.phase(name):
                clock.advance(0.7)
            clock.advance(0.1)
        profile.finish()
        assert sum(profile.phase_self_seconds.values()) == pytest.approx(
            profile.total_seconds
        )

    def test_phase_seconds_zero_fills_canonical_phases(self):
        profile = ScanProfile(clock=FakeClock()).start()
        profile.finish()
        phases = profile.phase_seconds()
        assert set(PHASES) <= set(phases)
        assert all(value >= 0.0 for value in phases.values())

    def test_counters(self):
        profile = ScanProfile(clock=FakeClock())
        profile.count("js_steps", 10)
        profile.count("js_steps", 5)
        profile.count("scripts_executed")
        assert profile.counters == {"js_steps": 15, "scripts_executed": 1}

    def test_to_dict_is_json_serialisable(self):
        clock = FakeClock()
        profile = ScanProfile(clock=clock).start()
        with profile.phase("parse"):
            clock.advance(1.0)
        profile.count("decompressed_bytes", 42)
        profile.finish()
        payload = json.loads(json.dumps(profile.to_dict()))
        assert payload["total_seconds"] == pytest.approx(1.0)
        assert payload["phases"]["parse"] == pytest.approx(1.0)
        assert payload["counters"] == {"decompressed_bytes": 42}
        assert "hotspots" in payload["js"]


class TestAmbientScope:
    def test_inactive_by_default(self):
        assert profile_mod.current() is None
        with profile_mod.phase("parse") as active:
            assert active is None  # no-op, no crash
        profile_mod.count("x")  # no-op

    def test_activate_scopes_the_profile(self):
        profile = ScanProfile(clock=FakeClock()).start()
        with profile_mod.activate(profile):
            assert profile_mod.current() is profile
            profile_mod.count("hits")
        assert profile_mod.current() is None
        assert profile.counters == {"hits": 1}

    def test_module_phase_marks_active_profile(self):
        clock = FakeClock()
        profile = ScanProfile(clock=clock).start()
        with profile_mod.activate(profile):
            with profile_mod.phase("monitor"):
                clock.advance(2.0)
        profile.finish()
        assert profile.phase_self_seconds["monitor"] == pytest.approx(2.0)


# -- JSProfile -------------------------------------------------------------


class TestJSProfile:
    def test_samples_bill_the_following_interval(self):
        clock = FakeClock()
        profile = JSProfile(clock=clock)
        profile.sample("ForStatement")
        clock.advance(1.0)
        profile.sample("CallExpression")
        clock.advance(2.0)
        profile.pause()
        clock.advance(5.0)  # host code between two scripts: not JS time
        profile.sample("ForStatement")
        clock.advance(0.5)
        profile.pause()
        assert profile.node_self_seconds == pytest.approx(
            {"ForStatement": 1.5, "CallExpression": 2.0}
        )
        assert profile.node_hits == {"ForStatement": 2, "CallExpression": 1}
        assert profile.total_self_seconds == pytest.approx(3.5)

    def test_call_self_time_excludes_callees(self):
        clock = FakeClock()
        profile = JSProfile(clock=clock)
        outer = profile.enter_call("outer")
        clock.advance(0.5)
        inner = profile.enter_call("inner")
        clock.advance(1.0)
        profile.exit_call(inner)
        clock.advance(0.5)
        profile.exit_call(outer)
        sites = {row["function"]: row for row in profile.call_sites()}
        assert sites["outer"]["seconds"] == pytest.approx(2.0)
        assert sites["outer"]["self_seconds"] == pytest.approx(1.0)
        assert sites["inner"]["self_seconds"] == pytest.approx(1.0)

    def test_hotspots_ranked_by_self_time(self):
        clock = FakeClock()
        profile = JSProfile(clock=clock)
        for kind, seconds in (("Cheap", 0.1), ("Costly", 5.0), ("Middling", 1.0)):
            profile.sample(kind)
            clock.advance(seconds)
        profile.pause()
        ranked = [row["node"] for row in profile.hotspots(2)]
        assert ranked == ["Costly", "Middling"]

    def test_call_sites_and_collapsed_lines(self):
        clock = FakeClock()
        profile = JSProfile(clock=clock)
        for _ in range(2):
            start = profile.enter_call("outer")
            clock.advance(1.0)
            inner = profile.enter_call("inner")
            clock.advance(2.0)
            profile.exit_call(inner)
            profile.exit_call(start)

        sites = profile.call_sites()
        assert [row["function"] for row in sites] == ["outer", "inner"]
        outer, inner = sites
        assert outer == pytest.approx(
            {"function": "outer", "seconds": 6.0, "self_seconds": 2.0, "calls": 2}
        )
        assert inner["calls"] == 2
        assert inner["self_seconds"] == pytest.approx(4.0)
        assert profile.collapsed_lines() == [
            "(root);outer 2000000",
            "(root);outer;inner 4000000",
        ]

    def test_merge_accumulates(self):
        clock = FakeClock()
        a, b = JSProfile(clock=clock), JSProfile(clock=clock)
        for profile, kinds in ((a, ["Node"]), (b, ["Node", "Other"])):
            for kind in kinds:
                profile.sample(kind)
                clock.advance(1.0)
            profile.pause()
            start = profile.enter_call("f")
            clock.advance(1.0)
            profile.exit_call(start)
        a.merge(b)
        assert a.node_hits == {"Node": 2, "Other": 1}
        assert a.node_self_seconds["Node"] == pytest.approx(2.0)
        assert a.call_sites()[0]["calls"] == 2
        assert a.collapsed_lines() == ["(root);f 2000000"]
        # b is untouched.
        assert b.node_hits == {"Node": 1, "Other": 1}
        assert b.call_sites()[0]["calls"] == 1


class TestVMSampling:
    """The bytecode VM drives JSProfile: sampled nodes, timed calls."""

    LOOP = "var s = 0; for (var i = 0; i < 3000; i++) { s += i; } s"

    def _profiled(self, source, clock=None):
        interp = BytecodeInterpreter()
        profile = JSProfile(clock=clock or FakeClock())
        interp.set_profile(profile)
        result = interp.run(source)
        return interp, profile, result

    def test_samples_every_few_steps_with_walker_node_kinds(self):
        interp, profile, result = self._profiled(self.LOOP)
        assert result == sum(range(3000))
        samples = sum(profile.node_hits.values())
        assert interp.steps // (2 * SAMPLE_STEPS) <= samples
        assert samples <= interp.steps // (SAMPLE_STEPS // 2) + 1
        assert set(profile.node_hits) <= {
            "Program", "VarDeclaration", "ForStatement", "BinaryExpression",
            "Identifier", "NumberLiteral", "UpdateExpression", "Block",
            "ExpressionStatement", "AssignmentExpression",
        }
        assert {"BinaryExpression", "Identifier"} <= set(profile.node_hits)

    def test_same_program_gives_identical_hits(self):
        _, first, _ = self._profiled(self.LOOP)
        _, second, _ = self._profiled(self.LOOP)
        assert first.node_hits == second.node_hits

    def test_sampling_leaves_results_and_steps_unchanged(self):
        plain = BytecodeInterpreter()
        expected = plain.run(self.LOOP)
        interp, _, result = self._profiled(self.LOOP)
        assert (result, interp.steps) == (expected, plain.steps)

    def test_calls_and_natives_are_timed(self):
        _, profile, result = self._profiled(
            "function twice(x) { return x + x; }"
            " var out = ''; for (var i = 0; i < 5; i++)"
            " { out += twice(String.fromCharCode(65 + i)); } out"
        )
        assert result == "AABBCCDDEE"
        calls = {row["function"]: row["calls"] for row in profile.call_sites()}
        assert calls == {"twice": 5, "fromCharCode": 5}

    def test_script_time_is_billed_to_sampled_nodes(self):
        clock = FakeClock()

        def ticking():
            clock.advance(0.001)
            return clock.now

        _, profile, _ = self._profiled(self.LOOP, clock=ticking)
        samples = sum(profile.node_hits.values())
        # Each sample bills one tick of the clock; the run's last
        # interval is closed when the script returns.
        assert profile.total_self_seconds == pytest.approx(0.001 * samples)


# -- SlowScanBuffer --------------------------------------------------------


class TestSlowScanBuffer:
    def test_fixed_threshold(self):
        buffer = SlowScanBuffer(threshold_seconds=0.5)
        assert buffer.observe("fast.pdf", 0.4) is False
        assert buffer.observe("slow.pdf", 0.6, digest="abc",
                              detail={"queue_wait": 0.1}) is True
        snap = buffer.snapshot()
        assert snap["retained"] == 1 and snap["observed"] == 2
        (entry,) = snap["entries"]
        assert entry["name"] == "slow.pdf"
        assert entry["sha256"] == "abc"
        assert entry["queue_wait"] == 0.1

    def test_rolling_p99_arms_after_min_samples(self):
        buffer = SlowScanBuffer(min_samples=10)
        # Cold buffer: nothing retained, even outliers.
        assert buffer.observe("early-outlier.pdf", 100.0) is False
        for index in range(9):
            assert buffer.observe(f"warm{index}.pdf", 0.01) is False
        # Armed now; p99 of the window is dominated by the early outlier
        # but a fresh outlier beyond it is retained.
        assert buffer.observe("slow.pdf", 200.0) is True
        assert buffer.observe("normal.pdf", 0.01) is False

    def test_ring_capacity_keeps_newest(self):
        buffer = SlowScanBuffer(capacity=2, threshold_seconds=0.0)
        for index in range(4):
            buffer.observe(f"doc{index}.pdf", float(index + 1))
        snap = buffer.snapshot()
        assert [e["name"] for e in snap["entries"]] == ["doc3.pdf", "doc2.pdf"]
        assert snap["retained"] == 4  # retained counts all, ring keeps 2

    def test_clear(self):
        buffer = SlowScanBuffer(threshold_seconds=0.0)
        buffer.observe("a.pdf", 1.0)
        buffer.clear()
        snap = buffer.snapshot()
        assert snap["entries"] == [] and snap["observed"] == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SlowScanBuffer(capacity=0)


# -- pipeline integration --------------------------------------------------


class TestPipelineProfiling:
    def test_profiled_scan_attaches_profile(self, js_doc_bytes, monkeypatch):
        executed = []
        run_code = BytecodeInterpreter._run_code

        def spy(self, code, *args):
            executed.append(code)
            return run_code(self, code, *args)

        monkeypatch.setattr(BytecodeInterpreter, "_run_code", spy)
        pipeline = ProtectionPipeline(seed=7, profile=True)
        report = pipeline.scan(js_doc_bytes, "with-js.pdf")
        profile = report.profile
        assert profile is not None and profile.finished
        phases = profile.phase_seconds()
        # Acceptance bound: phase durations sum to within 5% of the
        # total (the stack construction makes them equal exactly).
        assert sum(phases.values()) == pytest.approx(
            profile.total_seconds, rel=0.05
        )
        # The phases a JS-bearing scan must traverse all saw time.
        for name in ("parse", "jsast", "instrument", "js-exec"):
            assert phases[name] > 0.0, name
        assert profile.counters.get("scripts_executed", 0) >= 1
        assert profile.counters.get("js_steps", 0) > 0
        # The VM ran the scripts, and every sampled node kind is one its
        # executed bytecode charged a step to.
        assert executed
        charged = {kind for code in executed for ticks in code.kinds for kind in ticks}
        assert profile.js.hotspots(5)
        assert set(profile.js.node_hits) <= charged

    def test_profiling_a_document_twice_gives_identical_hits(self, js_doc_bytes):
        pipeline = ProtectionPipeline(seed=7, profile=True)
        first = pipeline.scan(js_doc_bytes, "with-js.pdf").profile
        second = pipeline.scan(js_doc_bytes, "with-js.pdf").profile
        assert first.js.node_hits
        assert first.js.node_hits == second.js.node_hits

    def test_profile_is_in_report_dict(self, js_doc_bytes):
        pipeline = ProtectionPipeline(seed=7, profile=True)
        report = pipeline.scan(js_doc_bytes, "with-js.pdf")
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["profile"]["total_seconds"] > 0.0
        assert "js-exec" in payload["profile"]["phases"]

    def test_unprofiled_scan_has_no_profile(self, js_doc_bytes):
        pipeline = ProtectionPipeline(seed=7)
        report = pipeline.scan(js_doc_bytes, "with-js.pdf")
        assert report.profile is None
        assert report.to_dict()["profile"] is None

    def test_concurrent_scans_do_not_share_profiles(self, js_doc_bytes):
        import threading

        pipeline = ProtectionPipeline(seed=7, profile=True)
        reports = [None] * 4

        def scan(index):
            reports[index] = pipeline.scan(js_doc_bytes, f"doc{index}.pdf")

        threads = [
            threading.Thread(target=scan, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        profiles = [report.profile for report in reports]
        assert all(profile is not None for profile in profiles)
        assert len({id(profile) for profile in profiles}) == 4
        for profile in profiles:
            assert sum(profile.phase_seconds().values()) == pytest.approx(
                profile.total_seconds, rel=0.05
            )
