"""End-to-end protection pipeline.

Glues the two phases together the way a deployed end-host would run
them:

* :meth:`ProtectionPipeline.protect` — run the front-end over incoming
  PDF bytes, producing a :class:`ProtectedDocument` (instrumented
  bytes + key + de-instrumentation spec).
* :class:`MonitoredSession` — one protected reader session: a simulated
  Windows machine with the trampoline/hook DLL installed, the tiny SOAP
  server and the runtime monitor listening, and a reader process.
* :meth:`ProtectionPipeline.open_protected` — convenience one-shot:
  open a protected document in a fresh session, pump timers, fire the
  close events, and report the verdict.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import limits as limits_mod
from repro import obs as obs_mod
from repro.obs import profile as profile_mod
from repro.core.confine import build_hook_rules
from repro.core.deinstrument import (
    DeinstrumentationPolicy,
    DeinstrumentationSpec,
    deinstrument,
)
from repro.core.detector import (
    F_DROP,
    F_MEMORY,
    F_PROCESS,
    FEATURE_NAMES,
    DetectorConfig,
    FeatureVector,
    Verdict,
)
from repro.core.instrument import InstrumentationResult, Instrumenter
from repro.core.keys import KeyStore
from repro.core.runtime_monitor import Alert, RuntimeMonitor
from repro.core.soap import TinySOAPServer
from repro.core.static_features import StaticFeatures
from repro.limits import DEFAULT_LIMITS, ResourceLimitExceeded, ScanLimits
from repro.pdf.filters import FilterError
from repro.pdf.lexer import LexerError
from repro.pdf.parser import PDFParseError
from repro.reader.reader import OpenOutcome, Reader
from repro.winapi.hooks import DETECTOR_EVENT_PORT, HookMode, TrampolineDLL
from repro.winapi.process import System

#: Exceptions a hostile/corrupt download can legitimately raise out of
#: the parsing front-end.  ``scan`` converts these into an ``errored``
#: :class:`OpenReport` instead of letting them escape — a gateway
#: filter must keep running whatever bytes arrive.  ``RecursionError``
#: is the belt-and-braces backstop behind the nesting-depth budget.
PARSE_ERRORS = (PDFParseError, LexerError, FilterError, RecursionError)


@dataclass
class ProtectedDocument:
    """The front-end's output for one document."""

    data: bytes
    name: str
    key_text: str
    features: StaticFeatures
    spec: DeinstrumentationSpec
    instrumentation: InstrumentationResult
    #: Recursively protected embedded PDF documents (§VI extension).
    embedded: List["ProtectedDocument"] = field(default_factory=list)

    @property
    def has_javascript(self) -> bool:
        return self.features.has_javascript

    @property
    def js_analysis(self):
        """Static JS analysis recorded by the front-end (may be None)."""
        return self.instrumentation.js_analysis

    @property
    def triage_eligible(self) -> bool:
        return self.instrumentation.triage_eligible

    @property
    def triage_proven_malicious(self) -> bool:
        return self.instrumentation.triage_proven_malicious

    @property
    def triage_fail_open_reason(self) -> str:
        return self.instrumentation.triage_fail_open_reason


@dataclass
class OpenReport:
    """Everything observed while opening one protected document.

    ``protected`` is ``None`` only for *errored* reports — documents
    the front-end could not even parse (see :meth:`errored_report`).
    ``outcome`` is additionally ``None`` for *triaged* reports, whose
    verdict was synthesised from static analysis without opening a
    reader session (``triaged=True``).
    """

    protected: Optional[ProtectedDocument]
    outcome: Optional[OpenOutcome]
    verdict: Verdict
    alerts: List[Alert] = field(default_factory=list)
    fake_messages: int = 0
    quarantined_files: List[str] = field(default_factory=list)
    #: Parse/filter error text when the document never reached phase II.
    error: Optional[str] = None
    #: Phase-II emulation was skipped on static-analysis evidence.
    triaged: bool = False
    #: Which resource budget aborted the scan (``"stream-bytes"``,
    #: ``"deadline"``, ...) — set only for budget-errored reports.
    limit_kind: Optional[str] = None
    #: Phase/hotspot attribution when the pipeline ran with
    #: ``profile=True`` (see :mod:`repro.obs.profile`); else None.
    profile: Optional[profile_mod.ScanProfile] = None

    @classmethod
    def errored_report(cls, name: str, error: str) -> "OpenReport":
        """A structured report for a document that could not be scanned."""
        verdict = Verdict(
            malicious=False,
            malscore=0.0,
            features=FeatureVector(tuple([0] * 13)),
            document=name,
            reasons=[f"scan errored: {error}"],
        )
        return cls(protected=None, outcome=None, verdict=verdict, error=error)

    @classmethod
    def limit_report(cls, name: str, exc: ResourceLimitExceeded) -> "OpenReport":
        """A structured report for a scan aborted by a resource budget.

        The evidence names the exact budget (kind, configured limit,
        what blew it) so operators can distinguish a decompression bomb
        from a slow parse from a runaway script.
        """
        evidence = exc.evidence()
        detail = f" ({evidence['detail']})" if evidence.get("detail") else ""
        verdict = Verdict(
            malicious=False,
            malscore=0.0,
            features=FeatureVector(tuple([0] * 13)),
            document=name,
            reasons=[
                f"resource limit exceeded: {evidence['kind']}"
                f" (limit {evidence['limit']}){detail}"
            ],
        )
        return cls(
            protected=None,
            outcome=None,
            verdict=verdict,
            error=str(exc),
            limit_kind=exc.kind,
        )

    @property
    def errored(self) -> bool:
        """The document never produced a verdict (e.g. unparseable)."""
        return self.error is not None

    @property
    def crashed(self) -> bool:
        if self.outcome is None:
            return False
        return self.outcome.crashed or self.outcome.handle.crashed

    @property
    def did_nothing(self) -> bool:
        """No in-JS sensitive op, no crash: the sample was inert (the
        paper's 58 "noise" samples whose CVEs missed the reader version)."""
        return not self.errored and not self.crashed and not self.verdict.features.any_in_js

    @property
    def js_analysis(self):
        """Advisory static-analysis evidence (None for errored reports)."""
        return self.protected.js_analysis if self.protected else None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary (used by the CLI and log sinks)."""
        return {
            "document": self.protected.name if self.protected else self.verdict.document,
            "key": self.protected.key_text if self.protected else None,
            "malicious": self.verdict.malicious,
            "malscore": self.verdict.malscore,
            "features": self.verdict.features.fired(),
            "feature_names": self.verdict.features.fired_names(),
            "reasons": list(self.verdict.reasons),
            "crashed": self.crashed,
            "crash_reason": self.outcome.crash_reason if self.outcome else None,
            "errored": self.errored,
            "error": self.error,
            "limit_kind": self.limit_kind,
            "inert": self.did_nothing,
            "triaged": self.triaged,
            "static_js": self.js_analysis.to_dict() if self.js_analysis else None,
            "profile": self.profile.to_dict() if self.profile else None,
            "fake_messages": self.fake_messages,
            "quarantined": list(self.quarantined_files),
            "alerts": [
                {
                    "document": alert.verdict.document,
                    "malscore": alert.verdict.malscore,
                    "time": alert.time,
                    "confinement": list(alert.confinement_actions),
                }
                for alert in self.alerts
            ],
        }


class MonitoredSession:
    """One protected reader session on a fresh simulated machine."""

    def __init__(
        self,
        key_store: KeyStore,
        config: Optional[DetectorConfig] = None,
        reader_version: str = "9.0",
        hook_mode: HookMode = HookMode.IAT,
        persistent_executables: Optional[Dict[str, str]] = None,
        limits: Optional[ScanLimits] = None,
        obs: Optional[obs_mod.Observability] = None,
    ) -> None:
        self.system = System()
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        self.obs = obs if obs is not None else obs_mod.get_default()
        self.config = config if config is not None else DetectorConfig()
        self.monitor = RuntimeMonitor(
            key_store, self.system, config=self.config, obs=self.obs
        )
        if persistent_executables is not None:
            # §III-E: malscore is volatile per reader session, but "the
            # maintained list of executables is persistently stored" —
            # the pipeline shares one dict across all its sessions.
            self.monitor.downloaded_executables = persistent_executables
        self.soap_server = TinySOAPServer(self.monitor, obs=self.obs)
        self.soap_server.register(self.system.network)
        self.event_channel = self.system.network.register_service(
            "127.0.0.1", DETECTOR_EVENT_PORT, "hook-dll-events"
        )
        self.event_channel.subscribe(self.monitor.handle_syscall_channel)
        trampoline = TrampolineDLL(
            rules=build_hook_rules(self.system.config.whitelisted_programs),
            hook_mode=hook_mode,
        )
        js_steps = self.limits.max_js_steps
        self.reader = Reader(
            system=self.system,
            version=reader_version,
            trampoline=trampoline,
            detector_channel=self.event_channel,
            max_js_steps=js_steps if js_steps is not None else 20_000_000,
            obs=self.obs,
        )

    def open(
        self,
        protected: ProtectedDocument,
        pump_seconds: float = 5.0,
        fire_close: bool = True,
    ) -> OpenReport:
        """Open one protected document and watch what happens."""
        with self.obs.tracer.span("session.open", document=protected.name) as sp:
            virtual_start = self.system.clock.now()
            self._register_tree(protected)
            process = self.reader.process()
            self.monitor.attach_reader_process(process)
            outcome = self.reader.open(protected.data, protected.name)
            if not outcome.crashed:
                self.reader.pump(pump_seconds)
            if fire_close and not outcome.crashed and outcome.handle.open:
                self.reader.close(outcome.handle)
            with self.obs.tracer.span("session.verdict", document=protected.name):
                with profile_mod.phase("verdict"):
                    verdict = self.monitor.verdict_for(protected.key_text)
            sp.set_tag("virtual_s", self.system.clock.now() - virtual_start)
            sp.set_tag("malicious", verdict.malicious)
            sp.set_tag("crashed", outcome.crashed or outcome.handle.crashed)
        return OpenReport(
            protected=protected,
            outcome=outcome,
            verdict=verdict,
            alerts=list(self.monitor.alerts),
            fake_messages=len(self.monitor.fake_messages),
            quarantined_files=list(self.system.filesystem.quarantine_log),
        )

    def _register_tree(self, protected: ProtectedDocument) -> None:
        """Register a protected document and its embedded children."""
        self.monitor.register_document(
            protected.key_text, protected.name, protected.features
        )
        for child in protected.embedded:
            self._register_tree(child)

    def open_raw(self, data: bytes, name: str = "document.pdf") -> OpenOutcome:
        """Open an unprotected document (no front-end, no key)."""
        process = self.reader.process()
        self.monitor.attach_reader_process(process)
        return self.reader.open(data, name)

    def verdict_for(self, protected: ProtectedDocument) -> Verdict:
        return self.monitor.verdict_for(protected.key_text)

    def close(self) -> None:
        self.reader.close_all()
        self.monitor.on_reader_closed()


@dataclass(frozen=True)
class PipelineSettings:
    """Everything needed to (re)build an equivalent pipeline.

    Picklable on purpose: the batch layer ships settings to worker
    threads *and* worker processes, each of which builds its own
    pipeline (``ProtectionPipeline`` instances share mutable state —
    key store, instrumenter RNG, persistent executables — and are not
    safe to share across workers).
    """

    reader_version: str = "9.0"
    seed: Optional[int] = 1301
    hook_mode: HookMode = HookMode.IAT
    config: Optional[DetectorConfig] = None
    #: Opt-in benign-triage fast path: skip Phase-II emulation when
    #: static analysis proves the skip cannot change the verdict.
    triage: bool = False
    #: Resource budgets enforced over every scan (hostile-input armour).
    limits: ScanLimits = DEFAULT_LIMITS
    #: Attach a :class:`~repro.obs.profile.ScanProfile` (phase timings +
    #: JS hotspots) to every ``OpenReport`` this pipeline produces.
    profile: bool = False

    def build(self, obs: Optional[obs_mod.Observability] = None) -> "ProtectionPipeline":
        """A fresh, fully independent pipeline with these settings."""
        return ProtectionPipeline(
            config=self.config,
            reader_version=self.reader_version,
            seed=self.seed,
            hook_mode=self.hook_mode,
            triage=self.triage,
            limits=self.limits,
            profile=self.profile,
            obs=obs,
        )


class ProtectionPipeline:
    """The deployed system: front-end + per-session back-end."""

    def __init__(
        self,
        config: Optional[DetectorConfig] = None,
        reader_version: str = "9.0",
        seed: Optional[int] = 1301,
        deinstrument_policy: Optional[DeinstrumentationPolicy] = None,
        hook_mode: HookMode = HookMode.IAT,
        triage: bool = False,
        limits: Optional[ScanLimits] = None,
        profile: bool = False,
        obs: Optional[obs_mod.Observability] = None,
    ) -> None:
        self.config = config if config is not None else DetectorConfig()
        self.reader_version = reader_version
        self.hook_mode = hook_mode
        self.triage = triage
        self.profile = profile
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        self.settings = PipelineSettings(
            reader_version=reader_version,
            seed=seed,
            hook_mode=hook_mode,
            config=config,
            triage=triage,
            limits=self.limits,
            profile=profile,
        )
        self.obs = obs if obs is not None else obs_mod.get_default()
        self.key_store = KeyStore.create(seed)
        self.instrumenter = Instrumenter(
            key_store=self.key_store, seed=seed, obs=self.obs
        )
        #: Executables downloaded in JS context, shared by every session
        #: this pipeline opens (persistent storage in the paper).
        self.persistent_executables: Dict[str, str] = {}
        self.policy = (
            deinstrument_policy
            if deinstrument_policy is not None
            else DeinstrumentationPolicy()
        )

    def fork(self, obs: Optional[obs_mod.Observability] = None) -> "ProtectionPipeline":
        """A fresh pipeline with identical settings but its own state.

        This is the re-entrancy primitive the batch layer relies on:
        forked pipelines never share the key store, instrumenter RNG or
        monitor state, so each worker can scan concurrently.  Verdicts
        are seed-determined, so a fork scans any document to the same
        verdict as the original (see ``tests/property``).
        """
        return self.settings.build(obs=obs)

    @classmethod
    def from_settings(
        cls,
        settings: PipelineSettings,
        obs: Optional[obs_mod.Observability] = None,
    ) -> "ProtectionPipeline":
        return settings.build(obs=obs)

    # -- Phase I -----------------------------------------------------------

    def protect(self, data: bytes, name: str = "document.pdf") -> ProtectedDocument:
        with limits_mod.activate(self.limits):
            with self.obs.tracer.span("pipeline.protect", document=name):
                result = self.instrumenter.instrument(data, name)
        if self.obs.enabled:
            self.obs.metrics.inc("docs_protected")
        return self._wrap_result(result, name)

    def _wrap_result(self, result: InstrumentationResult, name: str) -> ProtectedDocument:
        return ProtectedDocument(
            data=result.data,
            name=name,
            key_text=result.key_text,
            features=result.features,
            spec=result.spec,
            instrumentation=result,
            embedded=[
                self._wrap_result(sub, sub.spec.document_name)
                for sub in result.embedded
            ],
        )

    # -- Phase II ------------------------------------------------------------

    def session(self) -> MonitoredSession:
        return MonitoredSession(
            self.key_store,
            config=self.config,
            reader_version=self.reader_version,
            hook_mode=self.hook_mode,
            persistent_executables=self.persistent_executables,
            limits=self.limits,
            obs=self.obs,
        )

    def open_protected(
        self,
        protected: ProtectedDocument,
        pump_seconds: float = 5.0,
        fire_close: bool = True,
    ) -> OpenReport:
        session = self.session()
        try:
            return session.open(
                protected, pump_seconds=pump_seconds, fire_close=fire_close
            )
        finally:
            session.close()

    def scan(self, data: bytes, name: str = "document.pdf") -> OpenReport:
        """Protect + open in one go (the common end-host flow).

        Malformed/truncated input never raises: parser-level failures
        come back as a structured report with ``errored=True`` (the
        gateway keeps serving the rest of its queue).

        With ``triage`` enabled, a document whose static analysis is
        provably clean (no JS, or JS with no suspicious findings, no
        side-effect APIs and no active content) skips the monitored
        reader session; its verdict is synthesised from the static
        features alone and is byte-identical to what a full run would
        report.  Anything the analysis is unsure about — including the
        analysis itself erroring — falls through to full emulation.
        """
        with self.obs.tracer.span("pipeline.scan", document=name) as span:
            scan_profile: Optional[profile_mod.ScanProfile] = None
            if self.profile:
                scan_profile = profile_mod.ScanProfile().start()
            with (
                profile_mod.activate(scan_profile)
                if scan_profile is not None
                else contextlib.nullcontext()
            ):
                try:
                    with limits_mod.activate(self.limits):
                        protected = self.protect(data, name)
                        if self.triage and protected.triage_proven_malicious:
                            report = self._triage_malicious_report(protected)
                            span.set_tag("triaged", True)
                            span.set_tag("proven", "malicious")
                        elif self.triage and protected.triage_eligible:
                            report = self._triage_report(protected)
                            span.set_tag("triaged", True)
                        else:
                            report = self.open_protected(protected)
                except ResourceLimitExceeded as error:
                    report = OpenReport.limit_report(name, error)
                    span.set_tag("errored", True)
                    span.set_tag("limit_kind", error.kind)
                except PARSE_ERRORS as error:
                    report = OpenReport.errored_report(
                        name, f"{type(error).__name__}: {error}"
                    )
                    span.set_tag("errored", True)
            if scan_profile is not None:
                report.profile = scan_profile.finish()
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.inc("docs_scanned")
            if self.triage and not report.errored:
                metrics.inc(
                    "triage", result="skipped" if report.triaged else "full"
                )
                if report.triaged:
                    metrics.inc(
                        "triage_proven_malicious"
                        if report.verdict.malicious
                        else "triage_proven_benign"
                    )
                elif report.protected is not None:
                    metrics.inc(
                        "triage_failed_open",
                        reason=report.protected.triage_fail_open_reason
                        or "none",
                    )
            if report.limit_kind is not None:
                metrics.inc("limits_hit", kind=report.limit_kind)
            if report.errored:
                metrics.inc("scan_errors")
            else:
                metrics.inc("verdicts", malicious=report.verdict.malicious)
                metrics.observe(
                    "malscore",
                    report.verdict.malscore,
                    buckets=(0, 1, 2, 5, 10, 15, 20, 30, 50),
                )
        return report

    def _triage_report(self, protected: ProtectedDocument) -> OpenReport:
        """Synthesise the verdict a full benign run would produce.

        Mirrors :meth:`MalscoreDetector.evaluate` over a score state
        with no runtime features fired — which is exactly the state a
        triage-eligible document reaches after a full session (static
        bits alone sum to at most 5 < threshold 10, so the verdict is
        always benign)."""
        vector = FeatureVector.from_sets(protected.features, set())
        score = vector.malscore(self.config)
        verdict = Verdict(
            malicious=score >= self.config.threshold,
            malscore=score,
            features=vector,
            document=protected.name,
            key_text=protected.key_text,
            reasons=[FEATURE_NAMES[f] for f in vector.fired()],
        )
        return OpenReport(
            protected=protected, outcome=None, verdict=verdict, triaged=True
        )

    def _triage_malicious_report(
        self, protected: ProtectedDocument
    ) -> OpenReport:
        """Synthesise a malicious verdict from a static *proof*.

        Mirrors the ``fake_message`` precedent in
        :meth:`MalscoreDetector.evaluate`: a proof outranks the score
        arithmetic, so ``malicious`` is forced True even if the fired
        set alone lands under the threshold.  The fired runtime
        features are the ones the proofs guarantee a full session
        would record: F8 (memory) for a proven heap spray / staged
        exploit, F11+F12 (drop + process) for a proven
        ``exportDataObject(nLaunch>=1)``."""
        assert protected.js_analysis is not None
        proofs = protected.js_analysis.proof_findings()
        fired = set()
        for proof in proofs:
            if proof.rule in ("absint-heap-spray", "absint-staged-eval"):
                fired.add(F_MEMORY)
            elif proof.rule == "absint-export-launch":
                fired.update((F_DROP, F_PROCESS))
        vector = FeatureVector.from_sets(protected.features, fired)
        score = vector.malscore(self.config)
        reasons = [FEATURE_NAMES[f] for f in vector.fired()]
        reasons.extend(f"statically proven: {p.message}" for p in proofs)
        verdict = Verdict(
            malicious=True,
            malscore=score,
            features=vector,
            document=protected.name,
            key_text=protected.key_text,
            reasons=reasons,
        )
        return OpenReport(
            protected=protected, outcome=None, verdict=verdict, triaged=True
        )

    # -- De-instrumentation --------------------------------------------------------

    def maybe_deinstrument(
        self, protected: ProtectedDocument, report: OpenReport
    ) -> Optional[bytes]:
        """After a benign open, restore the original document bytes.

        Returns the de-instrumented bytes when the policy says it is
        time, else None.  Never de-instruments after a malicious or
        crashed open.
        """
        if report.verdict.malicious or report.crashed:
            self.policy.reset(protected.key_text)
            return None
        if not self.policy.record_benign_open(protected.key_text):
            return None
        if not protected.instrumentation.instrumented_scripts:
            return protected.data
        return deinstrument(protected.data, protected.spec)


_default_pipeline: Optional[ProtectionPipeline] = None


def _get_default_pipeline() -> ProtectionPipeline:
    global _default_pipeline
    if _default_pipeline is None:
        _default_pipeline = ProtectionPipeline()
    return _default_pipeline


def protect(data: bytes, name: str = "document.pdf") -> ProtectedDocument:
    """Instrument raw PDF bytes with the default pipeline."""
    return _get_default_pipeline().protect(data, name)


def open_protected(protected: ProtectedDocument, **kwargs: object) -> OpenReport:
    """Open a protected document in a fresh monitored session."""
    return _get_default_pipeline().open_protected(protected, **kwargs)  # type: ignore[arg-type]
