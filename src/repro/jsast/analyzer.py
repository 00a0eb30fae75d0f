"""Script- and document-level static analysis drivers.

:func:`analyze_script` parses one JavaScript source string once, runs
the constant folder and the rule registry over it once, and hands that
parse and rule pass to the abstract interpreter as its top layer; the
result is a :class:`~repro.jsast.report.JSStaticReport`.  Constant
``eval`` arguments get one more layer of the rule treatment, with
findings re-labelled ``eval:<rule>`` so provenance survives.

:func:`analyze_document` runs every JavaScript chain of a parsed PDF
through :func:`analyze_script` and adds *document-level guards*:
active content the static pass cannot vouch for (embedded files,
RichMedia render annotations) makes the document triage-ineligible
regardless of how clean its scripts look.

Everything here is fail-open by construction: an exception anywhere in
parsing or analysis becomes an ``unparseable-js`` / ``analysis-error``
finding (never escapes to the caller), and only a script the proof
tier proved benign is triage-eligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import obs as obs_mod
from repro.js import nodes as ast
from repro.js.errors import JSSyntaxError
from repro.js.parser import parse
from repro.jsast.report import Finding, JSStaticReport, Severity
from repro.jsast.rules import RuleScan, ruleset_version, scan_rules
from repro.obs import profile as profile_mod

#: How many layers of constant ``eval`` arguments to follow.
MAX_NESTED_DEPTH = 2

#: Document guard names (active content forcing full emulation).
GUARD_EMBEDDED_FILE = "embedded-file"
GUARD_RICH_MEDIA = "rich-media"
GUARD_UNDECODABLE_JS = "undecodable-js"


def analyze_script(
    code: str,
    label: str = "script",
    obs: Optional[obs_mod.Observability] = None,
    _depth: int = 0,
) -> JSStaticReport:
    """Statically analyse one script; never raises."""
    obs = obs if obs is not None else obs_mod.get_default()
    report = JSStaticReport(script=label, ruleset_version=ruleset_version())

    with obs.tracer.span("jsast.analyze", script=label, depth=_depth) as span:
        try:
            program = parse(code)
        except JSSyntaxError as exc:
            report.parse_error = str(exc)
            report.findings.append(
                Finding(
                    rule="unparseable-js",
                    severity=Severity.SUSPICIOUS,
                    message=f"script does not parse: {exc}",
                    evidence=code,
                    score=2.0,
                )
            )
        except Exception as exc:  # noqa: BLE001 - fail-open, never raise
            report.parse_error = f"{type(exc).__name__}: {exc}"
            report.findings.append(
                Finding(
                    rule="unparseable-js",
                    severity=Severity.SUSPICIOUS,
                    message=f"parser crashed: {type(exc).__name__}: {exc}",
                    score=2.0,
                )
            )
        else:
            scan = _run_rules(code, program, report, label, obs, _depth)
            if _depth == 0 and report.parse_error is None:
                _run_absint(code, program, scan, report, label, obs)

        report.obfuscation_score = min(
            10.0, sum(f.score for f in report.findings)
        )
        span.set_tag("findings", len(report.findings))
        span.set_tag("suspicious", report.suspicious)
        span.set_tag("eligible", report.triage_eligible)
        if obs.enabled:
            for finding in report.findings:
                obs.metrics.inc("jsast_findings", rule=finding.rule)
            if report.parse_error is not None:
                obs.metrics.inc("jsast_parse_errors")
    return report


def _run_absint(
    code: str,
    program: ast.Program,
    scan: RuleScan,
    report: JSStaticReport,
    label: str,
    obs: obs_mod.Observability,
) -> None:
    """Run the abstract-interpretation proof tier on the script's own
    parse and rule pass (depth 0 only — it peels nested layers
    itself).  Never raises."""
    from repro.jsast.rules_absint import proof_findings, run_absint

    with obs.tracer.span("jsast.absint", script=label) as span:
        with profile_mod.phase("absint"):
            section = run_absint(code, label=label, program=program, scan=scan)
        report.absint = section
        report.findings.extend(proof_findings(section))
        span.set_tag("verdict", section.get("verdict", "unknown"))
        span.set_tag("steps", section.get("steps", 0))
        span.set_tag("max_depth", section.get("max_depth", 0))
        if obs.enabled:
            obs.metrics.inc(
                "absint_verdicts", verdict=section.get("verdict", "unknown")
            )


def _run_rules(
    code: str,
    program: ast.Program,
    report: JSStaticReport,
    label: str,
    obs: obs_mod.Observability,
    depth: int,
) -> RuleScan:
    """Fold, run every registered rule, then follow constant evals."""
    scan = scan_rules(code, program)
    report.findings.extend(scan.findings)
    report.side_effect_apis = list(scan.side_effect_apis)
    if scan.ctx is None:
        report.parse_error = f"analysis error: {scan.error}"
        return scan

    if depth < MAX_NESTED_DEPTH:
        for nested_label, nested_code in scan.ctx.nested:
            nested = analyze_script(
                nested_code,
                label=f"{label}::{nested_label}",
                obs=obs,
                _depth=depth + 1,
            )
            report.findings.extend(
                Finding(
                    rule=f"eval:{f.rule}",
                    severity=f.severity,
                    message=f.message,
                    evidence=f.evidence,
                    score=f.score,
                )
                for f in nested.findings
            )
            report.side_effect_apis = sorted(
                set(report.side_effect_apis) | set(nested.side_effect_apis)
            )
            if nested.parse_error is not None and report.parse_error is None:
                report.parse_error = f"eval layer: {nested.parse_error}"
    elif scan.ctx.nested:
        report.findings.append(
            Finding(
                rule="eval-computed-string",
                severity=Severity.SUSPICIOUS,
                message=f"eval nesting deeper than {MAX_NESTED_DEPTH} layers",
                score=2.0,
            )
        )
    return scan


@dataclass
class DocumentJSAnalysis:
    """Static-analysis outcome for a whole document."""

    reports: List[JSStaticReport] = field(default_factory=list)
    #: Document-level reasons full emulation is required regardless of
    #: script findings (embedded files, render media, ...).
    guards: List[str] = field(default_factory=list)

    @property
    def suspicious(self) -> bool:
        return any(report.suspicious for report in self.reports)

    @property
    def triage_eligible(self) -> bool:
        """True iff skipping Phase-II emulation provably cannot change
        the verdict: no guards, and every script proven benign by
        abstract interpretation."""
        if self.guards:
            return False
        return all(report.triage_eligible for report in self.reports)

    @property
    def proven_malicious(self) -> bool:
        """Abstract interpretation proved at least one script reaches
        detector-flagged behaviour (valid regardless of guards: active
        content can only *add* malice)."""
        return any(report.proven_malicious for report in self.reports)

    def proof_findings(self) -> List[Finding]:
        """Every PROVEN finding across all scripts."""
        return [
            finding
            for report in self.reports
            for finding in report.findings
            if finding.severity >= Severity.PROVEN
        ]

    @property
    def triage_fail_open_reason(self) -> str:
        """Why the document cannot be triaged (``""`` when it can)."""
        if self.proven_malicious or self.triage_eligible:
            return ""
        if self.guards:
            return f"guard:{self.guards[0]}"
        for report in self.reports:
            if report.triage_eligible:
                continue
            if report.parse_error is not None:
                return "parse-error"
            if report.absint:
                reason = str(report.absint.get("reason", ""))
                if reason.startswith(("absint-budget", "absint-error")):
                    return reason
            if report.suspicious:
                return "suspicious-findings"
            if report.side_effect_apis:
                return "side-effect-apis"
            return "not-proven"
        return "not-proven"

    @property
    def finding_count(self) -> int:
        return sum(len(report.findings) for report in self.reports)

    @property
    def obfuscation_score(self) -> float:
        return max(
            (report.obfuscation_score for report in self.reports), default=0.0
        )

    def rules_fired(self) -> List[str]:
        fired = set()
        for report in self.reports:
            fired.update(report.rules_fired())
        return sorted(fired)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reports": [report.to_dict() for report in self.reports],
            "guards": list(self.guards),
            "suspicious": self.suspicious,
            "triage_eligible": self.triage_eligible,
            "proven_malicious": self.proven_malicious,
            "obfuscation_score": self.obfuscation_score,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DocumentJSAnalysis":
        return cls(
            reports=[
                JSStaticReport.from_dict(r) for r in payload.get("reports", [])
            ],
            guards=list(payload.get("guards", [])),
        )


def analyze_document(
    document,
    obs: Optional[obs_mod.Observability] = None,
) -> DocumentJSAnalysis:
    """Analyse every JavaScript chain of a parsed :class:`PDFDocument`.

    Never raises; a script that cannot even be extracted becomes an
    ``undecodable-js`` guard.
    """
    from repro.pdf.objects import PDFStream

    obs = obs if obs is not None else obs_mod.get_default()
    analysis = DocumentJSAnalysis()

    try:
        for entry in document.store:
            value = entry.value
            if isinstance(value, PDFStream):
                if str(value.dictionary.get("Type", "")) == "EmbeddedFile":
                    if GUARD_EMBEDDED_FILE not in analysis.guards:
                        analysis.guards.append(GUARD_EMBEDDED_FILE)
                if "SimCVE" in value.dictionary:
                    if GUARD_RICH_MEDIA not in analysis.guards:
                        analysis.guards.append(GUARD_RICH_MEDIA)
        if "RichMedia" in document.catalog:
            if GUARD_RICH_MEDIA not in analysis.guards:
                analysis.guards.append(GUARD_RICH_MEDIA)
    except Exception:  # noqa: BLE001 - fail-open
        analysis.guards.append(GUARD_UNDECODABLE_JS)

    try:
        actions = list(document.iter_javascript_actions())
    except Exception:  # noqa: BLE001 - fail-open
        analysis.guards.append(GUARD_UNDECODABLE_JS)
        return analysis

    for index, action in enumerate(actions):
        label = action.name or f"{action.trigger}#{index}"
        try:
            code = document.get_javascript_code(action)
        except Exception:  # noqa: BLE001 - fail-open
            analysis.guards.append(GUARD_UNDECODABLE_JS)
            continue
        if not code.strip():
            continue
        analysis.reports.append(analyze_script(code, label=label, obs=obs))
    return analysis
