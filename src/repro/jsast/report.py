"""Structured results of static JS analysis.

A :class:`Finding` is one rule firing on one script; a
:class:`JSStaticReport` aggregates every finding for one script plus
the obfuscation score and the script's *triage eligibility* — whether
the proof tier proved it safe to skip runtime emulation for it.  Both
serialise to JSON (``repro lint --json``, ``OpenReport.to_dict``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Longest evidence excerpt carried in a finding.
MAX_EVIDENCE_CHARS = 160


class Severity(enum.IntEnum):
    """How strongly a finding indicates malice.

    Findings are advisory evidence; only the proof tier grants triage.
    A SUSPICIOUS+ finding on any layer the abstract interpreter analyses
    blocks its PROVEN-BENIGN verdict (``INFO`` findings never do).
    """

    INFO = 1
    SUSPICIOUS = 2
    STRONG = 3
    #: Abstract interpretation *proved* the behaviour (not a pattern
    #: match): see :mod:`repro.jsast.rules_absint`.
    PROVEN = 4


#: Findings at or above this severity block a PROVEN-BENIGN verdict.
TRIAGE_SEVERITY = Severity.SUSPICIOUS


@dataclass(frozen=True)
class Finding:
    """One rule firing on one script."""

    rule: str
    severity: Severity
    message: str
    #: Source/constant excerpt that triggered the rule (truncated).
    evidence: str = ""
    #: Contribution to the script's obfuscation score (0 for behaviour
    #: rules that indicate intent rather than obfuscation).
    score: float = 0.0

    def __post_init__(self) -> None:
        if len(self.evidence) > MAX_EVIDENCE_CHARS:
            object.__setattr__(
                self, "evidence", self.evidence[: MAX_EVIDENCE_CHARS - 1] + "…"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity.name.lower(),
            "message": self.message,
            "evidence": self.evidence,
            "score": self.score,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Finding":
        return cls(
            rule=str(payload["rule"]),
            severity=Severity[str(payload["severity"]).upper()],
            message=str(payload.get("message", "")),
            evidence=str(payload.get("evidence", "")),
            score=float(payload.get("score", 0.0)),
        )


@dataclass
class JSStaticReport:
    """Everything static analysis learned about one script."""

    script: str
    findings: List[Finding] = field(default_factory=list)
    #: 0–10; how hard the script works to hide what it does.
    obfuscation_score: float = 0.0
    #: Syntax/lexer error text when the script did not parse.
    parse_error: Optional[str] = None
    #: APIs with runtime side effects the detector scores (SOAP.request,
    #: exportDataObject, app.setTimeOut, ...) that the script names.
    #: Non-empty blocks a PROVEN-BENIGN verdict.
    side_effect_apis: List[str] = field(default_factory=list)
    #: The rule-set that produced this report (cache invalidation).
    ruleset_version: str = ""
    #: Abstract-interpretation section (:mod:`repro.jsast.rules_absint`
    #: ``run_absint`` output); ``None`` when the absint tier did not run.
    absint: Optional[Dict[str, Any]] = None

    @property
    def max_severity(self) -> int:
        return max((f.severity for f in self.findings), default=0)

    @property
    def suspicious(self) -> bool:
        """Any finding at or above the triage severity?"""
        return self.max_severity >= TRIAGE_SEVERITY

    @property
    def absint_verdict(self) -> str:
        """``proven-benign`` / ``proven-malicious`` / ``unknown``."""
        if not self.absint:
            return "unknown"
        return str(self.absint.get("verdict", "unknown"))

    @property
    def proven_benign(self) -> bool:
        return self.absint_verdict == "proven-benign"

    @property
    def proven_malicious(self) -> bool:
        return self.absint_verdict == "proven-malicious"

    @property
    def triage_eligible(self) -> bool:
        """May the runtime phase be skipped for this script?  Only when
        abstract interpretation *proved* it cannot reach a scored API
        channel; a clean lint result alone never suffices (aliasing and
        computed names walk past syntactic checks)."""
        return self.proven_benign

    def rules_fired(self) -> List[str]:
        return sorted({f.rule for f in self.findings})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "script": self.script,
            "findings": [f.to_dict() for f in self.findings],
            "obfuscation_score": self.obfuscation_score,
            "parse_error": self.parse_error,
            "side_effect_apis": list(self.side_effect_apis),
            "triage_eligible": self.triage_eligible,
            "ruleset_version": self.ruleset_version,
            "absint": self.absint,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JSStaticReport":
        return cls(
            script=str(payload.get("script", "script")),
            findings=[Finding.from_dict(f) for f in payload.get("findings", [])],
            obfuscation_score=float(payload.get("obfuscation_score", 0.0)),
            parse_error=payload.get("parse_error"),
            side_effect_apis=list(payload.get("side_effect_apis", [])),
            ruleset_version=str(payload.get("ruleset_version", "")),
            absint=payload.get("absint"),
        )
