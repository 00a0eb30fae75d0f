"""Static JavaScript analysis (``repro.jsast``).

Phase I's five static features never look *inside* the extracted
JavaScript; this package does.  It walks the :mod:`repro.js.nodes` AST
of every script on a JavaScript chain, folds one layer of constant
strings (`fold`), and runs a registry of lint rules (`rules`) over the
folded tree.  Each script yields a :class:`JSStaticReport` — findings
with rule provenance plus an obfuscation score — and the document-level
:class:`DocumentJSAnalysis` decides *benign-triage eligibility*: whether
``pipeline.scan`` may safely skip Phase-II runtime emulation.

On top of the one-shot lint pass sits the *proof tier*
(`absint` + `rules_absint`): an abstract interpreter with a string-shape
value lattice that peels arbitrarily many constant ``eval``/
``document.write`` staging layers and emits PROVEN-BENIGN /
PROVEN-MALICIOUS verdicts, letting ``pipeline.scan`` triage in *both*
directions.  It is the only triage authority: a script is eligible only
when proven benign, so a parse error, an analysis crash, a SUSPICIOUS+
finding, a side-effect API, any unresolved call or any active document
content (embedded files, render media) sends the document to full
emulation.  See ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from repro.jsast.absint import AbsintResult, interpret_script
from repro.jsast.analyzer import (
    DocumentJSAnalysis,
    analyze_document,
    analyze_script,
)
from repro.jsast.fold import fold_program
from repro.jsast.report import (
    Finding,
    JSStaticReport,
    Severity,
    TRIAGE_SEVERITY,
)
from repro.jsast.rules import RULES, RULESET_VERSION, RuleContext, rule
from repro.jsast.rules_absint import ABSINT_VERSION, run_absint
from repro.jsast.walk import NodeVisitor, iter_child_nodes, walk

__all__ = [
    "ABSINT_VERSION",
    "AbsintResult",
    "DocumentJSAnalysis",
    "Finding",
    "JSStaticReport",
    "NodeVisitor",
    "RULES",
    "RULESET_VERSION",
    "RuleContext",
    "Severity",
    "TRIAGE_SEVERITY",
    "analyze_document",
    "analyze_script",
    "fold_program",
    "interpret_script",
    "iter_child_nodes",
    "rule",
    "run_absint",
    "walk",
]
