"""Fail-open properties of the abstract-interpretation proof tier.

The verdict contract under adversarial conditions:

* ``run_absint`` never raises, whatever the input;
* under *any* step budget, exhaustion can only weaken the claim toward
  ``unknown`` — PROVEN-BENIGN is never granted to a run that did not
  finish (PROVEN-MALICIOUS may survive: its must-facts were recorded
  before the cutoff and remain valid);
* benign-direction triage eligibility is never granted on a
  budget-exhausted or errored analysis.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import limits as limits_mod
from repro.corpus import js_snippets as js
from repro.corpus.obfuscated import (
    obfuscated_benign_script,
    obfuscated_spray_script,
)
from repro.jsast.analyzer import analyze_script
from repro.jsast.rules_absint import run_absint
from repro.limits import ScanLimits
from repro.reader.payload import Payload

pytestmark = pytest.mark.absint


def _spray():
    return js.spray_script(
        150,
        Payload.dropper(),
        rng=random.Random(1),
        exploit_call=js.exploit_call_for("CVE-2009-0927", random.Random(1)),
    )


#: Scripts spanning every verdict class at full budget.
SCRIPT_POOL = [
    js.benign_form_script(random.Random(3)),
    js.benign_page_script(),
    js.benign_soap_script(),
    _spray(),
    js.export_launch_script(),
    obfuscated_benign_script(layers=2),
    obfuscated_spray_script(target_mb=110, layers=2),
    "var = ;;; <<<",
    "",
]

VERDICTS = ("proven-benign", "proven-malicious", "unknown")


@given(
    script=st.sampled_from(SCRIPT_POOL),
    budget=st.integers(min_value=1, max_value=5000),
)
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_budget_exhaustion_fails_open(script, budget):
    with limits_mod.activate(ScanLimits(max_absint_steps=budget)):
        section = run_absint(script)
    assert section["verdict"] in VERDICTS
    if section["status"] == "budget-exhausted":
        # A truncated run can keep a malicious proof (must-facts are
        # stable once recorded) but must never claim benignity.
        assert section["verdict"] != "proven-benign"


@given(
    script=st.sampled_from(SCRIPT_POOL),
    budget=st.integers(min_value=1, max_value=5000),
)
@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_benign_triage_never_granted_on_truncated_analysis(script, budget):
    with limits_mod.activate(ScanLimits(max_absint_steps=budget)):
        report = analyze_script(script)
    if report.absint and report.absint["status"] != "ok":
        assert not report.proven_benign
        # The proof tier is the only triage authority.
        assert not report.triage_eligible


@given(text=st.text(max_size=400))
@settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_arbitrary_input_never_raises(text):
    section = run_absint(text)
    assert section["verdict"] in VERDICTS
    # Hostile noise never parses into a benignity proof *and* a
    # malicious proof at once.
    assert isinstance(section["proofs"], list)


@given(budget=st.integers(min_value=1, max_value=200_000))
@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_verdict_monotone_under_budget(budget):
    """A budget can flip a full-budget proof only to ``unknown`` —
    never to the opposite proof."""
    script = _spray()
    full = run_absint(script)
    with limits_mod.activate(ScanLimits(max_absint_steps=budget)):
        constrained = run_absint(script)
    assert full["verdict"] == "proven-malicious"
    assert constrained["verdict"] in ("proven-malicious", "unknown")
