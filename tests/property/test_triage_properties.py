"""Triage-equivalence property (ISSUE 3 satellite 6; refined by the
abstract-interpretation proof tier of ISSUE 8).

For any corpus drawn from a fixed document pool, ``pipeline.scan`` with
the triage fast path enabled must agree with the full-emulation run:

* a document triaged **benign** produces a byte-identical verdict
  (same flag, malscore and feature bits) — the synthesised verdict is
  exactly what a full run reports for a clean document;
* a document triaged **malicious** (statically *proven*) must be one
  the full run also flags: convicted by malscore, or crashed by its
  own exploit (a crash is a detection event — see
  ``maybe_deinstrument``).  Exact feature bits are not required: the
  proof guarantees the behaviour, not the payload-dependent bit mix.
* an untriaged document runs full emulation in both configurations and
  must match exactly.

The pool mixes triage-eligible documents (no JS, clean JS), documents
that are clean but triage-ineligible (SOAP side-effect channel, also
reached through an alias, a computed name, a rebound global and an
overwritten host method), a provably
malicious spray document, and unparseable garbage, so the property
exercises every branch of the fast path.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.pipeline import ProtectionPipeline
from repro.corpus import js_snippets as js
from repro.pdf.builder import DocumentBuilder
from tests.conftest import spray_js

pytestmark = pytest.mark.batch

SEED = 7

_SOAP_ARGS = '{cURL: "http://example.invalid/", oRequest: {}}'
_SOAP_CODE = f"SOAP.request({_SOAP_ARGS});".replace('"', "'")
ALIASED_SOAP = {
    "soap-alias.pdf": f"var s = SOAP; s.request({_SOAP_ARGS});",
    "soap-computed.pdf": (
        'function f() { return "req" + "uest"; } '
        f"SOAP[f()]({_SOAP_ARGS});"
    ),
    # A trusted global or host method rebound to eval.
    "soap-rebound-global.pdf": f'unescape = eval; unescape("{_SOAP_CODE}");',
    "soap-host-write.pdf": f'app.alert = eval; app.alert("{_SOAP_CODE}");',
}


def _pool():
    docs = []

    plain = DocumentBuilder()
    plain.add_page("no javascript at all")
    docs.append(("plain.pdf", plain.to_bytes()))

    benign_js = DocumentBuilder()
    benign_js.add_page("benign js")
    benign_js.add_javascript("var x = 2 + 2; app.alert('x=' + x);")
    docs.append(("benign-js.pdf", benign_js.to_bytes()))

    soap = DocumentBuilder()
    soap.add_page("soap client")
    soap.add_javascript(js.benign_soap_script())
    docs.append(("soap.pdf", soap.to_bytes()))

    # A side-effect API reached through an alias, a computed name or a
    # rebound trusted API: no syntactic check sees the call, only the
    # proof tier's channels.
    for name, code in ALIASED_SOAP.items():
        builder = DocumentBuilder()
        builder.add_page("soap alias")
        builder.add_javascript(code)
        docs.append((name, builder.to_bytes()))

    malicious = DocumentBuilder()
    malicious.add_page("")
    malicious.add_javascript(spray_js())
    docs.append(("malicious.pdf", malicious.to_bytes()))

    broken_js = DocumentBuilder()
    broken_js.add_page("broken js")
    broken_js.add_javascript("var = ;;; <<<")
    docs.append(("broken-js.pdf", broken_js.to_bytes()))

    garbage = ("garbage.pdf", b"%PDF-1.4 truncated nonsense without objects")
    docs.append(garbage)
    return docs


POOL = _pool()

corpus_strategy = st.lists(
    st.integers(min_value=0, max_value=len(POOL) - 1), min_size=0, max_size=6
)


def _agrees(fast, full):
    """One document's fast-path report vs its full-emulation report."""
    if fast.triaged and fast.verdict.malicious:
        # Statically proven malicious: the full run must flag it too —
        # by score, or by crashing on its own exploit.
        return full.verdict.malicious or full.crashed
    return (
        fast.verdict.malicious,
        fast.verdict.malscore,
        fast.verdict.features.bits,
    ) == (
        full.verdict.malicious,
        full.verdict.malscore,
        full.verdict.features.bits,
    )


@given(picks=corpus_strategy)
@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_triage_never_changes_a_verdict(picks):
    fast_pipeline = ProtectionPipeline(seed=SEED, triage=True)
    full_pipeline = ProtectionPipeline(seed=SEED, triage=False)
    for i in picks:
        name, data = POOL[i]
        fast = fast_pipeline.scan(data, name)
        full = full_pipeline.scan(data, name)
        assert _agrees(fast, full), name


def test_triage_actually_skips_on_this_pool():
    # Guard against the property passing vacuously: the pool must
    # exercise benign triage, proven-malicious triage, and fall-through.
    pipeline = ProtectionPipeline(seed=SEED, triage=True)
    reports = {name: pipeline.scan(data, name) for name, data in POOL}
    assert reports["plain.pdf"].triaged
    assert reports["benign-js.pdf"].triaged
    assert not reports["plain.pdf"].verdict.malicious
    # The spray document is *proven* malicious and triaged that way.
    assert reports["malicious.pdf"].triaged
    assert reports["malicious.pdf"].verdict.malicious
    assert reports["malicious.pdf"].outcome is None
    # The rest fall open to full emulation.
    assert not reports["soap.pdf"].triaged
    assert not reports["broken-js.pdf"].triaged
    assert not reports["garbage.pdf"].triaged


def test_aliased_side_effects_take_the_full_path():
    """Both scan malicious bare; the triaged scan must not flip them to
    a synthesised benign verdict."""
    pool = dict(POOL)
    fast_pipeline = ProtectionPipeline(seed=SEED, triage=True)
    full_pipeline = ProtectionPipeline(seed=SEED, triage=False)
    for name in ALIASED_SOAP:
        fast = fast_pipeline.scan(pool[name], name)
        full = full_pipeline.scan(pool[name], name)
        assert full.verdict.malicious, name
        assert not fast.triaged, name
        assert _agrees(fast, full), name
