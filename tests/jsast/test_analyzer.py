"""Script/document analysis drivers: fail-open guarantees, eval
provenance, unparseable-js handling, document guards."""


from repro.jsast import analyze_script
from repro.jsast.analyzer import (
    GUARD_EMBEDDED_FILE,
    GUARD_RICH_MEDIA,
    DocumentJSAnalysis,
    analyze_document,
)
from repro.jsast.report import JSStaticReport, Severity
from repro.jsast.rules import RULES
from repro.obs import MemorySink, Observability
from repro.pdf.builder import DocumentBuilder
from repro.pdf.document import PDFDocument


class TestAnalyzeScript:
    def test_clean_script(self):
        report = analyze_script("var x = 1 + 2;")
        assert report.findings == []
        assert report.triage_eligible
        assert report.obfuscation_score == 0.0

    def test_unparseable_becomes_finding_not_exception(self):
        # Satellite: JSSyntaxError must surface as a structured finding.
        report = analyze_script("var = ;;; <<<")
        assert report.parse_error is not None
        assert [f.rule for f in report.findings] == ["unparseable-js"]
        assert report.findings[0].severity == Severity.SUSPICIOUS
        assert not report.triage_eligible

    def test_empty_script(self):
        report = analyze_script("")
        assert report.triage_eligible

    def test_eval_provenance(self):
        report = analyze_script('eval("Collab.getIcon(q);");')
        assert "eval:suspicious-acrobat-api" in report.rules_fired()
        assert report.suspicious

    def test_eval_nested_side_effects_propagate(self):
        report = analyze_script('eval("SOAP.request({cURL: u});");')
        assert "SOAP.request" in report.side_effect_apis
        assert not report.triage_eligible

    def test_eval_of_garbage_poisons_parent(self):
        report = analyze_script('eval("<<< not js");')
        assert not report.triage_eligible
        assert any(f.rule == "eval:unparseable-js" for f in report.findings)

    def test_deep_eval_nesting_bounded(self):
        nested = 'eval("eval(\\"eval(1)\\");");'
        report = analyze_script(nested)
        # Bounded recursion must terminate and stay ineligible-safe.
        assert isinstance(report, JSStaticReport)

    def test_crashing_rule_fails_open(self, monkeypatch):
        def boom(ctx):
            raise RuntimeError("rule exploded")

        monkeypatch.setitem(RULES, "test-boom", boom)
        try:
            report = analyze_script("var x = 1;")
        finally:
            del RULES["test-boom"]
        assert any(f.rule == "analysis-error" for f in report.findings)
        assert not report.triage_eligible  # fail-open: no triage

    def test_obfuscation_score_capped(self):
        sled = 'var s = unescape("%u9090%u9090");' * 10
        report = analyze_script(sled)
        assert report.obfuscation_score <= 10.0

    def test_emits_span_and_metrics(self):
        obs = Observability(MemorySink())
        analyze_script("Collab.getIcon(q);", obs=obs)
        names = [s["name"] for s in obs.sink.spans]
        assert "jsast.analyze" in names
        assert (
            obs.metrics.counter_value(
                "jsast_findings", rule="suspicious-acrobat-api"
            )
            == 1
        )

    def test_one_parse_and_one_rule_pass_per_script(self, monkeypatch):
        """The proof tier reuses the script's parse and rule context."""
        import sys

        import repro.js.parser
        import repro.jsast.rules

        calls = {"parse": 0, "build_context": 0}

        def spy(name, original):
            def counting(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counting

        for name, original in (
            ("parse", repro.js.parser.parse),
            ("build_context", repro.jsast.rules.build_context),
        ):
            counting = spy(name, original)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro.") and (
                    getattr(module, name, None) is original
                ):
                    monkeypatch.setattr(module, name, counting)

        report = analyze_script("var s = 'a' + 'b'; app.alert(s.length);")
        assert report.absint is not None
        assert calls == {"parse": 1, "build_context": 1}

    def test_report_roundtrips_through_dict(self):
        report = analyze_script('var s = unescape("%u9090%u9090");')
        clone = JSStaticReport.from_dict(report.to_dict())
        assert clone.rules_fired() == report.rules_fired()
        assert clone.suspicious == report.suspicious
        assert clone.triage_eligible == report.triage_eligible


def doc_from_builder(builder):
    return PDFDocument.from_bytes(builder.to_bytes())


class TestAnalyzeDocument:
    def test_no_javascript_is_eligible(self):
        builder = DocumentBuilder()
        builder.add_page("plain")
        analysis = analyze_document(doc_from_builder(builder))
        assert analysis.reports == []
        assert analysis.triage_eligible

    def test_clean_javascript_is_eligible(self):
        builder = DocumentBuilder()
        builder.add_page("js")
        builder.add_javascript("var x = 1 + 1;")
        analysis = analyze_document(doc_from_builder(builder))
        assert len(analysis.reports) == 1
        assert analysis.triage_eligible

    def test_suspicious_javascript_blocks_triage(self):
        builder = DocumentBuilder()
        builder.add_page("mal")
        builder.add_javascript('var s = unescape("%u9090%u9090");')
        analysis = analyze_document(doc_from_builder(builder))
        assert analysis.suspicious
        assert not analysis.triage_eligible

    def test_embedded_file_guard(self):
        builder = DocumentBuilder()
        builder.add_page("carrier")
        builder.add_embedded_file("inner.bin", b"payload-bytes")
        analysis = analyze_document(doc_from_builder(builder))
        assert GUARD_EMBEDDED_FILE in analysis.guards
        assert not analysis.triage_eligible

    def test_render_exploit_guard(self):
        builder = DocumentBuilder()
        builder.add_page("render")
        builder.add_render_exploit("CVE-2010-1297", "flash")
        analysis = analyze_document(doc_from_builder(builder))
        assert GUARD_RICH_MEDIA in analysis.guards
        assert not analysis.triage_eligible

    def test_multiple_scripts_all_analysed(self):
        builder = DocumentBuilder()
        builder.add_page("multi")
        builder.add_javascript("var a = 1;")
        builder.add_javascript("var b = 2;", trigger="Names", name="second")
        analysis = analyze_document(doc_from_builder(builder))
        assert len(analysis.reports) == 2
        assert analysis.triage_eligible

    def test_to_dict_roundtrip(self):
        builder = DocumentBuilder()
        builder.add_page("js")
        builder.add_javascript("Collab.getIcon(q);")
        analysis = analyze_document(doc_from_builder(builder))
        clone = DocumentJSAnalysis.from_dict(analysis.to_dict())
        assert clone.suspicious == analysis.suspicious
        assert clone.triage_eligible == analysis.triage_eligible
        assert clone.guards == analysis.guards
