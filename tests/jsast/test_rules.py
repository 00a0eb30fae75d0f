"""Per-rule behaviour: each rule fires on its idiom and stays quiet on
the benign look-alikes that share surface syntax with it."""

from repro.js.parser import parse
from repro.jsast.report import Severity
from repro.jsast.rules import (
    RULES,
    build_context,
    member_path,
    ruleset_version,
    side_effect_apis,
)
from repro.js import nodes as ast


def run_rule(rule_id, source):
    ctx = build_context(source, parse(source))
    return list(RULES[rule_id](ctx))


class TestRegistry:
    def test_all_expected_rules_registered(self):
        expected = {
            "unescape-sled",
            "heap-spray-loop",
            "spray-block-copy",
            "fromcharcode-density",
            "eval-computed-string",
            "long-string-obfuscation",
            "source-escape-density",
            "suspicious-acrobat-api",
            "getannots-overflow",
            "printf-width-overflow",
            "script-staging",
            "export-launch",
            "api-probe",
        }
        assert expected <= set(RULES)

    def test_version_is_stable(self):
        assert ruleset_version() == ruleset_version()
        assert ruleset_version().startswith("2.")


class TestMemberPath:
    def ctx(self, source):
        return build_context(source, parse(source))

    def test_dotted(self):
        ctx = self.ctx("Collab.getIcon(x);")
        assert any(c.path == "Collab.getIcon" for c in ctx.calls)

    def test_this_stripped(self):
        ctx = self.ctx("this.media.newPlayer(x);")
        assert any(c.path == "media.newPlayer" for c in ctx.calls)

    def test_computed_constant_resolves(self):
        ctx = self.ctx('this["exportData" + "Object"](x);')
        assert any(c.path == "exportDataObject" for c in ctx.calls)

    def test_computed_dynamic_unresolved(self):
        ctx = self.ctx("this[name](x);")
        assert any(c.path is None for c in ctx.calls)

    def test_member_path_helper(self):
        program = parse("a.b.c;")
        node = program.body[0].expression
        assert isinstance(node, ast.MemberExpression)
        ctx = self.ctx("var q = 0;")
        assert member_path(node, ctx.folder) == "a.b.c"


class TestUnescapeSled:
    def test_constant_sled_is_strong(self):
        findings = run_rule(
            "unescape-sled", 'var s = unescape("%u9090%u9090");'
        )
        assert findings and findings[0].severity == Severity.STRONG

    def test_computed_arg_is_suspicious(self):
        findings = run_rule("unescape-sled", "var s = unescape(q);")
        assert findings and findings[0].severity == Severity.SUSPICIOUS

    def test_fragmented_sled_still_caught(self):
        findings = run_rule(
            "unescape-sled",
            'var a = "%u90"; var b = "90"; var s = unescape(a + b);',
        )
        assert findings and findings[0].severity == Severity.STRONG

    def test_plain_percent_escapes_quiet(self):
        assert run_rule("unescape-sled", 'var s = unescape("a%20b");') == []


class TestHeapSprayLoop:
    def test_doubling_to_spray_size_fires(self):
        findings = run_rule(
            "heap-spray-loop", "while (s.length < 0x20000) s += s;"
        )
        assert findings and findings[0].severity == Severity.STRONG

    def test_benign_small_doubling_quiet(self):
        # The benign report builder doubles to at most 3072 chars.
        assert run_rule("heap-spray-loop", "while (line.length < 3072) line += line;") == []

    def test_explicit_self_concat_form(self):
        findings = run_rule(
            "heap-spray-loop", "while (s.length < 100000) s = s + s;"
        )
        assert len(findings) == 1

    def test_unrelated_loop_quiet(self):
        assert run_rule("heap-spray-loop", "while (i < 100000) i += 1;") == []


class TestSprayBlockCopy:
    def test_fires_at_info_only(self):
        findings = run_rule(
            "spray-block-copy",
            "for (var i = 0; i < 10; i++) { m[i] = c.substr(0, c.length); }",
        )
        assert findings and findings[0].severity == Severity.INFO


class TestFromCharCodeDensity:
    def test_long_chain_fires(self):
        chain = " + ".join(f"String.fromCharCode({65 + i})" for i in range(10))
        findings = run_rule("fromcharcode-density", f"var s = {chain};")
        assert findings and findings[0].severity == Severity.SUSPICIOUS

    def test_single_call_quiet(self):
        assert run_rule("fromcharcode-density", "var s = String.fromCharCode(65);") == []


class TestEval:
    def test_computed_eval_is_strong(self):
        findings = run_rule("eval-computed-string", "eval(payload);")
        assert findings and findings[0].severity == Severity.STRONG

    def test_constant_eval_queued_for_reanalysis(self):
        source = 'eval("var x = 1;");'
        ctx = build_context(source, parse(source))
        findings = list(RULES["eval-computed-string"](ctx))
        assert findings and findings[0].severity == Severity.INFO
        assert ctx.nested == [("eval-arg", "var x = 1;")]

    def test_folded_concat_eval_is_constant(self):
        source = 'eval("var x" + " = 1;");'
        ctx = build_context(source, parse(source))
        list(RULES["eval-computed-string"](ctx))
        assert ctx.nested == [("eval-arg", "var x = 1;")]


class TestLongStringObfuscation:
    def test_hex_blob(self):
        findings = run_rule(
            "long-string-obfuscation", f'var x = "{"41" * 200}";'
        )
        assert any(f.severity == Severity.SUSPICIOUS for f in findings)

    def test_embedded_percent_u_units(self):
        findings = run_rule(
            "long-string-obfuscation", f'var x = "{"%u9090" * 12}";'
        )
        assert any(f.severity == Severity.STRONG for f in findings)

    def test_normal_prose_quiet(self):
        prose = "the quick brown fox jumps over the lazy dog " * 30
        assert run_rule("long-string-obfuscation", f'var x = "{prose}";') == []


class TestApiRules:
    def test_collab_geticon(self):
        findings = run_rule("suspicious-acrobat-api", "Collab.getIcon(x);")
        assert findings and findings[0].severity == Severity.STRONG

    def test_media_newplayer_via_this(self):
        assert run_rule("suspicious-acrobat-api", "this.media.newPlayer(x);")

    def test_getannots_overflow(self):
        findings = run_rule(
            "getannots-overflow", "this.getAnnots({nPage: 284050648});"
        )
        assert findings and findings[0].severity == Severity.STRONG

    def test_getannots_normal_page_quiet(self):
        assert run_rule("getannots-overflow", "this.getAnnots({nPage: 3});") == []

    def test_printf_overflow(self):
        findings = run_rule(
            "printf-width-overflow",
            'util.printf("%45000.45000f", 362.0e-30);',
        )
        assert findings and findings[0].severity == Severity.STRONG

    def test_benign_printf_quiet(self):
        assert run_rule(
            "printf-width-overflow", 'util.printf("Printed on %s", stamp);'
        ) == []

    def test_script_staging(self):
        findings = run_rule(
            "script-staging", 'this.addScript("x", code); app.setTimeOut(code, 10);'
        )
        assert {f.message for f in findings} == {
            "runtime script staging via addScript()",
            "runtime script staging via setTimeOut()",
        }

    def test_export_launch_strong_when_launching(self):
        findings = run_rule(
            "export-launch",
            'this.exportDataObject({cName: "invoice.exe", nLaunch: 2});',
        )
        assert findings and findings[0].severity == Severity.STRONG

    def test_export_without_launch_suspicious(self):
        findings = run_rule(
            "export-launch", 'this.exportDataObject({cName: "data.csv"});'
        )
        assert findings and findings[0].severity == Severity.SUSPICIOUS

    def test_api_probe(self):
        findings = run_rule(
            "api-probe", "var a = this.hostContainer.postMessage;"
        )
        assert findings and "hostContainer" in findings[0].message


class TestSideEffectApis:
    def detected(self, source):
        ctx = build_context(source, parse(source))
        return side_effect_apis(ctx)

    def test_soap_request(self):
        assert self.detected("SOAP.request({cURL: u});") == ["SOAP.request"]

    def test_export_data_object(self):
        assert "exportDataObject" in self.detected(
            "this.exportDataObject({cName: 'f'});"
        )

    def test_staging_methods_counted(self):
        assert self.detected("app.setTimeOut(code, 5);") == ["app.setTimeOut"]

    def test_member_access_without_call_counts(self):
        assert self.detected("var f = SOAP.request;") == ["SOAP.request"]

    def test_clean_script_empty(self):
        assert self.detected("var x = this.numPages + 1;") == []
