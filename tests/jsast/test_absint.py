"""The abstract interpreter over ``repro.js.nodes`` (ISSUE 8 tentpole).

Covers layer peeling through constant ``eval``/``document.write``,
must-execution tracking across branches/loops/try, spray-fact
collection with trip-count lower bounds, and the budget/fail-open
discipline.
"""

import random

import pytest

from repro.corpus import js_snippets as js
from repro.corpus.obfuscated import obfuscated_spray_script, wrap_eval_layers
from repro.jsast.absint import (
    CHANNEL_EXPLOIT,
    CHANNEL_OPAQUE_EVAL,
    AbsintBudgetExceeded,
    interpret_script,
)
from repro.reader.payload import Payload

pytestmark = pytest.mark.absint


def spray(mb=150, cve="CVE-2009-0927", **kwargs):
    return js.spray_script(
        mb,
        Payload.dropper(),
        rng=random.Random(1),
        exploit_call=js.exploit_call_for(cve, random.Random(1)),
        **kwargs,
    )


class TestLayerPeeling:
    def test_constant_eval_layer_is_entered(self):
        result = interpret_script('eval("var x = 1;");')
        assert result.status == "ok"
        assert result.max_depth == 1
        assert all(layer.parse_error is None for layer in result.layers)

    def test_three_nested_layers_peel_with_must(self):
        inner = "var x = 1;"
        code = wrap_eval_layers(inner, 3)
        result = interpret_script(code)
        assert result.max_depth == 3
        assert all(layer.must for layer in result.layers)
        assert not result.channels

    def test_abstract_eval_argument_is_a_channel(self):
        result = interpret_script("eval(app.doc.path);")
        assert any(c.kind == CHANNEL_OPAQUE_EVAL for c in result.channels)

    def test_depth_cap_becomes_opaque_channel(self):
        code = "var x = 1;"
        for _ in range(20):  # far past MAX_EVAL_DEPTH
            code = f'eval({js_string(code)});'
        result = interpret_script(code)
        assert any(c.kind == CHANNEL_OPAQUE_EVAL for c in result.channels)


def js_string(code):
    escaped = code.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


class TestSprayFacts:
    def test_corpus_spray_proves_must_fill(self):
        result = interpret_script(spray())
        must_fills = [f for f in result.fills if f.must]
        assert must_fills
        fill = max(must_fills, key=lambda f: f.bytes_lo)
        assert fill.sled_lo >= 0x4000
        assert fill.trip_lo >= 1
        assert fill.bytes_lo >= 100 * 1024 * 1024

    def test_spray_exploit_call_is_exploit_channel(self):
        result = interpret_script(spray())
        assert any(c.kind == CHANNEL_EXPLOIT for c in result.channels)

    def test_obfuscated_spray_peels_and_proves(self):
        code = obfuscated_spray_script(target_mb=120, layers=3)
        result = interpret_script(code)
        assert result.max_depth == 3
        assert all(layer.must for layer in result.layers)
        deep_fills = [f for f in result.fills if f.must and f.layer == 3]
        assert deep_fills
        assert max(f.bytes_lo for f in deep_fills) >= 100 * 1024 * 1024

    def test_title_hidden_payload_still_proves_sled_carrier(self):
        code = spray(hide_payload_in_title=True)
        result = interpret_script(code)
        must_fills = [f for f in result.fills if f.must]
        assert must_fills
        assert max(f.bytes_lo for f in must_fills) >= 100 * 1024 * 1024


class TestMustExecution:
    def test_version_gate_defeats_must(self):
        gated = js.version_gated(spray(), min_version=8)
        result = interpret_script(gated)
        assert not any(f.must for f in result.fills)
        # ... but the exploit channel is still visible (may-reachable).
        assert any(c.kind == CHANNEL_EXPLOIT for c in result.channels)

    def test_throw_before_fill_defeats_must(self):
        code = 'throw "x";\n' + spray()
        result = interpret_script(code)
        assert not any(f.must for f in result.fills)

    def test_try_wrapped_api_probe_defeats_must(self):
        code = "try { app.media.newPlayer(null); } catch (e) {}\n" + spray()
        result = interpret_script(code)
        # The probe may or may not throw, but the catch contains it:
        # the spray after the try still must-executes.
        assert any(f.must for f in result.fills)

    def test_unknown_call_before_fill_defeats_must(self):
        code = "mystery();\n" + spray()
        result = interpret_script(code)
        assert not any(f.must for f in result.fills)

    def test_export_launch_is_must_fact(self):
        result = interpret_script(js.export_launch_script("invoice.exe"))
        must_exports = [e for e in result.exports if e.must]
        assert must_exports
        assert must_exports[0].launch is not None
        assert must_exports[0].launch >= 1
        assert must_exports[0].name == "invoice.exe"


class TestBenignPrograms:
    @pytest.mark.parametrize(
        "script",
        [
            js.benign_form_script(random.Random(3)),
            js.benign_page_script(),
            js.benign_report_script(4, 40, random.Random(3)),
        ],
        ids=["form", "page", "report"],
    )
    def test_benign_scripts_are_channel_free(self, script):
        result = interpret_script(script)
        assert result.status == "ok"
        assert not result.channels
        assert not result.fills

    def test_soap_script_is_not_channel_free(self):
        result = interpret_script(js.benign_soap_script())
        # SOAP.request is a scored side-effect API: either a channel or
        # a side-effect note must block the benign proof.
        blocked = bool(result.channels) or any(
            layer.side_effect_apis for layer in result.layers
        )
        assert blocked


class TestBudget:
    def test_budget_exhaustion_is_reported_not_raised(self):
        result = interpret_script(spray(), max_steps=40)
        assert result.status == "budget-exhausted"

    def test_budget_exception_never_escapes(self):
        # interpret_script catches AbsintBudgetExceeded internally.
        result = interpret_script("var i = 0; " * 2000, max_steps=10)
        assert result.status == "budget-exhausted"
        assert isinstance(AbsintBudgetExceeded(), Exception)

    def test_steps_accounted(self):
        result = interpret_script("var x = 1 + 2;")
        assert result.status == "ok"
        assert result.steps > 0


class TestResultSerialisation:
    def test_to_dict_roundtrips_shapes(self):
        result = interpret_script(spray())
        payload = result.to_dict()
        assert payload["status"] == "ok"
        assert payload["fills"]
        assert {"array", "layer", "unit", "bytes_lo", "must"} <= set(
            payload["fills"][0]
        )
        assert isinstance(payload["layers"], list)


class TestHostModels:
    """``util.printd``/``util.printf`` are modelled as the reader runs
    them, with constants named through the runtime's own semantics."""

    def test_printf_named_through_runtime_modulo_is_not_benign(self):
        # The VM computes -1 % 2 == -1, so this calls util.printf with a
        # CVE-2008-2992 width; a Python-% fold would read util.printd.
        from repro.jsast.rules_absint import run_absint

        code = 'util["print" + String.fromCharCode(102 - ((-1 % 2) + 1))]("%45000f", 1.1);'
        assert run_absint(code)["verdict"] != "proven-benign"

    def test_benign_date_script_is_channel_free(self):
        result = interpret_script(js.benign_date_script(random.Random(3)))
        assert result.status == "ok"
        assert not result.channels

    @pytest.mark.parametrize(
        "code",
        [
            'util.printf("%45000f", 1.1);',
            'util.printf("%s", app.doc.path);',
            'if (0) { util.printf("%s", "x"); }',
            'function f() { util.printf("%s", "x"); } f();',
            'var s = ""; for (var i = 0; i < 3; i++) { s += "%4500"; util.printf(s + "0f", 1); }',
        ],
        ids=["malformed", "opaque-arg", "unreached", "function-body", "loop-varying"],
    )
    def test_printf_without_exact_harmless_arguments_is_a_channel(self, code):
        result = interpret_script(code)
        assert any(channel.path == "util.printf" for channel in result.channels)

    def test_printd_returns_its_second_argument(self):
        code = 'var d = util.printd("yyyy", "2013"); eval(d + ";");'
        result = interpret_script(code)
        assert result.max_depth == 1
        assert not result.channels


class TestRebinding:
    """A trusted global or host method rebound by the script is no
    longer trusted, and a name that ever held a host object is not
    local just because it ends up bound to a local value: calling
    either is a channel, not a harmless call."""

    @pytest.mark.parametrize(
        "code",
        [
            'unescape = eval; unescape("x");',
            'function f() { String = eval; } f(); String("x");',
            'eval("parseInt = eval;"); parseInt("x");',
            'function g() {} g = eval; g("x");',
            'app.alert = eval; app.alert("x");',
            'var u = util; u.printd = eval; util.printd("y", "x");',
            'this["get" + "Field"] = eval; this.getField("x");',
            'var k = app.doc.path; util[k] = eval;',
            'var o = SOAP; o.request({}); o = {};',
            'o = SOAP; o.request({}); o = {};',
            'eval(app.doc.path); eval = function () {};',
            'function g() {} function f(g) { g("x"); } f(eval);',
            'function f() { function g() {} g = eval; g("x"); } f();',
            'var o = {}; function f(o) { o.request({}); } f(SOAP);',
        ],
        ids=["global", "global-in-function", "global-in-eval-layer",
             "declared-function", "host-method", "aliased-host-method",
             "computed-host-write", "unknown-host-write",
             "alias-rebound-after-use", "implicit-global-alias",
             "eval-rebound-after-use", "parameter-shadows-function",
             "inner-function-rebound", "parameter-shadows-local"],
    )
    def test_rebound_trusted_api_blocks_the_benign_proof(self, code):
        assert interpret_script(code).channels

    def test_writes_to_local_objects_and_plain_fields_are_harmless(self):
        code = (
            'var o = {}; o.alert = 1; var f = this.getField("total"); '
            'f.value = 3; var a = []; a[0] = "x";'
        )
        assert not interpret_script(code).channels
