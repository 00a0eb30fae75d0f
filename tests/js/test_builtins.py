"""Unit tests for the JS builtins (strings, arrays, Math, globals)."""

import math

import pytest

from repro.js import evaluate


class TestGlobals:
    def test_unescape_percent_u(self):
        assert evaluate("unescape('%u0041%u0042')") == "AB"

    def test_unescape_percent_xx(self):
        assert evaluate("unescape('%41%42%43')") == "ABC"

    def test_unescape_mixed_and_literal(self):
        assert evaluate("unescape('a%u0062c%64')") == "abcd"

    def test_unescape_sled_unit(self):
        assert evaluate("unescape('%u9090').charCodeAt(0)") == 0x9090

    def test_escape_roundtrip(self):
        assert evaluate("unescape(escape('héllo wörld'))") == "héllo wörld"

    def test_parse_int(self):
        assert evaluate("parseInt('42px')") == 42.0
        assert evaluate("parseInt('0x1F')") == 31.0
        assert evaluate("parseInt('ff', 16)") == 255.0
        assert evaluate("parseInt('-12')") == -12.0
        assert math.isnan(evaluate("parseInt('zz')"))

    def test_parse_float(self):
        assert evaluate("parseFloat('3.5rem')") == 3.5
        assert math.isnan(evaluate("parseFloat('abc')"))

    def test_is_nan_is_finite(self):
        assert evaluate("isNaN('x')") is True
        assert evaluate("isFinite(1/0)") is False

    def test_string_constructor_and_fromcharcode(self):
        assert evaluate("String(12)") == "12"
        assert evaluate("String.fromCharCode(72, 105)") == "Hi"

    def test_number_boolean_constructors(self):
        assert evaluate("Number('6') * 2") == 12.0
        assert evaluate("Boolean('')") is False

    def test_array_constructor(self):
        assert evaluate("new Array(3).length") == 3.0
        assert evaluate("Array(1, 2, 3).join('')") == "123"

    def test_math(self):
        assert evaluate("Math.floor(2.9)") == 2.0
        assert evaluate("Math.ceil(2.1)") == 3.0
        assert evaluate("Math.abs(-4)") == 4.0
        assert evaluate("Math.pow(2, 10)") == 1024.0
        assert evaluate("Math.max(1, 9, 3)") == 9.0
        assert evaluate("Math.min(5, -2)") == -2.0

    def test_math_random_deterministic(self):
        a = evaluate("Math.random()")
        b = evaluate("Math.random()")
        assert a == b  # fresh interpreter, same seed
        assert 0.0 <= a <= 1.0

    def test_error_constructor(self):
        assert evaluate("var e = new Error('bad'); e.message") == "bad"


class TestStringMethods:
    def test_length_and_index(self):
        assert evaluate("'hello'.length") == 5.0
        assert evaluate("'hello'[1]") == "e"

    def test_char_at_and_code(self):
        assert evaluate("'abc'.charAt(2)") == "c"
        assert evaluate("'abc'.charCodeAt(0)") == 97.0
        assert evaluate("'abc'.charAt(9)") == ""
        assert math.isnan(evaluate("'abc'.charCodeAt(9)"))

    def test_index_of(self):
        assert evaluate("'banana'.indexOf('na')") == 2.0
        assert evaluate("'banana'.indexOf('na', 3)") == 4.0
        assert evaluate("'banana'.lastIndexOf('na')") == 4.0
        assert evaluate("'x'.indexOf('q')") == -1.0

    def test_substring_swaps_args(self):
        assert evaluate("'abcdef'.substring(4, 1)") == "bcd"

    def test_substr(self):
        assert evaluate("'abcdef'.substr(2, 3)") == "cde"
        assert evaluate("'abcdef'.substr(-2)") == "ef"

    def test_slice_negative(self):
        assert evaluate("'abcdef'.slice(-3)") == "def"
        assert evaluate("'abcdef'.slice(1, 3)") == "bc"

    def test_case_conversion(self):
        assert evaluate("'MiXeD'.toLowerCase()") == "mixed"
        assert evaluate("'MiXeD'.toUpperCase()") == "MIXED"

    def test_split(self):
        assert evaluate("'a,b,c'.split(',').length") == 3.0
        assert evaluate("'abc'.split('').join('-')") == "a-b-c"
        assert evaluate("'abc'.split()[0]") == "abc"

    def test_replace_first_only(self):
        assert evaluate("'aXaX'.replace('X', 'o')") == "aoaX"

    def test_concat(self):
        assert evaluate("'a'.concat('b', 'c')") == "abc"

    def test_unknown_method_is_undefined(self):
        assert evaluate("typeof 'x'.notAMethod") == "undefined"


class TestNumberMethods:
    def test_to_string_radix(self):
        assert evaluate("(255).toString(16)") == "ff"
        assert evaluate("(8).toString(2)") == "1000"
        assert evaluate("(42).toString()") == "42"

    def test_to_fixed(self):
        assert evaluate("(3.14159).toFixed(2)") == "3.14"


class TestArrayMethods:
    def test_push_pop(self):
        assert evaluate("var a = [1]; a.push(2, 3); a.pop(); a.join(',')") == "1,2"

    def test_shift_unshift(self):
        assert evaluate("var a = [2, 3]; a.unshift(1); a.shift(); a.join('')") == "23"

    def test_join_default_separator(self):
        assert evaluate("[1, 2].join()") == "1,2"

    def test_concat(self):
        assert evaluate("[1].concat([2, 3], 4).length") == 4.0

    def test_slice(self):
        assert evaluate("[1,2,3,4].slice(1, 3).join('')") == "23"

    def test_reverse_in_place(self):
        assert evaluate("var a = [1,2,3]; a.reverse(); a.join('')") == "321"

    def test_index_of_strict(self):
        assert evaluate("[1, '1', 2].indexOf('1')") == 1.0
        assert evaluate("[1].indexOf(9)") == -1.0

    def test_sort_default_lexicographic(self):
        assert evaluate("[10, 9, 1].sort().join(',')") == "1,10,9"

    def test_sort_with_comparator(self):
        assert evaluate("[10, 9, 1].sort(function(a,b){return a-b;}).join(',')") == "1,9,10"

    def test_length_assignment_truncates(self):
        assert evaluate("var a = [1,2,3]; a.length = 1; a.join(',')") == "1"

    def test_sparse_assignment_extends(self):
        assert evaluate("var a = []; a[3] = 'x'; a.length") == 4.0

    def test_has_own_property(self):
        assert evaluate("({a: 1}).hasOwnProperty('a')") is True
        assert evaluate("({a: 1}).hasOwnProperty('b')") is False

    def test_splice_removes_and_returns(self):
        assert evaluate("var a = [1,2,3,4]; a.splice(1, 2).join(',')") == "2,3"
        assert evaluate("var a = [1,2,3,4]; a.splice(1, 2); a.join(',')") == "1,4"

    def test_splice_inserts(self):
        assert evaluate("var a = [1,4]; a.splice(1, 0, 2, 3); a.join(',')") == "1,2,3,4"

    def test_splice_negative_start(self):
        assert evaluate("var a = [1,2,3]; a.splice(-1, 1); a.join(',')") == "1,2"

    def test_splice_no_delete_count_removes_rest(self):
        assert evaluate("var a = [1,2,3]; a.splice(1); a.join(',')") == "1"


class TestMathExtras:
    def test_log_exp(self):
        import math as m

        assert abs(evaluate("Math.log(Math.exp(2))") - 2.0) < 1e-9
        assert evaluate("Math.log(0)") == -m.inf
        assert m.isnan(evaluate("Math.log(-1)"))

    def test_trig(self):
        assert abs(evaluate("Math.sin(0)")) < 1e-12
        assert abs(evaluate("Math.cos(0)") - 1.0) < 1e-12
        assert abs(evaluate("Math.atan(1) * 4 - Math.PI")) < 1e-9


class TestStringTrim:
    def test_trim(self):
        assert evaluate("'  padded  '.trim()") == "padded"


#: The edge values of ToIntegerOrInfinity / ToUint16, as JS source.
EDGE_VALUES = {
    "NaN": "0/0",
    "+Infinity": "1/0",
    "-Infinity": "-1/0",
    "-0": "-0",
    "2**53": "9007199254740992",
}

#: builtin (``X`` is the edge value) -> expected result per edge value.
#: ``(255).toString(radix)`` with a radix outside 2..36 is a RangeError
#: in ECMAScript; this runtime stays total and formats in base 10.
EDGE_TABLE = {
    "String.fromCharCode(X)": {
        "NaN": "\x00", "+Infinity": "\x00", "-Infinity": "\x00",
        "-0": "\x00", "2**53": "\x00",
    },
    '"abc".substr(X)': {
        "NaN": "abc", "+Infinity": "", "-Infinity": "abc", "-0": "abc", "2**53": "",
    },
    '"abc".substr(1, X)': {
        "NaN": "", "+Infinity": "bc", "-Infinity": "", "-0": "", "2**53": "bc",
    },
    '"abc".slice(X)': {
        "NaN": "abc", "+Infinity": "", "-Infinity": "abc", "-0": "abc", "2**53": "",
    },
    '"abc".slice(0, X)': {
        "NaN": "", "+Infinity": "abc", "-Infinity": "", "-0": "", "2**53": "abc",
    },
    '"abc".substring(X)': {
        "NaN": "abc", "+Infinity": "", "-Infinity": "abc", "-0": "abc", "2**53": "",
    },
    '"abc".substring(1, X)': {
        "NaN": "a", "+Infinity": "bc", "-Infinity": "a", "-0": "a", "2**53": "bc",
    },
    '"abc".charAt(X)': {
        "NaN": "a", "+Infinity": "", "-Infinity": "", "-0": "a", "2**53": "",
    },
    '"abc".charCodeAt(X)': {
        "NaN": 97.0, "+Infinity": math.nan, "-Infinity": math.nan,
        "-0": 97.0, "2**53": math.nan,
    },
    '"abc".indexOf("b", X)': {
        "NaN": 1.0, "+Infinity": -1.0, "-Infinity": 1.0, "-0": 1.0, "2**53": -1.0,
    },
    "[1,2,3].slice(X).join()": {
        "NaN": "1,2,3", "+Infinity": "", "-Infinity": "1,2,3", "-0": "1,2,3", "2**53": "",
    },
    "(255).toString(X)": {
        "NaN": "255", "+Infinity": "255", "-Infinity": "255", "-0": "255", "2**53": "255",
    },
    'parseInt("12", X)': {
        "NaN": 12.0, "+Infinity": 12.0, "-Infinity": 12.0, "-0": 12.0, "2**53": 12.0,
    },
}


@pytest.mark.parametrize("edge", sorted(EDGE_VALUES))
@pytest.mark.parametrize("builtin", sorted(EDGE_TABLE))
def test_builtins_are_total_on_edge_numbers(builtin, edge):
    """NaN, ±Infinity, -0 and 2**53 follow ToIntegerOrInfinity/ToUint16
    instead of raising a raw Python ValueError/OverflowError."""
    result = evaluate(builtin.replace("X", f"({EDGE_VALUES[edge]})"))
    expected = EDGE_TABLE[builtin][edge]
    if isinstance(expected, float) and math.isnan(expected):
        assert math.isnan(result)
    else:
        assert result == expected and type(result) is type(expected)


def test_nan_char_code_prefix_does_not_stop_a_scan():
    """A ``String.fromCharCode(0/0)`` line used to raise out of the VM,
    so the scan errored where a real reader keeps running."""
    from repro.batch.scanner import BatchScanner
    from repro.core.pipeline import ProtectionPipeline
    from repro.pdf.builder import DocumentBuilder

    builder = DocumentBuilder()
    builder.add_page("x")
    builder.add_javascript("var s = String.fromCharCode(0/0);")
    data = builder.to_bytes()
    report = ProtectionPipeline(seed=7).scan(data, "nan.pdf")
    assert not report.errored
    assert report.verdict is not None and not report.verdict.malicious
    scanner = BatchScanner(jobs=1, backend="thread", cache=False).start()
    try:
        outcome = scanner.scan_one("nan.pdf", data)
    finally:
        scanner.shutdown()
    assert outcome.summary.errored is False
