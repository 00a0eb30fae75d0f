"""Static ≡ runtime: one JS semantics for constants.

Every value the constant folder returns and every exact constant the
abstract interpreter computes must equal what the bytecode VM computes
for the same source.  Both static engines evaluate constants through
the runtime's own conversions and interpreter-free builtins, so any
disagreement here is a second copy of JS semantics creeping back in.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.js import evaluate
from repro.js.errors import JSError
from repro.js.parser import parse
from repro.js.values import UNDEFINED
from repro.jsast import lattice as lat
from repro.jsast.absint import _Budget, _Engine, _Interp
from repro.jsast.fold import MAX_FOLD_CHARS, ConstantFolder

pytestmark = pytest.mark.absint

#: A prelude binding ``big`` to a string exactly MAX_FOLD_CHARS long.
_BIG = "var big0 = 'xxxxxxxx';" + "".join(
    f"var big{i} = big{i - 1} + big{i - 1};" for i in range(1, 18)
) + "var big = big17;"

#: (prelude, expression) rows.
ROWS = [
    # The disagreements the static engines used to have with the VM.
    ("", '"abcdef".substring(4,1)'),
    ("", '"abcdef".slice(-2)'),
    ("", '[null,"a"].join("")'),
    ("", "-1 % 2"),
    ("", '1 == "1"'),
    ("", 'unescape("%U0041")'),
    # Conversions, operators and equality.
    ("", '"5" - 2'),
    ("", '"5" + 2'),
    ("", "true + 1"),
    ("", "null + 1"),
    ("", 'undefined + ""'),
    ("", "1 / 0"),
    ("", "-1 / 0"),
    ("", "0 / 0"),
    ("", "5 % 0"),
    ("", "-0"),
    ("", "0 * -1"),
    ("", "null == undefined"),
    ("", "null === undefined"),
    ("", "(0/0) == (0/0)"),
    ("", '"b" > "a"'),
    ("", "~5"),
    ("", "7 >>> 1"),
    ("", "-7 >> 1"),
    ("", "1 << 33"),
    ("", "typeof 1"),
    ("", '!""'),
    ("", "void 0"),
    ("", '"0x1f" * 1'),
    ("", '(1 < 2) ? "yes" : "no"'),
    ("", '"abc"[1]'),
    ("", '"abc"[5]'),
    ("", '"abc"["length"]'),
    ("", '"abc".length'),
    # Builtins.
    ("", 'parseInt("ff", 16)'),
    ("", 'parseInt("0x1f")'),
    ("", 'parseInt("12", 37)'),
    ("", 'parseFloat("3.5e2x")'),
    ("", 'String.fromCharCode(104, 105)'),
    ("", 'unescape("%u9090%41")'),
    ("", 'escape("a b")'),
    ("", '"AbC".toLowerCase()'),
    ("", '"abc".concat(1, null, true)'),
    ("", '"a-b-c".replace("-", "+")'),
    ("", '"abcabc".indexOf("c", -5)'),
    ("", '"abcabc".lastIndexOf("b")'),
    ("", '["a", 1, undefined].join()'),
    ("", 'String(0/0)'),
    ("", 'Number("  12 ")'),
    # Hostile arguments.
    ("", "String.fromCharCode(0/0)"),
    ("", "String.fromCharCode(1e308 * 10)"),
    ("", 'parseInt("ff", 1e308 * 10)'),
    ("", '"abc".substr(0/0)'),
    ("", '"abc".slice(-1/0)'),
    ("", '"abc".substring(0/0, 1/0)'),
    ("", '"abc".charAt(1/0)'),
    ("", '"abc".charCodeAt(0/0)'),
    ("", '"abc".indexOf("b", 1/0)'),
    ("", 'parseInt("1" + "0000000000".concat("0000000000"), 2)'),
    # The fold cap: exactly MAX_FOLD_CHARS folds, one past stays opaque.
    (_BIG, "big.length"),
    (_BIG, "big.charAt(7)"),
    (_BIG, 'big + ""'),
    (_BIG, 'big + "!"'),
]


def same(static, runtime):
    """JS-value equality: NaN equals NaN, types and the sign of zero
    must match (``True`` is not ``1.0``)."""
    if type(static) is not type(runtime):
        return False
    if isinstance(static, float):
        if math.isnan(static) or math.isnan(runtime):
            return math.isnan(static) and math.isnan(runtime)
        return static == runtime and math.copysign(1, static) == math.copysign(1, runtime)
    return static == runtime


def static_values(prelude, expression):
    """(folder value, absint exact value) of ``expression``; ``None``
    where an engine did not produce an exact constant."""
    source = f"{prelude}var r = ({expression});"
    program = parse(source)
    folder = ConstantFolder(program)
    folder.run()
    folded = folder.env.get("r")
    interp = _Interp(_Engine(_Budget(1_000_000)), program, 0, "script")
    interp.run()
    value = interp.env.get("r")
    exact = value if isinstance(value, lat.AbsConst) else None
    return folded, exact


def check(prelude, expression):
    try:
        runtime = evaluate(f"{prelude}({expression});")
    except JSError:
        return None
    folded, exact = static_values(prelude, expression)
    if folded is not None:
        assert same(folded.value, runtime), ("fold", expression, folded.value, runtime)
    if exact is not None:
        assert same(exact.value, runtime), ("absint", expression, exact.value, runtime)
    return folded, exact


@pytest.mark.parametrize("prelude,expression", ROWS, ids=[e for _, e in ROWS])
def test_static_constants_equal_the_runtime(prelude, expression):
    assert check(prelude, expression) is not None


def test_tentpole_rows_fold_in_both_engines():
    """The rows the engines used to get wrong now fold, not just agree
    by staying opaque."""
    for expression in ('"abcdef".substring(4,1)', '"abcdef".slice(-2)',
                       "-1 % 2", '1 == "1"', 'unescape("%U0041")'):
        folded, exact = check("", expression)
        assert folded is not None and exact is not None, expression
    folded, _ = check("", '[null,"a"].join("")')
    assert folded is not None and folded.value == "a"


def test_fold_cap_boundary():
    folded, exact = check(_BIG, 'big + ""')
    assert len(folded.value) == MAX_FOLD_CHARS
    assert len(exact.value) == MAX_FOLD_CHARS
    folded, exact = check(_BIG, 'big + "!"')
    assert folded is None and exact is None


def test_undefined_is_not_null():
    folded, exact = check("", "void 0")
    assert folded.value is UNDEFINED and exact.value is UNDEFINED


# -- generated expressions ----------------------------------------------------

_atoms = st.sampled_from([
    "0", "1", "2", "-1", "7", "0.5", "255", "65", "1e21", "(0/0)", "(1/0)",
    "(-1/0)", '""', '"a"', '"abc"', '"12"', '" 3 "', '"0x10"', '"%u0041"',
    "true", "false", "null", "undefined",
])
_binary_ops = st.sampled_from([
    "+", "-", "*", "/", "%", "==", "===", "!=", "!==", "<", ">", "<=", ">=",
    "&", "|", "^", "<<", ">>", ">>>",
])
_unary_ops = st.sampled_from(["-", "+", "!", "~", "typeof ", "void "])
_methods = st.sampled_from([
    "charAt", "charCodeAt", "substring", "substr", "slice", "indexOf",
    "lastIndexOf", "concat", "toUpperCase", "toLowerCase", "replace", "trim",
])
_globals = st.sampled_from(["parseInt", "parseFloat", "unescape", "escape",
                            "String", "Number", "Boolean", "isNaN"])


def _extend(inner):
    return st.one_of(
        st.tuples(inner, _binary_ops, inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(_unary_ops, inner).map(lambda t: f"({t[0]}{t[1]})"),
        st.tuples(inner, _methods, st.lists(inner, max_size=2)).map(
            lambda t: f'({t[0]} + "").{t[1]}({", ".join(t[2])})'
        ),
        st.tuples(_globals, st.lists(inner, min_size=1, max_size=2)).map(
            lambda t: f"{t[0]}({', '.join(t[1])})"
        ),
        st.lists(inner, min_size=1, max_size=3).map(
            lambda xs: f"String.fromCharCode({', '.join(xs)})"
        ),
        st.tuples(inner, inner, inner).map(lambda t: f"({t[0]} ? {t[1]} : {t[2]})"),
    )


expressions = st.recursive(_atoms, _extend, max_leaves=6)


@given(expression=expressions)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_generated_constants_equal_the_runtime(expression):
    check("", expression)
