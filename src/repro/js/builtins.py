"""Built-in globals and primitive methods for the JavaScript engine.

Covers the surface the corpus and instrumentation code actually use:
``unescape`` (heap sprays), ``String.fromCharCode`` (shellcode
builders), string slicing/search, array manipulation, ``Math``,
``parseInt`` and friends.  ``Math.random`` is deterministic per
interpreter (seeded LCG) so every experiment is reproducible.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional

from repro.js.errors import JSRuntimeError
from repro.js.values import (
    JSArray,
    JSObject,
    NativeFunction,
    UNDEFINED,
    format_number,
    is_callable,
    to_number,
    to_string,
    truthy,
)


def _arg(args: List[Any], index: int, default: Any = UNDEFINED) -> Any:
    return args[index] if index < len(args) else default


def _string_from_char_code(interp: Any, this: Any, args: List[Any]) -> str:
    # Single float argument is the shellcode-builder hot path.
    if len(args) == 1 and type(args[0]) is float:
        return chr(int(args[0]) & 0xFFFF)
    return interp._record_string(
        "".join(chr(int(to_number(x)) & 0xFFFF) for x in args)
    )


# ---------------------------------------------------------------------------
# Global functions


def _unescape(interp: Any, this: Any, args: List[Any]) -> str:
    text = to_string(_arg(args, 0, ""))
    out: List[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "%" and i + 5 < n + 1 and i + 1 < n and text[i + 1] in "uU":
            digits = text[i + 2 : i + 6]
            if len(digits) == 4 and _is_hex(digits):
                out.append(chr(int(digits, 16)))
                i += 6
                continue
        if ch == "%" and i + 2 < n + 1:
            digits = text[i + 1 : i + 3]
            if len(digits) == 2 and _is_hex(digits):
                out.append(chr(int(digits, 16)))
                i += 3
                continue
        out.append(ch)
        i += 1
    result = "".join(out)
    interp._record_string(result)
    return result


def _escape(interp: Any, this: Any, args: List[Any]) -> str:
    text = to_string(_arg(args, 0, ""))
    out: List[str] = []
    for ch in text:
        code = ord(ch)
        if ch.isalnum() or ch in "@*_+-./":
            out.append(ch)
        elif code < 256:
            out.append("%%%02X" % code)
        else:
            out.append("%%u%04X" % code)
    return interp._record_string("".join(out))


def _is_hex(text: str) -> bool:
    return all(c in "0123456789abcdefABCDEF" for c in text)


def _parse_int(interp: Any, this: Any, args: List[Any]) -> float:
    text = to_string(_arg(args, 0, "")).strip()
    radix_value = _arg(args, 1, UNDEFINED)
    radix = int(to_number(radix_value)) if radix_value is not UNDEFINED else 0
    sign = 1
    if text.startswith(("-", "+")):
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    if radix in (0, 16) and text[:2].lower() == "0x":
        text = text[2:]
        radix = 16
    if radix == 0:
        radix = 10
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"[:radix]
    end = 0
    while end < len(text) and text[end].lower() in digits:
        end += 1
    if end == 0:
        return math.nan
    return float(sign * int(text[:end], radix))


def _parse_float(interp: Any, this: Any, args: List[Any]) -> float:
    text = to_string(_arg(args, 0, "")).strip()
    end = 0
    seen_dot = seen_e = False
    while end < len(text):
        ch = text[end]
        if ch.isdigit():
            end += 1
        elif ch == "." and not seen_dot and not seen_e:
            seen_dot = True
            end += 1
        elif ch in "eE" and not seen_e and end > 0:
            seen_e = True
            end += 1
            if end < len(text) and text[end] in "+-":
                end += 1
        elif ch in "+-" and end == 0:
            end += 1
        else:
            break
    try:
        return float(text[:end])
    except ValueError:
        return math.nan


class _SeededRandom:
    """Deterministic LCG so Math.random() is reproducible."""

    def __init__(self, seed: int = 0x2545F491) -> None:
        self.state = seed & 0x7FFFFFFF or 1

    def next(self) -> float:
        self.state = (self.state * 48271) % 0x7FFFFFFF
        return self.state / 0x7FFFFFFF


# ---------------------------------------------------------------------------
# Installation


def install_globals(interp: Any) -> None:
    """Install the standard global environment into ``interp``."""
    env = interp.global_env
    rng = _SeededRandom()

    env.declare("NaN", math.nan)
    env.declare("Infinity", math.inf)
    env.declare("undefined", UNDEFINED)

    env.declare("unescape", NativeFunction("unescape", _unescape))
    env.declare("escape", NativeFunction("escape", _escape))
    env.declare("parseInt", NativeFunction("parseInt", _parse_int))
    env.declare("parseFloat", NativeFunction("parseFloat", _parse_float))
    env.declare(
        "isNaN",
        NativeFunction("isNaN", lambda i, t, a: math.isnan(to_number(_arg(a, 0)))),
    )
    env.declare(
        "isFinite",
        NativeFunction("isFinite", lambda i, t, a: math.isfinite(to_number(_arg(a, 0)))),
    )
    env.declare(
        "eval",
        NativeFunction(
            "eval", lambda i, t, a: i.eval_in_scope(_arg(a, 0), i.global_env, i.global_this)
        ),
    )

    string_ctor = NativeFunction("String", lambda i, t, a: to_string(_arg(a, 0, "")))
    string_ctor.set(
        "fromCharCode", NativeFunction("fromCharCode", _string_from_char_code)
    )
    env.declare("String", string_ctor)

    env.declare("Number", NativeFunction("Number", lambda i, t, a: to_number(_arg(a, 0, 0.0))))
    env.declare("Boolean", NativeFunction("Boolean", lambda i, t, a: truthy(_arg(a, 0))))

    def _array_ctor(i: Any, t: Any, a: List[Any]) -> JSArray:
        if len(a) == 1 and isinstance(a[0], float):
            return JSArray([UNDEFINED] * int(a[0]))
        return JSArray(list(a))

    env.declare("Array", NativeFunction("Array", _array_ctor))

    object_ctor = NativeFunction("Object", lambda i, t, a: JSObject())
    object_ctor.set("prototype", JSObject())
    env.declare("Object", object_ctor)

    math_obj = JSObject(class_name="Math")
    math_obj.set("PI", math.pi)
    math_obj.set("E", math.e)
    for name, fn in {
        "floor": lambda i, t, a: float(math.floor(to_number(_arg(a, 0)))),
        "ceil": lambda i, t, a: float(math.ceil(to_number(_arg(a, 0)))),
        "round": lambda i, t, a: float(math.floor(to_number(_arg(a, 0)) + 0.5)),
        "abs": lambda i, t, a: abs(to_number(_arg(a, 0))),
        "sqrt": lambda i, t, a: math.sqrt(to_number(_arg(a, 0))) if to_number(_arg(a, 0)) >= 0 else math.nan,
        "pow": lambda i, t, a: float(to_number(_arg(a, 0)) ** to_number(_arg(a, 1))),
        "max": lambda i, t, a: max((to_number(x) for x in a), default=-math.inf),
        "min": lambda i, t, a: min((to_number(x) for x in a), default=math.inf),
        "log": lambda i, t, a: (
            math.log(to_number(_arg(a, 0))) if to_number(_arg(a, 0)) > 0 else -math.inf
            if to_number(_arg(a, 0)) == 0 else math.nan
        ),
        "exp": lambda i, t, a: math.exp(to_number(_arg(a, 0))),
        "sin": lambda i, t, a: math.sin(to_number(_arg(a, 0))),
        "cos": lambda i, t, a: math.cos(to_number(_arg(a, 0))),
        "atan": lambda i, t, a: math.atan(to_number(_arg(a, 0))),
    }.items():
        math_obj.set(name, NativeFunction(name, fn))
    math_obj.set("random", NativeFunction("random", lambda i, t, a: rng.next()))
    env.declare("Math", math_obj)

    error_ctor = NativeFunction(
        "Error",
        lambda i, t, a: _init_error(t, a),
    )
    error_ctor.set("prototype", JSObject({"name": "Error"}))
    env.declare("Error", error_ctor)

    env.declare("Date", _make_date_constructor(interp))


#: Epoch base for the virtual Date: 2013-06-01T00:00:00Z — inside the
#: paper's data-collection window, so date-gated samples behave.
_VIRTUAL_EPOCH_MS = 1370044800000.0


def _make_date_constructor(interp: Any) -> NativeFunction:
    """A minimal ``Date``: enough for timestamp/stamping scripts.

    Time comes from the host's virtual clock, so runs are reproducible.
    """

    def _date_ctor(i: Any, t: Any, a: List[Any]) -> JSObject:
        if a:
            millis = to_number(_arg(a, 0, 0.0))
        else:
            millis = _VIRTUAL_EPOCH_MS + i.host.now_seconds() * 1000.0
        target = t if isinstance(t, JSObject) else JSObject()
        target.class_name = "Date"
        target.set("getTime", NativeFunction("getTime", lambda i2, t2, a2: millis))
        target.set("valueOf", NativeFunction("valueOf", lambda i2, t2, a2: millis))
        seconds = millis / 1000.0
        days = seconds / 86400.0
        target.set(
            "getFullYear",
            NativeFunction("getFullYear", lambda i2, t2, a2: float(1970 + int(days / 365.2425))),
        )
        target.set(
            "toString",
            NativeFunction("toString", lambda i2, t2, a2: f"[Date {millis:.0f}ms]"),
        )
        return target

    ctor = NativeFunction("Date", _date_ctor)
    ctor.set(
        "now",
        NativeFunction(
            "now",
            lambda i, t, a: _VIRTUAL_EPOCH_MS + i.host.now_seconds() * 1000.0,
        ),
    )
    return ctor


def _init_error(this: Any, args: List[Any]) -> Any:
    target = this if isinstance(this, JSObject) else JSObject()
    target.set("message", to_string(_arg(args, 0, "")))
    target.set("name", "Error")
    return target


# ---------------------------------------------------------------------------
# Primitive (string / number / boolean) property access


def primitive_property(interp: Any, obj: Any, name: str) -> Any:
    if isinstance(obj, str):
        return _string_property(interp, obj, name)
    if isinstance(obj, (int, float)):
        return _number_property(interp, float(obj), name)
    if isinstance(obj, bool):
        return _number_property(interp, 1.0 if obj else 0.0, name)
    raise JSRuntimeError(f"cannot read property {name!r}", "TypeError")


def _clamp_index(x: Any, default: float) -> int:
    number = to_number(x) if x is not UNDEFINED else default
    if math.isnan(number):
        number = 0.0
    return int(number)


def _str_char_at(interp: Any, value: str, args: List[Any]) -> str:
    index = _clamp_index(_arg(args, 0, 0.0), 0.0)
    return value[index] if 0 <= index < len(value) else ""


def _str_char_code_at(interp: Any, value: str, args: List[Any]) -> float:
    # Float index is the deobfuscation-loop hot path (int(nan) would
    # raise, so NaN still detours through _clamp_index).
    if args:
        index_value = args[0]
        if type(index_value) is float and index_value == index_value:
            index = int(index_value)
            return float(ord(value[index])) if 0 <= index < len(value) else math.nan
    index = _clamp_index(_arg(args, 0, 0.0), 0.0)
    return float(ord(value[index])) if 0 <= index < len(value) else math.nan


def _str_index_of(interp: Any, value: str, args: List[Any]) -> float:
    return float(value.find(to_string(_arg(args, 0, "")), _clamp_index(_arg(args, 1, 0.0), 0.0)))


def _str_last_index_of(interp: Any, value: str, args: List[Any]) -> float:
    return float(value.rfind(to_string(_arg(args, 0, ""))))


def _str_replace(interp: Any, value: str, args: List[Any]) -> str:
    return interp._record_string(
        value.replace(to_string(_arg(args, 0, "")), to_string(_arg(args, 1, "")), 1)
    )


def _str_concat(interp: Any, value: str, args: List[Any]) -> str:
    return interp._record_string(value + "".join(to_string(x) for x in args))


#: String methods keyed by name, signature ``(interp, value, args)``
#: where ``value`` is the receiver string.  Shared by the tree-walker
#: (wrapped per access in a NativeFunction below) and dispatched
#: directly — no wrapper allocation — by the bytecode VM's
#: string-method fast path.  Heap accounting (``_record_string``) lives
#: inside each method, so both engines charge identically.
STRING_METHODS = {
    "charAt": _str_char_at,
    "charCodeAt": _str_char_code_at,
    "indexOf": _str_index_of,
    "lastIndexOf": _str_last_index_of,
    "substring": lambda i, v, a: i._record_string(_substring(v, a)),
    "substr": lambda i, v, a: i._record_string(_substr(v, a)),
    "slice": lambda i, v, a: i._record_string(_slice_str(v, a)),
    "toUpperCase": lambda i, v, a: i._record_string(v.upper()),
    "toLowerCase": lambda i, v, a: i._record_string(v.lower()),
    "split": lambda i, v, a: _split(v, a),
    "replace": _str_replace,
    "concat": _str_concat,
    "trim": lambda i, v, a: i._record_string(v.strip()),
    "toString": lambda i, v, a: v,
    "valueOf": lambda i, v, a: v,
}


def _string_property(interp: Any, value: str, name: str) -> Any:
    if name == "length":
        return float(len(value))
    if name.isdigit():
        index = int(name)
        return value[index] if 0 <= index < len(value) else UNDEFINED
    fn = STRING_METHODS.get(name)
    if fn is None:
        return UNDEFINED
    return NativeFunction(name, lambda i, t, a, _fn=fn, _v=value: _fn(i, _v, a))


def _substring(value: str, args: List[Any]) -> str:
    start = int(max(0, min(len(value), to_number(_arg(args, 0, 0.0)) if _arg(args, 0, UNDEFINED) is not UNDEFINED else 0)))
    end_arg = _arg(args, 1, UNDEFINED)
    end = int(max(0, min(len(value), to_number(end_arg)))) if end_arg is not UNDEFINED else len(value)
    if start > end:
        start, end = end, start
    return value[start:end]


def _substr(value: str, args: List[Any]) -> str:
    start = int(to_number(_arg(args, 0, 0.0)))
    if start < 0:
        start = max(0, len(value) + start)
    length_arg = _arg(args, 1, UNDEFINED)
    length = int(to_number(length_arg)) if length_arg is not UNDEFINED else len(value)
    return value[start : start + max(0, length)]


def _slice_str(value: str, args: List[Any]) -> str:
    start_arg = _arg(args, 0, UNDEFINED)
    end_arg = _arg(args, 1, UNDEFINED)
    start = int(to_number(start_arg)) if start_arg is not UNDEFINED else 0
    end: Optional[int] = int(to_number(end_arg)) if end_arg is not UNDEFINED else None
    return value[start:end]


def _split(value: str, args: List[Any]) -> JSArray:
    separator = _arg(args, 0, UNDEFINED)
    if separator is UNDEFINED:
        return JSArray([value])
    sep = to_string(separator)
    if sep == "":
        return JSArray(list(value))
    return JSArray(value.split(sep))


def _number_property(interp: Any, value: float, name: str) -> Any:
    methods = {
        "toString": lambda i, t, a: _number_to_string(value, a),
        "valueOf": lambda i, t, a: value,
        "toFixed": lambda i, t, a: f"{value:.{int(to_number(_arg(a, 0, 0.0)))}f}",
    }
    fn = methods.get(name)
    if fn is None:
        return UNDEFINED
    return NativeFunction(name, fn)


def _number_to_string(value: float, args: List[Any]) -> str:
    radix_arg = _arg(args, 0, UNDEFINED)
    if radix_arg is UNDEFINED:
        return format_number(value)
    radix = int(to_number(radix_arg))
    if radix == 10:
        return format_number(value)
    if not 2 <= radix <= 36 or math.isnan(value) or math.isinf(value):
        return format_number(value)
    integer = int(abs(value))
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    out = []
    while integer:
        out.append(digits[integer % radix])
        integer //= radix
    text = "".join(reversed(out)) or "0"
    return "-" + text if value < 0 else text


# ---------------------------------------------------------------------------
# Array methods (shared, dispatched from Runtime.get_property)


def array_method(interp: Any, array: JSArray, name: str) -> Any:
    fn = ARRAY_METHODS.get(name)
    if fn is None:
        return None
    return NativeFunction(name, fn)


def _array_push(interp: Any, this: JSArray, args: List[Any]) -> float:
    this.elements.extend(args)
    return float(len(this.elements))


def _array_pop(interp: Any, this: JSArray, args: List[Any]) -> Any:
    return this.elements.pop() if this.elements else UNDEFINED


def _array_shift(interp: Any, this: JSArray, args: List[Any]) -> Any:
    return this.elements.pop(0) if this.elements else UNDEFINED


def _array_unshift(interp: Any, this: JSArray, args: List[Any]) -> float:
    this.elements[:0] = args
    return float(len(this.elements))


def _array_join(interp: Any, this: JSArray, args: List[Any]) -> str:
    separator = to_string(_arg(args, 0, ",")) if args else ","
    result = separator.join(
        "" if (el is UNDEFINED or el is None) else to_string(el) for el in this.elements
    )
    return interp._record_string(result)


def _array_concat(interp: Any, this: JSArray, args: List[Any]) -> JSArray:
    merged = list(this.elements)
    for arg in args:
        if isinstance(arg, JSArray):
            merged.extend(arg.elements)
        else:
            merged.append(arg)
    return JSArray(merged)


def _array_slice(interp: Any, this: JSArray, args: List[Any]) -> JSArray:
    start_arg = _arg(args, 0, UNDEFINED)
    end_arg = _arg(args, 1, UNDEFINED)
    start = int(to_number(start_arg)) if start_arg is not UNDEFINED else 0
    end: Optional[int] = int(to_number(end_arg)) if end_arg is not UNDEFINED else None
    return JSArray(this.elements[start:end])


def _array_reverse(interp: Any, this: JSArray, args: List[Any]) -> JSArray:
    this.elements.reverse()
    return this


def _array_index_of(interp: Any, this: JSArray, args: List[Any]) -> float:
    from repro.js.values import strict_equals

    needle = _arg(args, 0)
    for index, element in enumerate(this.elements):
        if strict_equals(element, needle):
            return float(index)
    return -1.0


def _array_splice(interp: Any, this: JSArray, args: List[Any]) -> JSArray:
    length = len(this.elements)
    start = int(to_number(_arg(args, 0, 0.0)))
    if start < 0:
        start = max(0, length + start)
    start = min(start, length)
    delete_arg = _arg(args, 1, UNDEFINED)
    delete_count = (
        int(to_number(delete_arg)) if delete_arg is not UNDEFINED else length - start
    )
    delete_count = max(0, min(delete_count, length - start))
    removed = this.elements[start : start + delete_count]
    this.elements[start : start + delete_count] = list(args[2:])
    return JSArray(removed)


def _array_sort(interp: Any, this: JSArray, args: List[Any]) -> JSArray:
    comparator = _arg(args, 0, UNDEFINED)
    if is_callable(comparator):
        import functools

        def compare(a: Any, b: Any) -> int:
            result = to_number(interp.call_function(comparator, UNDEFINED, [a, b]))
            if math.isnan(result):
                return 0
            return -1 if result < 0 else (1 if result > 0 else 0)

        this.elements.sort(key=functools.cmp_to_key(compare))
    else:
        this.elements.sort(key=to_string)
    return this


#: Array methods keyed by name, signature ``(interp, this, args)``.
#: Module-level so a lookup allocates nothing but the NativeFunction.
ARRAY_METHODS = {
    "push": _array_push,
    "pop": _array_pop,
    "shift": _array_shift,
    "unshift": _array_unshift,
    "join": _array_join,
    "concat": _array_concat,
    "slice": _array_slice,
    "reverse": _array_reverse,
    "indexOf": _array_index_of,
    "sort": _array_sort,
    "splice": _array_splice,
    "toString": lambda i, t, a: to_string(t),
}
