"""Built-in globals and primitive methods for the JavaScript engine.

Covers the surface the corpus and instrumentation code actually use:
``unescape`` (heap sprays), ``String.fromCharCode`` (shellcode
builders), string slicing/search, array manipulation, ``Math``,
``parseInt`` and friends.  ``Math.random`` is deterministic per
interpreter (seeded LCG) so every experiment is reproducible.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List

from repro.js.errors import JSRuntimeError
from repro.js.values import (
    JSArray,
    JSObject,
    NativeFunction,
    UNDEFINED,
    format_number,
    is_callable,
    to_int32,
    to_integer,
    to_number,
    to_string,
    truthy,
)


def _arg(args: List[Any], index: int, default: Any = UNDEFINED) -> Any:
    return args[index] if index < len(args) else default


# ---------------------------------------------------------------------------
# Interpreter-free value functions.  The natives installed below wrap
# them with heap accounting; the static analyser (``repro.jsast``) folds
# constants through them directly, so a fold is exactly the VM's value.


def _char_of(code: Any) -> str:
    """One ``String.fromCharCode`` unit: ToUint16, NaN/±Infinity → 0."""
    number = to_number(code)
    if -math.inf < number < math.inf:
        return chr(int(number) & 0xFFFF)
    return "\x00"


def from_char_code(args: List[Any]) -> str:
    return "".join(_char_of(x) for x in args)


def _string_from_char_code(interp: Any, this: Any, args: List[Any]) -> str:
    # Single finite float argument is the shellcode-builder hot path.
    if len(args) == 1 and type(args[0]) is float and -math.inf < args[0] < math.inf:
        return chr(int(args[0]) & 0xFFFF)
    return interp._record_string(from_char_code(args))


def unescape(text: str) -> str:
    """The classic ``unescape``: ``%uXXXX`` and ``%XX`` decoding."""
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
    return "".join(out)


def escape(text: str) -> str:
    out: List[str] = []
    for ch in text:
        code = ord(ch)
        if ch.isalnum() or ch in "@*_+-./":
            out.append(ch)
        elif code < 256:
            out.append("%%%02X" % code)
        else:
            out.append("%%u%04X" % code)
    return "".join(out)


def _is_hex(text: str) -> bool:
    return all(c in "0123456789abcdefABCDEF" for c in text)


def parse_int(args: List[Any]) -> float:
    text = to_string(_arg(args, 0, "")).strip()
    radix = to_int32(_arg(args, 1))
    sign = 1
    if text.startswith(("-", "+")):
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    if radix != 0 and not 2 <= radix <= 36:
        return math.nan
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
    try:
        return float(sign * int(text[:end], radix))
    except (ValueError, OverflowError):
        # Past Python's digit limit or float range: the value is huge.
        return sign * math.inf


def parse_float(args: List[Any]) -> float:
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


#: Global functions whose value depends on their arguments alone,
#: ``name -> fn(args)``; ``install_globals`` installs them as natives.
PURE_GLOBALS: Dict[str, Callable[[List[Any]], Any]] = {
    "unescape": lambda a: unescape(to_string(_arg(a, 0, ""))),
    "escape": lambda a: escape(to_string(_arg(a, 0, ""))),
    "parseInt": parse_int,
    "parseFloat": parse_float,
    "isNaN": lambda a: math.isnan(to_number(_arg(a, 0))),
    "isFinite": lambda a: math.isfinite(to_number(_arg(a, 0))),
    "String": lambda a: to_string(_arg(a, 0, "")),
    "Number": lambda a: to_number(_arg(a, 0, 0.0)),
    "Boolean": lambda a: truthy(_arg(a, 0)),
}


def _pure_native(name: str) -> NativeFunction:
    fn = PURE_GLOBALS[name]
    if name in ("unescape", "escape"):  # build new strings: charge them
        return NativeFunction(name, lambda i, t, a: i._record_string(fn(a)))
    return NativeFunction(name, lambda i, t, a: fn(a))


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

    for name in PURE_GLOBALS:
        env.declare(name, _pure_native(name))
    env.declare(
        "eval",
        NativeFunction(
            "eval", lambda i, t, a: i.eval_in_scope(_arg(a, 0), i.global_env, i.global_this)
        ),
    )

    env.lookup("String").set(
        "fromCharCode", NativeFunction("fromCharCode", _string_from_char_code)
    )

    def _array_ctor(i: Any, t: Any, a: List[Any]) -> JSArray:
        if len(a) == 1 and isinstance(a[0], float):
            if not (0 <= a[0] < 2**32 and a[0] == int(a[0])):
                raise JSRuntimeError("invalid array length", "RangeError")
            return JSArray([UNDEFINED] * int(a[0]))
        return JSArray(list(a))

    env.declare("Array", NativeFunction("Array", _array_ctor))

    object_ctor = NativeFunction("Object", lambda i, t, a: JSObject())
    object_ctor.set("prototype", JSObject())
    env.declare("Object", object_ctor)

    math_obj = JSObject(class_name="Math")
    math_obj.set("PI", math.pi)
    math_obj.set("E", math.e)
    unary: Dict[str, Callable[[float], float]] = {
        "floor": lambda x: float(math.floor(x)) if math.isfinite(x) else x,
        "ceil": lambda x: float(math.ceil(x)) if math.isfinite(x) else x,
        "round": lambda x: float(math.floor(x + 0.5)) if math.isfinite(x) else x,
        "abs": abs,
        "sqrt": lambda x: math.sqrt(x) if x >= 0 else math.nan,
        "log": lambda x: math.log(x) if x > 0 else -math.inf if x == 0 else math.nan,
        "exp": _exp,
        "sin": lambda x: math.sin(x) if math.isfinite(x) else math.nan,
        "cos": lambda x: math.cos(x) if math.isfinite(x) else math.nan,
        "atan": math.atan,
    }
    for name, fn in unary.items():
        math_obj.set(name, NativeFunction(name, lambda i, t, a, f=fn: f(to_number(_arg(a, 0)))))
    for name, native in {
        "pow": lambda i, t, a: _pow(to_number(_arg(a, 0)), to_number(_arg(a, 1))),
        "max": lambda i, t, a: max((to_number(x) for x in a), default=-math.inf),
        "min": lambda i, t, a: min((to_number(x) for x in a), default=math.inf),
        "random": lambda i, t, a: rng.next(),
    }.items():
        math_obj.set(name, NativeFunction(name, native))
    env.declare("Math", math_obj)

    error_ctor = NativeFunction(
        "Error",
        lambda i, t, a: _init_error(t, a),
    )
    error_ctor.set("prototype", JSObject({"name": "Error"}))
    env.declare("Error", error_ctor)

    env.declare("Date", _make_date_constructor(interp))


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _pow(base: float, exponent: float) -> float:
    try:
        result = base ** exponent
    except ZeroDivisionError:  # 0 ** negative
        return math.inf
    except OverflowError:
        return -math.inf if base < 0 and exponent % 2 == 1 else math.inf
    return result if isinstance(result, float) else math.nan  # complex root


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


def _clamped_index(value: Any, length: int, default: int) -> int:
    """``substring``-style position: ToIntegerOrInfinity clamped to
    ``[0, length]``; ``undefined`` means ``default``."""
    if value is UNDEFINED:
        return default
    return int(min(max(to_integer(value), 0.0), float(length)))


def _relative_index(value: Any, length: int, default: int) -> int:
    """``slice``-style position: negative counts from the end."""
    if value is UNDEFINED:
        return default
    number = to_integer(value)
    if number < 0:
        return int(max(length + number, 0.0))
    return int(min(number, float(length)))


def _char_at(value: str, args: List[Any]) -> str:
    index = to_integer(_arg(args, 0))
    return value[int(index)] if 0 <= index < len(value) else ""


def _char_code_at(value: str, args: List[Any]) -> float:
    # A finite in-range float index is the deobfuscation-loop hot path.
    if args:
        index = args[0]
        if type(index) is float and 0.0 <= index < len(value):
            return float(ord(value[int(index)]))
    index = to_integer(_arg(args, 0))
    return float(ord(value[int(index)])) if 0 <= index < len(value) else math.nan


def _index_of(value: str, args: List[Any]) -> float:
    start = _clamped_index(_arg(args, 1), len(value), 0)
    return float(value.find(to_string(_arg(args, 0, "")), start))


def _last_index_of(value: str, args: List[Any]) -> float:
    return float(value.rfind(to_string(_arg(args, 0, ""))))


def _substring(value: str, args: List[Any]) -> str:
    start = _clamped_index(_arg(args, 0), len(value), 0)
    end = _clamped_index(_arg(args, 1), len(value), len(value))
    if start > end:
        start, end = end, start
    return value[start:end]


def _substr(value: str, args: List[Any]) -> str:
    start = _relative_index(_arg(args, 0), len(value), 0)
    count_arg = _arg(args, 1)
    count = len(value) if count_arg is UNDEFINED else to_integer(count_arg)
    count = min(max(count, 0.0), float(len(value) - start))
    return value[start : start + int(count)]


def _slice_str(value: str, args: List[Any]) -> str:
    start = _relative_index(_arg(args, 0), len(value), 0)
    end = _relative_index(_arg(args, 1), len(value), len(value))
    return value[start:end]


def _split(value: str, args: List[Any]) -> JSArray:
    separator = _arg(args, 0, UNDEFINED)
    if separator is UNDEFINED:
        return JSArray([value])
    sep = to_string(separator)
    if sep == "":
        return JSArray(list(value))
    return JSArray(value.split(sep))


def _replace(value: str, args: List[Any]) -> str:
    return value.replace(to_string(_arg(args, 0, "")), to_string(_arg(args, 1, "")), 1)


def _concat(value: str, args: List[Any]) -> str:
    return value + "".join(to_string(x) for x in args)


#: String methods as interpreter-free functions ``(receiver, args)``.
#: The static analyser folds constant calls through these.
STRING_FUNCTIONS: Dict[str, Callable[[str, List[Any]], Any]] = {
    "charAt": _char_at,
    "charCodeAt": _char_code_at,
    "indexOf": _index_of,
    "lastIndexOf": _last_index_of,
    "substring": _substring,
    "substr": _substr,
    "slice": _slice_str,
    "toUpperCase": lambda v, a: v.upper(),
    "toLowerCase": lambda v, a: v.lower(),
    "split": _split,
    "replace": _replace,
    "concat": _concat,
    "trim": lambda v, a: v.strip(),
    "toString": lambda v, a: v,
    "valueOf": lambda v, a: v,
}

#: Methods whose result is a freshly built string (heap-accounted).
_ALLOCATING_METHODS = (
    "substring", "substr", "slice", "toUpperCase", "toLowerCase",
    "replace", "concat", "trim",
)


def _method(name: str) -> Callable[[Any, str, List[Any]], Any]:
    fn = STRING_FUNCTIONS[name]
    if name in _ALLOCATING_METHODS:
        return lambda i, v, a: i._record_string(fn(v, a))
    return lambda i, v, a: fn(v, a)


#: String methods keyed by name, signature ``(interp, value, args)``
#: where ``value`` is the receiver string: :data:`STRING_FUNCTIONS`
#: plus heap accounting (``_record_string``).  Wrapped per access in a
#: NativeFunction below, and dispatched directly — no wrapper
#: allocation — by the bytecode VM's string-method fast path.
STRING_METHODS = {name: _method(name) for name in STRING_FUNCTIONS}


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


def _number_property(interp: Any, value: float, name: str) -> Any:
    methods = {
        "toString": lambda i, t, a: _number_to_string(value, a),
        "valueOf": lambda i, t, a: value,
        "toFixed": lambda i, t, a: (
            f"{value:.{int(min(max(to_integer(_arg(a, 0)), 0.0), 100.0))}f}"
            if abs(value) < 1e21 else format_number(value)
        ),
    }
    fn = methods.get(name)
    if fn is None:
        return UNDEFINED
    return NativeFunction(name, fn)


def _number_to_string(value: float, args: List[Any]) -> str:
    radix_arg = _arg(args, 0, UNDEFINED)
    if radix_arg is UNDEFINED:
        return format_number(value)
    radix = to_integer(radix_arg)
    if radix == 10 or not 2 <= radix <= 36 or not math.isfinite(value):
        return format_number(value)
    integer = int(abs(value))
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    out = []
    while integer:
        out.append(digits[integer % int(radix)])
        integer //= int(radix)
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


def join_elements(elements: List[Any], args: List[Any]) -> str:
    """``Array.prototype.join`` over ``elements``: holes, ``null`` and
    ``undefined`` join as empty strings."""
    separator = _arg(args, 0)
    sep = "," if separator is UNDEFINED else to_string(separator)
    return sep.join(
        "" if (el is UNDEFINED or el is None) else to_string(el) for el in elements
    )


def _array_join(interp: Any, this: JSArray, args: List[Any]) -> str:
    return interp._record_string(join_elements(this.elements, args))


def _array_concat(interp: Any, this: JSArray, args: List[Any]) -> JSArray:
    merged = list(this.elements)
    for arg in args:
        if isinstance(arg, JSArray):
            merged.extend(arg.elements)
        else:
            merged.append(arg)
    return JSArray(merged)


def _array_slice(interp: Any, this: JSArray, args: List[Any]) -> JSArray:
    length = len(this.elements)
    start = _relative_index(_arg(args, 0), length, 0)
    end = _relative_index(_arg(args, 1), length, length)
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
    start = _relative_index(_arg(args, 0), length, 0)
    delete_count = _clamped_index(_arg(args, 1), length - start, length - start)
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
