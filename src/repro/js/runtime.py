"""The shared JavaScript runtime: scopes, host wiring and value kernels.

:class:`Runtime` is everything about executing the JavaScript subset
that does not depend on *how* a program is walked: the global scope
and builtins, the step budget, string-allocation accounting, and the
operator, property, construction and call kernels.  The production
engine, :class:`repro.js.vm.BytecodeInterpreter`, subclasses it and
supplies the evaluation loop; the reference tree-walker that the test
suite uses as the VM's differential oracle subclasses it too.

Design notes relevant to the reproduction:

* **Allocation accounting.** Every string the program materialises is
  charged to a host callback at two bytes per character (UTF-16, the
  unit real heap-spray arithmetic uses).  The simulated reader wires
  this into the process memory counters, which is how the paper's
  "suspicious memory consumption" feature (F8) observes heap sprays.
* **Spray pool.** Large strings are additionally handed to the host so
  the reader's control-flow-hijack model can scan the "heap" for a NOP
  sled + payload, exactly mirroring the paper's infection model.
* **Step budget.** A step counter bounds runaway scripts (the engine is
  used inside tests and benchmarks; an attacker-controlled infinite
  loop must not hang the harness).
* **`eval`.** Executes in the caller's scope — the instrumentation's
  prologue depends on real `eval` semantics.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.js.errors import JSRuntimeError, ResourceLimitExceeded
from repro.js.values import (
    JSArray,
    JSObject,
    NativeFunction,
    UNDEFINED,
    binary_op,
    is_callable,
    to_string,
)

#: Strings at or above this length are reported to the host spray pool.
SPRAY_POOL_THRESHOLD = 4096

#: Bytes per JS string character (UTF-16), used for heap accounting.
BYTES_PER_CHAR = 2


class Environment:
    """A lexical scope: bindings plus a parent pointer."""

    __slots__ = ("bindings", "parent")

    def __init__(self, parent: Optional["Environment"] = None) -> None:
        self.bindings: Dict[str, Any] = {}
        self.parent = parent

    def lookup(self, name: str) -> Any:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise JSRuntimeError(f"{name} is not defined", kind="ReferenceError")

    def has(self, name: str) -> bool:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return True
            env = env.parent
        return False

    def assign(self, name: str, value: Any) -> None:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                env.bindings[name] = value
                return
            env = env.parent
        # Implicit global, as in sloppy-mode JS.
        root = self
        while root.parent is not None:
            root = root.parent
        root.bindings[name] = value

    def declare(self, name: str, value: Any = UNDEFINED) -> None:
        if name not in self.bindings or value is not UNDEFINED:
            self.bindings[name] = value


class Host:
    """Callbacks from the engine to its embedder (the simulated reader).

    The default implementation accumulates counters locally so the
    engine works standalone.
    """

    def __init__(self) -> None:
        self.allocated_bytes = 0
        self.spray_pool: List[str] = []

    def on_string_alloc(self, length: int) -> None:
        self.allocated_bytes += length * BYTES_PER_CHAR

    def on_large_string(self, value: str) -> None:
        self.spray_pool.append(value)

    def on_step(self, count: int) -> None:  # pragma: no cover - default no-op
        del count

    def now_seconds(self) -> float:
        """Wall-clock seconds for Date(); embedders wire virtual time."""
        return 0.0


class Runtime:
    """Global scope, builtins, budgets and kernels shared by JS engines.

    An engine subclass implements :meth:`run`, :meth:`eval_in_scope` and
    the JS-function half of :meth:`_call_inner`.
    """

    def __init__(
        self,
        host: Optional[Host] = None,
        max_steps: int = 20_000_000,
        install_builtins: bool = True,
    ) -> None:
        self.host = host if host is not None else Host()
        self.max_steps = max_steps
        self.steps = 0
        self.global_env = Environment()
        self.global_this = JSObject(class_name="global")
        #: Optional :class:`repro.obs.profile.JSProfile`; None = unprofiled.
        self._profile: Any = None
        if install_builtins:
            from repro.js.builtins import install_globals

            install_globals(self)

    # -- public API ------------------------------------------------------

    def set_profile(self, profile: Any) -> None:
        """Attach (or with None, detach) a JSProfile hotspot recorder."""
        self._profile = profile

    def run(self, source: str, this: Any = None, env: Optional[Environment] = None) -> Any:
        """Execute ``source``; returns the last statement's value."""
        raise NotImplementedError

    def eval_in_scope(self, code: Any, env: Environment, this: Any) -> Any:
        """Direct ``eval`` semantics: run ``code`` in the caller's scope."""
        raise NotImplementedError

    def call_function(self, fn: Any, this: Any, args: List[Any]) -> Any:
        """Invoke a JS or native function from host code."""
        return self._call(fn, this, args)

    def define_global(self, name: str, value: Any) -> None:
        self.global_env.declare(name, value)

    def native(self, name: str, fn: Callable[["Runtime", Any, List[Any]], Any]) -> NativeFunction:
        return NativeFunction(name, fn)

    # -- bookkeeping ------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise ResourceLimitExceeded(
                "js-steps", self.max_steps, "script exceeded its step budget"
            )

    def _record_string(self, value: str) -> str:
        if len(value) >= 2:
            self.host.on_string_alloc(len(value))
        if len(value) >= SPRAY_POOL_THRESHOLD:
            self.host.on_large_string(value)
        return value

    def _binary_op(self, op: str, left: Any, right: Any) -> Any:
        result = binary_op(op, left, right)
        if type(result) is str:  # only ``+`` makes strings
            return self._record_string(result)
        return result

    def _set_member_value(self, obj: Any, name: str, value: Any) -> None:
        """Property-write kernel."""
        if isinstance(obj, JSObject):
            obj.set(name, value)
            return
        if obj is UNDEFINED or obj is None:
            raise JSRuntimeError(
                f"cannot set property {name!r} of {to_string(obj)}", "TypeError"
            )
        # Primitive property writes are silently dropped (as in JS).

    def get_property(self, obj: Any, name: str) -> Any:
        from repro.js.builtins import array_method, primitive_property

        if isinstance(obj, JSObject):
            if obj.has(name) or (isinstance(obj, JSArray) and (name == "length" or name.isdigit())):
                return obj.get(name)
            if isinstance(obj, JSArray):
                method = array_method(self, obj, name)
                if method is not None:
                    return method
            if name == "hasOwnProperty":
                return self.native(
                    "hasOwnProperty",
                    lambda i, t, a: isinstance(t, JSObject)
                    and to_string(a[0] if a else UNDEFINED) in t.properties,
                )
            if name == "toString":
                return self.native("toString", lambda i, t, a: to_string(t))
            return UNDEFINED
        if obj is UNDEFINED or obj is None:
            raise JSRuntimeError(
                f"cannot read property {name!r} of {to_string(obj)}", "TypeError"
            )
        return primitive_property(self, obj, name)

    def _construct(self, fn: Any, args: List[Any]) -> Any:
        """Constructor-call kernel."""
        if not is_callable(fn):
            raise JSRuntimeError("constructor is not a function", "TypeError")
        prototype = fn.get("prototype") if isinstance(fn, JSObject) else UNDEFINED
        if not isinstance(prototype, JSObject):
            # Every function gets a default prototype object on first
            # construction (so `instanceof` works as in real JS).
            prototype = JSObject()
            if isinstance(fn, JSObject):
                fn.set("prototype", prototype)
        instance = JSObject(prototype=prototype)
        result = self._call(fn, instance, args)
        return result if isinstance(result, JSObject) else instance

    # -- calls -----------------------------------------------------------------

    def _call(self, fn: Any, this: Any, args: List[Any], name: str = "") -> Any:
        """Call kernel for host code, builtins, constructors and calls.

        While a profile is attached the call is timed as a call site,
        labelled with the function's own name, else ``name`` (the
        property it was looked up by).
        """
        profile = self._profile
        if profile is None:
            return self._call_inner(fn, this, args)
        start = profile.enter_call(getattr(fn, "name", None) or name or "(anonymous)")
        try:
            return self._call_inner(fn, this, args)
        finally:
            profile.exit_call(start)

    def _call_inner(self, fn: Any, this: Any, args: List[Any]) -> Any:
        """Invoke ``fn`` untimed; engines add their JS-function kind."""
        if isinstance(fn, NativeFunction):
            return fn.fn(self, this, args)
        raise JSRuntimeError("value is not callable", "TypeError")
