"""A from-scratch JavaScript engine (ES3-ish subset).

Built because the paper's instrumentation executes *inside* the PDF
reader's JavaScript engine: the context monitoring code must really run
(`eval`, SOAP messaging, decryption of the wrapped script), heap-spray
loops must really allocate, and the Acrobat object model
(``app.setTimeOut``, ``Doc.addScript``, ``Collab.*`` …) must really
dispatch — including into the version-gated exploit registry.

Public surface::

    from repro.js import JSRuntimeError, evaluate, make_interpreter
    result = evaluate("var x = 2; x * 21")   # -> 42.0
"""

from typing import Any, Optional

from repro.js.errors import JSRuntimeError, JSSyntaxError, ResourceLimitExceeded
from repro.js.runtime import Host, Runtime
from repro.js.values import JSArray, JSFunction, JSObject, UNDEFINED


def make_interpreter(*, host: Optional[Host] = None, max_steps: int = 2_000_000) -> Runtime:
    """A fresh :class:`~repro.js.vm.BytecodeInterpreter`.

    The VM is imported lazily so merely importing ``repro.js`` never
    pays for (or depends on) the compiler.
    """
    from repro.js.vm import BytecodeInterpreter

    return BytecodeInterpreter(host=host, max_steps=max_steps)


def evaluate(source: str, **kwargs: Any) -> Any:
    """One-shot convenience: run ``source`` in a fresh engine."""
    from repro.js.vm import BytecodeInterpreter

    return BytecodeInterpreter(**kwargs).run(source)


__all__ = [
    "Host",
    "JSArray",
    "JSFunction",
    "JSObject",
    "JSRuntimeError",
    "JSSyntaxError",
    "ResourceLimitExceeded",
    "Runtime",
    "UNDEFINED",
    "evaluate",
    "make_interpreter",
]
