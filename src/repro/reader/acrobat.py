"""The Acrobat JavaScript object model.

Installs ``app``, ``util``, ``Collab``, ``SOAP``, ``Net`` and the
document object (``this``) into an interpreter, bound to a
:class:`DocBinding` the reader provides.  Everything the paper's
instrumentation and the corpus rely on is here:

* the vulnerable entry points that dispatch into the exploit registry
  (``Collab.collectEmailInfo``, ``util.printf``, ``media.newPlayer``,
  ``Collab.getIcon``, ``printSeps``, ``getAnnots``);
* ``SOAP.request`` — the channel the context monitoring code uses;
* ``Net.HTTP`` which throws inside documents (why the paper picked SOAP);
* the Table IV runtime-script methods (``addScript``, ``setAction``,
  ``setPageAction``, ``bookmarkRoot...setAction``) and the delayed
  execution pair (``app.setTimeOut`` / ``app.setInterval``);
* ``this.info.*`` document metadata (attackers hide shellcode there);
* ``exportDataObject`` (embedded-file droppers).

All objects are plain :class:`~repro.js.values.JSObject` instances, so
attacker *or* monitoring JavaScript can overwrite methods — the staged
and delayed-execution countermeasures depend on exactly that.
"""

from __future__ import annotations

from typing import Any, List, Protocol

from repro.js.errors import JSThrow
from repro.js.runtime import Runtime
from repro.js.values import JSArray, JSObject, NativeFunction, UNDEFINED, to_number, to_string


class DocBinding(Protocol):
    """What the reader exposes to the Acrobat API layer."""

    reader_version: str

    def alert(self, message: str) -> None: ...

    def vulnerable_api_called(self, api_path: str, args: List[Any]) -> None: ...

    def soap_request(self, url: str, request: Any) -> Any: ...

    def net_connect_attempt(self, host: str, port: int) -> None: ...

    def set_timeout(self, code: str, milliseconds: float, interval: bool) -> int: ...

    def clear_timeout(self, timer_id: int) -> None: ...

    def add_runtime_script(self, kind: str, name: str, code: str) -> None: ...

    def export_data_object(self, name: str, launch: int) -> None: ...

    def launch_external(self, application: str, argument: str) -> None: ...

    def doc_info(self) -> dict: ...

    def doc_metadata(self) -> dict: ...


def _arg(args: List[Any], index: int, default: Any = UNDEFINED) -> Any:
    return args[index] if index < len(args) else default


def _option(value: Any, key: str, default: Any = UNDEFINED) -> Any:
    """Read ``{cName: ...}``-style keyword objects Acrobat APIs take."""
    if isinstance(value, JSObject):
        found = value.get(key)
        if found is not UNDEFINED:
            return found
    return default


def build_acrobat_environment(interp: Runtime, binding: DocBinding) -> JSObject:
    """Install the Acrobat globals; returns the document object (``this``)."""
    doc = _build_doc_object(interp, binding)
    interp.define_global("app", _build_app_object(interp, binding))
    interp.define_global("util", _build_util_object(interp, binding))
    interp.define_global("Collab", _build_collab_object(interp, binding))
    interp.define_global("SOAP", _build_soap_object(interp, binding))
    interp.define_global("Net", _build_net_object(interp, binding))
    interp.define_global("event", JSObject({"name": "Open", "type": "Doc"}))
    interp.define_global("this", doc)
    interp.global_this = doc
    return doc


# ---------------------------------------------------------------------------
# app


def _build_app_object(interp: Runtime, binding: DocBinding) -> JSObject:
    app = JSObject(class_name="app")
    app.set("viewerVersion", float(binding.reader_version.split(".")[0]))
    app.set("viewerType", "Exchange-Pro")
    app.set("platform", "WIN")
    app.set(
        "alert",
        NativeFunction(
            "alert",
            lambda i, t, a: binding.alert(
                to_string(_option(_arg(a, 0), "cMsg", _arg(a, 0, "")))
            ),
        ),
    )
    app.set("beep", NativeFunction("beep", lambda i, t, a: UNDEFINED))

    def _set_time_out(i: Runtime, t: Any, a: List[Any]) -> float:
        code = to_string(_arg(a, 0, ""))
        delay = to_number(_arg(a, 1, 0.0))
        return float(binding.set_timeout(code, delay, interval=False))

    def _set_interval(i: Runtime, t: Any, a: List[Any]) -> float:
        code = to_string(_arg(a, 0, ""))
        delay = to_number(_arg(a, 1, 0.0))
        return float(binding.set_timeout(code, delay, interval=True))

    app.set("setTimeOut", NativeFunction("setTimeOut", _set_time_out))
    app.set("setInterval", NativeFunction("setInterval", _set_interval))
    app.set(
        "clearTimeOut",
        NativeFunction(
            "clearTimeOut",
            lambda i, t, a: binding.clear_timeout(int(to_number(_arg(a, 0, 0.0)))),
        ),
    )
    app.set(
        "clearInterval",
        NativeFunction(
            "clearInterval",
            lambda i, t, a: binding.clear_timeout(int(to_number(_arg(a, 0, 0.0)))),
        ),
    )
    # launchURL / mailMsg go through third-party applications (browser,
    # mail client) which the runtime detector does NOT monitor (§III-D).
    app.set(
        "launchURL",
        NativeFunction(
            "launchURL",
            lambda i, t, a: binding.launch_external("browser", to_string(_arg(a, 0, ""))),
        ),
    )
    app.set(
        "mailMsg",
        NativeFunction(
            "mailMsg",
            lambda i, t, a: binding.launch_external("mail", to_string(_option(_arg(a, 0), "cTo", ""))),
        ),
    )
    app.set("plugIns", JSArray([]))
    return app


# ---------------------------------------------------------------------------
# util / Collab / SOAP / Net


def _printf_format(fmt: str, args: List[Any]) -> str:
    out: List[str] = []
    arg_index = 0
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        j = i + 1
        while j < len(fmt) and fmt[j] in "0123456789.,+- ":
            j += 1
        if j < len(fmt) and fmt[j] in "dfsxe":
            conv = fmt[j]
            value = args[arg_index] if arg_index < len(args) else UNDEFINED
            arg_index += 1
            if conv == "d":
                out.append(str(int(to_number(value)) if to_number(value) == to_number(value) else 0))
            elif conv in "fe":
                out.append(str(to_number(value)))
            elif conv == "x":
                out.append(format(int(to_number(value)), "x"))
            else:
                out.append(to_string(value))
            i = j + 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _build_util_object(interp: Runtime, binding: DocBinding) -> JSObject:
    util = JSObject(class_name="util")

    def _printf(i: Runtime, t: Any, a: List[Any]) -> str:
        fmt = to_string(_arg(a, 0, ""))
        binding.vulnerable_api_called("util.printf", [fmt] + list(a[1:]))
        return i._record_string(_printf_format(fmt, list(a[1:])))

    util.set("printf", NativeFunction("printf", _printf))
    util.set(
        "printd",
        NativeFunction("printd", lambda i, t, a: to_string(_arg(a, 1, ""))),
    )
    util.set(
        "byteToChar",
        NativeFunction(
            "byteToChar", lambda i, t, a: chr(int(to_number(_arg(a, 0, 0.0))) & 0xFF)
        ),
    )
    return util


def _build_collab_object(interp: Runtime, binding: DocBinding) -> JSObject:
    collab = JSObject(class_name="Collab")

    def _collect_email_info(i: Runtime, t: Any, a: List[Any]) -> Any:
        msg = _option(_arg(a, 0), "msg", _arg(a, 0, ""))
        binding.vulnerable_api_called("Collab.collectEmailInfo", [to_string(msg)])
        return UNDEFINED

    def _get_icon(i: Runtime, t: Any, a: List[Any]) -> Any:
        binding.vulnerable_api_called("Collab.getIcon", [to_string(_arg(a, 0, ""))])
        return UNDEFINED

    collab.set("collectEmailInfo", NativeFunction("collectEmailInfo", _collect_email_info))
    collab.set("getIcon", NativeFunction("getIcon", _get_icon))
    return collab


def _build_soap_object(interp: Runtime, binding: DocBinding) -> JSObject:
    soap = JSObject(class_name="SOAP")

    def _request(i: Runtime, t: Any, a: List[Any]) -> Any:
        params = _arg(a, 0)
        url = to_string(_option(params, "cURL", ""))
        request = _option(params, "oRequest", UNDEFINED)
        return binding.soap_request(url, request)

    def _connect(i: Runtime, t: Any, a: List[Any]) -> Any:
        url = to_string(_arg(a, 0, ""))
        return binding.soap_request(url, UNDEFINED)

    soap.set("request", NativeFunction("request", _request))
    soap.set("connect", NativeFunction("connect", _connect))
    return soap


def _build_net_object(interp: Runtime, binding: DocBinding) -> JSObject:
    net = JSObject(class_name="Net")

    def _http_request(i: Runtime, t: Any, a: List[Any]) -> Any:
        # "The Net.HTTP method can be invoked only outside of a document"
        # (§III-C, citing [20]) — inside a document it raises.
        raise JSThrow("NotAllowedError: Security settings prevent access to Net.HTTP")

    http = JSObject(class_name="Net.HTTP")
    http.set("request", NativeFunction("request", _http_request))
    net.set("HTTP", http)
    return net


# ---------------------------------------------------------------------------
# the document object (``this``)


def _build_doc_object(interp: Runtime, binding: DocBinding) -> JSObject:
    doc = JSObject(class_name="Doc")
    info = JSObject(class_name="Info")
    for key, value in binding.doc_info().items():
        info.set(key, value)
        info.set(key.lower(), value)
    doc.set("info", info)
    for key, value in binding.doc_metadata().items():
        doc.set(key, value)

    def _add_script(i: Runtime, t: Any, a: List[Any]) -> Any:
        name = to_string(_arg(a, 0, ""))
        code = to_string(_arg(a, 1, ""))
        binding.add_runtime_script("addScript", name, code)
        return UNDEFINED

    def _set_action(i: Runtime, t: Any, a: List[Any]) -> Any:
        trigger = to_string(_arg(a, 0, "WillClose"))
        code = to_string(_arg(a, 1, ""))
        binding.add_runtime_script(f"setAction:{trigger}", trigger, code)
        return UNDEFINED

    def _set_page_action(i: Runtime, t: Any, a: List[Any]) -> Any:
        page = int(to_number(_arg(a, 0, 0.0)))
        trigger = to_string(_arg(a, 1, "Open"))
        code = to_string(_arg(a, 2, ""))
        binding.add_runtime_script(f"setPageAction:{page}:{trigger}", trigger, code)
        return UNDEFINED

    doc.set("addScript", NativeFunction("addScript", _add_script))
    doc.set("setAction", NativeFunction("setAction", _set_action))
    doc.set("setPageAction", NativeFunction("setPageAction", _set_page_action))

    def _get_annots(i: Runtime, t: Any, a: List[Any]) -> Any:
        binding.vulnerable_api_called("getAnnots", [to_string(_arg(a, 0, ""))])
        return JSArray([])

    doc.set("getAnnots", NativeFunction("getAnnots", _get_annots))
    doc.set("syncAnnotScan", NativeFunction("syncAnnotScan", lambda i, t, a: UNDEFINED))

    def _print_seps(i: Runtime, t: Any, a: List[Any]) -> Any:
        binding.vulnerable_api_called("printSeps", list(a))
        return UNDEFINED

    doc.set("printSeps", NativeFunction("printSeps", _print_seps))

    media = JSObject(class_name="Doc.media")

    def _new_player(i: Runtime, t: Any, a: List[Any]) -> Any:
        binding.vulnerable_api_called("media.newPlayer", [to_string(_arg(a, 0, ""))])
        return None  # the CVE-2009-4324 idiom: newPlayer(null) then use-after-free

    media.set("newPlayer", NativeFunction("newPlayer", _new_player))
    doc.set("media", media)

    def _export_data_object(i: Runtime, t: Any, a: List[Any]) -> Any:
        params = _arg(a, 0)
        name = to_string(_option(params, "cName", _arg(a, 0, "attachment")))
        launch = int(to_number(_option(params, "nLaunch", 0.0)))
        binding.export_data_object(name, launch)
        return UNDEFINED

    doc.set("exportDataObject", NativeFunction("exportDataObject", _export_data_object))
    doc.set(
        "createDataObject",
        NativeFunction("createDataObject", lambda i, t, a: UNDEFINED),
    )
    doc.set(
        "getField",
        NativeFunction("getField", lambda i, t, a: JSObject({"value": ""})),
    )

    bookmark_root = JSObject(class_name="Bookmark")

    def _bookmark_set_action(i: Runtime, t: Any, a: List[Any]) -> Any:
        code = to_string(_arg(a, 0, ""))
        binding.add_runtime_script("bookmark.setAction", "bookmark", code)
        return UNDEFINED

    bookmark_root.set("setAction", NativeFunction("setAction", _bookmark_set_action))
    bookmark_root.set("children", JSArray([]))
    doc.set("bookmarkRoot", bookmark_root)
    return doc
