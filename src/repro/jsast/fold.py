"""Constant folding and string-concat propagation.

Obfuscated droppers rarely write ``unescape("%u9090...")`` directly;
they build the argument from concatenated fragments, ``String.
fromCharCode`` runs and single-assignment temporaries.  This pass
evaluates the *provably constant* part of a script so the lint rules
see through exactly that one layer:

* literals, binary and unary operators, and constant conditionals fold
  bottom-up;
* calls of the pure global builtins (``unescape``, ``parseInt``,
  ``String``, ...), ``String.fromCharCode``, ``[...].join`` and every
  string method fold when every argument (and the receiver) is
  constant — unless the script rebinds the builtin's name;
* identifiers substitute their initialiser value when the variable is
  assigned exactly once, by a top-level ``var`` declaration — anything
  reassigned, updated, or declared inside a loop/branch/function stays
  opaque (loops are never executed, so a doubling loop cannot blow the
  interpreter up).

There is one JS semantics: every constant operation is the runtime's
own.  Conversions, operators and equality come from
:mod:`repro.js.values`, builtin calls from the interpreter-free forms in
:mod:`repro.js.builtins` — the same functions the bytecode VM runs —
so a node either folds to exactly the value the VM computes or is left
untouched.  The operation helpers below (``apply_binary``,
``call_method``, ...) are shared with the abstract interpreter
(:mod:`repro.jsast.absint`).  Folded strings are capped at
:data:`MAX_FOLD_CHARS` to bound memory.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.js import nodes as ast
from repro.js.builtins import (
    PURE_GLOBALS,
    STRING_FUNCTIONS,
    from_char_code,
    join_elements,
    primitive_property,
)
from repro.js.values import (
    UNDEFINED,
    Primitive,
    binary_op,
    to_int32,
    to_number,
    to_string,
    truthy,
    type_of,
)
from repro.jsast.walk import walk

#: Longest string a fold may produce; larger results stay unfolded.
MAX_FOLD_CHARS = 1 << 20

#: Fixpoint passes: enough for var-to-var constant chains of depth 3.
_MAX_PASSES = 3

#: ``instanceof`` and ``in`` need objects; every other operator folds.
_UNFOLDABLE_OPS = ("instanceof", "in")


class Folded:
    """A constant value, boxed so that "folded to null/undefined" differs
    from "did not fold" (``None``)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


# ---------------------------------------------------------------------------
# Constant operations, evaluated through the runtime's own functions.
# Each returns the runtime's result boxed (uncapped, possibly an object
# such as ``split``'s array), or ``None`` when the operation cannot be
# evaluated without an interpreter.


def apply_binary(op: str, left: Primitive, right: Primitive) -> Optional[Folded]:
    if op in _UNFOLDABLE_OPS:
        return None
    return Folded(binary_op(op, left, right))


def apply_unary(op: str, value: Primitive) -> Optional[Folded]:
    if op == "-":
        return Folded(-to_number(value))
    if op == "+":
        return Folded(to_number(value))
    if op == "!":
        return Folded(not truthy(value))
    if op == "~":
        return Folded(float(~to_int32(value)))
    if op == "typeof":
        return Folded(type_of(value))
    if op == "void":
        return Folded(UNDEFINED)
    return None


def call_global(name: str, args: List[Primitive]) -> Optional[Folded]:
    """``name(...args)`` for a pure global builtin (``unescape``, ...)."""
    fn = PURE_GLOBALS.get(name)
    return Folded(fn(args)) if fn is not None else None


def call_method(receiver: Primitive, method: str, args: List[Primitive]) -> Optional[Folded]:
    """``receiver[method](...args)`` for a string method on a string."""
    fn = STRING_FUNCTIONS.get(method)
    if fn is None or not isinstance(receiver, str):
        return None
    return Folded(fn(receiver, args))


def read_member(obj: Primitive, name: str) -> Optional[Folded]:
    """``obj[name]`` on a string, number or boolean."""
    if isinstance(obj, (str, float, bool)):
        return Folded(primitive_property(None, obj, name))
    return None


def is_primitive(value: Any) -> bool:
    return value is None or value is UNDEFINED or isinstance(value, (str, bool, float))


# ---------------------------------------------------------------------------
# Name analysis


def _collect_names(program: ast.Program) -> Tuple[Set[str], Set[str]]:
    """``(stable, bound)``: names assigned exactly once, by a top-level
    ``var`` initialiser, and every name the script binds at all.

    Any write anywhere else — assignment, ``++``/``--``, a ``for-in``
    target, a nested ``var``, a function declaration or parameter —
    disqualifies a name from ``stable``; any binding at all stops a
    global builtin of that name from folding.
    """
    writes: Dict[str, int] = {}
    top_level: Set[str] = set()
    top_ids = {id(statement) for statement in program.body}

    def bump(name: str, by: int = 1) -> None:
        writes[name] = writes.get(name, 0) + by

    for statement in program.body:
        if isinstance(statement, ast.VarDeclaration):
            for name, init in statement.declarations:
                bump(name)
                if init is not None:
                    top_level.add(name)

    for node in walk(program):
        if isinstance(node, ast.VarDeclaration):
            # Top-level declarations were counted above; nested ones
            # (inside loops/branches/functions) count as extra writes.
            if id(node) not in top_ids:
                for name, _init in node.declarations:
                    bump(name)
        elif isinstance(node, ast.AssignmentExpression):
            if isinstance(node.target, ast.Identifier):
                bump(node.target.name)
        elif isinstance(node, ast.UpdateExpression):
            if isinstance(node.operand, ast.Identifier):
                bump(node.operand.name)
        elif isinstance(node, ast.ForInStatement):
            target = node.target
            if isinstance(target, ast.Identifier):
                bump(target.name)
            elif isinstance(target, ast.VarDeclaration):
                for name, _init in target.declarations:
                    bump(name)
        elif isinstance(node, (ast.FunctionDeclaration, ast.FunctionExpression)):
            if getattr(node, "name", None):
                bump(node.name)  # type: ignore[arg-type]
            for param in node.params:
                bump(param, by=2)  # params are always runtime-varying

    stable = {name for name in top_level if writes.get(name, 0) == 1}
    return stable, set(writes)


class ConstantFolder:
    """Folds one program; reusable helpers are module functions."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.stable, self.bound = _collect_names(program)
        self.env: Dict[str, Folded] = {}
        #: Constant operations left unfolded because their string value
        #: would exceed :data:`MAX_FOLD_CHARS`.  Surfaced by the
        #: ``unfoldable`` lint rule; the expression stays opaque.
        self.unfoldable: List[str] = []

    def _const(self, result: Optional[Folded], what: str) -> Optional[Folded]:
        """``result`` if it is a primitive within the size cap."""
        if result is None or not is_primitive(result.value):
            return None
        if isinstance(result.value, str) and len(result.value) > MAX_FOLD_CHARS:
            if what not in self.unfoldable:
                self.unfoldable.append(what)
            return None
        return result

    # -- environment -----------------------------------------------------

    def _seed_environment(self) -> None:
        """Bind stable names whose initialisers fold to constants."""
        for statement in self.program.body:
            if not isinstance(statement, ast.VarDeclaration):
                continue
            for name, init in statement.declarations:
                if name not in self.stable or init is None:
                    continue
                value = self.fold_expr(init)
                if value is not None:
                    self.env[name] = value

    # -- expression folding ----------------------------------------------

    def fold_expr(self, node: ast.Node) -> Optional[Folded]:
        """Fold ``node`` to a constant, or ``None`` when it may vary."""
        if isinstance(node, (ast.StringLiteral, ast.BooleanLiteral)):
            return Folded(node.value)
        if isinstance(node, ast.NumberLiteral):
            return Folded(float(node.value))
        if isinstance(node, ast.NullLiteral):
            return Folded(None)
        if isinstance(node, ast.UndefinedLiteral):
            return Folded(UNDEFINED)
        if isinstance(node, ast.Identifier):
            return self.env.get(node.name)
        if isinstance(node, ast.BinaryExpression):
            return self._fold_binary(node)
        if isinstance(node, ast.UnaryExpression):
            operand = self.fold_expr(node.operand)
            return apply_unary(node.op, operand.value) if operand is not None else None
        if isinstance(node, ast.ConditionalExpression):
            test = self.fold_expr(node.test)
            if test is None:
                return None
            branch = node.consequent if truthy(test.value) else node.alternate
            return self.fold_expr(branch)
        if isinstance(node, ast.SequenceExpression):
            if not node.expressions:
                return None
            return self.fold_expr(node.expressions[-1])
        if isinstance(node, ast.CallExpression):
            return self._fold_call(node)
        if isinstance(node, ast.MemberExpression):
            return self._fold_member(node)
        return None

    def _fold_binary(self, node: ast.BinaryExpression) -> Optional[Folded]:
        left = self.fold_expr(node.left)
        if left is None:
            return None
        right = self.fold_expr(node.right)
        if right is None:
            return None
        return self._const(apply_binary(node.op, left.value, right.value), node.op)

    def _member_name(self, node: ast.MemberExpression) -> Optional[str]:
        """The property name of ``node``, as the VM computes it."""
        if not node.computed:
            return node.prop.name if isinstance(node.prop, ast.Identifier) else None
        prop = self.fold_expr(node.prop)
        return to_string(prop.value) if prop is not None else None

    def _fold_member(self, node: ast.MemberExpression) -> Optional[Folded]:
        obj = self.fold_expr(node.obj)
        if obj is None:
            return None
        name = self._member_name(node)
        if name is None:
            return None
        return self._const(read_member(obj.value, name), name)

    def _fold_call(self, node: ast.CallExpression) -> Optional[Folded]:
        callee = node.callee
        args: List[Primitive] = []
        for argument in node.arguments:
            folded = self.fold_expr(argument)
            if folded is None:
                return None
            args.append(folded.value)

        if isinstance(callee, ast.Identifier):
            if callee.name in self.bound:
                return None
            return self._const(call_global(callee.name, args), callee.name)

        if not isinstance(callee, ast.MemberExpression):
            return None
        method = self._member_name(callee)
        if method is None:
            return None

        if (
            method == "fromCharCode"
            and isinstance(callee.obj, ast.Identifier)
            and callee.obj.name == "String"
            and "String" not in self.bound
        ):
            return self._const(Folded(from_char_code(args)), "String.fromCharCode")

        if method == "join" and isinstance(callee.obj, ast.ArrayLiteral):
            elements: List[Primitive] = []
            for element in callee.obj.elements:
                folded = self.fold_expr(element)
                if folded is None:
                    return None
                elements.append(folded.value)
            return self._const(Folded(join_elements(elements, args)), "join")

        receiver = self.fold_expr(callee.obj)
        if receiver is None:
            return None
        return self._const(call_method(receiver.value, method, args), method)

    # -- tree rewriting ----------------------------------------------------

    def _rewrite(self, node: ast.Node) -> ast.Node:
        """Return ``node`` with every foldable subtree replaced by a
        literal.  Statements and unfoldable expressions are rebuilt with
        rewritten children (the original tree is never mutated)."""
        if isinstance(
            node,
            (
                ast.BinaryExpression,
                ast.CallExpression,
                ast.MemberExpression,
                ast.UnaryExpression,
                ast.ConditionalExpression,
                ast.Identifier,
            ),
        ):
            folded = self.fold_expr(node)
            if folded is not None:
                return _constant_to_literal(folded.value)
        return _rebuild(node, self._rewrite)

    def run(self) -> ast.Program:
        for _ in range(_MAX_PASSES):
            before = len(self.env)
            self._seed_environment()
            if len(self.env) == before:
                break
        rewritten = self._rewrite(self.program)
        assert isinstance(rewritten, ast.Program)
        return rewritten


def _constant_to_literal(value: Primitive) -> ast.Node:
    if isinstance(value, bool):
        return ast.BooleanLiteral(value)
    if isinstance(value, float):
        return ast.NumberLiteral(value)
    if value is None:
        return ast.NullLiteral()
    if isinstance(value, str):
        return ast.StringLiteral(value)
    return ast.UndefinedLiteral()


def _rebuild(node: ast.Node, transform) -> ast.Node:
    """Shallow-copy ``node`` with ``transform`` applied to node fields."""
    if not dataclasses.is_dataclass(node):
        return node
    changes = {}
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, ast.Node):
            changes[field.name] = transform(value)
        elif isinstance(value, list):
            items = []
            for item in value:
                if isinstance(item, ast.Node):
                    items.append(transform(item))
                elif isinstance(item, tuple):
                    items.append(
                        tuple(
                            transform(element)
                            if isinstance(element, ast.Node)
                            else element
                            for element in item
                        )
                    )
                else:
                    items.append(item)
            changes[field.name] = items
    if not changes:
        return node
    return dataclasses.replace(node, **changes)


def fold_program(program: ast.Program) -> ast.Program:
    """Public entry point: a folded copy of ``program``.

    The input tree is left untouched; sharing of unfoldable subtrees
    with the output is allowed (rules only read).
    """
    return ConstantFolder(program).run()
