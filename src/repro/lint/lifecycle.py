"""REP005 — resource release on the exception path.

The exact bug class PR 5 fixed by hand in the socket serving launcher: a
function starts child processes or opens a transport/listener, an
exception fires before the happy-path cleanup, and the children/sockets
outlive the session (CI hangs on join, ports stay bound).  Dynamic
tests only catch the leak when a test happens to force the exact
failure ordering; statically the discipline is checkable per function:

    a locally-acquired resource must be released on the exception path
    — a ``with`` block, a release call inside a ``finally`` or
    ``except`` handler, or ownership must visibly leave the function.

**Acquire sites** (heuristic, tuned to this repo's idiom):

* ``var = SocketTransport.connect/listen(...)``,
  ``var = await AsyncSocketTransport.listen(...)``,
  ``var = MultiprocessTransport(...)``, ``var = socket.socket(...)``,
  ``var = socket.create_server/create_connection(...)``;
* ``var.start()`` where ``var`` is process-like — its name contains
  ``proc`` or it was assigned from a ``*Process(...)`` call.  (Threads
  are deliberately exempt: daemon worker threads are the repo's idiom
  and die with the process.)

**Release evidence** (any one suffices):

* the acquire happens in a ``with``/``async with`` item;
* somewhere in the function, inside a ``finally`` block or ``except``
  handler, there is a release call — ``var.close()``, ``var.aclose()``,
  ``var.terminate()``, ``var.kill()``, ``var.join()``, ``var.stop()``
  — or a call passing ``var``, or a call to a helper whose *name* is
  release-shaped (``_terminate_processes(...)``, ``*_cleanup(...)``);
* ownership escapes: ``var`` is returned/yielded, stored on an
  attribute or subscript, or passed to a non-release call (a
  constructor like ``ServerNode(transport, ...)`` takes over closing).

A release that only happens on the straight-line path (no try/finally)
is precisely the bug and is flagged.
"""

from __future__ import annotations

import ast
import re

from repro.lint.base import Finding, ModuleContext, Rule, register

__all__ = ["ResourceLifecycleRule"]

_TRANSPORT_CLASSES = {
    "SocketTransport",
    "AsyncSocketTransport",
    "MultiprocessTransport",
}
_OPENER_METHODS = {"connect", "listen"}
_SOCKET_FUNCS = {"socket", "create_server", "create_connection"}
_RELEASE_METHODS = {
    "close", "aclose", "terminate", "kill", "join", "stop", "shutdown",
    "cancel", "release", "disconnect",
}
_RELEASE_NAME_RE = re.compile(
    r"terminate|close|cleanup|teardown|stop|shutdown|kill|release", re.IGNORECASE
)
_PROCESS_NAME_RE = re.compile(r"proc", re.IGNORECASE)


def _unwrap_await(node: ast.expr) -> ast.expr:
    return node.value if isinstance(node, ast.Await) else node


def _is_opener_call(node: ast.expr) -> bool:
    node = _unwrap_await(node)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id in _TRANSPORT_CLASSES and func.attr in _OPENER_METHODS:
            return True
        if func.value.id == "socket" and func.attr in _SOCKET_FUNCS:
            return True
    if isinstance(func, ast.Name) and func.id in _TRANSPORT_CLASSES:
        return True
    return False


def _func_name(call: ast.Call) -> str:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return ""


class _FunctionScan:
    """Single-function analysis: acquires, protected regions, escapes."""

    def __init__(self, rule: "ResourceLifecycleRule", ctx: ModuleContext,
                 func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.rule = rule
        self.ctx = ctx
        self.func = func
        # name -> acquire node (first acquire wins for the report anchor)
        self.acquires: dict[str, ast.AST] = {}
        self.process_like: set[str] = set()
        self.local_containers: set[str] = set()
        self.protected_calls: list[ast.Call] = []  # calls in finally/except
        self.with_acquired: set[str] = set()
        self.escaped: set[str] = set()
        self.released_inline: set[str] = set()  # release calls outside finally/except

    def run(self) -> list[Finding]:
        self._collect(self.func.body, protected=False)
        findings: list[Finding] = []
        for name, node in sorted(self.acquires.items(), key=lambda kv: kv[1].lineno):
            if name in self.with_acquired or name in self.escaped:
                continue
            if self._protected_release(name):
                continue
            if name in self.released_inline:
                message = (
                    f"{name!r} is released only on the straight-line path — "
                    "an exception before the release leaks it; move the "
                    "release into a finally block or use a context manager"
                )
            else:
                message = (
                    f"{name!r} is acquired here but never released on the "
                    "exception path — close/terminate it in a finally/except "
                    "or hand ownership off explicitly"
                )
            findings.append(self.ctx.finding(self.rule.code, node, message))
        return findings

    # -- pass 1: walk statements, tracking finally/except protection ------

    def _collect(self, body: list[ast.stmt], protected: bool) -> None:
        for stmt in body:
            self._collect_stmt(stmt, protected)

    def _collect_stmt(self, stmt: ast.stmt, protected: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested function: its own scan
        if isinstance(stmt, ast.Try):
            self._collect(stmt.body, protected)
            self._collect(stmt.orelse, protected)
            for handler in stmt.handlers:
                self._collect(handler.body, True)
            self._collect(stmt.finalbody, True)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if _is_opener_call(item.context_expr):
                    if isinstance(item.optional_vars, ast.Name):
                        self.with_acquired.add(item.optional_vars.id)
                        self.acquires.setdefault(item.optional_vars.id, stmt)
            self._collect(stmt.body, protected)
            return
        if isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)):
            self._scan_exprs([stmt], protected, shallow=True)
            self._collect(stmt.body, protected)
            self._collect(getattr(stmt, "orelse", []) or [], protected)
            return
        # Plain statement: record acquires/containers, then scan
        # expressions for releases and escapes.
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            stmt = ast.copy_location(
                ast.Assign(targets=[stmt.target], value=stmt.value), stmt
            )
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            value = stmt.value
            if isinstance(target, ast.Name):
                if _is_opener_call(value):
                    self.acquires.setdefault(target.id, stmt)
                unwrapped = _unwrap_await(value)
                if isinstance(unwrapped, ast.Call) and _func_name(unwrapped).endswith(
                    "Process"
                ):
                    self.process_like.add(target.id)
                if isinstance(value, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in {"list", "dict", "set"}
                ):
                    self.local_containers.add(target.id)
                if isinstance(value, (ast.ListComp, ast.DictComp, ast.SetComp)):
                    self.local_containers.add(target.id)
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                for name_node in ast.walk(stmt.value):
                    if isinstance(name_node, ast.Name):
                        self.escaped.add(name_node.id)
        self._scan_exprs([stmt], protected)

    # -- expression-level scanning ----------------------------------------

    def _scan_exprs(self, nodes, protected: bool, *, shallow: bool = False) -> None:
        for root in nodes:
            for node in self._walk_no_nested(root, shallow):
                if isinstance(node, ast.Call):
                    self._note_call(node, protected)
                elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                    value = getattr(node, "value", None)
                    if value is not None:
                        for name_node in ast.walk(value):
                            if isinstance(name_node, ast.Name):
                                self.escaped.add(name_node.id)

    def _walk_no_nested(self, root, shallow: bool):
        """Walk without descending into nested function bodies; when
        ``shallow``, only the statement's own header expressions."""
        if shallow:
            for field in ("test", "iter", "target"):
                child = getattr(root, field, None)
                if child is not None:
                    yield from ast.walk(child)
            return
        stack = [root]
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                stack.append(child)

    def _note_call(self, call: ast.Call, protected: bool) -> None:
        func = call.func
        name = _func_name(call)
        # process-like acquire: var.start()
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "start"
            and isinstance(func.value, ast.Name)
        ):
            var = func.value.id
            if var in self.process_like or _PROCESS_NAME_RE.search(var):
                self.acquires.setdefault(var, call)
        if protected:
            self.protected_calls.append(call)
            return
        # Release on the straight-line path only.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _RELEASE_METHODS
            and isinstance(func.value, ast.Name)
        ):
            self.released_inline.add(func.value.id)
            return
        # Ownership transfer: var passed to a non-release call.  Appends
        # into *local* containers keep ownership in this function.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.local_containers
            and func.attr in {"append", "add", "insert", "extend", "setdefault"}
        ):
            return
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            for name_node in ast.walk(arg):
                if isinstance(name_node, ast.Name):
                    self.escaped.add(name_node.id)

    # -- verdicts -----------------------------------------------------------

    def _protected_release(self, var: str) -> bool:
        for call in self.protected_calls:
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == var
                and func.attr in _RELEASE_METHODS
            ):
                return True
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                for name_node in ast.walk(arg):
                    if isinstance(name_node, ast.Name) and name_node.id == var:
                        return True
            name = _func_name(call)
            if isinstance(func, ast.Name) and _RELEASE_NAME_RE.search(name):
                # A release-shaped helper (e.g. _terminate_processes)
                # in a finally/except is taken on faith for container-
                # held resources the helper was written next to.
                return True
        return False


@register
class ResourceLifecycleRule(Rule):
    code = "REP005"
    name = "resource-lifecycle"
    description = (
        "started processes and opened transports/listeners must be "
        "released on the exception path (finally/except/with) or visibly "
        "change owner"
    )
    scope = ()  # everywhere

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(_FunctionScan(self, ctx, node).run())
        return findings
