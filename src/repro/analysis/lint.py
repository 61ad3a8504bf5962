"""``repro lint``: AST invariant checks for the repo's own conventions.

Generic linters catch generic bugs.  The bugs that actually bit this repo —
orphaned solver subprocesses, the cache layer closing caller-owned
store connections, wire calls that would double-execute on retry — were
violations of *repo-specific* conventions that no off-the-shelf tool knows
about.  Each rule here encodes one of those conventions; the module scans
``src/repro`` with nothing but the stdlib ``ast`` module.

Rules (ids are stable; see ``docs/static-analysis.md`` for the motivating
incident behind each):

====================  ====================================================
``wire-op-id``        request payloads must thread an op id
``sqlite-connect``    ``sqlite3.connect`` only inside ``orchestration/store.py``
``raw-socket-send``   raw ``socket.send*`` only inside ``distributed/protocol.py``
``cache-owned-close`` the cache layer never closes caller-owned stores
``reparent-watch``    spawned server processes must watch for re-parenting
``wall-clock-key``    no wall clock in cache-key/fingerprint construction
``telemetry-json``    telemetry dataclass fields and metric values JSON-safe
``claim-pairing``     ``claim_next`` callers must complete/fail/reclaim
``dispatch-except``   server dispatch must re-raise or reply with a typed error
``store-thread``      ``check_same_thread=False`` stores need a serializer
====================  ====================================================

Suppress a single finding by putting ``# repro-lint: disable=<rule-id>``
(or ``disable=all``) on the flagged line or the line above it.
"""

from __future__ import annotations

import ast
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "LintRule",
    "RULES",
    "lint_paths",
    "lint_project",
    "iter_python_files",
    "findings_to_json",
]

# JSON-safe field annotation atoms for telemetry dataclasses (rule
# telemetry-json).  Unions/Optionals/containers of these are fine too.
_JSON_SAFE_NAMES = {"str", "int", "float", "bool", "None", "Any", "object"}
_JSON_SAFE_CONTAINERS = {"dict", "list", "tuple", "Dict", "List", "Tuple", "Mapping", "Sequence", "Optional", "Union"}

_WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

_KEY_FUNCTION_SUFFIXES = ("_key", "_digest", "_fingerprint", "_hash")
_KEY_FUNCTION_NAMES = {"cache_key", "instance_digest", "backend_fingerprint", "params_hash"}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass
class ModuleContext:
    """One parsed module plus the path facts rules scope themselves by."""

    path: Path
    relpath: str  # posix, relative to the lint root when possible
    tree: ast.Module
    lines: list[str]

    def suppressed(self, rule: str, line: int) -> bool:
        for candidate in (line, line - 1):
            if 1 <= candidate <= len(self.lines):
                text = self.lines[candidate - 1]
                marker = text.rfind("repro-lint:")
                if marker == -1:
                    continue
                directive = text[marker:]
                if "disable=" in directive:
                    targets = directive.split("disable=", 1)[1].split()[0]
                    names = {name.strip() for name in targets.split(",")}
                    if rule in names or "all" in names:
                        return True
        return False


@dataclass(frozen=True)
class LintRule:
    """A named check, run on one module at a time."""

    id: str
    summary: str
    check_module: Callable[[ModuleContext], Iterator[Finding]]


def _walk_with_stack(tree: ast.AST) -> Iterator[tuple[ast.AST, list[ast.AST]]]:
    """Yield every node along with its ancestor stack (outermost first)."""
    stack: list[ast.AST] = []

    def visit(node: ast.AST) -> Iterator[tuple[ast.AST, list[ast.AST]]]:
        yield node, list(stack)
        stack.append(node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child)
        stack.pop()

    yield from visit(tree)


def _dict_str_keys(node: ast.Dict) -> set[str]:
    return {
        key.value
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def _call_name(node: ast.Call) -> str | None:
    """Trailing identifier of the called object (``a.b.c()`` -> ``c``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _receiver_name(node: ast.Call) -> str | None:
    """Identifier the method is called on (``sock.sendall()`` -> ``sock``)."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def _enclosing(stack: Sequence[ast.AST], *types: type) -> ast.AST | None:
    for node in reversed(stack):
        if isinstance(node, types):
            return node
    return None


def _finding(ctx: ModuleContext, rule: str, node: ast.AST, message: str) -> Finding:
    return Finding(
        rule=rule,
        path=ctx.relpath,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
    )


# ----------------------------------------------------------------------
# wire-op-id
# ----------------------------------------------------------------------
def _wire_mutating_methods() -> frozenset[str]:
    """Method names that mutate server state, from the protocol itself.

    Sourced from ``MUTATING_METHODS`` so new store methods are covered the
    moment they are declared; the scheduling service's ``submit`` executes
    a solve on the server side, so it counts too.
    """
    extra = frozenset({"submit"})
    try:
        from ..distributed.protocol import MUTATING_METHODS
    except Exception:  # lint must degrade, not crash, on a broken tree
        return extra
    return frozenset(MUTATING_METHODS) | extra


def _check_wire_op_id(ctx: ModuleContext) -> Iterator[Finding]:
    """A mutating wire request payload must carry an op id.

    A payload is a dict literal with "id" and "method" keys.  Read-only
    methods (a constant method name outside the protocol's mutating set)
    are exempt.  Compliant shapes for the rest: an ``"op"`` key in the
    literal itself (a per-item op id), or a later
    ``payload["op"] = ...`` in the same function (the shared RPC client
    attaches it for its class's mutating methods).  Without one, a retried
    request whose reply was lost re-executes the mutation — the exact bug
    class op-id replay exists to kill.
    """
    mutating = _wire_mutating_methods()
    for node, stack in _walk_with_stack(ctx.tree):
        if not isinstance(node, ast.Dict):
            continue
        keys = _dict_str_keys(node)
        if "id" not in keys or "method" not in keys:
            continue
        if "op" in keys:
            continue
        method_value = next(
            (
                value
                for key, value in zip(node.keys, node.values)
                if isinstance(key, ast.Constant) and key.value == "method"
            ),
            None,
        )
        if (
            isinstance(method_value, ast.Constant)
            and isinstance(method_value.value, str)
            and method_value.value not in mutating
        ):
            continue  # read-only probe; retries are harmless
        function = _enclosing(stack, ast.FunctionDef, ast.AsyncFunctionDef)
        if function is None:
            yield _finding(
                ctx,
                "wire-op-id",
                node,
                "wire request payload built outside a function never threads "
                'an op id (no ``payload["op"] = ...`` is possible)',
            )
            continue
        # The name this dict is bound to, if the statement is an assignment.
        bound: set[str] = set()
        statement = _enclosing(stack, ast.Assign, ast.AnnAssign)
        if isinstance(statement, ast.Assign):
            bound = {t.id for t in statement.targets if isinstance(t, ast.Name)}
        elif isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            bound = {statement.target.id}
        threads_op = False
        for sub in ast.walk(function):
            if not isinstance(sub, ast.Assign):
                continue
            for target in sub.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in bound
                    and isinstance(target.slice, ast.Constant)
                    and target.slice.value == "op"
                ):
                    threads_op = True
        if not threads_op:
            yield _finding(
                ctx,
                "wire-op-id",
                node,
                "wire request payload never threads an op id: add an \"op\" "
                'key or assign ``<payload>["op"] = ...`` in the same function '
                "so lost-reply retries replay instead of re-executing",
            )


# ----------------------------------------------------------------------
# sqlite-connect
# ----------------------------------------------------------------------
def _check_sqlite_connect(ctx: ModuleContext) -> Iterator[Finding]:
    """Only ``orchestration/store.py`` may open SQLite connections.

    Every connection the repo opens must inherit the store layer's WAL
    mode, timeout, migration and thread-confinement decisions; a stray
    ``sqlite3.connect`` silently opts out of all four.
    """
    if ctx.relpath.endswith("orchestration/store.py"):
        return
    sqlite_aliases = {"sqlite3"}
    connect_aliases: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "sqlite3":
                    sqlite_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "sqlite3":
            for alias in node.names:
                if alias.name == "connect":
                    connect_aliases.add(alias.asname or alias.name)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        flagged = (
            isinstance(func, ast.Attribute)
            and func.attr == "connect"
            and isinstance(func.value, ast.Name)
            and func.value.id in sqlite_aliases
        ) or (isinstance(func, ast.Name) and func.id in connect_aliases)
        if flagged:
            yield _finding(
                ctx,
                "sqlite-connect",
                node,
                "sqlite3.connect outside orchestration/store.py: open stores "
                "through ExperimentStore so WAL/timeout/migrations/thread "
                "rules apply",
            )


# ----------------------------------------------------------------------
# raw-socket-send
# ----------------------------------------------------------------------
def _check_raw_socket_send(ctx: ModuleContext) -> Iterator[Finding]:
    """Raw socket sends belong to the frame helpers in ``protocol.py``.

    Everything on the wire is a length-prefixed JSON frame; a stray
    ``sock.send(...)`` can emit a partial write or an unframed blob that
    desynchronises the peer's stream.  ``send_frame`` / ``send_encoded``
    are the only sanctioned exits.
    """
    if ctx.relpath.endswith("distributed/protocol.py"):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        receiver = _receiver_name(node) or ""
        if attr == "sendall" or (attr in ("send", "sendto") and "sock" in receiver):
            yield _finding(
                ctx,
                "raw-socket-send",
                node,
                f"raw socket .{attr}() outside distributed/protocol.py: use "
                "send_frame()/send_encoded() so framing stays in one place",
            )


# ----------------------------------------------------------------------
# cache-owned-close
# ----------------------------------------------------------------------
def _check_cache_owned_close(ctx: ModuleContext) -> Iterator[Finding]:
    """Modules with the ``_active_owned`` convention must guard ``.close()``.

    The cache layer installs caller-owned stores (a remote worker's
    RemoteStore shares its claim connection); closing one severs the
    owner's live connection mid-drain — the PR 8 bug.  Any ``.close()`` in
    such a module must sit under an ``if`` that consults ownership.
    """
    module_has_convention = any(
        isinstance(node, ast.Assign)
        and any(
            isinstance(t, ast.Name) and t.id == "_active_owned" for t in node.targets
        )
        for node in ctx.tree.body
    )
    if not module_has_convention:
        return
    for node, stack in _walk_with_stack(ctx.tree):
        if (
            not isinstance(node, ast.Call)
            or not isinstance(node.func, ast.Attribute)
            or node.func.attr != "close"
        ):
            continue
        guarded = False
        for ancestor in stack:
            if isinstance(ancestor, ast.If):
                test_src = ast.unparse(ancestor.test)
                if "owned" in test_src:
                    guarded = True
        if not guarded:
            yield _finding(
                ctx,
                "cache-owned-close",
                node,
                ".close() in an ownership-convention module without an "
                "ownership guard: only stores this module opened may be "
                "closed here (caller-owned stores stay open)",
            )


# ----------------------------------------------------------------------
# reparent-watch
# ----------------------------------------------------------------------
def _check_reparent_watch(ctx: ModuleContext) -> Iterator[Finding]:
    """Subprocess server targets must poll ``os.getppid()``.

    A solver server whose parent dies without cleanup re-parents to init
    and spins forever — the PR 7 orphan bug.  Every ``Process(target=f)``
    spawn must point at a target that watches its parent pid.
    """
    functions = {
        node.name: node
        for node in ast.walk(ctx.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name != "Process":
            continue
        target_name: str | None = None
        for keyword in node.keywords:
            if keyword.arg == "target" and isinstance(keyword.value, ast.Name):
                target_name = keyword.value.id
        if target_name is None:
            yield _finding(
                ctx,
                "reparent-watch",
                node,
                "Process(...) spawn without a resolvable local target= "
                "function: the linter cannot verify the re-parent watch",
            )
            continue
        target = functions.get(target_name)
        has_watch = target is not None and any(
            isinstance(sub, ast.Call) and _call_name(sub) == "getppid"
            for sub in ast.walk(target)
        )
        if not has_watch:
            yield _finding(
                ctx,
                "reparent-watch",
                node,
                f"Process(target={target_name}) whose target never checks "
                "os.getppid(): an orphaned child will outlive its parent "
                "forever (add the re-parent watch loop)",
            )


# ----------------------------------------------------------------------
# wall-clock-key
# ----------------------------------------------------------------------
def _check_wall_clock_key(ctx: ModuleContext) -> Iterator[Finding]:
    """No wall clock in cache-key / digest / fingerprint construction.

    A timestamp folded into a content key makes every entry a permanent
    miss (or worse, a rare stale hit).  Key functions must be pure in the
    content they hash.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = node.name
        if not (
            name in _KEY_FUNCTION_NAMES or name.endswith(_KEY_FUNCTION_SUFFIXES)
        ):
            continue
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call) or not isinstance(
                sub.func, ast.Attribute
            ):
                continue
            receiver = _receiver_name(sub) or ""
            if (receiver, sub.func.attr) in _WALL_CLOCK_CALLS:
                yield _finding(
                    ctx,
                    "wall-clock-key",
                    sub,
                    f"wall-clock call {receiver}.{sub.func.attr}() inside key "
                    f"function {name}(): content keys must not depend on "
                    "when they were computed",
                )


# ----------------------------------------------------------------------
# telemetry-json
# ----------------------------------------------------------------------
def _annotation_is_json_safe(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return node.value is None or isinstance(node.value, str)
    if isinstance(node, ast.Name):
        return node.id in _JSON_SAFE_NAMES or node.id in _JSON_SAFE_CONTAINERS
    if isinstance(node, ast.Attribute):  # typing.Any etc.
        return node.attr in _JSON_SAFE_NAMES or node.attr in _JSON_SAFE_CONTAINERS
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_is_json_safe(node.left) and _annotation_is_json_safe(
            node.right
        )
    if isinstance(node, ast.Subscript):
        if not _annotation_is_json_safe(node.value):
            return False
        inner = node.slice
        parts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        return all(
            isinstance(part, ast.Constant) and part.value is Ellipsis
            or _annotation_is_json_safe(part)
            for part in parts
        )
    return False


# Metric-emission helpers of repro.observability.metrics: their value
# argument (positional 2 or the amount=/value=/delta= keyword) must be a
# number — the registry raises TypeError on stringly data, but only at
# runtime on the instrumented hot path.
_METRIC_EMIT_NAMES = frozenset({"counter", "gauge", "gauge_add", "observe"})


def _metric_value_arg(call: ast.Call) -> ast.expr | None:
    if len(call.args) >= 2:
        return call.args[1]
    for keyword in call.keywords:
        if keyword.arg in ("amount", "value", "delta"):
            return keyword.value
    return None


def _is_non_numeric_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return node.value is None or isinstance(node.value, (str, bytes))
    return isinstance(node, (ast.Dict, ast.List, ast.Set, ast.Tuple, ast.JoinedStr))


def _metrics_bare_names(ctx: ModuleContext) -> set[str]:
    """Emission helpers imported bare from an observability/metrics module."""
    names: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.lower()
            if "observability" in module or "metrics" in module:
                for alias in node.names:
                    if alias.name in _METRIC_EMIT_NAMES:
                        names.add(alias.asname or alias.name)
    return names


def _check_telemetry_json(ctx: ModuleContext) -> Iterator[Finding]:
    """Telemetry payloads must be JSON-safe: dataclass fields and metrics.

    ``*Telemetry`` dataclass objects cross the wire and land in journal
    rows as JSON; a set/ndarray/custom-object field serialises as garbage
    (or raises) only at runtime, on the reporting path nobody tests under
    load.  The same contract covers the metrics registry: a non-numeric
    literal passed to ``counter``/``gauge``/``gauge_add``/``observe``
    raises ``TypeError`` only when the instrumented hot path actually runs.
    """
    bare_names = _metrics_bare_names(ctx)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute):
            if node.func.attr not in _METRIC_EMIT_NAMES:
                continue
            receiver = (_receiver_name(node) or "").lower()
            if "metrics" not in receiver and "registry" not in receiver:
                continue
            label = f"{_receiver_name(node)}.{node.func.attr}"
        elif isinstance(node.func, ast.Name) and node.func.id in bare_names:
            label = node.func.id
        else:
            continue
        value = _metric_value_arg(node)
        if value is not None and _is_non_numeric_literal(value):
            yield _finding(
                ctx,
                "telemetry-json",
                node,
                f"non-numeric literal {ast.unparse(value)!r} passed to "
                f"{label}(): metric values must be JSON-safe numbers",
            )
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef) or not node.name.endswith("Telemetry"):
            continue
        is_dataclass = any(
            (isinstance(dec, ast.Name) and dec.id == "dataclass")
            or (isinstance(dec, ast.Attribute) and dec.attr == "dataclass")
            or (
                isinstance(dec, ast.Call)
                and (
                    (isinstance(dec.func, ast.Name) and dec.func.id == "dataclass")
                    or (
                        isinstance(dec.func, ast.Attribute)
                        and dec.func.attr == "dataclass"
                    )
                )
            )
            for dec in node.decorator_list
        )
        if not is_dataclass:
            continue
        for statement in node.body:
            if not isinstance(statement, ast.AnnAssign):
                continue
            if not _annotation_is_json_safe(statement.annotation):
                field = (
                    statement.target.id
                    if isinstance(statement.target, ast.Name)
                    else ast.unparse(statement.target)
                )
                yield _finding(
                    ctx,
                    "telemetry-json",
                    statement,
                    f"telemetry field {node.name}.{field} has non-JSON type "
                    f"{ast.unparse(statement.annotation)!r}: telemetry "
                    "payloads must serialise cleanly into journal rows",
                )


# ----------------------------------------------------------------------
# claim-pairing
# ----------------------------------------------------------------------
def _check_claim_pairing(ctx: ModuleContext) -> Iterator[Finding]:
    """A module that claims rows must also settle them.

    ``claim_next`` flips a row to ``running``; without a ``complete``/
    ``fail`` (or a ``reclaim_stale`` story) on the same code path, a crash
    strands the row until someone notices the drain never finishes.
    """
    claim_calls = [
        node
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.Call) and _call_name(node) == "claim_next"
    ]
    if not claim_calls:
        return
    settles = {
        _call_name(node)
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.Call)
        and _call_name(node) in ("complete", "fail", "reclaim_stale")
    }
    if "reclaim_stale" in settles or ("complete" in settles and "fail" in settles):
        return
    for node in claim_calls:
        yield _finding(
            ctx,
            "claim-pairing",
            node,
            "claim_next() here, but this module never completes AND fails "
            "(or reclaims) rows: a crash on this path strands rows as "
            "'running' forever",
        )


# ----------------------------------------------------------------------
# dispatch-except
# ----------------------------------------------------------------------
def _looks_like_rpc_server(node: ast.ClassDef) -> bool:
    if any(
        isinstance(base, (ast.Name, ast.Attribute))
        and (getattr(base, "id", None) or getattr(base, "attr", "")).endswith(
            "RpcServer"
        )
        for base in node.bases
    ):
        return True
    for statement in node.body:
        targets: list[ast.expr] = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id in (
                "rpc_methods",
                "serialize_dispatch",
            ):
                return True
    return False


def _handler_replies_or_reraises(handler: ast.ExceptHandler) -> bool:
    for sub in ast.walk(handler):
        if isinstance(sub, ast.Raise):
            return True
        if isinstance(sub, ast.Call):
            name = _call_name(sub) or ""
            if name in ("error_reply", "raise_reply_error", "fail") or name.startswith(
                "_error"
            ):
                return True
    return False


def _check_dispatch_except(ctx: ModuleContext) -> Iterator[Finding]:
    """Inside RPC server classes, ``except Exception`` must not swallow.

    A dispatch loop that catches Exception and moves on leaves the client
    waiting on a reply that never comes.  Handlers must re-raise or answer
    with a typed error reply (``error_reply`` / journal ``fail``).
    """
    for node, _stack in _walk_with_stack(ctx.tree):
        if not isinstance(node, ast.ClassDef) or not _looks_like_rpc_server(node):
            continue
        for sub in ast.walk(node):
            if not isinstance(sub, ast.ExceptHandler):
                continue
            handler_type = sub.type
            catches_exception = handler_type is None or (
                isinstance(handler_type, ast.Name)
                and handler_type.id in ("Exception", "BaseException")
            )
            if not catches_exception:
                continue
            if not _handler_replies_or_reraises(sub):
                yield _finding(
                    ctx,
                    "dispatch-except",
                    sub,
                    f"except Exception in server class {node.name} neither "
                    "re-raises nor replies with a typed error: the client "
                    "hangs (or retries blind) on the swallowed failure",
                )


# ----------------------------------------------------------------------
# store-thread
# ----------------------------------------------------------------------
def _class_declares_serializer(node: ast.ClassDef) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "_store_lock"
                ) or (isinstance(target, ast.Name) and target.id == "_store_lock"):
                    return True
                if (
                    isinstance(target, ast.Name)
                    and target.id == "serialize_dispatch"
                    and isinstance(sub.value, ast.Constant)
                    and sub.value.value is True
                ):
                    return True
    return False


def _check_store_thread(ctx: ModuleContext) -> Iterator[Finding]:
    """``check_same_thread=False`` stores need a declared serializer.

    SQLite connections are never safe for concurrent cross-thread use; the
    flag only waives the *detection*.  An owner passing it must visibly
    serialize: a ``_store_lock`` or serialized RPC dispatch
    (``serialize_dispatch = True``).
    """
    for node, stack in _walk_with_stack(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _call_name(node)
        if callee != "ExperimentStore":
            continue
        waives = any(
            keyword.arg == "check_same_thread"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is False
            for keyword in node.keywords
        )
        if not waives:
            continue
        enclosing_class = _enclosing(stack, ast.ClassDef)
        if enclosing_class is None or not _class_declares_serializer(enclosing_class):
            yield _finding(
                ctx,
                "store-thread",
                node,
                "ExperimentStore(check_same_thread=False) outside a class "
                "that declares its serializer (a _store_lock or "
                "serialize_dispatch = True): cross-thread SQLite use must "
                "be visibly serialized",
            )


RULES: tuple[LintRule, ...] = (
    LintRule("wire-op-id", "request payloads must thread an op id", _check_wire_op_id),
    LintRule(
        "sqlite-connect",
        "sqlite3.connect only inside orchestration/store.py",
        _check_sqlite_connect,
    ),
    LintRule(
        "raw-socket-send",
        "raw socket.send* only inside distributed/protocol.py",
        _check_raw_socket_send,
    ),
    LintRule(
        "cache-owned-close",
        "the cache layer never closes caller-owned stores",
        _check_cache_owned_close,
    ),
    LintRule(
        "reparent-watch",
        "spawned server processes must watch for re-parenting",
        _check_reparent_watch,
    ),
    LintRule(
        "wall-clock-key",
        "no wall clock in cache-key/fingerprint construction",
        _check_wall_clock_key,
    ),
    LintRule(
        "telemetry-json",
        "telemetry dataclass fields and metric values must be JSON-safe",
        _check_telemetry_json,
    ),
    LintRule(
        "claim-pairing",
        "claim_next callers must complete/fail/reclaim",
        _check_claim_pairing,
    ),
    LintRule(
        "dispatch-except",
        "server dispatch must re-raise or reply with a typed error",
        _check_dispatch_except,
    ),
    LintRule(
        "store-thread",
        "check_same_thread=False stores need a declared serializer",
        _check_store_thread,
    ),
)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def _load_context(path: Path, root: Path) -> ModuleContext | None:
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError):
        return None
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    return ModuleContext(
        path=path, relpath=relpath, tree=tree, lines=source.splitlines()
    )


def lint_paths(paths: Sequence[Path], *, root: Path | None = None) -> list[Finding]:
    """Lint every ``.py`` under ``paths``; returns findings sorted by location."""
    root = root or Path.cwd()
    contexts = [
        ctx
        for ctx in (_load_context(path, root) for path in iter_python_files(paths))
        if ctx is not None
    ]
    findings = [
        finding
        for rule in RULES
        for ctx in contexts
        for finding in rule.check_module(ctx)
        if not ctx.suppressed(finding.rule, finding.line)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_project(root: Path) -> list[Finding]:
    """Lint the repo's source tree (``src/repro`` under ``root``)."""
    source_root = root / "src" / "repro"
    if not source_root.is_dir():
        raise FileNotFoundError(
            f"no src/repro under {root}: pass explicit paths to lint"
        )
    return lint_paths([source_root], root=root)


def findings_to_json(findings: Sequence[Finding]) -> str:
    return json.dumps([asdict(finding) for finding in findings], indent=2)
