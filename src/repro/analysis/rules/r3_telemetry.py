"""R3 — instrumentation must sit behind an ``enabled`` flag that covers it."""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator

from ..context import FileContext, Role
from ..findings import Finding
from ..registry import Rule, register


@dataclass(frozen=True)
class GuardRow:
    """One row of the guard table (one sink and its recording calls).

    ``receiver`` matches the name the sink is imported under (``None``:
    any receiver, or a bare function call).  ``methods`` names the calls
    that record; with ``all_but`` set it instead lists the only calls that
    need no guard (lifecycle and reads).  A call is covered by a guard
    on its own receiver's ``.enabled`` or on any name ``guards`` matches.
    """

    receiver: re.Pattern[str] | None
    methods: frozenset[str]
    guards: re.Pattern[str] | None
    all_but: bool = False


_OBS_GUARD = re.compile(r"^_?OBS$")

#: The guard table.  ``OBS`` is on whenever metrics, tracer, profiler or
#: recorder is, so it covers all four; ``AUDIT`` computes rather than
#: records and keeps its own flag.
GUARD_TABLE = (
    GuardRow(
        re.compile(r"^_?METRICS$"),
        frozenset({"count", "counter", "gauge", "gauge_max", "histogram",
                   "observe", "timer", "merge_snapshot"}),
        _OBS_GUARD,
    ),
    GuardRow(
        re.compile(r"^_?TRACER$"),
        frozenset({"span", "instant", "import_spans"}),
        _OBS_GUARD,
    ),
    # Fed only through OBS.span and the registry: library code may drive
    # their lifecycle and read them, nothing else.
    GuardRow(
        re.compile(r"^_?(PROFILER|RECORDER)$"),
        frozenset({"enable", "disable", "start", "stop", "reset", "snapshot",
                   "samples", "sample_count", "frames"}),
        _OBS_GUARD,
        all_but=True,
    ),
    GuardRow(re.compile(r"^_?OBS$"), frozenset({"span"}), None),
    GuardRow(
        re.compile(r"^_?AUDIT$"), frozenset({"record", "annotate_last", "alert"}), None
    ),
    # Capturing a telemetry snapshot walks every registry; any flag will do.
    GuardRow(
        None,
        frozenset({"capture_telemetry"}),
        re.compile(r"^_?(OBS|METRICS|TRACER|PROFILER|RECORDER|AUDIT)$"),
    ),
)


def _enabled_names(test: ast.expr) -> frozenset[str]:
    """Names whose ``.enabled`` flag ``test`` reads."""
    return frozenset(
        node.value.id
        for node in ast.walk(test)
        if isinstance(node, ast.Attribute)
        and node.attr == "enabled"
        and isinstance(node.value, ast.Name)
    )


def _guard_return_names(stmt: ast.stmt) -> frozenset[str]:
    """Names guarded by an ``if not X.enabled: return`` early exit."""
    if not isinstance(stmt, ast.If):
        return frozenset()
    if not any(isinstance(s, (ast.Return, ast.Raise)) for s in stmt.body):
        return frozenset()
    return _enabled_names(stmt.test)


def _unguarded(call: ast.Call, guarded: frozenset[str]) -> str | None:
    """The call's display name if a table row says it needs a guard that
    ``guarded`` does not provide, else ``None``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        method = func.attr
        receiver = func.value.id if isinstance(func.value, ast.Name) else None
    elif isinstance(func, ast.Name):
        method, receiver = func.id, None
    else:
        return None
    for row in GUARD_TABLE:
        if row.receiver is not None:
            if receiver is None or not row.receiver.match(receiver):
                continue
        if (method in row.methods) == row.all_but:
            continue
        if receiver is not None and receiver in guarded:
            return None
        if row.guards is not None and any(row.guards.match(g) for g in guarded):
            return None
        return f"{receiver}.{method}" if receiver else method
    return None


@register
class GuardedInstrumentation(Rule):
    """Every instrumentation call must sit behind an ``enabled`` guard.

    Disabled instrumentation must cost one attribute read and one branch
    per hook site (the paper's O(depth) update claim, §3, leaves no room
    for more).  The recording methods all self-guard, but an unguarded
    call still pays argument construction and a call on the hot path.
    One table (``GUARD_TABLE``) lists, per sink, the calls that record
    and the flags that cover them:

    * ``_METRICS`` / ``_TRACER`` recording calls — their own flag or
      ``_OBS.enabled`` (the one switch, on whenever any sink is);
    * ``_PROFILER`` / ``_RECORDER`` — every call except lifecycle and
      reads (they have no hot-path method; ``OBS.span`` feeds them);
    * ``_OBS.span`` — ``_OBS.enabled``;
    * ``_AUDIT`` recording calls — ``_AUDIT.enabled`` only (auditing
      computes, so ``OBS`` does not cover it);
    * ``capture_telemetry()`` — any of those flags.

    Accepted guard shapes::

        if _OBS.enabled:
            _METRICS.count("sketch.update.elements")

        with _OBS.span("skim", kind="flat") if _OBS.enabled \\
                else nullcontext() as sp:
            ...

        def _record(...):
            if not _OBS.enabled:
                return          # early-exit guard; rest of body is guarded
            _METRICS.count(...)

    A guard covers the ``if`` body only, not its ``else``.

    Example violation::

        _METRICS.count("engine.queries")       # R3 (no guard in sight)
        if _AUDIT.enabled:
            _TRACER.instant("audit")           # R3 (flag does not cover it)

    Suppress only where the call is itself the product (a timer that
    prints wall-clock seconds with telemetry off, a shipper over a
    private always-enabled registry)::

        with _METRICS.timer("eval.seconds") as t:  # repro: noqa[R3]
    """

    rule_id = "R3"
    title = "instrumentation guarded by an enabled flag that covers it"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.role in (Role.KERNEL, Role.LIBRARY)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._visit_block(
            ctx, list(ast.iter_child_nodes(ctx.tree)), frozenset()
        )

    def _visit_block(
        self, ctx: FileContext, nodes: list[ast.AST], guarded: frozenset[str]
    ) -> Iterator[Finding]:
        for node in nodes:
            yield from self._visit(ctx, node, guarded)

    def _visit(
        self, ctx: FileContext, node: ast.AST, guarded: frozenset[str]
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A guard outside the def does not guard calls made later.
            body_guarded: frozenset[str] = frozenset()
            for stmt in node.body:
                yield from self._visit(ctx, stmt, body_guarded)
                body_guarded = body_guarded | _guard_return_names(stmt)
            return
        if isinstance(node, (ast.If, ast.IfExp)):
            branch_guarded = guarded | _enabled_names(node.test)
            yield from self._visit(ctx, node.test, guarded)
            body = node.body if isinstance(node.body, list) else [node.body]
            orelse = node.orelse if isinstance(node.orelse, list) else [node.orelse]
            yield from self._visit_block(ctx, body, branch_guarded)
            yield from self._visit_block(ctx, orelse, guarded)
            return
        if isinstance(node, ast.Call):
            name = _unguarded(node, guarded)
            if name is not None:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"unguarded {name}(...) — wrap in 'if _OBS.enabled:' (or "
                    "the sink's own flag) so disabled instrumentation stays free",
                )
            # fall through: nested calls in arguments are reported too
        yield from self._visit_block(ctx, list(ast.iter_child_nodes(node)), guarded)
