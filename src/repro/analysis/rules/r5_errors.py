"""R5 — error discipline: raise ``repro.errors`` types, never bare ones."""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import STANDALONE_PACKAGES, FileContext, Role
from ..findings import Finding
from ..registry import Rule, register

#: Exception types library code must not raise directly.
BANNED_EXCEPTIONS = frozenset({"ValueError", "AssertionError"})


@register
class ErrorDiscipline(Rule):
    """Library code raises ``repro.errors`` types, not bare ``ValueError``.

    Callers are promised that one ``except ReproError`` guards an API
    boundary; a bare ``ValueError`` escaping the library breaks that
    contract, and a validation ``assert`` disappears entirely under
    ``python -O``.  This rule flags, everywhere under ``src/repro``:

    * ``raise ValueError(...)`` / ``raise AssertionError(...)`` — use
      :class:`repro.errors.ParameterError` (which still *is* a
      ``ValueError``) or a more specific ``ReproError`` subclass;
    * ``assert`` statements — validate with an explicit raise.

    Exempt: ``repro/errors.py`` (defines the hierarchy), the standalone
    packages ``repro.analysis`` / ``repro.bench`` (they import nothing
    from ``repro``), and — until their raises are typed, as
    ``repro.obs``'s are — ``repro.trace`` / ``repro.monitor`` /
    ``repro.profile`` / ``repro.federate`` (see ``STANDALONE_PACKAGES``).

    Example violation::

        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")   # R5

    Fix::

        if width < 1:
            raise ParameterError(f"width must be >= 1, got {width}")
    """

    rule_id = "R5"
    title = "library errors derive from repro.errors"

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.role not in (Role.KERNEL, Role.LIBRARY):
            return False
        if ctx.subpackage in STANDALONE_PACKAGES:
            return False
        return not (ctx.subpackage == "" and ctx.module_name == "errors.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "assert used for validation in library code (vanishes "
                    "under python -O); raise a repro.errors type instead",
                )
                continue
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name: str | None = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in BANNED_EXCEPTIONS:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"bare {name} raised from library code; use "
                    "repro.errors.ParameterError (or a ReproError subclass)",
                )
