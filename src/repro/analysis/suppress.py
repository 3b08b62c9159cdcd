"""Suppression audit: every ``# repro: noqa`` site, with rule, age, reason.

A suppression is technical debt with a justification attached; this
module makes both visible.  ``python -m repro.analysis suppressions``
lists every site; ``--strict`` (wired into ``make lint``) fails the
build when any suppression lacks a reason comment or names a rule id
that is not registered (a retired id would otherwise go stale
silently), so debt cannot accumulate unseen.

Syntax audited (the text after the bracket is the reason)::

    risky()  # repro: noqa[R2] -- justification goes here

Comments are extracted with :mod:`tokenize`, so noqa *examples* inside
docstrings (the rule documentation is full of them) are never mistaken
for live suppressions.  Age comes from ``git blame`` when available.
"""

from __future__ import annotations

import io
import re
import subprocess
import time
import tokenize
from dataclasses import dataclass
from typing import Iterator, Sequence

from .context import _NOQA_RE
from .engine import PARSE_ERROR_RULE, iter_python_files
from .registry import all_rules

#: Reason text: whatever follows the noqa marker, minus separator dashes.
_REASON_RE = re.compile(r"^[\s:,-]*(?P<reason>.*?)\s*$")


@dataclass(frozen=True)
class Suppression:
    """One live ``# repro: noqa`` comment in the codebase."""

    path: str
    line: int
    rules: tuple[str, ...]  #: empty tuple means "all rules"
    reason: str  #: empty string means reason-less (fails --strict)
    age: str  #: human-readable blame age, or "uncommitted"/"unknown"

    def render(self) -> str:
        """One audit line: ``path:line: noqa[rules] age=... reason: ...``."""
        rules = ",".join(self.rules) if self.rules else "all"
        reason = self.reason if self.reason else "(no reason given)"
        return (
            f"{self.path}:{self.line}: noqa[{rules}] age={self.age} "
            f"reason: {reason}"
        )


def _iter_comment_tokens(source: str) -> Iterator[tuple[int, str]]:
    """(line, text) for every real comment token (docstrings excluded)."""
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError):
        return  # unparseable tail: report what was tokenised so far


def _parse_comment(comment: str) -> tuple[tuple[str, ...], str] | None:
    """(rules, reason) if ``comment`` contains a noqa marker, else None."""
    match = _NOQA_RE.search(comment)
    if match is None:
        return None
    rules_group = match.group("rules")
    rules = (
        tuple(sorted(r.strip() for r in rules_group.split(",") if r.strip()))
        if rules_group is not None
        else ()
    )
    tail = comment[match.end() :]
    reason_match = _REASON_RE.match(tail)
    reason = reason_match.group("reason") if reason_match else ""
    return rules, reason


def _blame_age(path: str, line: int, now: float | None = None) -> str:
    """Age of ``path:line`` from git blame (graceful off-git fallback)."""
    try:
        proc = subprocess.run(
            [
                "git",
                "blame",
                "-L",
                f"{line},{line}",
                "--line-porcelain",
                "--",
                path,
            ],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    committer_time = None
    for out_line in proc.stdout.splitlines():
        if out_line.startswith("committer-time "):
            committer_time = int(out_line.split()[1])
        elif out_line.startswith("author "):
            if "Not Committed Yet" in out_line:
                return "uncommitted"
    if committer_time is None:
        return "unknown"
    days = max(0.0, ((now if now is not None else time.time()) - committer_time)) / 86400.0
    if days < 1:
        return "<1d"
    return f"{int(days)}d"


def collect_suppressions(
    paths: Sequence[str], with_age: bool = True
) -> list[Suppression]:
    """Every live suppression under ``paths`` (docstring examples skipped)."""
    out: list[Suppression] = []
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        for line, comment in _iter_comment_tokens(source):
            parsed = _parse_comment(comment)
            if parsed is None:
                continue
            rules, reason = parsed
            out.append(
                Suppression(
                    path=filename,
                    line=line,
                    rules=rules,
                    reason=reason,
                    age=_blame_age(filename, line) if with_age else "unknown",
                )
            )
    out.sort(key=lambda s: (s.path, s.line))
    return out


def unknown_rules(suppression: Suppression) -> tuple[str, ...]:
    """Rule ids a suppression names that no registered rule carries."""
    known = {rule.rule_id for rule in all_rules()} | {PARSE_ERROR_RULE}
    return tuple(r for r in suppression.rules if r not in known)


def audit(
    paths: Sequence[str], strict: bool = False, with_age: bool = True
) -> tuple[list[Suppression], int]:
    """Collect suppressions; exit code 1 iff strict and any is reason-less
    or names an unregistered rule id."""
    suppressions = collect_suppressions(paths, with_age=with_age)
    bad = [s for s in suppressions if not s.reason or unknown_rules(s)]
    exit_code = 1 if (strict and bad) else 0
    return suppressions, exit_code
