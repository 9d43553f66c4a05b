"""Shared diagnostics core for the static-analysis subsystem.

Every pass (program checker, expression typechecker, plan verifier) reports
through the same vocabulary: a :class:`Diagnostic` record with a stable code
(``T2-E105``), a severity, a location (box, port, expression source and
offset), and an optional fix-hint.  Stable codes let tests, docs, and CI
assert on *what* went wrong rather than on message prose.

The :data:`CODES` table is the single source of truth for the catalog; the
docs in ``docs/STATIC_ANALYSIS.md`` and the code-coverage tests are keyed
off it.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

__all__ = [
    "Severity",
    "ERROR",
    "WARNING",
    "INFO",
    "Diagnostic",
    "Report",
    "CODES",
    "code_info",
    "register_code",
]

Severity = str

ERROR: Severity = "error"
WARNING: Severity = "warning"
INFO: Severity = "info"

#: Stable diagnostic codes.  ``E`` codes are errors (the program cannot run
#: correctly); ``W`` codes are warnings (suspicious but executable); ``I``
#: codes are informational notes (proof annotations, not problems).
#: Populated exclusively through :func:`register_code`, which raises on a
#: duplicate — a silently re-registered code would let two passes disagree
#: about what a code means.
CODES: dict[str, str] = {}


def register_code(code: str, summary: str) -> str:
    """Register a stable diagnostic code with its one-line summary.

    Raises :class:`ValueError` at import time if the code is already
    registered (duplicate registration was previously last-writer-wins,
    which silently corrupted the catalog docs and CI assertions).
    """
    if code in CODES:
        raise ValueError(
            f"diagnostic code {code!r} is already registered as "
            f"{CODES[code]!r}; refusing duplicate registration of {summary!r}"
        )
    CODES[code] = summary
    return code


for _code, _summary in (
    ("T2-E101", "unknown port name on an edge"),
    ("T2-E102", "edge connects ports of incompatible kinds"),
    ("T2-E103", "required input port is not wired"),
    ("T2-E104", "AddTable names a table absent from the database"),
    ("T2-E105", "reference to an attribute absent from the inferred schema"),
    ("T2-E106", "expression syntax error"),
    ("T2-E107", "expression type error (wrong inferred type)"),
    ("T2-E108", "schema mismatch between inputs (union/join/swap)"),
    ("T2-E109", "bad or missing box parameter"),
    ("T2-E110", "duplicate or conflicting attribute definition"),
    ("T2-E111", "plan-IR structural invariant violated"),
    ("T2-W201", "dead box: no path to any demanded output"),
    ("T2-W202", "program has no demanded output (no viewer or sink)"),
    ("T2-W203", "overlay combines composites of different dimensions"),
    ("T2-W204", "dead predicate: restriction is statically always "
                "true or always false"),
    ("T2-W205", "statically empty result: no tuple can ever reach this point"),
    ("T2-I301", "abstract-interpretation proof note (hazard proven "
                "impossible)"),
):
    register_code(_code, _summary)
del _code, _summary


def code_info(code: str) -> str:
    """The one-line summary for a registered code (KeyError if unknown)."""
    return CODES[code]


class Diagnostic:
    """One finding: a stable code, severity, message, location, fix-hint."""

    __slots__ = (
        "code",
        "severity",
        "message",
        "box_id",
        "box",
        "port",
        "source",
        "pos",
        "token",
        "hint",
    )

    def __init__(
        self,
        code: str,
        message: str,
        *,
        severity: Severity | None = None,
        box_id: int | None = None,
        box: str | None = None,
        port: str | None = None,
        source: str | None = None,
        pos: int | None = None,
        token: str | None = None,
        hint: str | None = None,
    ):
        if code not in CODES:
            raise ValueError(f"unregistered diagnostic code {code!r}")
        self.code = code
        if severity is None:
            severity = (
                ERROR if "-E" in code else INFO if "-I" in code else WARNING
            )
        self.severity = severity
        self.message = message
        self.box_id = box_id
        self.box = box
        self.port = port
        self.source = source
        self.pos = pos
        self.token = token
        self.hint = hint

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def location(self) -> str:
        """A compact human-readable location prefix (may be empty)."""
        parts: list[str] = []
        if self.box is not None:
            parts.append(self.box)
        elif self.box_id is not None:
            parts.append(f"box#{self.box_id}")
        if self.port is not None:
            parts.append(f"port {self.port!r}")
        if self.source is not None:
            span = f"expr {self.source!r}"
            if self.pos is not None:
                span += f" at {self.pos}"
            parts.append(span)
        return ", ".join(parts)

    def render(self) -> str:
        """One human-readable line: ``T2-E105 error [loc]: message (hint)``."""
        where = self.location()
        line = f"{self.code} {self.severity}"
        if where:
            line += f" [{where}]"
        line += f": {self.message}"
        if self.hint:
            line += f"  (hint: {self.hint})"
        return line

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        for key in ("box_id", "box", "port", "source", "pos", "token", "hint"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def key(self) -> tuple:
        """Identity for equivalence tests: code + location + message."""
        return (self.code, self.box_id, self.port, self.message)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Diagnostic({self.render()!r})"


class Report:
    """An ordered collection of diagnostics with summary helpers."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()):
        self.diagnostics: list[Diagnostic] = list(diagnostics)

    def add(self, diagnostic: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    def warnings(self) -> list[Diagnostic]:
        """Warnings only — informational notes are excluded, so strict
        modes that fail on warnings are unaffected by proof notes."""
        return [
            d for d in self.diagnostics
            if not d.is_error and d.severity != INFO
        ]

    def infos(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == INFO]

    @property
    def ok(self) -> bool:
        """True when there are no errors (warnings allowed)."""
        return not self.errors()

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def render(self) -> str:
        if not self.diagnostics:
            return "no diagnostics"
        lines = [d.render() for d in self.diagnostics]
        summary = (
            f"{len(self.errors())} error(s), {len(self.warnings())} warning(s)"
        )
        if self.infos():
            summary += f", {len(self.infos())} note(s)"
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "infos": len(self.infos()),
        }

    def keys(self) -> list[tuple]:
        return [d.key() for d in self.diagnostics]

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Report({len(self.errors())} errors, {len(self.warnings())} warnings)"
        )
