"""Identities as rows of one table.

A row (name, got, want) holds when got == want; a predicate with no two
sides is (name, holds, True). require checks a table and raises one
FormulaMismatch carrying every failed row. check_tree and fixture_checks
turn the same rows into CheckResults, and format a failed row's two sides
only when it fails.
"""

from __future__ import annotations

from .errors import FormulaMismatch
from .tree import int_text

Row = tuple[str, object, object]


def _text(x: object) -> str:
    return int_text(x) if type(x) is int else repr(x)


def mismatch(got: object, want: object) -> str:
    """Both sides of a failed row: "got X, expected Y"."""
    return f"got {_text(got)}, expected {_text(want)}"


def require(*rows: Row) -> tuple[str, ...]:
    """The rows' names when every row holds; FormulaMismatch otherwise."""
    failures = tuple(r for r in rows if r[1] != r[2])
    if failures:
        raise FormulaMismatch(
            "identity failed: "
            + "; ".join(f"{name} ({mismatch(got, want)})" for name, got, want in failures),
            failures,
        )
    return tuple(name for name, _, _ in rows)
