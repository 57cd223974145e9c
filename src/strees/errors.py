"""Exception hierarchy.

Two families matter to callers: DomainError for bad input (CLI exit 1) and
VerificationError for a violated internal identity (CLI exit 2). Everything
raised on purpose by this package derives from StreesError.
"""

from __future__ import annotations


class StreesError(Exception):
    pass


class DomainError(StreesError):
    """Input outside an operation's domain."""


class VerificationError(StreesError):
    """A computed result failed a mandatory cross-check.

    These are never caught internally: a VerificationError means either a bug
    or an impossible input slipped past validation, and it must surface.
    """


# parsing / tree construction
class ParseError(DomainError):
    pass


class NotATree(DomainError):
    pass


# vertex/domain lookups
class VertexNotFound(DomainError):
    pass


class DomainMismatch(DomainError):
    pass


# exact linear algebra
class EmptyBasis(DomainError):
    pass


class TooLarge(DomainError):
    pass


# decomposition
class NotCoreVertex(DomainError):
    pass


# structure operations
class BadArity(DomainError):
    pass


class KTooSmall(DomainError):
    pass


class NotSupported(DomainError):
    """Attach vertex is not a supported vertex of its part."""


class NotSTree(DomainError):
    pass


class NotInternalSupport(DomainError):
    pass


# bases
class NotAtom(DomainError):
    pass


class TooSmall(DomainError):
    pass


# generators
class BadCode(DomainError):
    pass


# verification failures
class ValidationFailed(VerificationError):
    pass


class SpanMismatch(VerificationError):
    pass


class FormulaMismatch(VerificationError):
    pass


class UsageError(DomainError):
    """Bad CLI invocation (unknown flag, missing argument, bad format)."""
