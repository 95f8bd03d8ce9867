"""Exception types shared across the package.

User-facing errors (bad words, bad arities) are distinct from internal
invariant violations, which always indicate an engine bug.
"""


class StrandError(Exception):
    """Base class for all package errors."""


class ParseError(StrandError):
    def __init__(self, position, message):
        self.position = position
        super().__init__(f"parse error at {position}: {message}")


class AlphabetError(StrandError):
    """Generator not allowed in the requested group."""


class ArityMismatch(StrandError):
    """Sink/source counts do not line up for composition or closure."""


class NotReduced(StrandError):
    """Operation requires a reduced diagram but a redex remains."""


class StructureViolation(StrandError):
    """A reduced closed diagram violates the cycle structure theorem.

    This is never caused by valid input; it signals an engine bug.
    """


class CutoffExceeded(StrandError):
    """Torsion iteration hit its bound without reaching the identity."""
