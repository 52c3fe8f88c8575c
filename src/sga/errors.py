"""Exceptions shared across the package."""


class SgaError(Exception):
    """Base class for all package errors."""


class QuiverError(SgaError):
    """Malformed polarized quiver or failed structural precondition."""


class WordError(SgaError):
    """Letter sequence violates the concatenation rules of the quiver."""


class AtMaximum(SgaError):
    """Successor requested for the maximal string of its slot."""


class AtMinimum(SgaError):
    """Predecessor requested for the minimal string of its slot."""


class IsProjective(SgaError):
    """AR translate requested for a projective string."""


class TheoremViolation(SgaError):
    """A verified structural theorem failed on concrete data (test hook)."""


class ParseError(SgaError):
    """Input text rejected by one of the DSL parsers."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}" if line else message)
