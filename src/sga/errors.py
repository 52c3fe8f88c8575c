"""Exceptions shared across the package, and the text of a route mismatch."""


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


def route_mismatch(what: str, routes: dict) -> str | None:
    """None when every route gives the same value, else the text of the
    ``TheoremViolation`` naming each route and its value, by route name."""
    if len(set(routes.values())) > 1:
        return f"{what} MISMATCH: " + ", ".join(f"{k} {routes[k]}" for k in sorted(routes))
    return None


class ParseError(SgaError):
    """Input text rejected by one of the DSL parsers."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}" if line else message)
