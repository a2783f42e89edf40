"""Exception types shared across the package."""


class ProblemFormatError(ValueError):
    """A problem file or input structure is malformed; the message names the field."""


class InfeasibleCredalError(ValueError):
    """The constraint description admits no probability mass function."""


class GuardExceededError(RuntimeError):
    """A safety guard (enumeration size, retry budget, search nodes, LP pivots) was exceeded."""
