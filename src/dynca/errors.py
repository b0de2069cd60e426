"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when numbering parameters fail their feasibility constraints."""


class CapacityError(RuntimeError):
    """Raised when a structure sized for max_n is asked to grow past it."""


class TraceParseError(ValueError):
    """Raised on malformed trace text.  Carries 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def check_id(v, n):
    """Raise ValueError unless v is an allocated node id in [0, n).

    Any int subclass counts as an id except bool, whose True and False
    would otherwise stand in for nodes 1 and 0.
    """
    if (type(v) is not int and (type(v) is bool or not isinstance(v, int))
            or not 0 <= v < n):
        raise ValueError(f"unallocated node id {v!r}")
