"""Exception types shared across the package."""


class EquilinesError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatchError(EquilinesError):
    """Two elements from quadratic fields with different discriminants were mixed."""


class InsufficientPointsError(EquilinesError):
    """An operation needs more points than the configuration provides."""


class DuplicatePointError(EquilinesError):
    """A configuration contains the same projective point twice.

    ``indices`` holds the colliding positions in input order.
    """

    def __init__(self, message: str, indices: tuple[int, int] | None = None):
        super().__init__(message)
        self.indices = indices


class ElementParseError(EquilinesError):
    """A textual field element did not match the expected grammar."""


class ConfigError(EquilinesError):
    """A configuration document is malformed or violates an input contract."""


class InternalInconsistencyError(EquilinesError):
    """An internal cross-check failed (a counting identity, or the exact
    recount of a search winner): the program has a bug."""


class ClaimRefutedError(EquilinesError):
    """A certified coefficient claim does not match the computed table.

    Carries the offending cell (None when the failed step is not about
    one cell) and both values; firing means either an implementation bug
    or an erratum in the claimed inequality.
    """

    def __init__(self, message: str, cell=None, expected=None, actual=None):
        super().__init__(message)
        self.cell = cell
        self.expected = expected
        self.actual = actual


class SearchCapError(EquilinesError):
    """A search would exceed ``search.MAX_COLORINGS`` or ``search.MAX_LOCAL_BUDGET``."""

    def __init__(self, message: str, coloring_count: int):
        super().__init__(message)
        self.coloring_count = coloring_count
