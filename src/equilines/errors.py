"""The three exception types the command line tells apart, and the base of
the package's immutable types.

``ConfigError`` is an input or usage error (exit 2), whatever raised it;
``InternalInconsistencyError`` is a bug (exit 1, with a reproducer);
``ClaimRefutedError`` is a certified claim that does not hold (exit 1).
Each carries its message and nothing else.
"""


class ConfigError(Exception):
    """An input violates a contract: a malformed configuration document or
    field element, points from another field, duplicate points, too few
    points, or a search past its caps."""


class InternalInconsistencyError(Exception):
    """An internal cross-check failed (a counting identity, or the exact
    recount of a search winner): the program has a bug."""


class ClaimRefutedError(Exception):
    """A certified coefficient claim does not match the computed table:
    either an implementation bug or an erratum in the claimed inequality.
    The message names the failed step, and the cell and both values where
    there are some."""


class Frozen:
    """Base of the immutable types: ``__init__`` sets each field once, through
    ``object.__setattr__`` or the instance ``__dict__``, and equality and
    hashing read ``_key()``."""

    __slots__ = ()

    def __setattr__(self, name: str, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())
