"""Shared exception roots and the immutable-record base.

Every validation failure raised by this package derives from
:class:`SieveLogicError`, so callers (the CLI in particular) can map the
whole family onto exit codes without enumerating modules. The value
records that cannot be tuples derive from :class:`Frozen`.
"""

from operator import attrgetter


class SieveLogicError(Exception):
    """Base class for all errors raised by sievelogic."""


class SizeLimitExceeded(SieveLogicError):
    """An exact enumeration or search would exceed its configured guard.

    ``limit`` is the value of the guard that tripped, in the unit its
    message names (arrows, table cells, matrix entries, search nodes).
    """

    def __init__(self, message: str, limit: int | float):
        super().__init__(message)
        self.limit = limit


class Frozen:
    """Base of the immutable value records that are not tuples.

    A subclass names its fields in ``_fields`` and sets them once in
    ``__init__``, through ``object.__setattr__`` or the instance
    ``__dict__``. A record equals only a record of its own class with
    equal fields, hashes as the tuple of its fields and prints as
    ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # ``_values`` is the field tuple, read by one C-level getter: the
        # matrix oracles compare and hash millions of ``QC`` values.
        get = attrgetter(*cls._fields)
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
