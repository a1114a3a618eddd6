"""Shared exception roots, the immutable-record base and lazy names.

Every validation failure raised by this package derives from
:class:`SieveLogicError`, so callers (the CLI in particular) can map the
whole family onto exit codes without enumerating modules. The value
records that cannot be tuples derive from :class:`Frozen`. Names a module
exports but no report runs live in a cold module and resolve through
:func:`lazy_names`.
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


def lazy_names(namespace: dict, homes: dict[str, str]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for the module whose globals
    are ``namespace``: a name in ``homes`` is imported on first read from
    the sibling module it maps to and kept there."""

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        from importlib import import_module
        module = import_module(f"{namespace['__package__']}.{home}")
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *homes})

    return __getattr__, __dir__
