"""Shared exception roots.

Every validation failure raised by this package derives from
:class:`SieveLogicError`, so callers (the CLI in particular) can map the
whole family onto exit codes without enumerating modules.
"""


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
