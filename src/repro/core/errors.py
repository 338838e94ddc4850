"""Exception types shared across the library."""


class ReproError(Exception):
    """Base class for all library-specific errors."""


class KeysNotSortedError(ReproError):
    """Bulk-load input must be strictly increasing (the paper excludes
    duplicate keys; none of the evaluated indexes support them)."""
