"""Exception types shared across the package, and the one check of an
integer count argument."""

import numbers


class SubinfError(Exception):
    """Base class for errors raised by this package."""


class UnsupportedGeometryError(SubinfError):
    """A group operation was requested on a geometry without a group law."""


class DomainMismatchError(SubinfError):
    """Two fields or domains that must share a lattice do not."""


class IncompleteFieldError(SubinfError):
    """A field is missing values (NaN or wrong shape) on non-exterior nodes."""


class ConnectivityError(SubinfError):
    """A horizontal graph left part of the lattice unreachable."""


class ConfigError(SubinfError):
    """A problem configuration failed to parse or validate."""


class ParameterError(SubinfError, ValueError):
    """An argument is outside its documented range."""


def require_count(name: str, value, least: int) -> int:
    """value as an int; ParameterError unless it is an integer of at least
    least.  Bools, non-numbers (a string, None), NaN, infinities and
    fractions fail."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (value >= least and float(value).is_integer())):
        raise ParameterError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)
