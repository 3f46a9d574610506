"""Exception types, and the typed config-field reader, shared across the package."""

import numbers


class MacoordError(Exception):
    """Base class for package-specific failures."""


class InvalidActionError(MacoordError, ValueError):
    """An (agent, slot) pair falls outside the declared partition."""


class ScaleError(MacoordError, ValueError):
    """An exact/brute-force routine was asked to enumerate too large a space.

    Callers hitting this should switch to the Monte-Carlo estimators.
    """


class TopologyError(MacoordError, ValueError):
    """A communication graph violates a structural requirement."""


class ConfigError(MacoordError, ValueError):
    """A run configuration is malformed or inconsistent."""


class DataError(MacoordError, ValueError):
    """Logged experiment data is missing fields required by an operation."""


def config_value(key: str, value, kind: type):
    """A config value of one kind, refused rather than coerced (``dict()`` reads
    pairs, ``bool("no")`` is true, ``int()`` takes "5" and 2.7).  A bool is no
    number and an int is a float."""
    allowed = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        what = {dict: "an object", bool: "true or false", int: "an integer", float: "a number"}
        raise ConfigError(f"{key} must be {what[kind]}, got {value!r}")
    return kind(value)


def config_field(doc: dict, key: str, kind: type, default=None):
    """``doc[key]`` through :func:`config_value`; a missing field without
    default is a KeyError."""
    return config_value(key, doc[key] if default is None else doc.get(key, default), kind)
