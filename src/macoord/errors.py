"""Exception types, the spec-section readers, the size rule and the stream
rule, shared across the package."""

from __future__ import annotations

import math
import numbers
import typing

import numpy as np


class MacoordError(Exception):
    """Base class for package-specific failures."""


class InvalidActionError(MacoordError, ValueError):
    """An (agent, slot) pair falls outside the declared partition."""


class ScaleError(MacoordError, ValueError):
    """An exact/brute-force routine was asked to enumerate too large a space;
    the message names what needed the enumeration and gives its size against
    the limit."""


class TopologyError(MacoordError, ValueError):
    """A communication graph violates a structural requirement."""


class ConfigError(MacoordError, ValueError):
    """A run configuration is malformed or inconsistent."""


class DataError(MacoordError, ValueError):
    """An instance a reference computation cannot measure: an approximation
    ratio against an optimum that is not strictly positive."""


REQUIRED = object()  # the default of a field that a spec must give
# Most entries of a per-round table that a config sizes: a world's objective
# or mask table, or a sampled learner's draws.  Paper-scale tracking-full has
# 14,400 objective entries and, under ma-mpl, 1,440,000 sampler comparisons.
TABLE_LIMIT = 10**7
_WHAT = {dict: "an object", list: "an array", tuple: "an array", str: "a string",
         bool: "true or false", int: "an integer", float: "a number"}


def config_value(key: str, value, kind):
    """A config value of one JSON kind, refused rather than coerced (``dict()``
    reads pairs, ``bool("no")`` is true, ``int()`` takes "5" and 2.7).  A bool
    is no number and an int is a float.  ``list[T]`` is an array (a list or a
    tuple) and ``dict[str, T]`` an object, each element of kind ``T``;
    ``tuple[T1, ..., Tk]`` is an array of exactly k elements, element i of
    kind ``Ti``."""
    origin = typing.get_origin(kind) or kind
    allowed = {int: numbers.Integral, float: numbers.Real, list: (list, tuple),
               tuple: (list, tuple)}.get(origin, origin)
    if isinstance(value, bool) != (origin is bool) or not isinstance(value, allowed):
        raise ConfigError(f"{key} must be {_WHAT[origin]}, got {value!r}")
    if origin is tuple:
        items = typing.get_args(kind)
        if len(value) != len(items):
            raise ConfigError(f"{key} must be an array of {len(items)} items, got {value!r}")
        return tuple(config_value(key, x, item) for x, item in zip(value, items))
    if origin is list:
        return [config_value(key, x, *typing.get_args(kind)) for x in value]
    if origin is dict and kind is not dict:
        keys, items = typing.get_args(kind)
        return {config_value(key, k, keys): config_value(key, v, items) for k, v in value.items()}
    return kind(value)


def read_section(section: str, doc, fields: dict) -> dict:
    """The fields of the spec section ``doc``, as ``fields`` declares them.

    ``fields`` maps each field name, in order, to ``(kind, default)``.  A
    field it does not name is refused, every value is typed through
    :func:`config_value`, and an absent field takes its default; a
    :data:`REQUIRED` field must be given.  A field whose default is None is
    optional, and None (JSON null) leaves it unset.
    """
    doc = config_value(section, doc, dict)
    unknown = [key for key in doc if key not in fields]
    if unknown:
        raise ConfigError(f"unknown {section} field {unknown[0]!r}; accepted: {', '.join(fields)}")
    values = {}
    for key, (kind, default) in fields.items():
        if default is REQUIRED and key not in doc:
            raise ConfigError(f"missing {section} field: {key}")
        value = doc.get(key, default)
        values[key] = None if value is None and default is None else config_value(key, value, kind)
    return values


def read_kind(section: str, doc, kinds: dict) -> tuple[str, dict]:
    """``(kind, fields)`` of a spec section whose ``kind`` picks its
    declaration from ``kinds`` (kind to fields, read by :func:`read_section`)."""
    kind = config_value(section, doc, dict).get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {section} kind {kind!r}; known: {', '.join(kinds)}")
    fields = read_section(section, doc, {"kind": (str, REQUIRED), **kinds[kind]})
    del fields["kind"]
    return kind, fields


def check_sizes(owner: str, sizes: dict[str, int], table: str) -> None:
    """Refuse, before any allocation, a size below 1 or a ``table`` (named
    in the message) whose entries, the product of ``sizes``, pass
    :data:`TABLE_LIMIT`.  Each refusal names its fields."""
    for name, size in sizes.items():
        if size < 1:
            raise ConfigError(f"{owner} {name} must be at least 1, got {size}")
    entries = math.prod(sizes.values())
    if entries > TABLE_LIMIT:
        raise ConfigError(
            f"{owner} {' * '.join(sizes)} is {entries}, the size of {table}; "
            f"it must be at most {TABLE_LIMIT:,}"
        )


# The word after the run seed in each seeded purpose's stream key, the ASCII of
# its name; the random baseline's key puts the round between them.
WORLD_TAG, ORBIT_TAG, SYNTHETIC_TAG, GRAPH_TAG, RANDOM_TAG = (
    int.from_bytes(word, "big") for word in (b"env", b"orbi", b"synt", b"net", b"rand"))


def stream(*key: int) -> np.random.Generator:
    """The package's only generator: ``default_rng(SeedSequence(key))`` for
    nonnegative ints, seeded from the uint32 words numpy splits them into (each
    int little-endian, 0 as one zero word), which skips its per-element
    coercion.  A learner's agent i draws from ``stream(seed, t, i)`` in round t."""
    words = []
    for x in map(int, key):
        if x < 0:
            raise ValueError(f"expected non-negative integers, got {key}")
        words.append(x & 0xFFFFFFFF)
        while x := x >> 32:
            words.append(x & 0xFFFFFFFF)
    entropy = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(entropy))
