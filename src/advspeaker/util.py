"""Small shared helpers: canonical hashing, deterministic RNG derivation, and
the JSON form of the dataclasses that configs, checkpoints and logs record.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import types
import typing

import numpy as np


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def fingerprint(obj) -> str:
    """Stable hex digest of a JSON-serializable object."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def stable_int(text: str) -> int:
    """Deterministic (process-independent) integer derived from a string."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def rng_for(*keys) -> np.random.Generator:
    """Generator seeded from a tuple of ints/strings, independent of order of use."""
    seeds = [stable_int(k) if isinstance(k, str) else int(k) for k in keys]
    return np.random.default_rng(seeds)


# ---------------------------------------------------------------------------
# dataclasses <-> JSON

class ConfigError(ValueError):
    """A config that cannot run. A section's error names its field before a
    ``: `` (``iterations: must be >= 1``), or else is about the whole section."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def check(rules) -> None:
    """Raise one ConfigError listing every failed ``(failed, message)`` rule."""
    errors = [message for failed, message in rules if failed]
    if errors:
        raise ConfigError(errors)


def to_json(value):
    """A dataclass value as JSON-ready dicts and lists: one key per field,
    tuples written as lists, numbers kept as the int or float they are."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    return value


def from_json(default, raw, path: str = ""):
    """The dataclass ``default`` with the JSON object ``raw`` on top.

    ``default`` is an instance, whose field values are the starting point,
    or a class, whose own field defaults are. Unknown keys are rejected and
    each value is checked against its field's annotation: ``int``, ``float``
    (an int is a valid float and stays an int), ``str``, ``bool``,
    ``X | None``, fixed and ``...`` tuples (built from lists), lists, and
    nested dataclasses, which start from the default's value. Every wrong
    value, and every rule a section checks when built, is listed in one
    ConfigError, each naming the field's dotted JSON path.
    """
    if isinstance(default, type):
        return _build(default, {}, raw, path)
    values = {f.name: getattr(default, f.name) for f in dataclasses.fields(default) if f.init}
    return _build(type(default), values, raw, path)


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.init}


def gather(build, items) -> list:
    """``build(item)`` for every item; one ConfigError listing every item's errors."""
    built, errors = [], []
    for item in items:
        try:
            built.append(build(item))
        except ConfigError as exc:
            errors += exc.errors
    if errors:
        raise ConfigError(errors)
    return built


def _build(cls, values: dict, raw, path: str):
    if not isinstance(raw, dict):
        raise ConfigError([f"{path or 'config'}: must be an object, got {raw!r}"])
    types_ = _field_types(cls)

    def field_value(key):
        where = f"{path}.{key}" if path else str(key)
        if key not in types_:
            raise ConfigError([f"{where}: unknown key"])
        return key, _value(types_[key], raw[key], where, values.get(key))

    values.update(gather(field_value, raw))
    try:
        return cls(**values)
    except ConfigError as exc:  # "iterations: …" becomes "eval.scenarios[0].iterations: …"
        raise ConfigError([f"{path}{'.' if ': ' in v else ': '}{v}" if path else v
                           for v in exc.errors]) from exc
    except TypeError as exc:  # a required field left out
        raise ConfigError([f"{path or 'config'}: {exc}"]) from exc


_NOUNS = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false"}


def _value(hint, value, where: str, default=None):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return from_json(hint if default is None else default, value, where)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _value(inner, value, where)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError([f"{where}: must be a list, got {value!r}"])
        if origin is list or args[-1] is Ellipsis:
            items = [args[0]] * len(value)
        elif len(value) != len(args):
            raise ConfigError([f"{where}: must have {len(args)} items, got {value!r}"])
        else:
            items = args
        built = gather(lambda i: _value(items[i], value[i], f"{where}[{i}]"),
                        range(len(value)))
        return built if origin is list else tuple(built)
    if hint is float:
        ok = isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    else:
        ok = isinstance(value, hint)
    if not ok or (hint in (int, float) and isinstance(value, bool)):
        raise ConfigError([f"{where}: must be {_NOUNS[hint]}, got {value!r}"])
    return value
