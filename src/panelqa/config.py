"""Plain-text configuration: ``key = value`` lines with ``#`` comments.

Every key is declared once, as a field of a dataclass record (``ModelConfig``,
``TrainConfig`` or the CLI's ``RunConfig``); a field whose metadata has
``"cli": False`` is not a key. This one reader and writer serve the
``--config`` file, every ``--flag``, the ``config.txt`` echoed into output
directories and the config header of a checkpoint.
"""
from __future__ import annotations

import math
from dataclasses import fields

_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _finite(raw: str) -> float:
    if not math.isfinite(value := float(raw)):
        raise ValueError(raw)
    return value


_TYPES = {"bool": ("boolean", lambda raw: _BOOLS[raw.lower()]),
          "int": ("integer", int), "float": ("number", _finite)}


class ConfigError(ValueError):
    pass


def keys(*records) -> dict[str, str]:
    """Key name -> type name of the dataclass records, in field order."""
    return {f.name: getattr(f.type, "__name__", f.type)
            for r in records for f in fields(r) if f.metadata.get("cli", True)}


def convert(name: str, kind: str, raw: str):
    """The typed value of one key; ``kind`` is a type name from ``keys``."""
    raw = raw.strip()
    if kind not in _TYPES:
        return raw
    what, cast = _TYPES[kind]
    try:
        return cast(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"bad {what} for {name}: {raw!r}") from None


def parse(text: str, schema: dict[str, str], where: str) -> dict:
    """Typed values of the keys present in ``text``; ``where`` names it in
    errors."""
    out = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"{where}:{line_no}: expected 'key = value'")
        if key not in schema:
            raise ConfigError(f"{where}:{line_no}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"{where}:{line_no}: repeated config key {key!r}")
        out[key] = convert(key, schema[key], value)
    return out


def build(cls, values: dict, **records):
    """A ``cls`` record from the entries of ``values`` that are its keys, and
    from ``records`` for its fields that are not keys."""
    return cls(**{k: values[k] for k in keys(cls) if k in values}, **records)


def write(record) -> str:
    """One ``key = value`` line per key of the record, in field order."""
    return "".join(f"{k} = {getattr(record, k)}\n" for k in keys(record))
