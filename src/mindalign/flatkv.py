"""Flat dotted-key text format, one `key = value` per line, and CSV records.

Used for config files, config echoes, world manifests and the metadata of
array files. Chosen for diffability; values are written with repr-level
precision so that parse(format(d)) round-trips exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import fields

from .errors import ConfigError


def parse_flat(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def format_flat(items: dict[str, object]) -> str:
    """Render a mapping as sorted `key = value` lines.

    Raises `ConfigError` for a key or value that would not parse back to
    itself: one holding '#', '=' in the key, a line break, or edge whitespace.
    """
    lines = []
    for key in sorted(items):
        v = items[key]
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        else:
            v = str(v)
        line = f"{key} = {v}"
        try:
            same = parse_flat(line) == {key: v}
        except ConfigError:  # a line break left a malformed second line
            same = False
        if not same:
            raise ConfigError(f"{key!r} = {v!r} cannot be written as one 'key = value' line")
        lines.append(line)
    return "\n".join(lines) + "\n"


# the casts for `parse_value`; bools are written as true/false
_KINDS = {"int": int, "float": float, "str": str,
          "bool": {"true": True, "false": False}.__getitem__}


def parse_value(raw: str | None, kind: str, key: str) -> object:
    """Cast the value of ``key`` (None: missing) to "int", "float" (finite),
    "str" or "bool"."""
    if raw is None:
        raise ConfigError(f"missing key {key!r}")
    try:
        value = _KINDS[kind](raw)
        if kind == "float" and not math.isfinite(value):
            raise ValueError
    except (ValueError, KeyError):
        raise ConfigError(f"key {key!r}: expected {kind}, got {raw!r}") from None
    return value


def parse_fields(cls, items: dict[str, str], prefix: str):
    """Build the dataclass ``cls`` from the ``<prefix>.<field>`` keys of ``items``."""
    return cls(**{f.name: parse_value(items.get(f"{prefix}.{f.name}"), f.type,
                                      f"{prefix}.{f.name}") for f in fields(cls)})


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV, each float cell as its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)
