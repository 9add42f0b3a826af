"""Flat key=value files: model descriptors, CLI configs, run provenance.

One `key=value` per line, `#` starts a comment, blank lines are skipped.
Callers own key validation; duplicate keys are rejected here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from .tensors import ConfigError, read_text


def read_kv(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def write_kv(path: str | Path, mapping: Mapping[str, str]) -> None:
    lines = [f"{key}={value}" for key, value in mapping.items()]
    Path(path).write_text("\n".join(lines) + "\n")
