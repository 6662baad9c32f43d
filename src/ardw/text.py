"""Every text that ardw writes, and its paths. CSV floats carry 17
significant digits (a bit-exact round trip) and lines end with LF; JSON is
strict, with NaN and infinities as null. Every text ends with a newline."""

import json
import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np


def as_path(path) -> Path:
    """path as a Path; anything but a str or an os.PathLike raises ValueError."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"path must be a str or os.PathLike, got {path!r}")
    return Path(path)


def csv_text(header, rows) -> str:
    """The header line, then one line per row: floats as .17g, the rest as str."""
    return "".join(
        ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in (header, *rows)
    )


def _listed(value):
    return value.tolist() if isinstance(value, np.ndarray) else (
        list(value) if isinstance(value, tuple) else value)


def record_dict(record, drop=()) -> dict:
    """A dataclass's fields in field order, less those named in drop, with
    arrays and tuples as lists."""
    return {f.name: _listed(getattr(record, f.name)) for f in fields(record)
            if f.name not in drop}


def _finite_or_none(obj):
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def json_text(obj, indent: int | None = 2) -> str:
    """obj as strict JSON and a newline; indent=None gives a single line."""
    return json.dumps(_finite_or_none(obj), indent=indent, allow_nan=False) + "\n"
