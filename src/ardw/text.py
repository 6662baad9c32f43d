"""Every text that ardw writes. CSV floats carry 17 significant digits (a
bit-exact round trip) and lines end with LF; JSON is strict, with NaN and
infinities as null. Every text ends with a newline."""

import json
import math


def csv_text(header, rows) -> str:
    """The header line, then one line per row: floats as .17g, the rest as str."""
    return "".join(
        ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in (header, *rows)
    )


def _finite_or_none(obj):
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def json_text(obj, indent: int | None = 2) -> str:
    """obj as strict JSON and a newline; indent=None gives a single line."""
    return json.dumps(_finite_or_none(obj), indent=indent, allow_nan=False) + "\n"
