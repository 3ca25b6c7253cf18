"""Canonical JSON emission: insertion-ordered keys, floats at 12
significant digits.  Re-parsing and re-serializing a document produced here
is byte-identical, which makes golden-file and cross-worker comparisons
trivial."""

from __future__ import annotations

import math


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    text = format(value, ".12g")
    # ".12g" can emit bare exponents like "1e-05"; json accepts them as-is
    return text


def _quote(text: str) -> str:
    """``json.dumps(text)``.  Every string the package writes is plain
    printable ASCII, which needs no escape; only other text loads ``json``."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json

    return json.dumps(text)


def _write(value, out: list[str]) -> None:
    if value is None or value is True or value is False:
        out.append("null" if value is None else ("true" if value else "false"))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_float(value))
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _write(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(_quote(key))
            out.append(": ")
            _write(item, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}: {value!r}")


def canonical_json(data) -> str:
    out: list[str] = []
    _write(data, out)
    return "".join(out)
