"""Deterministic serialization of result objects.

``render_json`` is the one walk from a result to its JSON text.  It
keeps insertion order, writes floats with 17 significant digits (exact
float64 round-trip) and depends on no locale or timestamp, so reruns
are byte-identical.  A dataclass is an object of its fields in
declaration order; an int8 array is a sign vector and becomes a sign
string, one per row when it is 2-d; any other array becomes a flat list;
numpy scalars are their Python values; NaN and +-inf have no JSON value
and are a ``ParameterError`` that names the field holding them, as in
``results[0].value``.  These rules hold at any depth.
``emit_report`` writes a histogram in the CSV layout
``bin_lo,bin_hi,count`` and every other result as JSON.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

from .discrepancy import sign_string
from .errors import ParameterError
from .landscape import Histogram


def render_json(value: Any, indent: int = 0, at: str = "") -> str:
    """Canonical JSON text; dict order preserved, floats at 17 digits.
    ``at`` is the path of ``value`` in the whole, for error messages."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{inner}"{k}": {render_json(v, indent + 2, f"{at}.{k}" if at else str(k))}'
            for k, v in value.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [render_json(v, indent + 2, f"{at}[{i}]") for i, v in enumerate(value)]
        # a short list of scalars stays on one line; an object or array opens with { or [
        if len(items) <= 16 and not any(s[0] in "[{" for s in items):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ParameterError(f"JSON has no value for the float {float(value)!r}"
                                 + (f" at {at}" if at else ""))
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        if value.dtype == np.int8:
            signs = [sign_string(row) for row in value] if value.ndim == 2 else sign_string(value)
            return render_json(signs, indent)
        flat = value.ravel()
        return render_json([int(v) for v in flat] if flat.dtype.kind in "iub"
                           else [float(v) for v in flat], indent, at)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return render_json({f.name: getattr(value, f.name)
                            for f in dataclasses.fields(value)}, indent, at)
    raise ParameterError(f"cannot serialize value of type {type(value)!r}")


def histogram_csv(hist: Histogram) -> str:
    lines = ["bin_lo,bin_hi,count"]
    for lo, hi, c in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts):
        lines.append(f"{float(lo):.17g},{float(hi):.17g},{int(c)}")
    return "\n".join(lines) + "\n"


def emit_report(result: Any, path=None) -> str:
    """Serialize ``result``, a histogram as CSV and anything else as JSON;
    write the text to ``path`` when given, byte for byte, and return it."""
    if isinstance(result, Histogram):
        text = histogram_csv(result)
    else:
        text = render_json(result) + "\n"
    if path is not None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    return text
