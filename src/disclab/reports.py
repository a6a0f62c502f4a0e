"""Deterministic serialization of result objects.

JSON output is rendered by a small canonical writer: insertion-ordered
fields, floats printed with 17 significant digits (exact float64
round-trip), no locale or timestamp dependence, so byte-identical reruns
are possible.  ``emit_report`` writes a histogram in the CSV layout
``bin_lo,bin_hi,count`` and every other result as JSON.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

import numpy as np

from .discrepancy import sign_string
from .errors import ParameterError
from .landscape import Histogram


def _render_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def render_json(value: Any, indent: int = 0) -> str:
    """Canonical JSON text; dict order preserved, floats at 17 digits."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{inner}"{k}": {render_json(v, indent + 2)}' for k, v in value.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if flat and len(seq) <= 16:
            return "[" + ", ".join(render_json(v) for v in seq) + "]"
        items = ",\n".join(f"{inner}{render_json(v, indent + 2)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _render_float(float(value))
    if isinstance(value, str):
        import json
        return json.dumps(value)
    raise ParameterError(f"cannot serialize value of type {type(value)!r}")


def _listify(arr) -> list:
    a = np.asarray(arr)
    if a.dtype.kind in "iub":
        return [int(v) for v in a.ravel()]
    return [float(v) for v in a.ravel()]


def to_payload(result: Any) -> Any:
    """Convert a result object into JSON-ready primitives.

    A dataclass becomes a dict of its fields in declaration order, each
    converted by the same rules: int8 arrays are sign vectors and become
    sign strings (one per row when 2-d), other arrays become flat lists,
    dicts are copied and numpy scalars become Python scalars.
    """
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return {f.name: to_payload(getattr(result, f.name))
                for f in dataclasses.fields(result)}
    if isinstance(result, np.ndarray):
        if result.dtype == np.int8:
            return ([sign_string(row) for row in result] if result.ndim == 2
                    else sign_string(result))
        return _listify(result)
    if isinstance(result, dict):
        return dict(result)
    if isinstance(result, (list, tuple)):
        return [to_payload(v) for v in result]
    if isinstance(result, np.generic):
        return result.item()
    if isinstance(result, (str, int, float, bool)) or result is None:
        return result
    raise ParameterError(f"no serialization for {type(result)!r}")


def histogram_csv(hist: Histogram) -> str:
    lines = ["bin_lo,bin_hi,count"]
    for lo, hi, c in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts):
        lines.append(f"{_render_float(float(lo))},{_render_float(float(hi))},{int(c)}")
    return "\n".join(lines) + "\n"


def emit_report(result: Any, path=None) -> str:
    """Serialize ``result``, a histogram as CSV and anything else as JSON;
    write the text to ``path`` when given, byte for byte, and return it."""
    if isinstance(result, Histogram):
        text = histogram_csv(result)
    else:
        text = render_json(to_payload(result)) + "\n"
    if path is not None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    return text
