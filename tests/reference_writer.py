"""Frozen copy of the recursive per-element JSON writer that ``io.dumps``
used before float arrays were rendered a row at a time, and of the numeric
field reader that model loaders applied to ``"H"`` before it could hold
factors.

Test-only: the golden tests compare ``io.dumps`` with it byte for byte, so
the file format cannot drift, and the format tests check what a reader of
the array form alone makes of the newer forms. Nothing under ``src/``
imports it.
"""

import json

import numpy as np

from subquad.errors import FileFormatError


def reference_format_real(value) -> str:
    value = float(value)
    if not np.isfinite(value):
        raise FileFormatError(f"cannot serialize non-finite real {value!r}")
    text = format(value, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def reference_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: "
            f"{reference_dumps(val, indent + 1)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, np.ndarray):
        return reference_dumps(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rendered = [reference_dumps(val, indent + 1) for val in obj]
        if all(len(r) < 26 and "\n" not in r for r in rendered):
            return "[" + ", ".join(rendered) + "]"
        return (
            "[\n" + ",\n".join(inner + r for r in rendered) + f"\n{pad}]"
        )
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return reference_format_real(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise FileFormatError(f"cannot serialize object of type {type(obj)!r}")


def reference_read_array(value, name, path="document") -> np.ndarray:
    """The array reader of a loader that knows only the array form."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(
            f"{path}: field {name!r} is not numeric"
        ) from exc
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(f"{path}: field {name!r} has non-finite entries")
    return arr
