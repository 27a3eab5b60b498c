"""JSON helpers: complex numbers as [re, im] pairs, matrices as row-major
nested arrays, and a deterministic pretty-printer emitting floats with 17
significant digits.

``dumps`` takes complex ndarrays as they are: a vector, a matrix or a stack
of matrices is written as its nested [re, im] lists, byte for byte what
``dumps`` writes for ``matrix_to_json`` of each matrix, in one vectorized
pass per matrix that formats each distinct float once."""
from __future__ import annotations

import json
import math

import numpy as np


def complex_to_json(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in m]


def matrix_from_json(obj) -> np.ndarray:
    rows = []
    for row in obj:
        rows.append([complex(float(z[0]), float(z[1])) for z in row])
    m = np.array(rows, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix JSON is not square, shape {m.shape}")
    return m


def _format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x} cannot be serialized")
    return format(x, ".17g")


def _is_number(x) -> bool:
    return isinstance(x, (bool, int, float, np.integer, np.floating))


def _nested_text(cells, level: int) -> str:
    """Nested lists of already written [re, im] cells, laid out as _emit
    lays out lists that are not all numbers."""
    if not cells:
        return "[]"
    if not isinstance(cells[0], str):
        cells = [_nested_text(row, level + 1) for row in cells]
    inner = "  " * (level + 1)
    return "[\n" + inner + (",\n" + inner).join(cells) + "\n" + "  " * level + "]"


def _complex_text(a: np.ndarray, level: int) -> str:
    """A complex vector or matrix as nested [re, im] lists."""
    parts = np.ascontiguousarray(a, dtype=complex).view(np.float64).ravel()
    finite = np.isfinite(parts)
    if not finite.all():
        _format_number(parts[np.argmin(finite)])  # raises for the first one
    # distinct bit patterns, not values, so that -0.0 stays "-0"
    floats, ids = np.unique(parts.view(np.int64), return_inverse=True)
    text = [format(x, ".17g") for x in floats.view(np.float64).tolist()]
    # each distinct [re, im] cell is written once too
    pairs, ids = np.unique(ids[0::2] * len(floats) + ids[1::2], return_inverse=True)
    cells = np.array([f"[{text[p // len(floats)]}, {text[p % len(floats)]}]"
                      for p in pairs.tolist()], dtype=object)
    return _nested_text(cells[ids].reshape(a.shape).tolist(), level)


def _emit(obj, level: int, pieces: list[str]) -> None:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            pieces.append(f"{inner}{json.dumps(str(key))}: ")
            _emit(value, level + 1, pieces)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            pieces.append("[]")
            return
        if all(_is_number(x) for x in items):
            pieces.append("[" + ", ".join(_format_number(x) for x in items) + "]")
            return
        pieces.append("[\n")
        for i, value in enumerate(items):
            pieces.append(inner)
            _emit(value, level + 1, pieces)
            pieces.append(",\n" if i < len(items) - 1 else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif obj is None:
        pieces.append("null")
    elif _is_number(obj):
        pieces.append(_format_number(obj))
    elif isinstance(obj, np.ndarray) and np.iscomplexobj(obj) and obj.ndim:
        if obj.ndim > 2:
            _emit(list(obj), level, pieces)  # one matrix at a time
        else:
            pieces.append(_complex_text(obj, level))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), level, pieces)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic pretty-printed JSON: insertion-ordered keys, 2-space
    indent, number-only lists inlined, floats at 17 significant digits,
    complex ndarrays as nested [re, im] pairs."""
    pieces: list[str] = []
    _emit(obj, 0, pieces)
    return "".join(pieces)
