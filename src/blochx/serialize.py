"""JSON helpers: complex numbers as [re, im] pairs, matrices as row-major
nested arrays, and a deterministic pretty-printer emitting floats with 17
significant digits.

``dumps`` takes complex ndarrays as they are: a vector, a matrix or a stack
of matrices is written as its nested [re, im] lists, byte for byte what
``dumps`` writes for those lists of Python floats, in one vectorized pass
per matrix that formats each distinct float once.  A ``GeneratorSet``
is written as its stack of matrices would be, but member by member from its
index arithmetic, so neither the N^4 stack nor its text is ever held.

``write`` sends the pieces to a text file object as they are made;
``dumps`` is their join."""
from __future__ import annotations

import json
import math

import numpy as np

from .generators import GeneratorSet


def _floats(obj, what: str, ndim: int) -> np.ndarray:
    """Lists of finite JSON numbers nested ``ndim`` levels deep, as one float
    array.  Ragged or deeper nesting, nulls, strings, bools (which numpy
    would read as 0 and 1), NaN, infinities and integers beyond float range
    raise ValueError."""
    try:
        leaves = np.array(obj, dtype=object)
    except ValueError:
        raise ValueError(f"{what} is not a regular nesting of lists") from None
    if leaves.ndim != ndim:
        raise ValueError(f"{what} must nest numbers {ndim} levels deep, got {leaves.ndim}")
    if not all(type(x) in (int, float) for x in leaves.flat):
        raise ValueError(f"{what} must hold only numbers")
    try:
        parts = leaves.astype(float)
    except OverflowError:
        raise ValueError(f"{what} holds an integer beyond float range") from None
    if not np.isfinite(parts).all():
        raise ValueError(f"{what} must hold finite numbers")
    return parts


def matrix_from_json(obj) -> np.ndarray:
    """A square complex matrix from rows of [re, im] cells, of shape (N, N, 2)."""
    parts = _floats(obj, "matrix JSON", 3)
    n = len(parts)
    if parts.shape != (n, n, 2):
        raise ValueError(f"matrix JSON must have shape (N, N, 2), got {parts.shape}")
    return parts.view(complex).reshape(n, n)


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


def _generator_text(g: GeneratorSet, level: int, out) -> None:
    """``g.matrices`` as _emit writes it, one member at a time.  A member's
    rows are one zero row, ``[0, 0]`` cells for the symmetric and diagonal
    members and ``[0, -0]`` for the antisymmetric ones as the stack has
    them, but for the two or l + 1 rows that hold its nonzero entries."""
    n = g.dim
    upper, _, norm, l_norm, _ = g._layout
    matrix_pad, row_pad, cell_pad = ("  " * (level + i) for i in (1, 2, 3))
    row_sep, cell_sep = ",\n" + row_pad, ",\n" + cell_pad

    def row(zero, column, cell):
        cells = [zero] * n
        cells[column] = cell
        return "[\n" + cell_pad + cell_sep.join(cells) + "\n" + row_pad + "]"

    def members():
        pairs = np.divmod(upper, n)
        # the cells (j, k) and (k, j) of the symmetric, then the antisymmetric pairs
        for zero, at_jk, at_kj in (("[0, 0]", "[1, 0]", "[1, 0]"),
                                   ("[0, -0]", "[0, -1]", "[0, 1]")):
            zero_row = row(zero, 0, zero)
            for j, k in zip(*(x.tolist() for x in pairs)):
                rows = [zero_row] * n
                rows[j], rows[k] = row(zero, k, at_jk), row(zero, j, at_kj)
                yield rows
        zero_row = row("[0, 0]", 0, "[0, 0]")
        for l, (c, lc) in enumerate(zip(norm.tolist(), (-l_norm).tolist()), 1):
            # c on the diagonal entries 0..l-1, -l c on entry l
            c_cell, lc_cell = (f"[{format(x, '.17g')}, 0]" for x in (c, lc))
            rows = [row("[0, 0]", i, c_cell) for i in range(l)] + [row("[0, 0]", l, lc_cell)]
            yield rows + [zero_row] * (n - l - 1)

    out("[\n")
    last = len(g) - 1
    for i, rows in enumerate(members()):
        out(matrix_pad + "[\n" + row_pad)
        out(row_sep.join(rows))
        out("\n" + matrix_pad + ("],\n" if i < last else "]\n"))
    out("  " * level + "]")


def _emit(obj, level: int, out) -> None:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        out("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out(f"{inner}{json.dumps(str(key))}: ")
            _emit(value, level + 1, out)
            out(",\n" if i < len(obj) - 1 else "\n")
        out(pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            out("[]")
            return
        if all(_is_number(x) for x in items):
            out("[" + ", ".join(_format_number(x) for x in items) + "]")
            return
        out("[\n")
        for i, value in enumerate(items):
            out(inner)
            _emit(value, level + 1, out)
            out(",\n" if i < len(items) - 1 else "\n")
        out(pad + "]")
    elif isinstance(obj, str):
        out(json.dumps(obj))
    elif obj is None:
        out("null")
    elif _is_number(obj):
        out(_format_number(obj))
    elif isinstance(obj, GeneratorSet):
        _generator_text(obj, level, out)
    elif isinstance(obj, np.ndarray) and np.iscomplexobj(obj) and obj.ndim:
        if obj.ndim > 2:
            _emit(list(obj), level, out)  # one matrix at a time
        else:
            out(_complex_text(obj, level))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), level, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic pretty-printed JSON: insertion-ordered keys, 2-space
    indent, number-only lists inlined, floats at 17 significant digits,
    complex ndarrays as nested [re, im] pairs."""
    pieces: list[str] = []
    _emit(obj, 0, pieces.append)
    return "".join(pieces)


def write(obj, fp) -> None:
    """Write what ``dumps(obj)`` returns to the text file object ``fp``, one
    piece at a time; a GeneratorSet goes one member at a time."""
    _emit(obj, 0, fp.write)
