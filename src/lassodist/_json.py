"""JSON text of the command line's outputs, whole or as a stream of rows.

Floats are written with 17 significant digits, so they round-trip exactly,
and never as -0; a NaN or an infinity raises NumericalError. Indentation is
two spaces per level, and a list of plain values stays on one line.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii  # what json.dumps does to one str

import numpy as np

from .errors import NumericalError

# characters of output per write of a streamed report
_BATCH = 1 << 16


def _text(obj, indent=0):
    """The JSON text of obj, whose first line starts at depth indent."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple, dict)):
        if not obj:
            return "{}" if isinstance(obj, dict) else "[]"
        pad = "  " * (indent + 1)
        if isinstance(obj, dict):
            lines = (f"{pad}{encode_basestring_ascii(str(k))}: {_text(v, indent + 1)}"
                     for k, v in obj.items())
            return "{\n" + ",\n".join(lines) + "\n" + "  " * indent + "}"
        if set(map(type, obj)) == {int}:  # plain ints; bools and numpy scalars go below
            return "[" + ", ".join(map(str, obj)) + "]"
        if not any(isinstance(v, (list, tuple, dict, np.ndarray)) for v in obj):
            return "[" + ", ".join(map(_text, obj)) + "]"
        lines = (pad + _text(v, indent + 1) for v in obj)
        return "[\n" + ",\n".join(lines) + "\n" + "  " * indent + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise NumericalError("non-finite value in output")
        return format(x + 0.0, ".17g")  # -0.0 + 0.0 is 0.0: never emit -0
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_json(obj) -> str:
    return _text(obj) + "\n"


def stream_json(report: dict):
    """Yield render_json(report) in pieces. A value of report may be an
    iterator of dict rows, which renders as the list of its rows, one piece
    per row, each made as it is reached; every other value renders before
    the first piece, so a non-finite float raises before any output."""
    entries = [(f"  {encode_basestring_ascii(str(k))}: ",
                v if isinstance(v, Iterator) else _text(v, 1)) for k, v in report.items()]
    out = "{"
    for i, (head, value) in enumerate(entries):
        out += (",\n" if i else "\n") + head
        if isinstance(value, str):
            out += value
            continue
        opening, close = "[\n    ", "[]"
        for row in value:
            yield out + opening + _text(row, 2)
            out, opening, close = "", ",\n    ", "\n  ]"
        out += close
    yield out + ("\n}\n" if entries else "}\n")


def _batches(pieces):
    """The pieces joined into strings of about _BATCH characters. Where
    stdout is unbuffered, each write is a system call."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            yield "".join(batch)
            batch, size = [], 0
    yield "".join(batch)
