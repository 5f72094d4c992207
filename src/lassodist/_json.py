"""JSON text of the command line's outputs, whole or in pieces.

Floats are written with 17 significant digits, so they round-trip exactly,
and never as -0; a NaN or an infinity raises NumericalError. Indentation is
two spaces per level, and a list of plain values stays on one line.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii  # what json.dumps does to one str

import numpy as np

from .errors import NumericalError

# characters of output per write of a streamed report
_BATCH = 1 << 16


def _inline(obj):
    """The one-line JSON text of obj, or None when its text spans lines: a
    dict with entries, a list that holds a container, or an iterator."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple, dict)):
        if not obj:
            return "{}" if isinstance(obj, dict) else "[]"
        if isinstance(obj, dict):
            return None
        if set(map(type, obj)) == {int}:  # plain ints; bools and numpy scalars go below
            return "[" + ", ".join(map(str, obj)) + "]"
        if any(isinstance(v, _CONTAINERS) for v in obj):
            return None
        return "[" + ", ".join(map(_inline, obj)) + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            raise NumericalError("non-finite value in output")
        if x == 0.0:
            x = 0.0  # never emit -0
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, Iterator):
        return None
    raise TypeError(f"cannot serialize {type(obj)!r}")


# a list that holds one of these spans lines, one entry per line
_CONTAINERS = (list, tuple, dict, np.ndarray, Iterator)
_NO_ITEM = object()


def _render(obj, indent=0):
    """Yield the JSON text of obj in pieces.

    A dict or a list that holds a container spans lines, one entry per line,
    and an iterator renders as the list of its items. A dict renders every
    entry but an iterator before it yields its first piece, so a value that
    cannot be written (a non-finite float) raises before any output. An
    iterator's items are made and rendered one at a time, each yielded as it
    is done, so rows made on demand are never held whole.
    """
    text = _inline(obj)
    if text is None:
        yield from _lines(obj, indent)
    else:
        yield text


def _lines(obj, indent):
    """_render of a value whose text spans lines."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    pad = "  " * (indent + 1)
    if isinstance(obj, dict):
        # each entry as its whole line, or as (key, iterator) to stream
        lines = []
        for k, v in obj.items():
            head = f"{pad}{encode_basestring_ascii(str(k))}: "
            text = _inline(v)
            if text is None and not isinstance(v, Iterator):
                text = "".join(_lines(v, indent + 1))
            lines.append((head, v) if text is None else head + text)
        out, close = "{\n", "}"
    else:
        if isinstance(obj, Iterator):
            first = next(obj, _NO_ITEM)
            if first is _NO_ITEM or not isinstance(first, _CONTAINERS):
                # plain values share one line, which needs them all
                yield from _render([] if first is _NO_ITEM else [first, *obj], indent)
                return
            obj = chain((first,), obj)
        lines = ((pad, v) for v in obj)
        out, close = "[\n", "]"
    for i, line in enumerate(lines):
        if i:
            out += ",\n"
        if type(line) is str:
            out += line
            continue
        head, v = line
        text = _inline(v)
        if text is None:
            yield out + head
            out = ""
            yield from _lines(v, indent + 1)
        else:
            out += head + text
    yield out + "\n" + "  " * indent + close


def render_json(obj) -> str:
    return "".join(_render(obj)) + "\n"


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
