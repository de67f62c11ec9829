"""CSV and JSON rendering of column tables: the CLI's render layer.

A column table is a dict from column name to one sequence of cells, all of
one length; the sweep drivers return them unrendered (``verify`` compares
them as arrays) and the CLI renders them. The table is its own schema: its
keys, in insertion order, are the header, a bit-exact contract that each
driver holds, and each column's dtype picks how its cells are written. A
float64 column prints nine digits after the decimal point (NaN as ``nan``),
a bool column 0/1, and any other column ``str`` of each of its cells as
given. JSON holds the same rows under a stable metadata header, non-finite
numbers as null.

Both writers turn each column into a list of cell texts in one pass and
render the document with one ``"".join`` over one preallocated flat list:
each column's cells, and the literal piece before each cell (a separator or
a JSON key), go into their places by strided slice assignment, with the
header or JSON head in the first slot and the closing text in the last. The
document is built once, so rendering holds little more than the document
itself and one reference per cell. Each distinct bit pattern of a float64
column is formatted once, by one C-level ``map`` over the distinct values,
so -0.0 and 0.0 stay apart where JSON tells them apart. The JSON document
equals ``json.dumps({"metadata": ..., key: rows}, indent=2, allow_nan=False)``
byte for byte, without the pure-Python encoder that ``json.dumps`` falls
back to whenever ``indent`` is set.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np


def _column_text(values, csv: bool) -> list:
    """The text of every cell of one column, as a list of str, by its dtype."""
    array = np.asarray(values)
    if array.dtype == np.float64:
        bits = np.ascontiguousarray(array).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        numbers = distinct.view(np.float64)
        if csv:
            # +0.0 normalizes a negative zero; "%.9f" prints NaN as nan.
            text = np.array(list(map("%.9f".__mod__, (numbers + 0.0).tolist())), dtype=object)
        else:
            # float.__repr__ is what json.dumps prints for a float.
            text = np.array(list(map(float.__repr__, numbers.tolist())), dtype=object)
            text[~np.isfinite(numbers)] = "null"
        return text[inverse].tolist()
    if array.dtype == np.bool_:
        return np.array(["0", "1"], dtype=object)[array.astype(np.intp)].tolist()
    text = list(map(str, values))
    return text if csv else list(map(encode_basestring_ascii, text))


def _flat(columns: dict, csv: bool, pieces: list) -> list:
    """Every cell of ``columns`` row by row, each after its column's piece of
    ``pieces``, in one flat list whose first and last slots are left for the
    caller's head and tail."""
    cells = [_column_text(column, csv) for column in columns.values()]
    lengths = {len(column) for column in cells}
    if len(lengths) != 1:
        raise ValueError(f"table columns must have one length, got {sorted(lengths)}")
    rows, stride = lengths.pop(), 2 * len(cells)
    flat = [None] * (rows * stride + 2)
    for j, (piece, column) in enumerate(zip(pieces, cells)):
        flat[1 + 2 * j : -1 : stride] = [piece] * rows
        flat[2 + 2 * j : -1 : stride] = column
    return flat


def csv_table(columns: dict) -> str:
    # Each row starts a line, so no rows leave the header alone.
    flat = _flat(columns, True, ["\n"] + [","] * (len(columns) - 1))
    flat[0], flat[-1] = ",".join(columns), "\n"
    return "".join(flat)


def json_document(metadata: dict, rows_key: str, columns: dict) -> str:
    """The document {"metadata": metadata, rows_key: [one object per row]}.

    The metadata head goes through ``json.dumps``, so a non-finite value
    there raises ``ValueError`` instead of producing invalid JSON.
    """
    head = json.dumps({"metadata": metadata, rows_key: []}, indent=2, allow_nan=False)
    keys = [encode_basestring_ascii(name) + ": " for name in columns]
    # A row's first key closes the object before it; the first row's has none.
    pieces = ["\n    },\n    {\n      " + keys[0]] + [",\n      " + key for key in keys[1:]]
    flat = _flat(columns, False, pieces)
    if len(flat) == 2:
        return head + "\n"
    # head ends with `[]\n}`: the empty rows list and the closing brace.
    flat[0], flat[1], flat[-1] = head[:-3], "\n    {\n      " + keys[0], "\n    }\n  ]\n}\n"
    return "".join(flat)
