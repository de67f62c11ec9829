"""Tests for the table writers: the column-wise JSON writer against json.dumps."""

import json
import math
from types import SimpleNamespace

from hypothesis import given, settings, strategies

from wmtradeoff import tables

SPECS = {
    "grid": tables.GRID,
    "states": tables.STATES,
    "cross_section": tables.CROSS_SECTION,
    "fidelities": tables.FIDELITIES,
    "verify": tables.VERIFY,
    # Column names that need escaping, including a printf directive.
    "odd_names": (
        ('qu"ote %s 100%', "a", tables.NUMBER),
        ("back\\slash\ttab", "b", tables.TEXT),
        ("café ☃", "c", tables.FLAG),
        ("%", "d", tables.NOTE),
    ),
}

numbers = strategies.one_of(
    strategies.floats(),
    strategies.sampled_from(
        [-0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 1e16, math.nan, math.inf, -math.inf]
    ),
    strategies.none(),
    strategies.integers(),
)
texts = strategies.one_of(
    strategies.text(),
    strategies.sampled_from(['"', "\\", "\x00\x1f\x7f", "%s %d %%", "é☃\U0001f600"]),
)
CELLS = {
    tables.NUMBER: numbers,
    tables.FLAG: strategies.booleans(),
    tables.TEXT: texts,
    tables.NOTE: texts,
}
metadata = strategies.dictionaries(
    strategies.text(),
    strategies.recursive(
        strategies.none()
        | strategies.booleans()
        | strategies.integers()
        | strategies.floats(allow_nan=False, allow_infinity=False)
        | texts,
        lambda children: strategies.lists(children, max_size=3)
        | strategies.dictionaries(strategies.text(), children, max_size=3),
        max_leaves=8,
    ),
    max_size=4,
)


def _json_value(kind, value):
    """What a cell of ``kind`` holds in the JSON document, as json.dumps input."""
    if kind == tables.NUMBER:
        return value if value is not None and math.isfinite(value) else None
    if kind == tables.FLAG:
        return int(value)
    return str(value)


@strategies.composite
def documents(draw):
    spec = SPECS[draw(strategies.sampled_from(sorted(SPECS)))]
    row = strategies.fixed_dictionaries({attr: CELLS[kind] for _, attr, kind in spec})
    rows = [SimpleNamespace(**cells) for cells in draw(strategies.lists(row, max_size=6))]
    # A rows key of "metadata" would replace the metadata in the reference dict.
    key = draw(
        strategies.sampled_from(["rows", "checks"])
        | strategies.text().filter(lambda k: k != "metadata")
    )
    return draw(metadata), key, spec, rows


@settings(max_examples=200, deadline=None)
@given(documents())
def test_json_document_equals_json_dumps(document):
    meta, key, spec, rows = document
    expected_rows = [
        {name: _json_value(kind, getattr(r, attr)) for name, attr, kind in spec} for r in rows
    ]
    expected = json.dumps({"metadata": meta, key: expected_rows}, indent=2, allow_nan=False)
    assert tables.json_document(meta, key, spec, rows) == expected + "\n"

