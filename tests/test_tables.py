"""Tests for the table writers: the column-wise CSV writer against a per-cell
reference, the JSON writer against json.dumps, and the column types every
sweep hands them."""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from wmtradeoff import tables
from wmtradeoff.bench import NoiseModel
from wmtradeoff.measurement import WeakMeasurement
from wmtradeoff.sweeps import cross_section, grid_sweep, reversal_fidelity_sweep, state_sweep

SPECS = {
    "grid": tables.GRID,
    "states": tables.STATES,
    "cross_section": tables.CROSS_SECTION,
    "fidelities": tables.FIDELITIES,
    "verify": tables.VERIFY,
    # Column names that need escaping, including a printf directive.
    "odd_names": (
        ('qu"ote %s 100%', tables.NUMBER),
        ("back\\slash\ttab", tables.TEXT),
        ("café ☃", tables.FLAG),
        ("%", tables.NOTE),
    ),
}

# A quiet NaN with a payload and a negative NaN: other bit patterns than math.nan.
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
EDGE_NUMBERS = [
    0.0, -0.0, -1e-12, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, 1e16,
    math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf,
]
# None stands for a missing number; a NUMBER column reads it as NaN.
EDGE_CELLS = dict.fromkeys([name for name, _ in tables.CROSS_SECTION], EDGE_NUMBERS + [None])
numbers = strategies.one_of(
    strategies.floats(), strategies.sampled_from(EDGE_NUMBERS), strategies.none()
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


def _column(kind, cells):
    """A column as a sweep hands it over: float64 numbers, bool flags, text lists."""
    if kind == tables.NUMBER:
        return np.array([math.nan if v is None else v for v in cells], dtype=np.float64)
    if kind == tables.FLAG:
        return np.array(cells, dtype=bool)
    return list(cells)


@strategies.composite
def column_tables(draw):
    spec = SPECS[draw(strategies.sampled_from(sorted(SPECS)))]
    n = draw(strategies.integers(0, 6))
    cells = {
        name: draw(strategies.lists(CELLS[kind], min_size=n, max_size=n)) for name, kind in spec
    }
    return spec, cells


@strategies.composite
def documents(draw):
    spec, cells = draw(column_tables())
    # A rows key of "metadata" would replace the metadata in the reference dict.
    key = draw(
        strategies.sampled_from(["rows", "checks"])
        | strategies.text().filter(lambda k: k != "metadata")
    )
    return draw(metadata), key, spec, cells


def _csv_cell(kind, value):
    """The CSV text of one cell, written out one cell at a time."""
    if kind == tables.NUMBER:
        if value is None or math.isnan(value):
            return "nan"
        return f"{value + 0.0:.9f}"
    if kind == tables.FLAG:
        return "1" if value else "0"
    return str(value)


def _json_value(kind, value):
    """What a cell of ``kind`` holds in the JSON document, as json.dumps input."""
    if kind == tables.NUMBER:
        return value if value is not None and math.isfinite(value) else None
    if kind == tables.FLAG:
        return int(value)
    return str(value)


def _rows(spec, cells):
    n = len(cells[spec[0][0]])
    return [{name: cells[name][i] for name, _ in spec} for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(column_tables())
@example((tables.CROSS_SECTION, EDGE_CELLS))
def test_csv_table_equals_per_cell_reference(table):
    spec, cells = table
    columns = [(name, kind) for name, kind in spec if kind != tables.NOTE]
    lines = [",".join(name for name, _ in columns)] + [
        ",".join(_csv_cell(kind, row[name]) for name, kind in columns)
        for row in _rows(spec, cells)
    ]
    got = tables.csv_table(spec, {name: _column(kind, cells[name]) for name, kind in spec})
    assert got == "\n".join(lines) + "\n"


def test_csv_negative_zero_and_tiny_negatives():
    column = np.array([-0.0, 0.0, -1e-12, -5e-324, 1e16])
    text = tables.csv_table((("x", tables.NUMBER),), {"x": column})
    assert text == "x\n0.000000000\n0.000000000\n-0.000000000\n-0.000000000\n" + (
        "10000000000000000.000000000\n"
    )


@settings(max_examples=200, deadline=None)
@given(documents())
@example(({}, "rows", tables.CROSS_SECTION, EDGE_CELLS))
def test_json_document_equals_json_dumps(document):
    meta, key, spec, cells = document
    expected_rows = [
        {name: _json_value(kind, row[name]) for name, kind in spec} for row in _rows(spec, cells)
    ]
    expected = json.dumps({"metadata": meta, key: expected_rows}, indent=2, allow_nan=False)
    columns = {name: _column(kind, cells[name]) for name, kind in spec}
    assert tables.json_document(meta, key, spec, columns) == expected + "\n"


@pytest.mark.parametrize("short", [name for name, _ in tables.CROSS_SECTION])
@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("writer", ["csv", "json"])
def test_ragged_columns_refused(writer, delta, short):
    # A writer that paired cells row by row up to the shortest column would
    # silently drop rows; one column of another length must be refused.
    columns = {name: np.zeros(3) for name, _ in tables.CROSS_SECTION}
    columns[short] = np.zeros(3 + delta)
    with pytest.raises(ValueError):
        if writer == "csv":
            tables.csv_table(tables.CROSS_SECTION, columns)
        else:
            tables.json_document({}, "rows", tables.CROSS_SECTION, columns)


@pytest.mark.parametrize(
    "writer, bound",
    [
        (lambda columns: tables.json_document({"seed": 1}, "rows", tables.GRID, columns), 2.0),
        (lambda columns: tables.csv_table(tables.GRID, columns), 4.0),
    ],
    ids=["json", "csv"],
)
def test_writer_peak_memory_is_bounded_by_document_length(writer, bound):
    # Rendering holds the document once plus per-cell references, not several
    # whole-document copies: the 256 x 256 cap bounds memory through this ratio.
    columns = grid_sweep(64, 1_000, NoiseModel(), None)
    tracemalloc.start()
    try:
        text = writer(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * len(text), peak / len(text)


NOISY = NoiseModel(pbs_leakage=0.001, detector_efficiency=0.9)
WM = WeakMeasurement(0.3, 0.6)
SWEEPS = {
    "grid": (tables.GRID, lambda seed: grid_sweep(3, 1_000, NOISY, seed)),
    "states": (tables.STATES, lambda seed: state_sweep(WM, 1_000, NOISY, seed)),
    "cross_section": (
        tables.CROSS_SECTION, lambda seed: cross_section([0.0, 0.5, 1.0], 1_000, NOISY, seed)
    ),
    "fidelities": (
        tables.FIDELITIES, lambda seed: reversal_fidelity_sweep(WM, 1_000, NOISY, seed)
    ),
    # (0, 1) flags every state LOW_STATS: a column of NaN fidelities.
    "fidelities_low_stats": (
        tables.FIDELITIES,
        lambda seed: reversal_fidelity_sweep(WeakMeasurement(0.0, 1.0), 1_000, NOISY, seed),
    ),
}


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("product", SWEEPS)
def test_every_sweep_emits_float64_number_columns(product, exact):
    # The writers read NUMBER columns as float64 bit patterns: a sweep that
    # handed over Python ints or objects would print them differently.
    spec, sweep = SWEEPS[product]
    table = sweep(None if exact else 1)
    assert list(table) == [name for name, _ in spec]
    assert len({len(column) for column in table.values()}) == 1
    for name, kind in spec:
        assert isinstance(table[name], np.ndarray), name
        assert table[name].dtype == (np.float64 if kind == tables.NUMBER else np.bool_), name
