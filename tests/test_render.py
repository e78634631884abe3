"""render_json and render_csv against the straightforward renderers they
replace: json.dumps(indent=2) of a rounded copy of the document, and one
cell formatter with a quote scan per cell.  Every document hypothesis
draws must render to the same bytes both ways."""

from __future__ import annotations

import enum
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravlink.scenario import (
    RESULT_FIELDS,
    _ROW_BLOCK,
    parse_config,
    render_csv,
    render_json,
    result_to_dict,
    run_scenario,
    sweep,
)


def _old_json_safe(value, precision):
    if isinstance(value, float):
        if precision is not None:
            value = float(f"{value:.{precision}g}")
        return None if math.isinf(value) else value
    if isinstance(value, dict):
        return {k: _old_json_safe(v, precision) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_old_json_safe(v, precision) for v in value]
    return value


def _old_render_json(doc, precision):
    return json.dumps(_old_json_safe(doc, precision), indent=2) + "\n"


def _old_csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _old_render_csv(rows, columns, tags=None):
    if not rows:
        return ""
    lines = []
    if tags:
        for key in columns:
            if key in tags:
                lines.append(f"# {key}: {tags[key]}")
        for key in sorted(set(tags) - set(columns)):
            lines.append(f"# {key}: {tags[key]}")
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for key in columns:
            cell = _old_csv_cell(row.get(key))
            if "," in cell or '"' in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class Verdict(str, enum.Enum):
    OK = "ok"
    ODD = 'a "quoted", \\ é\n'


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 10**20


class Hertz(float):
    pass


_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
     1.7976931348623157e308, -9.5e307, 0.1, 1e16, 123456789.123456789]
)
_FLOATS = _EDGE_FLOATS | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_STRINGS = st.text(max_size=12) | st.sampled_from(
    ['"', "\\", "\x00\x1f\n\t\r", "é ü ß", "  😀", "a,b", 'say "hi"', ""]
)
_SCALARS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    _FLOATS.map(Hertz),
    st.integers(-(10**30), 10**30),
    st.sampled_from(list(Level)),
    st.booleans(),
    st.none(),
    _STRINGS,
    st.sampled_from(list(Verdict)),
)
# a row's tags recur verbatim in every row, at the same or another depth
_TAGS = st.sampled_from([
    {"q": "q = 1 - Delta^2", "chi": "chi = 1/redshift_ratio"},
    {"x": 'X = 2 Re(alpha "conj" beta)', "é": "\\"},
])
_KEYS = _STRINGS | st.sampled_from(list(Verdict)) | st.integers(-5, 5) | _FLOATS | st.booleans() | st.none()
_DOCS = st.recursive(
    _SCALARS | _TAGS | st.just({}) | st.just([]) | st.just(()),
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=5)
    ),
    max_leaves=30,
)
_PRECISIONS = st.none() | st.integers(1, 17)


@given(_DOCS, _PRECISIONS)
@settings(max_examples=400, deadline=None)
def test_render_json_matches_json_dumps(doc, precision):
    assert render_json(doc, precision) == _old_render_json(doc, precision)


@pytest.mark.parametrize("precision", [None, *range(1, 18)])
def test_render_json_edge_floats_at_every_precision(precision):
    doc = {
        "rows": [
            {"v": v, "np": np.float64(v), "sub": Hertz(v), "tags": {"v": "value"}}
            for v in (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
                      -9.6e307, 2.5e-16, 0.1 + 0.2)
        ],
        "grid": (1.0, -0.0, None, True, False, 7, Level.HIGH, Verdict.ODD),
    }
    assert render_json(doc, precision) == _old_render_json(doc, precision)


# Floats at the edges of render_json's text path, which takes precisions up
# to 15 straight from format() when |v| >= 1e-300 or v is 0; the exponent
# decides whether format's notation is also repr's.
_NAMED_FLOATS = {
    "subnormals": [5e-324, -5e-324, 1e-310, -4.9406564584124654e-322,
                   2.225073858507201e-308, math.nextafter(2.2250738585072014e-308, 0.0)],
    "1e-300-boundary": [1e-300, -1e-300, math.nextafter(1e-300, 0.0), math.nextafter(1e-300, 1.0),
                        math.nextafter(-1e-300, 0.0), 1.00000000000049e-300],
    "exponents-11-to-16": [sign * m * 10.0**e for e in range(11, 17) for m in (1.0, 1.23456789012345)
                           for sign in (1.0, -1.0)],
    "rounds-to-a-power-of-ten": [9.9999999999995e15, -9.9999999999995e15, 9.99999999999995e14,
                                 999999999999.5, 9.9999999999995e-5, 9.99999999999999e15],
    "negative-zero": [-0.0, 0.0, [-0.0], {"z": -0.0}],
    # a peak_hz sweep's grid: texts like 2.34567890123e+14 at precision 12
    "peak-hz-column": [2e14 + 7e14 * i / 63 for i in range(64)],
    # texts that parse back past the largest float at some precisions
    "near-max-float": [1.7976931348623157e308, -1.7976931348623157e308, 1.79769313486e308,
                       math.nextafter(1.7976931348623157e308, 0.0), 1.7976931348623e308, 9.9e307],
    # equal keys with different texts, in one column of dicts
    "equal-keys": [{1: 1.0}, {True: 1.0}, {1.0: 1.0}, {0: -0.0}, {False: 0.0}, {-0.0: 0.0}, {0.0: 0.0}],
}


@pytest.mark.parametrize("name", sorted(_NAMED_FLOATS))
def test_render_json_named_edge_floats(name):
    values = _NAMED_FLOATS[name]
    for precision in (None, *range(1, 18)):
        assert render_json(values, precision) == _old_render_json(values, precision), precision


@pytest.mark.parametrize(
    "value, precision, text",
    [
        (9.9999999999995e15, 12, "1e+16"),  # rounds to exponent 16: repr's notation too
        (1.23456789012345e15, 12, "1234567890120000.0"),  # format: 1.23456789012e+15
        (1.23456789012345e11, 12, "123456789012.0"),  # fixed text with no point
        (1e11, 12, "100000000000.0"),
        (2.5e-16, 12, "2.5e-16"),
        (-0.0, 12, "-0.0"),
        (5e-324, 2, "5e-324"),  # format: 4.9e-324, which parses back to 5e-324
        (1e-300, 15, "1e-300"),
        (2.3456789012345e14, 12, "234567890123000.0"),  # format: 2.34567890123e+14
        ([1.7976931348623157e308, 1.0], 15, '[\n  null,\n  1.0\n]'),  # 1.79769313486232e+308
        ([1.7976931348623157e308, 1.0], 12, '[\n  1.79769313486e+308,\n  1.0\n]'),
    ],
)
def test_render_json_float_texts(value, precision, text):
    assert render_json(value, precision) == text + "\n"


@pytest.mark.parametrize(
    "doc",
    [{"a": [1.0, object()]}, [1.0 + 2.0j], {"k": np.float32(1.0)}, {(1, 2): 1.0}, {"n": 10**5000}],
    ids=["object", "complex", "float32", "tuple-key", "huge-int"],
)
def test_render_json_errors_are_json_errors(doc):
    with pytest.raises((TypeError, ValueError)) as old:
        _old_render_json(doc, 12)
    with pytest.raises(old.type, match="^" + re.escape(str(old.value)) + "$"):
        render_json(doc, 12)


_CELLS = _SCALARS | st.sampled_from(["1,2", '"', 'a "b"', ",", "x\ny"])
_COLUMNS = ["chi", "q", "note", "verdict", "missing"]


@given(
    st.lists(st.dictionaries(st.sampled_from(_COLUMNS[:4]), _CELLS), max_size=6),
    st.lists(st.sampled_from(_COLUMNS), min_size=1, max_size=5, unique=True),
    st.none() | st.dictionaries(st.sampled_from(_COLUMNS + ["extra"]), _STRINGS, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_render_csv_matches_the_cell_formatter(rows, columns, tags):
    assert render_csv(rows, columns, tags) == _old_render_csv(rows, columns, tags)


# Tables: what the column path of render_json and render_csv serves, and
# what _DOCS almost never draws.  Most rows share one key order, some keys
# hold "%", and each column draws from a small pool, so its cells repeat.
_POOL_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    1e-300, -1e-300, math.nextafter(1e-300, 0.0), math.nextafter(1e-300, 1.0),
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
    1.0, -3.0, 12.0, 1e15, 123456789012.0, 1.5e12, -1.23456789012345e13, 4.5e14,
    9.9999999999995e15, 0.1, 2.5e-16, 1.2345678901234567e-5,
]
_POOL_OTHERS = [
    0, -7, 10**20, True, False, None, "ok", "50%", 'say "hi"', "é",
    {"q": "q = 1 - Delta^2", "chi": "chi = 1/redshift_ratio"},
    {"chi": "chi = 1/redshift_ratio", "q": "q = 1 - Delta^2"},  # equal, other order
    {"%s": "%d", "x": "X = 2 Re(alpha conj(beta))"},
    {"x": 1.0, "v": 0.5},
    {},
]
_TABLE_FLOATS = st.sampled_from(_POOL_FLOATS) | st.floats(allow_subnormal=True)
_TABLE_KEYS = st.lists(
    st.sampled_from(["chi", "q", "%", "a%sb", "100%", "tags", "é", ""]),
    min_size=1, max_size=6, unique=True,
)


def _fresh(value):
    # a pooled dict is copied, so equal cells are not one object
    return dict(value) if type(value) is dict else value


@st.composite
def _tables(draw):
    keys = draw(_TABLE_KEYS)
    pools = {
        key: draw(st.lists(_TABLE_FLOATS if draw(st.booleans()) else
                           st.sampled_from(_POOL_FLOATS + _POOL_OTHERS), min_size=1, max_size=4))
        for key in keys
    }
    rows = []
    for _ in range(draw(st.integers(2, 40))):
        # now and then a row of another shape: keys reordered or one dropped
        shape = draw(st.sampled_from([keys] * 8 + [keys[::-1], keys[1:]]))
        rows.append({key: _fresh(draw(st.sampled_from(pools[key]))) for key in shape})
    return rows


_TABLES = _tables()


@given(_TABLES, st.lists(_TABLE_FLOATS, min_size=1, max_size=8), _PRECISIONS)
@settings(max_examples=400, deadline=None)
def test_render_json_tables_match_json_dumps(rows, grid, precision):
    doc = {"grid": grid, "rows": rows}
    assert render_json(doc, precision) == _old_render_json(doc, precision)
    assert render_json(rows, precision) == _old_render_json(rows, precision)


@given(_TABLES, st.none() | st.dictionaries(st.sampled_from(["chi", "q", "%", "extra"]), _STRINGS))
@settings(max_examples=200, deadline=None)
def test_render_csv_tables_match_the_cell_formatter(rows, tags):
    columns = [*rows[0], "missing"]
    assert render_csv(rows, columns, tags) == _old_render_csv(rows, columns, tags)


_SWEEP_POINTS = 3000
_STEPS = [i / (_SWEEP_POINTS - 1) for i in range(_SWEEP_POINTS)]
_SWEEP_GRIDS = {
    "receiver_radius_m": [6.5e6 + 3.35e7 * x for x in _STEPS],
    "width_hz": [1e4 * 1e4**x for x in _STEPS],
    "peak_hz": [2e14 + 7e14 * x for x in _STEPS],
    "q": _STEPS,
}


@pytest.mark.parametrize("parameter", sorted(_SWEEP_GRIDS))
def test_sweeps_past_the_row_block_match_the_oracles(parameter):
    assert _SWEEP_POINTS > 2 * _ROW_BLOCK
    config = parse_config({"body": "earth", "emitter": "ground", "receiver": "iss",
                           "source": "spdc_blue", "protocol": "entangle_qkd"})
    grid = _SWEEP_GRIDS[parameter]
    results = sweep(config, parameter, grid)
    doc = {"parameter": parameter, "grid": grid, "rows": [result_to_dict(r) for r in results]}
    for precision in (None, 12, 15):
        assert render_json(doc, precision) == _old_render_json(doc, precision), precision
    table = [{name: getattr(r, name) for name in RESULT_FIELDS} for r in results]
    tags = {key: tag for r in results for key, tag in r.tags.items()}
    columns = list(RESULT_FIELDS)
    assert render_csv(table, columns, tags) == _old_render_csv(table, columns, tags)
    # the CLI's rows: result_to_dict's
    rows = doc["rows"]
    assert render_csv(rows, columns, tags) == _old_render_csv(rows, columns, tags)


_PROTOCOLS = [
    {"kind": "single_photon"},
    {"kind": "coherent", "alpha": 1.5},
    {"kind": "tmss", "s": 0.8},
    {"kind": "entangle_qkd"},
    {"kind": "cv_homodyne", "alpha": 0.5, "beta": 30.0},
]


@pytest.fixture(scope="module")
def batch_results():
    """run_scenario results of every protocol kind, shuffled as a batch of
    independent runs interleaves them.  A quarter of the entangle_qkd
    runs carry a Monte Carlo, so their rows have two key orders (with and
    without extras)."""
    rng = random.Random(2021)
    results = []
    for i in range(2 * _ROW_BLOCK + 400):
        doc = {
            "body": "earth",
            "emitter": "ground",
            "receiver": {"radius_m": rng.uniform(6.5e6, 4e7), "motion": rng.choice(["static", "orbit"])},
            "source": rng.choice(["spdc_blue", "rb_vapor"]),
            "protocol": _PROTOCOLS[i % 5],
        }
        if i % 20 == 3:
            doc["monte_carlo"] = {"trials": 10_000, "seed": i}
        results.append(run_scenario(parse_config(doc)))
    rng.shuffle(results)
    return results


@pytest.fixture(scope="module")
def batch_rows(batch_results):
    return [result_to_dict(r) for r in batch_results]


def test_batch_rows_interleave_their_shapes(batch_rows):
    assert len({tuple(row) for row in batch_rows}) == 2
    blocks = [batch_rows[i:i + _ROW_BLOCK] for i in range(0, len(batch_rows), _ROW_BLOCK)]
    assert len(blocks) == 3 and all(len({"extras" in row for row in b}) == 2 for b in blocks)


@pytest.mark.parametrize("precision", [None, 12, 15, 17])
def test_batch_rows_match_json_dumps(batch_rows, precision):
    assert render_json(batch_rows, precision) == _old_render_json(batch_rows, precision)


def test_batch_rows_match_the_cell_formatter(batch_results, batch_rows):
    tags = {key: tag for r in batch_results for key, tag in r.tags.items()}
    columns = list(RESULT_FIELDS)
    assert render_csv(batch_rows, columns, tags) == _old_render_csv(batch_rows, columns, tags)
