"""render_json and render_csv against the straightforward renderers they
replace: json.dumps(indent=2) of a rounded copy of the document, and one
cell formatter with a quote scan per cell.  Every document hypothesis
draws must render to the same bytes both ways."""

from __future__ import annotations

import enum
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravlink.scenario import render_csv, render_json


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
