"""Homodyne readout and its indifference to where the link runs."""

import math

import pytest

from gravlink import (
    Body,
    GaussianPacket,
    HomodynePrep,
    Observer,
    curvature_invariance_report,
    homodyne_expectation,
)

EARTH = Body(mass=5.972e24, radius=6_371_000.0)
FLAT = Body(mass=0.0, radius=6_371_000.0)
GROUND = Observer(6_371_000.0)
ISS = Observer(6_771_000.0, "orbit")
FAR = Observer(math.inf)

SPDC = GaussianPacket(700e12, 1e6)

TRIO = [(FLAT, GROUND, Observer(6_771_000.0)), (EARTH, GROUND, ISS), (EARTH, GROUND, FAR)]


def test_strong_lo_point():
    res = homodyne_expectation(HomodynePrep(alpha=1.0, beta=100.0))
    assert res["x"] == 200.0
    assert res["v"] == 20_000.0
    assert res["exact_v"] == 20_002.0


def test_vacuum_signal():
    res = homodyne_expectation(HomodynePrep(alpha=0.0, beta=7.0))
    assert res["x"] == 0.0
    assert res["v"] == 98.0


def test_imaginary_signal_reads_zero():
    res = homodyne_expectation(HomodynePrep(alpha=0.5j, beta=40.0))
    assert res["x"] == 0.0


def test_lo_phase_rotates_onto_the_signal():
    res = homodyne_expectation(HomodynePrep(alpha=0.5j, beta=90.0j))
    assert res["x"] == pytest.approx(90.0, rel=1e-15)


def test_lo_dominance_threshold():
    at = homodyne_expectation(HomodynePrep(alpha=1.0, beta=10.0))
    assert at["v"] == 200.0  # boundary counts as dominant
    below = homodyne_expectation(HomodynePrep(alpha=1.0, beta=9.99))
    assert below["v"] == below["exact_v"]


def test_no_lo_at_all():
    res = homodyne_expectation(HomodynePrep(alpha=2.0, beta=0.0))
    assert res["x"] == 0.0
    assert res["v"] == res["exact_v"] == 8.0


def test_x_is_linear():
    base = homodyne_expectation(HomodynePrep(alpha=0.3, beta=50.0))["x"]
    assert homodyne_expectation(HomodynePrep(alpha=0.6, beta=50.0))["x"] == pytest.approx(
        2.0 * base, rel=1e-15
    )
    assert homodyne_expectation(HomodynePrep(alpha=0.3, beta=100.0))["x"] == pytest.approx(
        2.0 * base, rel=1e-15
    )


def test_v_ignores_signal_phase():
    a = homodyne_expectation(HomodynePrep(alpha=0.4, beta=90.0))
    b = homodyne_expectation(HomodynePrep(alpha=0.4j, beta=90.0))
    c = homodyne_expectation(HomodynePrep(alpha=0.4 * complex(math.cos(1.1), math.sin(1.1)), beta=90.0))
    assert a["v"] == b["v"] == c["v"]
    assert a["exact_v"] == pytest.approx(b["exact_v"], rel=1e-15)


def test_huge_amplitudes_overflow_to_infinity():
    # |beta|^2 and |alpha|^2 overflow a float from ~1.3e154 on
    res = homodyne_expectation(HomodynePrep(alpha=1e200, beta=1e200))
    assert res["x"] == res["v"] == res["exact_v"] == math.inf
    res = homodyne_expectation(HomodynePrep(alpha=1e200, beta=1.0))
    assert res["x"] == 2e200
    assert res["v"] == res["exact_v"] == math.inf


def test_prep_validation():
    with pytest.raises(ValueError):
        HomodynePrep(alpha=math.inf, beta=1.0)
    with pytest.raises(ValueError):
        HomodynePrep(alpha=0.0, beta=complex(math.nan, 0.0))


def test_invariance_across_scenarios():
    rows = curvature_invariance_report(HomodynePrep(alpha=0.5, beta=90.0), TRIO, packet=SPDC)
    assert [row["scenario"] for row in rows] == [0, 1, 2]
    assert all(row["pass"] for row in rows)
    assert len({(row["x"], row["v"]) for row in rows}) == 1
    assert rows[0]["x"] == 90.0
    assert rows[0]["v"] == 16_200.0
    for row in rows:
        assert abs(row["overlap"] - 1.0) <= 1e-12
    assert rows[0]["chi"] == 1.0
    assert rows[1]["chi"] < 1.0 < rows[2]["chi"]


def test_invariance_with_other_sources():
    prep = HomodynePrep(alpha=1.5, beta=200.0)
    rows = curvature_invariance_report(prep, TRIO, packet=GaussianPacket(380e12, 5e6))
    assert all(row["pass"] for row in rows)
    assert len({(row["x"], row["v"]) for row in rows}) == 1


def test_nan_quadrature_passes_on_the_overlap_alone():
    # alpha conj(beta) = 1e600 - 1e600 + ...: X is NaN on every link, and
    # the flag rests on the overlap, not on comparing X with a first row;
    # the links are cv-homodyne's three
    prep = HomodynePrep(alpha=1e300 + 1e300j, beta=1e300 - 1e300j)
    links = [(FLAT, GROUND, ISS), (EARTH, GROUND, ISS), (EARTH, GROUND, FAR)]
    rows = curvature_invariance_report(prep, links, packet=SPDC)
    for row in rows:
        assert abs(row["overlap"] - 1.0) <= 1e-12
        assert math.isnan(row["x"])
        assert row["v"] == math.inf
        assert row["pass"]


def test_mismatched_lo_is_refused():
    rows = curvature_invariance_report(
        HomodynePrep(alpha=0.5, beta=90.0),
        TRIO,
        packet=SPDC,
        lo_packet=GaussianPacket(700.00001e12, 1e6),
    )
    for row in rows:
        assert row["overlap"] < 1.0 - 1e-6
        assert row["x"] is None
        assert row["v"] is None
        assert not row["pass"]


def test_empty_scenario_list():
    assert curvature_invariance_report(HomodynePrep(alpha=0.5, beta=90.0), [], packet=SPDC) == []
