"""Ten headline checks, one per promised capability.

Each test prints a PASS line with the measured numbers so a plain
`pytest -s tests/test_acceptance.py` reads as a checklist.
"""

from __future__ import annotations

import math
import time

import numpy as np

from gravlink import (
    Body,
    GaussianPacket,
    HomodynePrep,
    Observer,
    ShiftParameter,
    Sign,
    apply_beamsplitter,
    build_initial_state,
    coherent_fidelity,
    coordinate_travel_time,
    curvature_invariance_report,
    detect,
    memory_state_closed,
    negativity,
    overlap_gaussian_closed,
    overlap_quadrature,
    reference_table,
    qber_monte_carlo,
    radius_after,
    run_scenario,
    shift_parameter,
    single_photon_fidelity,
    tmss_fidelity,
)
from gravlink.entangleswap import AP, BP, CP, DP
from gravlink.scenario import parse_config

EARTH = Body(mass=5.972e24, radius=6_371_000.0)
GROUND = Observer(6_371_000.0)
ISS = Observer(6_771_000.0, "orbit")
FAR = Observer(math.inf)
Q_GRID = (0.0, 1e-3, 2.6e-3, 0.1, 0.5, 1.0)

# 50-digit value of |r_*(6771 km) - r_*(6371 km)|/c for the Earth preset
TRAVEL_REFERENCE = 0.0013342563825941988


def _best_of(fn, repeats=5):
    best = math.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _scenario(receiver="iss"):
    return parse_config(
        {
            "body": "earth",
            "emitter": "ground",
            "receiver": receiver,
            "source": "spdc_blue",
            "protocol": {"kind": "entangle_qkd"},
        }
    )


def _swapped(q):
    state = apply_beamsplitter(build_initial_state(q), AP, BP)
    return apply_beamsplitter(state, CP, DP)


def test_criterion_01_far_field_shift():
    shift_parameter(EARTH, GROUND, FAR)  # warm-up
    shift, elapsed = _best_of(lambda: shift_parameter(EARTH, GROUND, FAR))
    deviation = abs(shift.delta - 3.5e-10) / 3.5e-10
    assert deviation <= 0.03
    assert shift.sign is Sign.UP
    assert elapsed < 1e-3
    print(
        f"PASS criterion 1: far-field delta = {shift.delta:.4e}"
        f" ({100 * deviation:.2f}% from 3.5e-10, {1e6 * elapsed:.0f} us)"
    )


def test_criterion_02_leo_mismatch():
    config = _scenario()
    run_scenario(config)  # warm-up
    result, elapsed = _best_of(lambda: run_scenario(config))
    assert abs(result.q - 2.6e-3) / 2.6e-3 <= 0.10
    assert abs(result.delta - 1.45e-10) / 1.45e-10 <= 0.03
    row = next(r for r in reference_table() if r["quantity"] == "delta ground-to-orbit")
    assert row["verdict"] == "paper-inconsistent"
    assert elapsed < 1e-3
    print(
        f"PASS criterion 2: LEO q = {result.q:.4e} ({100 * abs(result.q - 2.6e-3) / 2.6e-3:.1f}%"
        f" from 2.6e-3), delta = {result.delta:.4e}, printed exponent flagged"
        f" ({1e6 * elapsed:.0f} us)"
    )


def test_criterion_03_far_field_protocol_figures():
    config = _scenario(receiver="far_field")
    run_scenario(config)  # warm-up
    result, elapsed = _best_of(lambda: run_scenario(config))
    assert abs(result.q - 1.5e-2) / 1.5e-2 <= 0.10
    ideal = 0.5 * math.sqrt(1.0 - result.q)
    assert abs(result.negativity - ideal) <= 1e-3
    correction = (0.5 - result.negativity) / 0.5
    assert 0.007 <= correction <= 0.008
    assert abs(result.qber - 0.0075) <= 0.001
    assert elapsed < 1e-3
    print(
        f"PASS criterion 3: far-field q = {result.q:.4e},"
        f" negativity = {result.negativity:.6f} ({100 * correction:.2f}% below 1/2),"
        f" QBER = {100 * result.qber:.3f}% ({1e6 * elapsed:.0f} us)"
    )


def test_criterion_04_overlap_oracle_equivalence():
    # the shift is snapped to the double-rounded scale factor k = 1 -+ delta
    # and the packet is dyadic, so closed form and quadrature see the exact
    # same pair of packets; cases span delta from 1e-12 to 1e-6, 1000 with
    # optical peaks and 3000 with peaks from 2^-1000 to 2^990 Hz, whose
    # widths reach the subnormal floats
    rng = np.random.default_rng(20250819)
    start = time.perf_counter()
    worst = 0.0
    for cases, peak_exponents in ((1000, (40, 53)), (3000, (-1000, 991))):
        for _ in range(cases):
            peak = float(2.0 ** rng.integers(*peak_exponents))
            width = peak / float(2.0 ** rng.integers(14, 34))
            raw = 10.0 ** rng.uniform(-12, -6)
            sign = Sign.UP if rng.random() < 0.5 else Sign.DOWN
            k = 1.0 - raw if sign is Sign.UP else 1.0 + raw
            delta = abs(k - 1.0)
            base = GaussianPacket(peak, width)
            closed = overlap_gaussian_closed(base, ShiftParameter(delta, sign))
            quad = overlap_quadrature(base, GaussianPacket(k * peak, k * width))
            worst = max(worst, abs(quad.delta - closed.delta))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 10.0
    print(
        f"PASS criterion 4: closed vs quadrature, 4000 cases,"
        f" worst |diff| = {worst:.2e} ({elapsed:.2f} s)"
    )


def test_criterion_05_protocol_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for q in Q_GRID:
        state = _swapped(q)
        total = 0.0
        for which in ("D1", "D2"):
            outcome = detect(state, which)
            total += outcome.probability
            assert abs(outcome.probability - 0.25) <= 1e-12
            gap = np.max(np.abs(outcome.memory_state - memory_state_closed(q, which)))
            worst = max(worst, float(gap))
        assert abs(total - 0.5) <= 1e-12
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(
        f"PASS criterion 5: six-mode simulation vs closed memory state,"
        f" worst elementwise |diff| = {worst:.2e}, clicks 1/4 each ({elapsed:.3f} s)"
    )


def test_criterion_06_negativity_identity():
    worst = 0.0
    for q in Q_GRID:
        state = _swapped(q)
        for which in ("D1", "D2"):
            rho = detect(state, which).memory_state
            gap = abs(negativity(rho) - 0.5 * math.sqrt(1.0 - q))
            worst = max(worst, gap)
    assert worst <= 1e-10
    print(
        f"PASS criterion 6: eigen-negativity of simulated states vs sqrt(1-q)/2,"
        f" worst |diff| = {worst:.2e}"
    )


def test_criterion_07_qber_stochastic_check():
    trials = 1_000_000
    start = time.perf_counter()
    estimate = qber_monte_carlo(0.1, trials=trials, seed=20250819)
    elapsed = time.perf_counter() - start
    expected = 0.05
    sigma = math.sqrt(expected * (1.0 - expected) / trials)
    assert abs(estimate - expected) <= 3.0 * sigma
    assert elapsed < 5.0
    print(
        f"PASS criterion 7: Monte Carlo QBER = {estimate:.5f},"
        f" |diff| = {abs(estimate - expected) / sigma:.2f} sigma ({elapsed:.2f} s)"
    )


def test_criterion_08_fidelity_endpoints():
    assert single_photon_fidelity(1.0) == 1.0
    assert coherent_fidelity(1.0, 2.5) == 1.0
    assert tmss_fidelity(1.0, 5.0) == 1.0
    grid = [0.5 * i for i in range(21)]
    values = [tmss_fidelity(0.999, s) for s in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3
    print(
        f"PASS criterion 8: all fidelities exactly 1 at Delta = 1; TMSS strictly"
        f" decreasing with F(s=10) = {values[-1]:.2e}"
    )


def test_criterion_09_cv_invariance():
    scenarios = [
        (Body(mass=0.0, radius=6_371_000.0), GROUND, Observer(6_771_000.0)),
        (EARTH, GROUND, ISS),
        (EARTH, GROUND, FAR),
    ]
    rows = curvature_invariance_report(HomodynePrep(alpha=0.5, beta=90.0), scenarios,
                                       packet=GaussianPacket(700e12, 1e6))
    assert all(row["pass"] for row in rows)
    assert len({(row["x"], row["v"]) for row in rows}) == 1
    worst = max(abs(row["overlap"] - 1.0) for row in rows)
    assert worst <= 1e-12
    print(
        f"PASS criterion 9: X = {rows[0]['x']}, V = {rows[0]['v']} identical over"
        f" flat/LEO/far-field, worst |overlap - 1| = {worst:.2e}"
    )


def test_criterion_10_propagation_timing():
    t = coordinate_travel_time(EARTH, 6_371_000.0, 6_771_000.0)
    assert abs(t - TRAVEL_REFERENCE) / TRAVEL_REFERENCE <= 1e-8
    assert f"{t * 1e3:.6g}" == "1.33426"
    flat = 400_000.0 / 299_792_458.0
    excess = t - flat
    closed = EARTH.schwarzschild_radius * math.log(6_771_000.0 / 6_371_000.0) / 299_792_458.0
    assert abs(excess - closed) / closed <= 0.01
    inverted = radius_after(EARTH, 6_371_000.0, t)
    assert abs(inverted - 6_771_000.0) <= 1e-6
    print(
        f"PASS criterion 10: travel time = {t * 1e3:.6g} ms, curved excess"
        f" = {excess:.3e} s vs r_s ln(r_B/r_A)/c ({100 * abs(excess - closed) / closed:.4f}%"
        f" apart), inverted radius off by {abs(inverted - 6_771_000.0):.2e} m"
    )
