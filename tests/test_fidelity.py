"""Protocol fidelities as functions of the mode overlap."""

import math

import pytest

from gravlink import OverlapResult, coherent_fidelity, entangleswap, single_photon_fidelity, tmss_fidelity

D_LEO = 0.998745047833346
D_FAR = 0.9926075412928603


def test_perfect_overlap_is_exactly_one():
    assert single_photon_fidelity(1.0) == 1.0
    assert coherent_fidelity(1.0, 3.7) == 1.0
    assert tmss_fidelity(1.0, 7.0) == 1.0


def test_single_photon_is_overlap_squared():
    assert single_photon_fidelity(D_FAR) == pytest.approx(0.9852697310314574, rel=1e-14)
    assert single_photon_fidelity(0.5) == 0.25
    assert single_photon_fidelity(0.0) == 0.0


def test_single_photon_complex_overlap():
    assert single_photon_fidelity(0.6 + 0.8j) == pytest.approx(1.0, rel=1e-15)
    assert single_photon_fidelity(0.5j) == pytest.approx(0.25, rel=1e-15)


def test_coherent_closed_form():
    # 2 |alpha|^2 (1 - Delta) = 0.26 for alpha = sqrt(13), Delta = 0.99
    assert coherent_fidelity(0.99, math.sqrt(13.0)) == pytest.approx(
        math.exp(-0.26), rel=1e-14
    )


def test_coherent_against_mode_decomposition_series():
    # independent route: split the received mode on the expected mode and
    # its orthogonal complement, overlap the two-mode coherent states via
    # the Fock series; 50-digit sum frozen below
    assert coherent_fidelity(0.92, 1.3) == pytest.approx(
        0.76307420360133618, rel=1e-13
    )


def test_coherent_vacuum_is_insensitive():
    assert coherent_fidelity(0.3, 0.0) == 1.0


@pytest.mark.parametrize("alpha", [1e154, 1.4e154, 1e200, -1e300, complex(0.0, 1e300)])
def test_coherent_huge_amplitude(alpha):
    # |alpha|^2 overflows a float from ~1.3e154 on
    assert coherent_fidelity(1.0, alpha) == 1.0
    assert coherent_fidelity(1.0 - 1e-16, alpha) == 0.0
    assert coherent_fidelity(D_FAR, alpha) == 0.0


def test_coherent_only_real_part_matters():
    assert coherent_fidelity(0.5 + 0.4j, 2.0) == coherent_fidelity(0.5 - 0.4j, 2.0)
    assert coherent_fidelity(0.5 + 0.4j, 2.0) == pytest.approx(
        math.exp(-2.0 * 4.0 * 0.5), rel=1e-14
    )


def test_coherent_decays_with_photon_number():
    values = [coherent_fidelity(D_FAR, a) for a in (0.0, 1.0, 3.0, 10.0, 30.0)]
    assert values[0] == 1.0
    assert all(a > b for a, b in zip(values, values[1:]))


def test_tmss_no_squeezing_is_exactly_one():
    assert tmss_fidelity(0.37, 0.0) == 1.0
    assert tmss_fidelity(D_LEO, 0.0) == 1.0


@pytest.mark.parametrize(
    "delta, s, expected",
    [
        (0.999, 10.0, 6.7972547825551615e-11),
        (0.999, 25.0, 5.9521215616333270e-37),
        (0.5, 100.0, 1.2257085418969636e-172),
        (0.998745047833346, 1.0, 0.99654256782008919),
        (0.9926075412928603, 3.0, 0.32957786537167489),
    ],
)
def test_tmss_against_50_digit_reference(delta, s, expected):
    assert tmss_fidelity(delta, s) == pytest.approx(expected, rel=1e-12)


def test_tmss_log_branch_is_continuous():
    below = tmss_fidelity(0.999, 19.999999)
    above = tmss_fidelity(0.999, 20.000001)
    assert above == pytest.approx(below, rel=1e-5)
    assert above < below


def test_tmss_strictly_decreasing_in_squeezing():
    grid = [0.5 * i for i in range(41)]
    values = [tmss_fidelity(0.999, s) for s in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[20] < 1e-3  # s = 10 already kills the fidelity


def test_tmss_extreme_squeezing_underflows_cleanly():
    assert tmss_fidelity(0.5, 400.0) == 0.0


def test_validation():
    with pytest.raises(ValueError):
        tmss_fidelity(0.9, -1.0)
    for fn in (single_photon_fidelity, lambda d: coherent_fidelity(d, 1.0),
               lambda d: tmss_fidelity(d, 1.0)):
        with pytest.raises(ValueError):
            fn(1.0 + 1e-6)


@pytest.mark.parametrize(
    "call",
    [
        entangleswap.build_initial_state,
        lambda q: entangleswap.memory_state_closed(q, "D1"),
        entangleswap.negativity_closed,
        entangleswap.bit_probabilities,
        entangleswap.qber_closed,
        lambda q: entangleswap.qber_monte_carlo(q, 20_000, 1),
        lambda q: OverlapResult(delta=0.5, q=q),
    ],
    ids=["build_initial_state", "memory_state_closed", "negativity_closed", "bit_probabilities",
         "qber_closed", "qber_monte_carlo", "OverlapResult"],
)
@pytest.mark.parametrize("q", [-0.1, 1.5, math.nan])
def test_every_q_route_gives_the_one_message(call, q):
    with pytest.raises(ValueError, match=rf"^q: must lie in \[0, 1\], got {q}$"):
        call(q)
