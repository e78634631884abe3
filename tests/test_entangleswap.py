"""Photonic swap protocol: the sparse Fock simulation against the closed
forms it is supposed to certify."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gravlink import (
    FockVector,
    apply_beamsplitter,
    bit_probabilities,
    build_initial_state,
    detect,
    memory_state_closed,
    negativity,
    negativity_closed,
    qber_closed,
    qber_monte_carlo,
)
from gravlink.entangleswap import AP, BP, CP, DP, _bell_states

Q_GRID = [0.0, 1e-3, 2.6e-3, 0.0147, 0.1, 0.5, 1.0]
Q_FAR = 0.014730268968542607


def _swapped(q: float) -> FockVector:
    state = build_initial_state(q)
    state = apply_beamsplitter(state, AP, BP)
    return apply_beamsplitter(state, CP, DP)


def test_initial_state_amplitudes():
    q = 0.3
    state = build_initial_state(q)
    sq, sp = math.sqrt(q), math.sqrt(1.0 - q)
    assert state.amplitudes[(1, 1, 0, 0, 0, 0)] == 0.5
    assert state.amplitudes[(0, 1, 1, 0, 0, 0)] == 0.5
    assert state.amplitudes[(1, 0, 0, 1, 0, 0)] == pytest.approx(0.5 * sp)
    assert state.amplitudes[(1, 0, 0, 0, 1, 0)] == pytest.approx(0.5 * sq)
    assert state.amplitudes[(0, 0, 1, 1, 0, 0)] == pytest.approx(0.5 * sp)
    assert state.amplitudes[(0, 0, 1, 0, 1, 0)] == pytest.approx(0.5 * sq)
    assert len(state) == 6


def test_initial_state_drops_zero_terms():
    assert len(build_initial_state(0.0)) == 4
    assert len(build_initial_state(1.0)) == 4


@pytest.mark.parametrize("q", Q_GRID)
def test_norm_preserved_through_the_splitters(q):
    assert _swapped(q).norm() == pytest.approx(1.0, abs=1e-14)


def test_single_photon_split():
    out = apply_beamsplitter(FockVector({(0, 0, 1, 0, 0, 0): 1.0}), AP, BP)
    r = 1.0 / math.sqrt(2.0)
    assert out.amplitudes[(0, 0, 1, 0, 0, 0)] == pytest.approx(r)
    assert out.amplitudes[(0, 0, 0, 1, 0, 0)] == pytest.approx(r)
    out = apply_beamsplitter(FockVector({(0, 0, 0, 1, 0, 0): 1.0}), AP, BP)
    assert out.amplitudes[(0, 0, 1, 0, 0, 0)] == pytest.approx(r)
    assert out.amplitudes[(0, 0, 0, 1, 0, 0)] == pytest.approx(-r)


def test_two_photon_interference_has_no_coincidence():
    out = apply_beamsplitter(FockVector({(0, 0, 1, 1, 0, 0): 1.0}), AP, BP)
    assert (0, 0, 1, 1, 0, 0) not in out.amplitudes
    r = 1.0 / math.sqrt(2.0)
    assert out.amplitudes[(0, 0, 2, 0, 0, 0)] == pytest.approx(r)
    assert out.amplitudes[(0, 0, 0, 2, 0, 0)] == pytest.approx(-r)


def test_beamsplitter_is_an_involution():
    state = _swapped(0.37)
    twice = apply_beamsplitter(apply_beamsplitter(state, CP, DP), CP, DP)
    assert len(twice) == len(state)
    for key, amp in state.amplitudes.items():
        assert twice.amplitudes[key] == pytest.approx(amp, abs=1e-14)


def test_beamsplitter_validation():
    state = build_initial_state(0.1)
    with pytest.raises(ValueError, match=rf"^mode_y: must differ from mode_x, got {AP}$"):
        apply_beamsplitter(state, AP, AP)
    with pytest.raises(ValueError, match=r"^mode_y: must lie in 0\.\.5, got 6$"):
        apply_beamsplitter(state, AP, 6)
    with pytest.raises(ValueError, match=r"^mode_x: must lie in 0\.\.5, got -1$"):
        apply_beamsplitter(state, -1, AP)


def test_fock_vector_validation():
    with pytest.raises(ValueError):
        FockVector({(1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        FockVector({(3, 0, 0, 0, 0, 0): 1.0})
    with pytest.raises(ValueError):
        FockVector({(1, 1, 1, 0, 0, 0): 1.0})


@pytest.mark.parametrize("q", Q_GRID)
def test_click_probabilities_are_a_quarter_each(q):
    state = _swapped(q)
    p1 = detect(state, "D1").probability
    p2 = detect(state, "D2").probability
    assert p1 == pytest.approx(0.25, abs=1e-12)
    assert p2 == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("which", ["D1", "D2"])
def test_simulated_memory_state_matches_closed_form(q, which):
    outcome = detect(_swapped(q), which)
    rho = outcome.memory_state
    assert rho is not None
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-13
    closed = memory_state_closed(q, which)
    assert np.max(np.abs(rho - closed)) <= 1e-12


def test_detector_labels_mirror_each_other():
    rho1 = detect(_swapped(0.2), "D1").memory_state
    rho2 = detect(_swapped(0.2), "D2").memory_state
    # same diagonal, opposite coherence between |01> and |10>
    assert np.allclose(np.diag(rho1), np.diag(rho2), atol=1e-13)
    assert rho1[1, 2] == pytest.approx(-rho2[1, 2], abs=1e-13)


def test_detect_validation():
    with pytest.raises(ValueError, match=r"^which: must be 'D1' or 'D2', got 'D3'$"):
        detect(_swapped(0.1), "D3")
    empty = FockVector({(1, 1, 0, 0, 0, 0): 1.0})  # no optical photon at all
    assert detect(empty, "D1").probability == 0.0
    assert detect(empty, "D1").memory_state is None


def test_closed_memory_state_endpoints():
    psi_plus, psi_minus = _bell_states()[:2]
    pure = memory_state_closed(0.0, "D1")
    assert np.allclose(pure, np.outer(psi_plus, psi_plus), atol=1e-15)
    dephased = memory_state_closed(1.0, "D1")
    expected = 0.5 * (np.outer(psi_plus, psi_plus) + np.outer(psi_minus, psi_minus))
    assert np.allclose(dephased, expected, atol=1e-15)


@pytest.mark.parametrize("q", Q_GRID)
def test_negativity_identity(q):
    rho = memory_state_closed(q, "D1")
    assert negativity(rho) == pytest.approx(negativity_closed(q), abs=1e-10)
    assert negativity_closed(q) == 0.5 * math.sqrt(1.0 - q)


def test_negativity_far_field_point():
    assert negativity_closed(Q_FAR) == pytest.approx(0.49630377064643016, rel=1e-13)
    # the protocol keeps ~99.3% of the ideal Bell-state negativity
    assert 0.5 - negativity_closed(Q_FAR) == pytest.approx(0.0036962, rel=1e-3)


def test_negativity_reference_states():
    psi_plus = _bell_states()[0]
    bell = np.outer(psi_plus, psi_plus)
    assert negativity(bell) == pytest.approx(0.5, abs=1e-12)
    separable = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    assert negativity(separable) == 0.0


def test_negativity_validation():
    with pytest.raises(ValueError, match=r"^rho: must be a 4x4 density matrix, got shape \(3, 3\)$"):
        negativity(np.eye(3))
    skewed = np.eye(4, dtype=complex)
    skewed[0, 1] = 1e-3
    with pytest.raises(ValueError, match=r"^rho: must be Hermitian within 1e-10$"):
        negativity(skewed)


@pytest.mark.parametrize("q", Q_GRID)
def test_bit_probabilities(q):
    share, diff = bit_probabilities(q)
    assert share + diff == pytest.approx(1.0, abs=1e-15)
    assert diff == qber_closed(q)
    r = math.sqrt(1.0 - q)
    literal = ((1.0 + r) ** 2 + (1.0 - r) ** 2) / 4.0
    assert share == pytest.approx(literal, abs=1e-15)


def test_qber_far_field_point():
    assert qber_closed(Q_FAR) == pytest.approx(0.0073651344842713034, rel=1e-13)


def test_monte_carlo_is_deterministic():
    a = qber_monte_carlo(0.1, trials=50_000, seed=42)
    b = qber_monte_carlo(0.1, trials=50_000, seed=42)
    assert a == b
    assert a != qber_monte_carlo(0.1, trials=50_000, seed=43)


def test_monte_carlo_brackets_closed_form():
    trials = 200_000
    est = qber_monte_carlo(0.1, trials=trials, seed=20240817)
    expected = qber_closed(0.1)
    sigma = math.sqrt(expected * (1.0 - expected) / trials)
    assert abs(est - expected) <= 3.0 * sigma


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        qber_monte_carlo(0.1, trials=100, seed=1)
    with pytest.raises(ValueError):
        qber_monte_carlo(1.5, trials=50_000, seed=1)
    with pytest.raises(ValueError):
        build_initial_state(-0.1)
    with pytest.raises(ValueError):
        memory_state_closed(0.1, "D5")
