"""Entanglement swapping over a curved link, simulated exactly.

Two stations each hold a memory entangled with a photon; the photons
meet on a balanced beam splitter pair and a single click heralds the
swap.  Gravitational mode mismatch leaks a fraction q of one photon's
amplitude into an orthogonal spectral mode, which dephases the heralded
memory state.  This module carries both routes to every result: a
six-mode Fock simulation (modes a, b, a', b', c', d', at most two
photons total, so occupancy <= 2 is exact truncation) and the closed
forms it must reproduce.

Mode slots, in order: a and b are the two memories' photon twins kept
local; a' and b' fly to the midpoint; c' is the orthogonal spectral
mode carrying the leaked sqrt(q) amplitude on the distorted arm; d' is
its partner on the other arm and stays in vacuum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .fidelity import _check_q

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "A",
    "B",
    "AP",
    "BP",
    "CP",
    "DP",
    "N_MODES",
    "FockVector",
    "ClickOutcome",
    "build_initial_state",
    "apply_beamsplitter",
    "detect",
    "memory_state_closed",
    "negativity",
    "negativity_closed",
    "bit_probabilities",
    "qber_closed",
    "qber_monte_carlo",
]

A, B, AP, BP, CP, DP = range(6)
N_MODES = 6
_MAX_OCC = 2


# numpy is imported only where an array is built, so the closed forms run
# without it; the Bell states are built on first use
@functools.cache
def _bell_states() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Psi+ and Psi- in the memory basis |n_a n_b> ordered 00, 01, 10, 11,
    then their projectors."""
    import numpy as np

    plus = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    minus = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return plus, minus, np.outer(plus, plus), np.outer(minus, minus)


class FockVector:
    """Sparse state over six bosonic modes, occupancy 0..2 per mode.

    Amplitudes live in a dict keyed by occupation tuples; exact zeros
    are dropped.  The protocol never holds more than two photons, so
    the occupancy cap loses nothing.  It is the one occupancy check:
    apply_beamsplitter and detect rely on it and make none of their own.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: dict[tuple[int, ...], complex]):
        clean: dict[tuple[int, ...], complex] = {}
        for key, amp in amplitudes.items():
            if len(key) != N_MODES:
                raise ValueError(f"occupation tuple must have {N_MODES} entries: {key}")
            if any(not (0 <= n <= _MAX_OCC) for n in key):
                raise ValueError(f"occupancy outside 0..{_MAX_OCC}: {key}")
            if sum(key) > _MAX_OCC:
                raise ValueError(f"more than {_MAX_OCC} photons in {key}")
            amp = complex(amp)
            if amp != 0.0:
                clean[tuple(key)] = amp
        self.amplitudes = clean

    def __len__(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True)
class ClickOutcome:
    """Result of projecting on one detector: which of D1/D2 fired, with
    what probability, and the heralded two-memory density matrix.

    memory_state is None when the branch has zero probability (there is
    no state to normalize then)."""

    which: str
    probability: float
    memory_state: np.ndarray | None


def build_initial_state(q: float) -> FockVector:
    """Two memory-photon pairs with mismatch weight q on the distorted arm.

    The station whose photon crossed the potential difference delivers
    sqrt(1-q) of its amplitude in the expected mode b' and sqrt(q) in
    the orthogonal mode c'; the local arm feeds a' directly and d'
    stays empty:

        (|1>_a |0>_a' + |0>_a |1>_a') / sqrt(2)
          (x) (|1>_b |0> + |0>_b (sqrt(1-q) b'+ + sqrt(q) c'+) |0>) / sqrt(2)
    """
    sq = math.sqrt(_check_q(q))
    sp = math.sqrt(1.0 - q)
    half = 0.5
    return FockVector(
        {
            (1, 1, 0, 0, 0, 0): half,
            (0, 1, 1, 0, 0, 0): half,
            (1, 0, 0, 1, 0, 0): half * sp,
            (1, 0, 0, 0, 1, 0): half * sq,
            (0, 0, 1, 1, 0, 0): half * sp,
            (0, 0, 1, 0, 1, 0): half * sq,
        }
    )


def apply_beamsplitter(state: FockVector, mode_x: int, mode_y: int) -> FockVector:
    """Balanced beam splitter between two mode slots.

    Creation operators map as x+ -> (x+ + y+)/sqrt(2) and
    y+ -> (x+ - y+)/sqrt(2); a two-photon input |1,1> interferes to
    (|2,0> - |0,2>)/sqrt(2) with nothing on |1,1>.  Norm is preserved
    exactly up to float rounding.
    """
    if mode_x == mode_y:
        raise ValueError(f"mode_y: must differ from mode_x, got {mode_y}")
    for name, m in (("mode_x", mode_x), ("mode_y", mode_y)):
        if not (0 <= m < N_MODES):
            raise ValueError(f"{name}: must lie in 0..{N_MODES - 1}, got {m}")
    out: dict[tuple[int, ...], complex] = {}
    for key, amp in state.amplitudes.items():
        m, n = key[mode_x], key[mode_y]
        scale = amp * 2.0 ** (-(m + n) / 2.0) / math.sqrt(math.factorial(m) * math.factorial(n))
        for p in range(m + 1):
            for r in range(n + 1):
                n_up = p + r
                n_dn = m + n - n_up
                coeff = (
                    scale
                    * math.comb(m, p)
                    * math.comb(n, r)
                    * (-1.0) ** (n - r)
                    * math.sqrt(math.factorial(n_up) * math.factorial(n_dn))
                )
                new = list(key)
                new[mode_x] = n_up
                new[mode_y] = n_dn
                tup = tuple(new)
                acc = out.get(tup, 0.0) + coeff
                if acc == 0.0:
                    out.pop(tup, None)
                else:
                    out[tup] = acc
    return FockVector(out)


def _click_mask(which: str) -> tuple[tuple[int, int], tuple[int, int]]:
    if which == "D1":
        return (AP, CP), (BP, DP)
    if which == "D2":
        return (BP, DP), (AP, CP)
    raise ValueError(f"which: must be 'D1' or 'D2', got {which!r}")


def detect(state: FockVector, which: str) -> ClickOutcome:
    """Project on a single click at detector D1 or D2.

    A D1 click means exactly one photon total in the detector's path
    pair (the a' and c' output slots) and vacuum in the complementary
    pair; D2 is the mirror image.  Two-photon arrivals are excluded by
    number resolution, so Hong-Ou-Mandel double events never leak in.
    Returns the click probability and the heralded memory state (the
    optical modes traced out and the remainder renormalized).
    """
    import numpy as np

    hit, empty = _click_mask(which)
    rho = np.zeros((4, 4), dtype=complex)
    prob = 0.0
    for key, amp in state.amplitudes.items():
        if key[hit[0]] + key[hit[1]] != 1:
            continue
        if key[empty[0]] != 0 or key[empty[1]] != 0:
            continue
        prob += abs(amp) ** 2
        i = 2 * key[A] + key[B]
        optical = key[2:]
        for key2, amp2 in state.amplitudes.items():
            if key2[2:] != optical:
                continue
            j = 2 * key2[A] + key2[B]
            rho[i, j] += amp * np.conj(amp2)
    if prob <= 0.0:
        return ClickOutcome(which=which, probability=0.0, memory_state=None)
    return ClickOutcome(which=which, probability=prob, memory_state=rho / prob)


def memory_state_closed(q: float, which: str) -> np.ndarray:
    """Closed-form heralded memory state.

    rho = ((1 +- sqrt(1-q)) P+ + (1 -+ sqrt(1-q)) P-) / 2, upper signs
    for D1.  At q = 0 the click projects onto a pure Bell state; at
    q = 1 it leaves the fully dephased Bell mixture.
    """
    _check_q(q)
    _click_mask(which)  # validates the detector label
    r = math.sqrt(1.0 - q)
    p_plus, p_minus = _bell_states()[2:]
    if which == "D1":
        return 0.5 * ((1.0 + r) * p_plus + (1.0 - r) * p_minus)
    return 0.5 * ((1.0 - r) * p_plus + (1.0 + r) * p_minus)


def negativity(rho: np.ndarray) -> float:
    """Entanglement negativity from the partial transpose.

    Transposes the second memory's indices, takes eigenvalues of the
    (still Hermitian) result and returns the total weight of the
    negative ones; 1/2 for a Bell state, 0 for separable states.
    """
    import numpy as np

    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"rho: must be a 4x4 density matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("rho: must be Hermitian within 1e-10")
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    eigs = np.linalg.eigvalsh(pt)
    return float(max(0.0, -eigs[eigs < 0.0].sum()))


def negativity_closed(q: float) -> float:
    """N = sqrt(1-q)/2 for the heralded memory state at mismatch q."""
    return 0.5 * math.sqrt(1.0 - _check_q(q))


def bit_probabilities(q: float) -> tuple[float, float]:
    """(p_share, p_diff): probabilities that a heralded memory pair gives
    Alice and Bob the same or opposite key bit.

    p_share = ((1 + sqrt(1-q))^2 + (1 - sqrt(1-q))^2)/4 = (2 - q)/2 and
    p_diff = q/2; they always sum to one.
    """
    _check_q(q)
    return (2.0 - q) / 2.0, q / 2.0


def qber_closed(q: float) -> float:
    """QBER = q/2: wrong sifted bits over all sifted bits."""
    return bit_probabilities(q)[1]


# qber_monte_carlo's trial range: fewer give no meaningful rate, and the
# sampler runs at 6-10 ns per trial (2-core Xeon VM), so the most is about a second
_MIN_TRIALS = 10_000
_MAX_TRIALS = 10**8
_CHUNK = 10**6  # trials per chunk: the draw order, and so every estimate, depends on it
_BLOCK = 1 << 14  # doubles per buffer fill: 128 KiB, about an L2 cache


def _check_trials(trials) -> int:
    """trials, an int or a whole float, checked against its domain, as an int."""
    if not (trials >= _MIN_TRIALS and trials % 1 == 0):  # inf % 1 is NaN
        raise ValueError(f"trials: must be an integer >= {_MIN_TRIALS}, got {trials!r}")
    if trials > _MAX_TRIALS:
        raise ValueError(f"trials: must be <= {_MAX_TRIALS}, got {trials!r}")
    return int(trials)


def qber_monte_carlo(q: float, trials: int, seed: int) -> float:
    """Stochastic QBER estimate, the independent check on qber_closed.

    Each trial collapses the two heralded pairs independently: a pair
    reads (+) with probability (1 + sqrt(1-q))/2, and the bits disagree
    exactly when the two pairs collapse to opposite types.  Fixed seed,
    fixed answer: each chunk of up to 10^6 trials draws all its first-pair
    uniforms, then all its second-pair ones.  PCG64 is one sequential
    stream, so the draws pass through one reused buffer of 2^14 doubles:
    the first pass keeps one byte per trial, the second flips it where the
    pairs disagree.  About 1.1 MB at any trial count.
    """
    _check_q(q)
    trials = _check_trials(trials)
    import numpy as np

    rng = np.random.default_rng(seed)
    p_plus = 0.5 * (1.0 + math.sqrt(1.0 - q))
    buf = np.empty(min(_BLOCK, trials))
    first = np.empty(min(_CHUNK, trials), dtype=bool)
    diff = 0
    for start in range(0, trials, _CHUNK):
        n = min(_CHUNK, trials - start)
        for i in range(0, n, _BLOCK):
            u = rng.random(out=buf[: min(_BLOCK, n - i)])
            np.less(u, p_plus, out=first[i : i + u.size])
        for i in range(0, n, _BLOCK):
            u = rng.random(out=buf[: min(_BLOCK, n - i)])
            first[i : i + u.size] ^= u < p_plus
        diff += int(np.count_nonzero(first[:n]))
    return diff / trials
