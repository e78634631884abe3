"""Balanced homodyne detection and its curvature invariance.

When signal and local oscillator come from the same source, propagation
through a gravitational potential difference rescales both frequency
distributions by the same factor, so they stay perfectly mode matched
and the homodyne statistics carry no trace of the curvature.  The
closed forms live in homodyne_expectation; curvature_invariance_report
verifies the premise (received signal/LO overlap stays 1) and the
conclusion (X and V identical across scenarios) numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fidelity import _square
from .spacetime import Body, Observer, redshift_total
from .wavepacket import SOURCE_PRESETS, GaussianPacket, WavePacket, overlap_quadrature, propagate_packet

__all__ = ["HomodynePrep", "HomodyneResult", "homodyne_expectation", "curvature_invariance_report"]

# |beta| must dominate |alpha| by this factor before V drops the signal term
_LO_DOMINANCE = 10.0


@dataclass(frozen=True)
class HomodynePrep:
    """Displacements of signal (alpha) and local oscillator (beta).

    The LO phase is absorbed into alpha by convention, so beta acts as
    a real positive gain; complex beta inputs are rotated accordingly.
    """

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        for name, val in (("alpha", self.alpha), ("beta", self.beta)):
            c = complex(val)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"{name} must be finite, got {val!r}")


@dataclass(frozen=True)
class HomodyneResult:
    """Quadrature expectation x, working variance v, and the exact
    variance 2(|beta|^2 + |alpha|^2) before the strong-LO approximation."""

    x: float
    v: float
    exact_v: float


def homodyne_expectation(prep: HomodynePrep) -> HomodyneResult:
    """X = beta (alpha* + alpha) = 2 beta Re alpha, V = 2 beta^2.

    The variance keeps its exact value 2(|beta|^2 + |alpha|^2) unless
    the LO dominates (|beta| >= 10 |alpha|), where the usual 2 beta^2
    shot-noise form applies.  Values beyond the float range come back
    infinite.
    """
    alpha = complex(prep.alpha)
    beta = complex(prep.beta)
    # rotate the LO phase onto alpha: x = 2 |beta| Re(alpha e^{-i arg beta})
    x = 2.0 * (alpha * beta.conjugate()).real
    if beta == 0.0:
        x = 0.0
    b2 = _square(abs(beta))
    a2 = _square(abs(alpha))
    exact_v = 2.0 * (b2 + a2)
    v = 2.0 * b2 if abs(beta) >= _LO_DOMINANCE * abs(alpha) else exact_v
    return HomodyneResult(x=x, v=v, exact_v=exact_v)


def curvature_invariance_report(
    prep: HomodynePrep,
    scenarios: list[tuple[Body, Observer, Observer]],
    packet: WavePacket | None = None,
    lo_packet: WavePacket | None = None,
) -> list[dict]:
    """Propagate signal and LO through each scenario and compare X, V.

    With a shared source (lo_packet omitted) the received signal/LO
    overlap must stay 1 to 1e-12 and the (X, V) pair must be identical
    across all scenarios, bit for bit; each row reports the scenario
    index, the rescaling factor chi, the received overlap, X, V and a
    pass flag.  A deliberately mismatched LO packet drops the overlap
    below 1; such rows are flagged failing and X, V are withheld (the
    closed forms assume matched modes).
    """
    if packet is None:
        packet = GaussianPacket(**SOURCE_PRESETS["spdc_blue"])
    if lo_packet is None:
        lo_packet = packet
    rows: list[dict] = []
    reference: tuple[float, float] | None = None
    for idx, (body, emitter, receiver) in enumerate(scenarios):
        chi = 1.0 / redshift_total(body, emitter, receiver)
        overlap = _received_overlap(packet, lo_packet, chi)
        x = v = None
        ok = False
        if abs(overlap - 1.0) <= 1e-12:
            result = homodyne_expectation(prep)
            x, v = result.x, result.v
            if reference is None:
                reference = (x, v)
            ok = (x, v) == reference
        rows.append({"scenario": idx, "chi": chi, "overlap": overlap, "x": x, "v": v, "pass": ok})
    return rows


def _received_overlap(signal: WavePacket, lo: WavePacket, chi: float) -> float:
    """|Delta| between signal and LO after both are rescaled by chi."""
    overlap = overlap_quadrature(propagate_packet(signal, chi), propagate_packet(lo, chi))
    return float(abs(overlap.delta))
