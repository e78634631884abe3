"""Balanced homodyne detection and its curvature invariance.

When signal and local oscillator come from the same source, propagation
through a gravitational potential difference rescales both frequency
distributions by the same factor, so they stay perfectly mode matched
and the homodyne statistics carry no trace of the curvature.  The
closed forms live in homodyne_expectation.  The scenario pipeline takes
the matched signal/LO overlap as exactly 1; curvature_invariance_report
checks it by quadrature, its only evidence: X and V never depend on the
link, as homodyne_expectation never sees the modes (see ROADMAP item 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fidelity import _check_amplitude, _square
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
        _check_amplitude("alpha", self.alpha)
        _check_amplitude("beta", self.beta)


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
    """Propagate signal and LO through each scenario and check them.

    With a shared source (lo_packet omitted) the received signal/LO
    overlap must stay 1 to 1e-12; each row reports the scenario index,
    the rescaling factor chi, the received overlap, X, V and a pass
    flag.  X and V never depend on the link: homodyne_expectation(prep)
    never sees the modes, so they are computed once, and the flag is the
    overlap gate alone.  A mismatched LO packet drops the overlap below
    1; such rows fail and X, V are withheld (the closed forms assume
    matched modes).
    """
    if packet is None:
        packet = GaussianPacket(**SOURCE_PRESETS["spdc_blue"])
    if lo_packet is None:
        lo_packet = packet
    homodyne = homodyne_expectation(prep)
    rows: list[dict] = []
    for idx, (body, emitter, receiver) in enumerate(scenarios):
        chi = 1.0 / redshift_total(body, emitter, receiver)
        received = overlap_quadrature(propagate_packet(packet, chi), propagate_packet(lo_packet, chi))
        overlap = float(abs(received.delta))
        ok = abs(overlap - 1.0) <= 1e-12
        x, v = (homodyne.x, homodyne.v) if ok else (None, None)
        rows.append({"scenario": idx, "chi": chi, "overlap": overlap, "x": x, "v": v, "pass": ok})
    return rows
