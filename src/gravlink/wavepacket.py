"""Single-photon frequency wavepackets and their mode overlap.

A packet is a normalized real amplitude F(nu) over ordinary frequency
in Hz.  Propagation through a gravitational potential difference maps
F(nu) -> sqrt(chi) F(chi nu), which shifts the peak *and* rescales the
width, so the received mode is never just a detuned copy of the sent
one.  The overlap Delta between received and expected modes is the
single number every downstream fidelity depends on; it is computed here
both in closed form (Gaussian packets) and by adaptive quadrature, so
each path can serve as the other's check.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .fidelity import _check_delta, _check_q, _square
from .spacetime import ShiftParameter, _signed_shift

if TYPE_CHECKING:
    import numpy as np

# Gaussian support is truncated at this many widths on each side; the
# mass beyond 15 sigma is ~5e-51, far below every tolerance used here.
SUPPORT_SIGMAS = 15.0

# a Gaussian source's peak_hz/width_hz must exceed this (narrowband regime)
NARROWBAND_RATIO = 100.0

# tabulate's sampling density: keeps trapezoid aliasing error below 1e-30
_POINTS_PER_WIDTH = 8

# the one header of a packet file
_CSV_HEADER = ["frequency_hz", "amplitude_real"]

# QUADPACK's 21-point Gauss-Kronrod rule (dqk21) on [-1, 1]: the Kronrod
# nodes xgk and weights wgk from the outermost node to the centre, and
# the 10-point Gauss weights wg on xgk(2), xgk(4), ..., xgk(10).
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPS = 2.0**-52  # QUADPACK's epmach

# overlap_quadrature's absolute and relative tolerance (epsabs = epsrel)
# and its largest panel count
_QUAD_TOL = 1e-13
_QUAD_LIMIT = 200


@functools.cache
def _gk_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule on all 21 nodes in ascending order: the nodes, the Kronrod
    weights, and both weight sets as the Kronrod and Gauss columns."""
    import numpy as np

    nodes = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
    kronrod = np.array(_WGK[:-1] + _WGK[::-1])
    gauss = np.zeros(21)
    gauss[1:10:2] = _WG
    gauss[11::2] = _WG[::-1]
    return nodes, kronrod, np.stack([kronrod, gauss], axis=1)


def _trapezoid(y, x):
    import numpy as np

    # numpy < 2.0 has only the older name
    return (getattr(np, "trapezoid", None) or np.trapz)(y, x)


def _source_ratio(peak_hz: float, width_hz: float) -> float:
    """peak_hz/width_hz, after the source rule: each finite and > 0, then narrowband."""
    if not 0.0 < peak_hz < math.inf:
        raise ValueError(f"peak_hz: must be finite and > 0, got {peak_hz}")
    if not 0.0 < width_hz < math.inf:
        raise ValueError(f"width_hz: must be finite and > 0, got {width_hz}")
    ratio = peak_hz / width_hz
    if not ratio > NARROWBAND_RATIO:
        raise ValueError(f"peak_hz/width_hz: must exceed {NARROWBAND_RATIO:g} (narrowband regime), got {ratio}")
    return ratio


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian amplitude (2 pi w^2)^(-1/4) exp(-(nu - peak)^2 / (4 w^2)).

    peak_hz must sit more than 100 widths above zero: that is the regime
    where extending overlap integrals over the whole real line (negative
    frequencies included) costs less than 1e-15 of the mass (the tail
    beyond 100 widths carries ~exp(-5000) of it).
    """

    peak_hz: float
    width_hz: float

    def __post_init__(self) -> None:
        _source_ratio(self.peak_hz, self.width_hz)

    def amplitude(self, nu):
        import numpy as np

        w = self.width_hz
        x = (np.asarray(nu, dtype=float) - self.peak_hz) / (2.0 * w)
        return (2.0 * math.pi * w * w) ** -0.25 * np.exp(-x * x)

    def support(self) -> tuple[float, float]:
        lo = self.peak_hz - SUPPORT_SIGMAS * self.width_hz
        hi = self.peak_hz + SUPPORT_SIGMAS * self.width_hz
        return lo, hi


@dataclass(frozen=True, eq=False)
class TabulatedPacket:
    """Real amplitude samples on a strictly increasing frequency grid.

    Integrals over tabulated packets use trapezoidal weights, which for
    smooth amplitudes that decay inside the grid are spectrally
    accurate.  Overlaps between packets on different grids go through
    linear resampling, whose error is O(h^2); keep grids fine (step well
    below the narrowest feature) or identical where the 1e-12 targets
    matter.
    """

    freq_hz: np.ndarray
    amp: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        if np.iscomplexobj(self.amp):
            raise ValueError("amp: must be real samples")
        freq = np.asarray(self.freq_hz, dtype=float)
        amp = np.asarray(self.amp, dtype=float)
        if freq.ndim != 1 or freq.size < 4:
            raise ValueError("freq_hz: must be a 1-d grid of at least 4 points")
        if amp.shape != freq.shape:
            raise ValueError("amp: must have the shape of freq_hz")
        if not np.all(np.diff(freq) > 0.0):
            raise ValueError("freq_hz: must be strictly increasing")
        if freq[0] < 0.0:
            raise ValueError("freq_hz: must be non-negative")
        object.__setattr__(self, "freq_hz", freq)
        object.__setattr__(self, "amp", amp)
        norm = total_probability(self)
        if not abs(norm - 1.0) <= 1e-10:  # a NaN norm fails too
            raise ValueError(f"amp: not normalized, integral |F|^2 = {norm!r} (tolerance 1e-10)")

    def amplitude(self, nu):
        import numpy as np

        return np.interp(nu, self.freq_hz, self.amp, left=0.0, right=0.0)

    def support(self) -> tuple[float, float]:
        return float(self.freq_hz[0]), float(self.freq_hz[-1])


WavePacket = GaussianPacket | TabulatedPacket

# Named Gaussian sources in config form (GaussianPacket field names).
SOURCE_PRESETS: dict[str, dict] = {
    "spdc_blue": {"peak_hz": 700e12, "width_hz": 1e6},
    "rb_vapor": {"peak_hz": 380e12, "width_hz": 5e6},
}


@dataclass(frozen=True)
class OverlapResult:
    """Mode overlap Delta and mismatch weight q = 1 - |Delta|^2.

    abserr is the quadrature error estimate; None on closed-form paths.
    """

    delta: complex | float
    q: float
    abserr: float | None = None

    def __post_init__(self) -> None:
        _check_delta(self.delta)
        _check_q(self.q)


def total_probability(packet: TabulatedPacket) -> float:
    """integral F^2 dnu by trapezoids on the packet's grid."""
    return float(_trapezoid(packet.amp**2, packet.freq_hz))


def tabulate(packet: GaussianPacket) -> TabulatedPacket:
    """Sample a Gaussian packet onto a uniform grid over its support.

    For lines narrower than ~1e-9 of their peak the grid values round
    to a visibly uneven spacing, so the samples are normalized on the
    grid they land on.
    """
    import numpy as np

    lo, hi = packet.support()
    grid = np.linspace(lo, hi, int(2 * SUPPORT_SIGMAS * _POINTS_PER_WIDTH) + 1)
    return _normalized(grid, packet.amplitude(grid))


def _normalized(grid: np.ndarray, amp: np.ndarray) -> TabulatedPacket:
    """The packet with amplitudes amp scaled to unit probability on grid."""
    norm = float(_trapezoid(amp**2, grid))
    # times the reciprocal root, not divided by it: numpy scaled the complex
    # samples of earlier versions that way, so packet files keep their bytes
    return TabulatedPacket(grid, amp * (1.0 / math.sqrt(norm)))


def propagate_packet(packet: WavePacket, ratio: float) -> WavePacket:
    """Apply the propagation rescaling F(nu) -> sqrt(chi) F(chi nu).

    chi is the received-over-sent frequency-rate factor supplied by the
    geometry (the inverse of the frequency ratio Omega_B/Omega_A).  The
    Gaussian family is closed under it: peak and width both divide by
    chi.  Note both move together; a local oscillator tuned only to the
    shifted peak still sees a width mismatch.
    """
    chi = float(ratio)
    if not (chi > 0.0) or not math.isfinite(chi):
        raise ValueError(f"ratio: must be finite and > 0, got {ratio}")
    if isinstance(packet, GaussianPacket):
        return GaussianPacket(packet.peak_hz / chi, packet.width_hz / chi)
    # grid point nu maps to nu/chi carrying amplitude sqrt(chi) F(nu).
    # For chi within ~1e-9 of 1 the stretched spacing differs from the old
    # one by less than one ulp of the grid values, so the rounded grid
    # cannot express the rescaling; renormalizing on the realized grid
    # keeps the packet exactly unit-probability either way.
    return _normalized(packet.freq_hz / chi, packet.amp * math.sqrt(chi))


def overlap_quadrature(p1: WavePacket, p2: WavePacket) -> OverlapResult:
    """Delta = integral F1 F2 dnu by adaptive quadrature, for two packets of one kind.

    Integrates over the intersection of the two supports, each 15 widths
    either side of its peak.  Outside it one packet is below e^-56 of
    its peak while the other need not be small, so the dropped part of
    F1 F2 is at most about 1e-25 absolute: for equal widths d widths
    apart it is exp(-d^2/8) erfc((15 - d/2)/sqrt 2), largest (3.9e-26)
    near d = 15 and 1.1e-28 at d = 20.  abserr does not include it: at
    30 widths the supports touch, Delta and abserr are 0.0, and the exact
    value is 1.4e-49.  Packets with disjoint supports overlap exactly
    zero; that is a valid answer, not an error.

    A Gaussian pair goes through adaptive Gauss-Kronrod quadrature with
    QUADPACK's 21-point rule (G10/K21 nodes and weights, qk21 error
    estimate; see _gk21), stopped once the summed panel error estimate
    is at most max(1e-13, 1e-13 |Delta|) or 200 panels are reached; its
    absolute integration error lands well under 1e-13.  A tabulated pair
    uses trapezoids on the larger of the two grids.  A mixed pair raises
    TypeError.
    """
    if type(p1) is not type(p2):
        raise TypeError(f"overlap_quadrature needs two packets of one kind, got {type(p1).__name__}"
                        f" and {type(p2).__name__}")
    s1, s2 = p1.support(), p2.support()
    if s1[1] < s2[0] or s2[1] < s1[0]:  # disjoint supports
        return OverlapResult(delta=0.0, q=1.0, abserr=0.0)
    if isinstance(p1, TabulatedPacket):
        return _overlap_tabulated(p1, p2)

    import numpy as np

    # Nodes at absolute frequencies near a 1e14 Hz peak are quantized in
    # ~0.06 Hz steps, a visible fraction of a MHz line, which caps the
    # accuracy near 1e-9.  Work in offsets from the peak midpoint (exact:
    # the peaks bracket it within a factor of two), scaled by the power of
    # two 2^e that brings the first width into [1/2, 1): no rounding moves,
    # and norm neither overflows nor underflows at any width.
    e = -math.frexp(p1.width_hz)[1]
    center = 0.5 * (p1.peak_hz + p2.peak_hz)
    d1, d2 = (math.ldexp(p.peak_hz - center, e) for p in (p1, p2))
    w1, w2 = (math.ldexp(p.width_hz, e) for p in (p1, p2))
    norm = (2.0 * math.pi * w1 * w2) ** -0.5
    half1, half2 = 2.0 * w1, 2.0 * w2

    def integrand(u: np.ndarray) -> np.ndarray:
        z1 = (u - d1) / half1
        z2 = (u - d2) / half2
        return norm * np.exp(-z1 * z1 - z2 * z2)

    lo = math.ldexp(max(s1[0], s2[0]) - center, e)
    hi = math.ldexp(min(s1[1], s2[1]) - center, e)
    peaks = sorted({d for d in (d1, d2) if lo < d < hi})
    edges = [lo, hi]
    if peaks:
        # Break at the peaks, and seed each outer segment with the
        # three halvings toward its peak that bisection would make.
        # Between peaks more than two widths apart the product peaks
        # away from both breakpoints, so that segment is quartered.
        inner = peaks
        if peaks[-1] - peaks[0] > 2.0 * min(w1, w2):
            inner = list(np.linspace(peaks[0], peaks[1], 5))
        edges = _halvings(lo, peaks[0]) + inner + _halvings(hi, peaks[-1])[::-1]
    value, err = _gk21(integrand, edges)
    return OverlapResult(delta=value, q=mismatch_q(value), abserr=err)


def _halvings(a: float, b: float) -> list[float]:
    """a and the midpoints of [a, b] halved three times toward b."""
    points = [a]
    for _ in range(3):
        points.append(0.5 * (points[-1] + b))
    return points


def _gk21(f, edges) -> tuple[float, float]:
    """Integral of a vectorized f over [edges[0], edges[-1]], and its abserr.

    Every panel between consecutive edges gets QUADPACK's qk21 rule in
    one call of f.  While the summed error estimate exceeds the bound
    max(epsabs, epsrel |integral|), both _QUAD_TOL, each panel whose
    estimate is above an equal share of the bound is bisected, the worst
    first when the panel count would pass _QUAD_LIMIT.  abserr is the
    summed estimate; it stays above the bound when the limit stops the
    refinement.
    """
    import numpy as np

    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    value, err = _qk21(f, a, b)
    while True:
        total, errsum = float(value.sum()), float(err.sum())
        bound = _QUAD_TOL * max(1.0, abs(total))
        if not errsum > bound or a.size >= _QUAD_LIMIT:
            return total, errsum
        split = err > bound / a.size
        if np.count_nonzero(split) > _QUAD_LIMIT - a.size:
            split[np.argsort(err)[: 2 * a.size - _QUAD_LIMIT]] = False
        keep = ~split
        mid = 0.5 * (a[split] + b[split])
        lo, hi = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        new_value, new_err = _qk21(f, lo, hi)
        a, b = np.concatenate([a[keep], lo]), np.concatenate([b[keep], hi])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])


def _qk21(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QUADPACK's dqk21 on the panels [a_i, b_i]: integrals and error estimates."""
    import numpy as np

    nodes, kronrod_weights, weights = _gk_rule()
    half = 0.5 * (b - a)
    fv = f((0.5 * (a + b))[:, None] + half[:, None] * nodes)
    kronrod, gauss = (fv @ weights).T
    resabs = (np.abs(fv) @ kronrod_weights) * half
    resasc = (np.abs(fv - 0.5 * kronrod[:, None]) @ kronrod_weights) * half
    err = np.abs(kronrod - gauss) * half
    # err -> resasc min(1, (200 err / resasc)^1.5) where resasc > 0,
    # floored at 50 eps resabs
    scaled = 200.0 * err
    np.divide(scaled, resasc, out=scaled, where=resasc > 0.0)
    np.minimum(scaled, 1.0, out=scaled)
    err = np.where(resasc > 0.0, resasc * scaled**1.5, err)
    return kronrod * half, np.maximum(err, 50.0 * _EPS * resabs)


def _overlap_tabulated(p1: TabulatedPacket, p2: TabulatedPacket) -> OverlapResult:
    # the larger of the two grids, inside both supports, is the common grid
    grid = p1.freq_hz if p1.freq_hz.size >= p2.freq_hz.size else p2.freq_hz
    lo = max(p1.support()[0], p2.support()[0])
    hi = min(p1.support()[1], p2.support()[1])
    grid = grid[(grid >= lo) & (grid <= hi)]
    if grid.size < 4:
        return OverlapResult(delta=0.0, q=1.0, abserr=0.0)
    f = p2.amplitude(grid) * p1.amplitude(grid)
    fine = float(_trapezoid(f, grid))
    coarse = float(_trapezoid(f[::2], grid[::2]))
    err = abs(fine - coarse) / 3.0  # Richardson gap between h and 2h
    # roundoff or resampling overshoot past |Delta| = 1 is clipped
    fine = min(max(fine, -1.0 - 1e-13), 1.0 + 1e-13)
    return OverlapResult(delta=fine, q=mismatch_q(fine), abserr=err)


def mismatch_q(delta: complex | float) -> float:
    """q = 1 - |Delta|^2, the weight leaked into the orthogonal mode."""
    mag = abs(_check_delta(delta))
    return max(0.0, (1.0 - mag) * (1.0 + mag))


def overlap_gaussian_closed(packet: GaussianPacket, shift: ShiftParameter) -> OverlapResult:
    """Closed-form overlap of a Gaussian packet with its shifted self.

    For a frequency-rate shift delta the received and expected modes are
    Gaussians whose peak and width differ by the factor k = 1 -+ delta
    (minus for an uphill/redshift link, plus for blueshift), giving

        Delta = sqrt(2k / (1 + k^2)) * exp(-delta^2 peak^2 / (4 (1 + k^2) width^2))

    The prefactor is evaluated as sqrt(1 - delta^2/(1 + k^2)) and q via
    expm1/log1p, so both stay exact down to delta ~ 1e-12: the overlap
    deficit 1 - Delta ~ 1e-20 regime underflows gracefully to q = 0
    instead of drowning in cancellation.  _scale_terms computes the
    shift-only terms and _overlap_at_ratio the rest, so a sweep over
    packets on one link computes the shift terms once.
    """
    if not isinstance(packet, GaussianPacket):
        raise TypeError("closed-form overlap needs a GaussianPacket")
    delta = shift.delta
    terms = _scale_terms(delta, 1.0 + _signed_shift(delta, shift.sign.value))
    value, q = _overlap_at_ratio(terms, packet.peak_hz / packet.width_hz)
    return OverlapResult(delta=value, q=q)


_ShiftTerms = tuple[float, float, float, float]


def _scale_terms(delta: float, k: float) -> _ShiftTerms:
    """(delta, 1 + k^2, sqrt(1 - delta^2/(1 + k^2)), log1p(-delta^2/(1 + k^2)))
    for the received scale factor k = 1 -+ delta."""
    if not (0.0 <= delta < 1.0):
        raise ValueError(f"delta: must lie in [0, 1), got {delta}")
    kk1 = 1.0 + k * k
    return delta, kk1, math.sqrt(1.0 - delta * delta / kk1), math.log1p(-delta * delta / kk1)


def _overlap_at_ratio(terms: _ShiftTerms, ratio: float) -> tuple[float, float]:
    """(Delta, q) for a packet of peak/width ratio under the shift terms."""
    delta, kk1, prefactor, log_prefactor = terms
    # no shift leaves a packet as sent, even at ratio inf (0 * inf is NaN); a
    # square past the float range is inf, which gives Delta = 0 and q = 1
    arg = _square(delta * ratio) / (4.0 * kk1) if delta else 0.0
    # log |Delta|^2 keeps q accurate when Delta is within 1e-15 of 1, and
    # log_prefactor <= 0 <= arg keeps it in [0, 1] (never -0.0) unclamped
    q = -math.expm1(log_prefactor - 2.0 * arg)
    return prefactor * math.exp(-arg), q


def read_packet_csv(path) -> TabulatedPacket:
    """Load a tabulated packet from the CSV that write_packet_csv writes.

    The header is frequency_hz,amplitude_real and each row holds those two
    numbers.  The packet must already be normalized.  A row that is not
    two cells or holds a cell that is not a number raises ValueError
    naming its line; blank lines are skipped.
    """
    freqs: list[float] = []
    amps: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != _CSV_HEADER:
            raise ValueError(f"packet CSV needs the header {','.join(_CSV_HEADER)}; got {header}")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != 2:
                    raise ValueError(f"expected 2 cells, got {len(row)}")
                freqs.append(float(row[0]))
                amps.append(float(row[1]))
            except ValueError as exc:
                raise ValueError(f"packet CSV line {reader.line_num}: {exc}") from None
    return TabulatedPacket(freqs, amps)


def write_packet_csv(packet: TabulatedPacket, path) -> None:
    """Write a tabulated packet as CSV, each float in its round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        writer.writerows([repr(float(nu)), repr(float(a))] for nu, a in zip(packet.freq_hz, packet.amp))
