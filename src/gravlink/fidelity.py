"""Channel fidelities as functions of the mode overlap Delta.

Three transmission scenarios, three closed forms.  All of them equal 1
exactly at Delta = 1 (same mode out as in), which the implementations
preserve bit for bit rather than up to rounding.
"""

from __future__ import annotations

import math

__all__ = ["single_photon_fidelity", "coherent_fidelity", "tmss_fidelity"]

# beyond this squeezing, cosh^2 s is evaluated in log space
_LOG_SPACE_S = 20.0


def _square(x: float) -> float:
    """x**2, or inf where the square overflows a float."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _check_delta(delta: complex | float) -> complex:
    """Delta, the mode overlap, in the unit disc up to rounding (1e-12); NaN fails."""
    d = complex(delta)
    if not abs(d) <= 1.0 + 1e-12:
        raise ValueError(f"delta: |delta| must be <= 1 + 1e-12, got {abs(d)!r}")
    return d


def _check_amplitude(name: str, value: complex | float) -> complex:
    """A coherent amplitude, real or complex, whose parts are finite."""
    c = complex(value)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError(f"{name}: must be finite, got {value!r}")
    return c


def _check_q(q: float) -> float:
    """q, the mode mismatch weight, checked against its domain [0, 1]."""
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q: must lie in [0, 1], got {q}")
    return q


def single_photon_fidelity(delta: complex | float) -> float:
    """F = |Delta|^2 for a single photon sent into the expected mode."""
    d = _check_delta(delta)
    return abs(d) ** 2


def coherent_fidelity(delta: complex | float, alpha: complex | float) -> float:
    """F = exp(-2 |alpha|^2 (1 - Re Delta)) for a coherent state |alpha>.

    Vacuum (alpha = 0) is shape-blind and always gives 1; large
    amplitudes amplify any mode mismatch exponentially.  F is exactly 1
    at Re Delta = 1 for any finite alpha (any other raises); where
    |alpha|^2 overflows a float, F underflows to 0 for every Re Delta < 1.
    """
    a = _check_amplitude("alpha", alpha)
    d = _check_delta(delta)
    if d.real == 1.0:
        return 1.0
    a2 = _square(abs(a))
    return math.exp(-2.0 * a2 * (1.0 - d.real))


def tmss_fidelity(delta: complex | float, s: float) -> float:
    """Fidelity of a distributed two-mode squeezed state.

        F = | 1 / (cosh^2 s  (1 - Delta tanh^2 s)) |^2

    evaluated through the equivalent form 1/|(1 - Delta) cosh^2 s + Delta|^2,
    which is exact at Delta = 1 for any s and never forms 1 - tanh^2.
    For s above 20 the cosh is taken in log space (cosh^2 overflows
    doubles near s = 355).  For any Delta < 1 the fidelity decays to
    zero as squeezing grows.
    """
    if not 0.0 <= s < math.inf:  # a NaN s fails too
        raise ValueError(f"s: must be finite and >= 0, got {s}")
    d = _check_delta(delta)
    if d == 1.0:
        return 1.0
    if s <= _LOG_SPACE_S:
        ch2 = math.cosh(s) ** 2
        z = (1.0 - d) * ch2 + d
        return 1.0 / abs(z) ** 2
    # log cosh^2 s = 2 (s - log 2 + log1p(exp(-2s))), stable for any s
    log_ch2 = 2.0 * (s - math.log(2.0) + math.log1p(math.exp(-2.0 * s)))
    # |z| = cosh^2 s * |(1 - Delta) + Delta exp(-log_ch2)|
    resid = (1.0 - d) + d * math.exp(-log_ch2)
    log_abs_z = log_ch2 + math.log(abs(resid))
    return math.exp(-2.0 * log_abs_z)

