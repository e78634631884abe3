"""Schwarzschild geometry primitives.

Everything downstream (frequency shifts, wavepacket distortion, link
timing) reduces to a handful of functions of the metric factor
f(r) = 1 - r_s/r evaluated at the two stations.  All inputs are SI;
the only globals are the two physical constants below.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

G = 6.674_30e-11        # m^3 kg^-1 s^-2
C = 299_792_458.0       # m/s, exact

__all__ = [
    "G",
    "C",
    "Motion",
    "Sign",
    "Body",
    "Observer",
    "ShiftParameter",
    "HorizonError",
    "PhotonSphereError",
    "ConvergenceError",
    "redshift_total",
    "shift_parameter",
    "coordinate_travel_time",
    "radius_after",
]


class HorizonError(ValueError):
    """Radial coordinate at or below the Schwarzschild radius."""


class PhotonSphereError(ValueError):
    """Circular orbit requested at or below r = 1.5 r_s."""


class ConvergenceError(RuntimeError):
    """Root finder failed to reach its residual target."""


class Motion(enum.Enum):
    STATIC = "static"
    CIRCULAR_ORBIT = "orbit"


class Sign(enum.Enum):
    """Direction of a frequency shift: UP when Omega_B/Omega_A < 1 (redshift), else DOWN."""

    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class Body:
    """A gravitating spherical mass.

    Parameters
    ----------
    mass : float
        Mass in kg, finite.  Zero is allowed and gives exact flat-space behavior.
    radius : float
        Surface radius in m, finite (stations cannot sit below it, but this
        module only enforces the horizon bound).
    """

    mass: float
    radius: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.mass < math.inf:
            raise ValueError(f"mass: must be finite and >= 0, got {self.mass}")
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius: must be finite and > 0, got {self.radius}")
        rs = self.schwarzschild_radius
        if 0.0 < self.radius < 1e3 * rs:
            warnings.warn(
                f"body radius {self.radius} m is within 1000 Schwarzschild"
                f" radii ({rs} m); weak-field assumptions degrade",
                stacklevel=2,
            )

    @property
    def schwarzschild_radius(self) -> float:
        # r_s = 2GM/c^2
        return 2.0 * G * self.mass / (C * C)

    @property
    def geometric_mass(self) -> float:
        # M in meters, GM/c^2
        return G * self.mass / (C * C)


@dataclass(frozen=True)
class Observer:
    """A station at fixed Schwarzschild radial coordinate."""

    radius: float
    motion: Motion = Motion.STATIC

    def __post_init__(self) -> None:
        if not (self.radius > 0.0):
            raise ValueError(f"radius: must be > 0, got {self.radius}")


@dataclass(frozen=True)
class ShiftParameter:
    """Magnitude and direction of the fractional frequency-rate shift.

    delta is |R^(1/4) - 1| where R is the ratio of the two stations'
    clock-rate factors; sign is UP when the link is a net redshift
    (frequency ratio below one) and DOWN for a net blueshift.  delta has
    no rule here: the closed-form overlap, which uses it, takes [0, 1).
    """

    delta: float
    sign: Sign


def _check_above_horizon(rs: float, r: float) -> None:
    if not (r > rs):
        raise HorizonError(f"r = {r} m is at or below the horizon r_s = {rs} m")


def _log_rate_factor(body: Body, obs: Observer) -> float:
    """log of the station's clock-rate factor 1/(u^t)^2: 1 - 2M/r static,
    1 - 3M/r on a circular orbit (Omega^2 = M/r^3)."""
    _check_above_horizon(body.schwarzschild_radius, obs.radius)
    mu = body.geometric_mass
    if obs.motion is Motion.CIRCULAR_ORBIT:
        x = 3.0 * mu / obs.radius
        if x >= 1.0:
            raise PhotonSphereError(
                f"a circular orbit needs r > 1.5 r_s = {3.0 * mu} m, got {obs.radius}"
            )
        return math.log1p(-x)
    return math.log1p(-2.0 * mu / obs.radius)


def _link_shift(body: Body, emitter: Observer, receiver: Observer) -> tuple[float, float]:
    """(Omega_B/Omega_A, x) = (exp(L/2), expm1(L/4)) from one log rate ratio
    L = log(rate_A/rate_B) per link, for an emitter A and a receiver B:
    delta = |x|, and the scale factor k = 1 + x is 1 -+ delta."""
    log_ratio = _log_rate_factor(body, emitter) - _log_rate_factor(body, receiver)
    return math.exp(0.5 * log_ratio), math.expm1(0.25 * log_ratio)


def _sign(x: float) -> str:
    """The Sign value of a signed shift x: "up" exactly when x <= 0."""
    return "up" if x <= 0.0 else "down"


def _signed_shift(delta: float, sign: str) -> float:
    """x = -+delta for the Sign value "up" or "down": k = 1 + x is 1 -+ delta."""
    return -delta if sign == "up" else delta


def redshift_total(body: Body, emitter: Observer, receiver: Observer) -> float:
    """Frequency ratio Omega_B/Omega_A = sqrt(rate_A/rate_B) = u^t_B/u^t_A
    (one log rate ratio per link).

    A radial photon conserves k_t, so each station's factor is its own
    u^t whichever end emits: rate = 1 - 2M/r for a static station and
    1 - 3M/r on a circular orbit, where time dilation adds the orbital
    term.  So uplinks, downlinks and links between two satellites are
    one formula, and swapping the stations inverts the ratio.

    A low-orbit receiver above a static ground emitter can come out
    *blue* shifted: the orbital 3M term wins below r_B = 1.5 r_A.
    """
    return _link_shift(body, emitter, receiver)[0]


def shift_parameter(body: Body, emitter: Observer, receiver: Observer) -> ShiftParameter:
    """Fourth-root shift delta = |(rate_A/rate_B)^(1/4) - 1| = |sqrt(Omega_B/Omega_A) - 1|
    for any pair of stations (rates as in redshift_total), from one log
    rate ratio per link.

    Evaluated as expm1 of a quarter log difference so that delta ~ 1e-10
    keeps full relative precision.  sign is UP exactly when the
    frequency ratio is below one (net redshift); delta = 0 reports UP.
    """
    x = _link_shift(body, emitter, receiver)[1]
    return ShiftParameter(delta=abs(x), sign=Sign(_sign(x)))


def _tortoise(rs: float, r: float) -> float:
    """Tortoise coordinate r_* = r + r_s ln(r/r_s - 1); radial light moves
    at unit coordinate speed in (t, r_*)."""
    _check_above_horizon(rs, r)
    if rs == 0.0:
        return r
    return r + rs * math.log(r / rs - 1.0)


def coordinate_travel_time(body: Body, r_from: float, r_to: float) -> float:
    """Schwarzschild coordinate time |r_*(to) - r_*(from)|/c for a radial
    null ray between the two radii; equal radii are co-located stations,
    0 even at r = inf."""
    rs = body.schwarzschild_radius
    gap = _tortoise(rs, r_to) - _tortoise(rs, r_from)
    return 0.0 if r_from == r_to else abs(gap) / C


def radius_after(body: Body, r_0: float, t: float) -> float:
    """Radius reached by an outgoing radial light ray after coordinate time t.

    Inverts r_*(r) = r_*(r_0) + c t with a bisection-safeguarded Newton
    iteration on the monotone tortoise map (dr_*/dr = r/(r - r_s)).

    Raises
    ------
    ValueError
        If t is not finite and >= 0.
    ConvergenceError
        If the residual target max(1e-9 m, 8 ulp) is not met within 100
        iterations.
    """
    if not 0.0 <= t < math.inf:  # a NaN t fails too
        raise ValueError(f"t: must be finite and >= 0, got {t}")
    rs = body.schwarzschild_radius
    _check_above_horizon(rs, r_0)
    if rs == 0.0 or math.isinf(r_0):
        return r_0 + C * t
    target = _tortoise(rs, r_0) + C * t
    tol = max(1e-9, 8.0 * math.ulp(abs(target)))
    lo = rs * (1.0 + 1e-12)
    hi = r_0 + C * t + 1e3 * rs
    x = min(max(r_0 + C * t, lo), hi)
    for _ in range(100):
        resid = _tortoise(rs, x) - target
        if abs(resid) <= tol:
            return x
        if resid > 0.0:
            hi = x
        else:
            lo = x
        # Newton step: x - resid / (dr_*/dr), with dr_*/dr = x/(x - rs)
        step = x - resid * (x - rs) / x
        x = step if lo < step < hi else 0.5 * (lo + hi)
    raise ConvergenceError(
        f"radius_after did not meet |residual| <= {tol} m in 100 iterations"
        f" (r_0 = {r_0}, t = {t})"
    )
