"""Geometry layer: clock rates, shifts, and radial light travel."""

from __future__ import annotations

import math
import re

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from gravlink import (
    C,
    G,
    Body,
    ConvergenceError,
    GaussianPacket,
    HorizonError,
    Observer,
    PhotonSphereError,
    ShiftParameter,
    Sign,
    coordinate_travel_time,
    overlap_gaussian_closed,
    radius_after,
    redshift_total,
    shift_parameter,
)
from gravlink.spacetime import _log_rate_factor, _tortoise

EARTH = Body(mass=5.972e24, radius=6_371_000.0)
FLAT = Body(mass=0.0, radius=6_371_000.0)
R_GROUND = 6_371_000.0
R_ORBIT = 6_771_000.0

GROUND = Observer(R_GROUND)
ISS = Observer(R_ORBIT, "orbit")
ORBIT_STATIC = Observer(R_ORBIT)
FAR = Observer(math.inf)

# frozen from a 50-digit evaluation of the same closed forms
RS_EARTH = 0.0088698058254353337
DELTA_LEO = 1.4318478306647888e-10
DELTA_FAR = 3.4805390951444395e-10
DELTA_STATIC = 2.0561447927892868e-11
TRAVEL_CURVED = 0.0013342563825941988
EXCESS = 1.8015905612597609e-12


def test_constants():
    assert C == 299_792_458.0
    assert G == 6.6743e-11


def test_schwarzschild_radius():
    assert EARTH.schwarzschild_radius == pytest.approx(RS_EARTH, rel=1e-15)
    assert EARTH.schwarzschild_radius == 2.0 * G * EARTH.mass / (C * C)
    assert FLAT.schwarzschild_radius == 0.0


def test_metric_factor_ground():
    # a static ground emitter seen from infinity: ratio^2 = f(r_ground)
    ratio = redshift_total(EARTH, GROUND, FAR)
    assert ratio == pytest.approx(math.sqrt(1.0 - 1.3922156373309267e-9), rel=1e-15)


def test_metric_factor_trivial_limits():
    assert redshift_total(FLAT, Observer(1.0), Observer(2.0)) == 1.0
    assert redshift_total(EARTH, FAR, FAR) == 1.0


@pytest.mark.parametrize("r", [0.5 * RS_EARTH, RS_EARTH, 1e-30])
def test_metric_factor_below_horizon(r):
    with pytest.raises(HorizonError):
        redshift_total(EARTH, Observer(r), FAR)
    with pytest.raises(HorizonError):
        redshift_total(EARTH, GROUND, Observer(r))


def test_body_validation():
    with pytest.raises(ValueError):
        Body(mass=-1.0, radius=1.0)
    with pytest.raises(ValueError):
        Body(mass=math.nan, radius=1.0)
    with pytest.raises(ValueError):
        Body(mass=1.0, radius=0.0)


def test_body_warns_in_strong_field():
    with pytest.warns(UserWarning, match="weak-field"):
        Body(mass=2e30, radius=10.0)


def test_observer_validation():
    with pytest.raises(ValueError, match=r"^radius: must be > 0, got 0\.0$"):
        Observer(0.0)
    # a shift carries no rule of its own: the overlap refuses a negative delta where it uses it
    shift = ShiftParameter(delta=-1e-12, sign=Sign.UP)
    with pytest.raises(ValueError, match=r"^delta: must lie in \[0, 1\), got -1e-12$"):
        overlap_gaussian_closed(GaussianPacket(7e14, 1e6), shift)


@pytest.mark.parametrize("motion", ["banana", "", None, 1, ["orbit"]])
def test_observer_motion_is_static_or_orbit(motion):
    message = f"motion: expected 'static' or 'orbit', got {motion!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Observer(R_ORBIT, motion)


def test_redshift_static_ground_to_orbit():
    ratio = redshift_total(EARTH, GROUND, ORBIT_STATIC)
    assert ratio == pytest.approx(1.0 - 4.1122895855362964e-11, abs=5e-16)
    assert ratio < 1.0  # climbing out costs frequency


def test_redshift_static_same_radius_is_exactly_one():
    assert redshift_total(EARTH, GROUND, GROUND) == 1.0


def test_proper_time_ratio_to_far_field():
    # dtau_B/dtau_A is the reciprocal of the frequency ratio
    ratio = 1.0 / redshift_total(EARTH, GROUND, FAR)
    assert ratio == pytest.approx(1.0 + 6.9610781939231247e-10, abs=5e-16)


def test_redshift_total_iss_is_net_blueshift():
    ratio = redshift_total(EARTH, GROUND, ISS)
    assert ratio == pytest.approx(1.0 + 2.8636956615345965e-10, abs=5e-16)
    assert ratio > 1.0


@pytest.mark.parametrize(
    "factor, blue",
    [(1.2, True), (1.49, True), (1.51, False), (3.0, False)],
)
def test_orbit_blueshift_crossover_at_one_and_a_half(factor, blue):
    receiver = Observer(factor * R_GROUND, "orbit")
    ratio = redshift_total(EARTH, GROUND, receiver)
    assert (ratio > 1.0) is blue


def test_shift_parameter_leo():
    shift = shift_parameter(EARTH, GROUND, ISS)
    assert shift.delta == pytest.approx(DELTA_LEO, rel=1e-12)
    assert shift.sign is Sign.DOWN


def test_shift_parameter_far_field():
    shift = shift_parameter(EARTH, GROUND, FAR)
    assert shift.delta == pytest.approx(DELTA_FAR, rel=1e-12)
    assert shift.sign is Sign.UP


def test_shift_parameter_static_receiver():
    shift = shift_parameter(EARTH, GROUND, ORBIT_STATIC)
    assert shift.delta == pytest.approx(DELTA_STATIC, rel=1e-12)
    assert shift.sign is Sign.UP
    # first-order static series (r_s/4)(1/r_A - 1/r_B)
    series = 0.25 * EARTH.schwarzschild_radius * (1.0 / R_GROUND - 1.0 / R_ORBIT)
    assert shift.delta == pytest.approx(series, rel=1e-8)


def test_shift_parameter_zero_reports_up():
    shift = shift_parameter(EARTH, GROUND, Observer(R_GROUND))
    assert shift.delta == 0.0
    assert shift.sign is Sign.UP


def test_orbiting_emitter_inverts_the_uplink():
    # ISS -> ground is ground -> ISS run backwards: the same delta, the
    # opposite sign and the inverse frequency ratio
    down, up = shift_parameter(EARTH, ISS, GROUND), shift_parameter(EARTH, GROUND, ISS)
    assert down.delta == pytest.approx(DELTA_LEO, rel=1e-12)
    assert (down.sign, up.sign) == (Sign.UP, Sign.DOWN)
    product = redshift_total(EARTH, ISS, GROUND) * redshift_total(EARTH, GROUND, ISS)
    assert abs(product - 1.0) <= 2 * 2.0**-52


def test_orbit_inside_photon_sphere_rejected():
    heavy = Body(mass=2e30, radius=5e6)
    rs = heavy.schwarzschild_radius
    inner = Observer(1.4 * rs, "orbit")
    message = f"a circular orbit needs r > 1.5 r_s = {1.5 * rs} m, got {1.4 * rs}"
    with pytest.raises(PhotonSphereError, match=f"^{re.escape(message)}$"):
        redshift_total(heavy, Observer(2.0 * rs), inner)
    # an orbiting emitter meets the same bound
    with pytest.raises(PhotonSphereError):
        shift_parameter(heavy, inner, Observer(2.0 * rs))


@given(
    st.floats(1e-280, 1e40) | st.floats(-280.0, 40.0).map(lambda e: 10.0**e),
    st.floats(math.log(1.5000001), math.log(1e30)),
    st.sampled_from(("static", "orbit")),
)
@settings(max_examples=300, deadline=None)
def test_rate_factor_from_r_s_keeps_the_bytes_of_gm(mass, u, motion):
    # r_s = 2 GM/c^2 exactly while GM/c^2 is a normal float, so 1 - r_s/r
    # and 1 - 1.5 r_s/r are bit for bit 1 - 2M/r and 1 - 3M/r
    mu = G * mass / (C * C)
    body = Body(mass=mass, radius=max(2e4 * mu, 1.0))
    r = 2.0 * mu * math.exp(u)
    if motion == "static":
        expected = math.log1p(-2.0 * (G * mass / (C * C)) / r)
    else:
        expected = math.log1p(-3.0 * (G * mass / (C * C)) / r)
    assert _log_rate_factor(body, Observer(r, motion)) == expected


def _u_t(body: Body, obs: Observer) -> mpmath.mpf:
    """u^t of a station from the normalization g_ab u^a u^b = -1 at 50
    digits: -1 = -(1 - 2M/r) (u^t)^2 + r^2 (u^phi)^2 with u^phi = Omega u^t,
    and Kepler's Omega^2 = M/r^3 on a circular orbit (0 for a static one)."""
    with mpmath.workdps(50):
        mu = mpmath.mpf(G) * mpmath.mpf(body.mass) / mpmath.mpf(C) ** 2
        r = mpmath.mpf(obs.radius)
        omega2 = mu / r**3 if obs.motion == "orbit" else 0
        return 1 / mpmath.sqrt((1 - 2 * mu / r) - r**2 * omega2)


@pytest.mark.parametrize("motion_b", ("static", "orbit"))
@pytest.mark.parametrize("motion_a", ("static", "orbit"))
@pytest.mark.parametrize(
    "r_a, r_b",
    [(R_GROUND, R_ORBIT), (R_ORBIT, R_GROUND), (R_ORBIT, 4.2164e7)],
    ids=["ground-iss", "iss-ground", "iss-geo"],
)
def test_four_velocity_route(r_a, r_b, motion_a, motion_b):
    # omega_B/omega_A = u^t_B/u^t_A for a radial photon, whichever end moves
    a, b = Observer(r_a, motion_a), Observer(r_b, motion_b)
    with mpmath.workdps(50):
        ratio = _u_t(EARTH, b) / _u_t(EARTH, a)
        delta = abs(mpmath.sqrt(ratio) - 1)
        assert abs(redshift_total(EARTH, a, b) / ratio - 1) < 1e-12
        assert abs(shift_parameter(EARTH, a, b).delta / delta - 1) < 1e-12


def test_co_located_stations_take_no_time():
    assert coordinate_travel_time(EARTH, math.inf, math.inf) == 0.0
    assert coordinate_travel_time(EARTH, R_ORBIT, R_ORBIT) == 0.0
    with pytest.raises(HorizonError):
        coordinate_travel_time(EARTH, 1e-3, 1e-3)


def test_tortoise_log_term():
    assert _tortoise(EARTH.schwarzschild_radius, R_GROUND) - R_GROUND == pytest.approx(
        0.1808763566658402, abs=5e-9
    )


def test_tortoise_flat_is_identity():
    assert _tortoise(FLAT.schwarzschild_radius, R_GROUND) == R_GROUND


def test_travel_time_ground_to_orbit():
    t = coordinate_travel_time(EARTH, R_GROUND, R_ORBIT)
    assert t == pytest.approx(TRAVEL_CURVED, rel=1e-12)
    assert t == coordinate_travel_time(EARTH, R_ORBIT, R_GROUND)


def test_travel_time_flat():
    t = coordinate_travel_time(FLAT, R_GROUND, R_ORBIT)
    assert t == 400_000.0 / C


def test_travel_time_curvature_excess():
    curved = coordinate_travel_time(EARTH, R_GROUND, R_ORBIT)
    flat = coordinate_travel_time(FLAT, R_GROUND, R_ORBIT)
    excess = curved - flat
    assert excess == pytest.approx(EXCESS, rel=1e-5)
    closed = EARTH.schwarzschild_radius * math.log(R_ORBIT / R_GROUND) / C
    assert excess == pytest.approx(closed, rel=1e-2)


def test_radius_after_inverts_travel_time():
    t = coordinate_travel_time(EARTH, R_GROUND, R_ORBIT)
    assert radius_after(EARTH, R_GROUND, t) == pytest.approx(R_ORBIT, abs=1e-6)


def test_radius_after_degenerate_cases():
    assert radius_after(EARTH, R_GROUND, 0.0) == R_GROUND
    assert radius_after(FLAT, R_GROUND, 1.0) == R_GROUND + C
    assert radius_after(EARTH, math.inf, 1.0) == math.inf
    with pytest.raises(ValueError):
        radius_after(EARTH, R_GROUND, -1e-9)


def test_radius_after_reports_no_convergence(monkeypatch):
    from gravlink import spacetime

    # a flat tortoise coordinate never reaches the target r_*(r_0) + c t
    monkeypatch.setattr(spacetime, "_tortoise", lambda rs, r: 0.0)
    with pytest.raises(ConvergenceError, match=r"^radius_after did not meet \|residual\| <= .* in 100 iterations"):
        radius_after(EARTH, R_GROUND, 1e-3)


@st.composite
def _body_and_radius(draw, min_factor=1.01, max_factor=1e9):
    mass = draw(st.floats(1e20, 1e30))
    rs = 2.0 * G * mass / (C * C)
    body = Body(mass=mass, radius=max(1e4 * rs, 1.0))
    u = draw(st.floats(math.log(min_factor), math.log(max_factor)))
    return body, rs * math.exp(u)


@given(_body_and_radius(), st.floats(math.log(1.01), math.log(1e9)))
@settings(max_examples=150, deadline=None)
def test_static_shift_reciprocity(pair, u_b):
    body, r_a = pair
    r_b = body.schwarzschild_radius * math.exp(u_b)
    down = redshift_total(body, Observer(r_a), Observer(r_b))
    up = redshift_total(body, Observer(r_b), Observer(r_a))
    assert down * up == pytest.approx(1.0, rel=5e-15)
    expected = Sign.UP if r_b >= r_a else Sign.DOWN
    assert shift_parameter(body, Observer(r_a), Observer(r_b)).sign is expected


@given(
    _body_and_radius(min_factor=1.6),
    st.floats(math.log(1.6), math.log(1e9)),
    st.sampled_from(("static", "orbit")),
    st.sampled_from(("static", "orbit")),
)
@settings(max_examples=200, deadline=None)
def test_swapping_the_stations_reverses_the_link(pair, u_b, motion_a, motion_b):
    body, r_a = pair
    a = Observer(r_a, motion_a)
    b = Observer(body.schwarzschild_radius * math.exp(u_b), motion_b)
    assert redshift_total(body, a, b) * redshift_total(body, b, a) == pytest.approx(1.0, rel=5e-15)
    there, back = shift_parameter(body, a, b), shift_parameter(body, b, a)
    if there.delta == 0.0 or back.delta == 0.0:
        assert there == back == ShiftParameter(0.0, Sign.UP)
    else:
        assert {there.sign, back.sign} == {Sign.UP, Sign.DOWN}
    # the deltas differ at relative order delta; the scale factors invert
    k_there, k_back = (1.0 - s.delta if s.sign is Sign.UP else 1.0 + s.delta for s in (there, back))
    assert abs(k_there * k_back - 1.0) <= 4 * 2.0**-52


@given(_body_and_radius(), st.floats(1e-9, 1e-3))
@settings(max_examples=150, deadline=None)
def test_tortoise_strictly_increasing(pair, eps):
    body, r1 = pair
    r2 = r1 * (1.0 + eps)
    rs = body.schwarzschild_radius
    assert _tortoise(rs, r2) > _tortoise(rs, r1)


@given(_body_and_radius(min_factor=1.1), st.floats(1e-6, 1e3))
@settings(max_examples=150, deadline=None)
def test_light_ray_round_trip(pair, t):
    body, r0 = pair
    r1 = radius_after(body, r0, t)
    assert r1 >= r0
    target = _tortoise(body.schwarzschild_radius, r0) + C * t
    tol_t = (max(1e-9, 8.0 * math.ulp(abs(target))) + 16.0 * math.ulp(abs(target))) / C
    assert abs(coordinate_travel_time(body, r0, r1) - t) <= tol_t


@given(st.floats(1e-3, 1e12), st.floats(1e-3, 1e12))
@settings(max_examples=80, deadline=None)
def test_massless_body_is_exactly_flat(r_a, r_b):
    assert redshift_total(FLAT, Observer(r_a), Observer(r_b)) == 1.0
    shift = shift_parameter(FLAT, Observer(r_a), Observer(r_b))
    assert shift.delta == 0.0
    assert shift.sign is Sign.UP
