"""Config-driven scenario runner: parsing, presets, pipeline wiring,
sweeps, rendering, and the reference comparison table."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from gravlink import (
    Body,
    ConfigError,
    GaussianPacket,
    HomodynePrep,
    Observer,
    coordinate_travel_time,
    curvature_invariance_report,
    homodyne_expectation,
    load_config,
    overlap_gaussian_closed,
    redshift_total,
    reference_table,
    run_scenario,
    shift_parameter,
    sweep,
)
from gravlink.scenario import (
    RESULT_FIELDS,
    _LINK_TAGS,
    parse_config,
    render_csv,
    render_json,
    result_to_dict,
)

Q_LEO = 0.0025083294283674017
TRAVEL_CURVED = 0.0013342563825941988

# r_s = 1485 m: an orbit at 2000 m is above this body's surface and
# horizon but inside its photon sphere, r = 1.5 r_s = 2228 m
COMPACT_LINK = {"body": {"mass_kg": 1e30, "radius_m": 1700.0}, "emitter": {"radius_m": 1700.0}}
PHOTON_SPHERE_ERROR = r"receiver\.radius_m: a circular orbit needs r > 1\.5 r_s = 2227\.848\d* m, got 2000\.0$"


KINDS = "('single_photon', 'coherent', 'tmss', 'entangle_qkd', 'cv_homodyne')"


def base_config() -> dict:
    return {
        "body": "earth",
        "emitter": "ground",
        "receiver": "iss",
        "source": "spdc_blue",
        "protocol": {"kind": "entangle_qkd"},
    }


CV_PROTOCOL = {"kind": "cv_homodyne", "alpha": 0.5, "beta": 90.0}
ALL_PROTOCOLS = [
    {"kind": "single_photon"},
    {"kind": "coherent", "alpha": 2.0},
    {"kind": "tmss", "s": 1.5},
    {"kind": "entangle_qkd"},
    CV_PROTOCOL,
]


class TestParsing:
    def test_presets_expand(self):
        sc = parse_config(base_config())
        assert sc.body == Body(mass=5.972e24, radius=6_371_000.0)
        assert sc.emitter == Observer(6_371_000.0, "static")
        assert sc.receiver == Observer(6_771_000.0, "orbit")
        assert sc.source == GaussianPacket(700e12, 1e6)

    def test_the_library_takes_the_config_word_for_motion(self):
        # Observer(r, "orbit") is the parsed iss receiver, rated as an orbit:
        # the ground -> ISS link is a net blueshift
        sc = parse_config(base_config())
        iss = Observer(6_771_000.0, "orbit")
        assert iss == sc.receiver
        assert redshift_total(sc.body, sc.emitter, iss) == 1.0000000002863696

    def test_far_field_and_rb_presets(self):
        cfg = base_config()
        cfg["receiver"] = "far_field"
        cfg["source"] = "rb_vapor"
        sc = parse_config(cfg)
        assert sc.receiver.radius == math.inf
        assert sc.receiver.motion == "static"
        assert sc.source == GaussianPacket(380e12, 5e6)

    def test_explicit_dicts_match_presets(self):
        cfg = base_config()
        cfg["body"] = {"mass_kg": 5.972e24, "radius_m": 6_371_000.0}
        cfg["emitter"] = {"radius_m": 6_371_000.0, "motion": "static"}
        cfg["receiver"] = {"radius_m": 6_771_000.0, "motion": "orbit"}
        cfg["source"] = {"peak_hz": 700e12, "width_hz": 1e6}
        assert parse_config(cfg) == parse_config(base_config())

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda c: c.update(source={"peak_hz": 700e12, "width_hz": -1e6}),
             "source.width_hz"),
            (lambda c: c.update(bogus=1), "config: unknown key"),
            (lambda c: c.update(body={"mass_kg": 1.0, "radius_m": 1.0, "x": 2}),
             "body: unknown key"),
            (lambda c: c.update(protocol={"kind": "entangle_qkd", "alpha": 1.0}),
             "protocol: unknown key"),
            (lambda c: c.update(protocol={"kind": "nope"}), "protocol.kind"),
            (lambda c: c.pop("receiver"), "config.receiver: missing"),
            (lambda c: c.update(protocol={"kind": "coherent"}),
             "protocol.alpha: missing"),
            (lambda c: c.update(protocol={"kind": "tmss", "s": -1.0}),
             "protocol.s"),
            (lambda c: c.update(monte_carlo={"trials": 100, "seed": 1}),
             "monte_carlo.trials"),
            (lambda c: c.update(monte_carlo={"trials": 10**400, "seed": 1}),
             "monte_carlo.trials: integer too large for a float"),
            (lambda c: c.update(monte_carlo={"trials": math.inf, "seed": 1}),
             "monte_carlo.trials: must be an integer"),
            (lambda c: c.update(monte_carlo={"trials": 1e300, "seed": 1}),
             "monte_carlo.trials: must be <= 100000000"),
            (lambda c: c.update(monte_carlo={"trials": 10**8 + 1, "seed": 1}),
             "monte_carlo.trials: must be <= 100000000"),
            (lambda c: c.update(monte_carlo={"trials": 20_000, "seed": -1}),
             "monte_carlo.seed: must be an integer >= 0"),
            (lambda c: c.update(monte_carlo={"trials": 20_000, "seed": 0.5}),
             "monte_carlo.seed: must be an integer >= 0"),
            (lambda c: c.update(receiver={"radius_m": 6.771e6, "motion": "hover"}),
             "receiver.motion"),
            (lambda c: c.update(protocol={"kind": "coherent", "alpha": math.nan}),
             "protocol.alpha: expected a number"),
            (lambda c: c.update(protocol={"kind": "tmss", "s": math.inf}),
             "protocol.s: must be finite"),
            (lambda c: c.update(protocol={"kind": "cv_homodyne", "alpha": 0.5, "beta": -math.inf}),
             "protocol.beta: must be finite"),
            (lambda c: c.update(source={"peak_hz": math.inf, "width_hz": 1e6}),
             "source.peak_hz: must be finite"),
            (lambda c: c.update(body={"mass_kg": math.inf, "radius_m": 6.371e6}),
             "body.mass_kg: must be finite"),
            (lambda c: c.update(receiver={"radius_m": 6.0e6}), "receiver.radius_m: below the body surface"),
            (lambda c: c.update(emitter={"radius_m": 1.0}), "emitter.radius_m: below the body surface"),
            (lambda c: c.update(receiver={"radius_m": 0.0}),
             r"^receiver\.radius_m: below the body surface r = 6371000\.0 m, got 0\.0$"),
            (lambda c: c.update(emitter={"radius_m": -math.inf}),
             r"^emitter\.radius_m: below the body surface r = 6371000\.0 m, got -inf$"),
            # only entangle_qkd reads a monte_carlo block; the kind is judged
            # before the block's own fields
            (lambda c: c.update(protocol="single_photon", monte_carlo={"trials": 20_000, "seed": 1}),
             r"^monte_carlo: protocol kind 'single_photon' has no Monte Carlo estimate$"),
            (lambda c: c.update(protocol={"kind": "coherent", "alpha": 1.5},
                                monte_carlo={"trials": 20_000, "seed": 1}),
             r"^monte_carlo: protocol kind 'coherent' has no Monte Carlo estimate$"),
            (lambda c: c.update(protocol={"kind": "tmss", "s": 0.8}, monte_carlo={"trials": 1, "seed": -1}),
             r"^monte_carlo: protocol kind 'tmss' has no Monte Carlo estimate$"),
            (lambda c: c.update(protocol=CV_PROTOCOL, monte_carlo={"trials": 20_000, "seed": 1}),
             r"^monte_carlo: protocol kind 'cv_homodyne' has no Monte Carlo estimate$"),
        ],
    )
    def test_rejects_bad_configs_with_field_paths(self, mutate, message):
        cfg = base_config()
        mutate(cfg)
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("protocol", {"kind": []}, f"protocol.kind: expected one of {KINDS}, got []"),
            ("protocol", {"kind": {}}, f"protocol.kind: expected one of {KINDS}, got {{}}"),
            ("protocol", {"kind": None}, f"protocol.kind: expected one of {KINDS}, got None"),
            ("protocol", {}, f"protocol.kind: expected one of {KINDS}, got None"),
            ("protocol", [], "protocol: expected an object, got list"),
            ("receiver", {"radius_m": 7e6, "motion": ["orbit"]},
             "receiver.motion: expected 'static' or 'orbit', got ['orbit']"),
            ("receiver", {"radius_m": 7e6, "motion": {}}, "receiver.motion: expected 'static' or 'orbit', got {}"),
            ("receiver", {"radius_m": 7e6, "motion": 1}, "receiver.motion: expected 'static' or 'orbit', got 1"),
            ("receiver", {"radius_m": 7e6, "motion": None},
             "receiver.motion: expected 'static' or 'orbit', got None"),
            ("receiver", {"radius_m": True}, "receiver.radius_m: expected a number, got True"),
            ("receiver", {"radius_m": "7e6"}, "receiver.radius_m: expected a number, got '7e6'"),
            ("receiver", {"radius_m": math.nan}, "receiver.radius_m: expected a number, got nan"),
            ("receiver", {"radius_m": 10**400}, "receiver.radius_m: integer too large for a float"),
            ("protocol", {"kind": "coherent", "alpha": False}, "protocol.alpha: expected a number, got False"),
            ("protocol", {"kind": "coherent", "alpha": -math.nan},
             "protocol.alpha: expected a number, got nan"),
            ("body", {"mass_kg": "1", "radius_m": 6.371e6}, "body.mass_kg: expected a number, got '1'"),
            ("monte_carlo", {"trials": math.nan, "seed": 1}, "monte_carlo.trials: expected a number, got nan"),
            ("protocol", {"kind": "tmss", "s": 1.0, "z": 1, "b": 2}, "protocol: unknown key(s) b, z"),
            ("zeta", 1, "config: unknown key(s) zeta"),
        ],
    )
    def test_odd_values_keep_their_messages(self, field, value, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(dict(base_config(), **{field: value}))
        assert str(exc.value) == message

    def test_numbers_of_a_float_subclass_parse_as_floats(self):
        class Metres(float):
            pass

        sc = parse_config(dict(base_config(), receiver={"radius_m": Metres(7e6), "motion": "orbit"}))
        assert type(sc.receiver.radius) is float and sc.receiver.radius == 7e6

    def test_protocol_errors_follow_the_table(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(dict(base_config(), protocol={"kind": "bb84"}))
        assert str(exc.value) == f"protocol.kind: expected one of {KINDS}, got 'bb84'"
        # parameters are read in sorted order, so alpha is reported first
        with pytest.raises(ConfigError, match=r"^protocol\.alpha: missing$"):
            parse_config(dict(base_config(), protocol={"kind": "cv_homodyne"}))

    def test_stations_on_the_surface_and_at_infinity_pass(self):
        cfg = base_config()
        cfg["receiver"] = {"radius_m": 6_371_000.0}
        assert parse_config(cfg).receiver.radius == 6_371_000.0
        cfg["receiver"] = {"radius_m": math.inf}
        assert parse_config(cfg).receiver.radius == math.inf

    @pytest.mark.filterwarnings("ignore:body radius")
    def test_orbit_inside_the_photon_sphere_names_the_receiver(self):
        cfg = dict(base_config(), **COMPACT_LINK, receiver={"radius_m": 2000.0, "motion": "orbit"})
        with pytest.raises(ConfigError, match="^" + PHOTON_SPHERE_ERROR):
            parse_config(cfg)
        cfg["receiver"] = {"radius_m": 2000.0, "motion": "static"}
        assert parse_config(cfg).receiver.radius == 2000.0

    @pytest.mark.filterwarnings("ignore:body radius")
    def test_orbiting_emitter_inside_the_photon_sphere_names_the_emitter(self):
        cfg = {**base_config(), **COMPACT_LINK, "emitter": {"radius_m": 2000.0, "motion": "orbit"},
               "receiver": {"radius_m": 3000.0}}
        with pytest.raises(ConfigError, match="^" + PHOTON_SPHERE_ERROR.replace("receiver", "emitter")):
            parse_config(cfg)

    @pytest.mark.filterwarnings("ignore:body radius")
    def test_station_inside_the_horizon_names_its_field(self):
        # a body inside its own horizon, r_s = 1485 m
        cfg = {**base_config(), "body": {"mass_kg": 1e30, "radius_m": 1000.0},
               "emitter": {"radius_m": 1700.0}, "receiver": {"radius_m": 1200.0}}
        message = r"^receiver\.radius_m: r = 1200\.0 m is at or below the horizon r_s = 1485\.23\d* m$"
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)

    def test_downlink_is_the_uplink_reversed(self):
        up = run_scenario(parse_config(base_config()))
        config = parse_config(dict(base_config(), emitter="iss", receiver="ground"))
        assert config.emitter == Observer(6_771_000.0, "orbit")
        down = run_scenario(config)
        assert abs(down.redshift_ratio * up.redshift_ratio - 1.0) <= 2 * 2.0**-52
        assert down.q == pytest.approx(up.q, rel=1e-12)
        assert (down.travel_time_s, down.tags) == (up.travel_time_s, up.tags)
        # a radius sweep of the downlink runs through the same parser
        (point,) = sweep(config, "receiver_radius_m", [6_371_000.0])
        assert point == down

    def test_link_between_two_satellites(self):
        geo = {"radius_m": 4.2164e7, "motion": "orbit"}
        there = run_scenario(parse_config(dict(base_config(), emitter="iss", receiver=geo)))
        back = run_scenario(parse_config(dict(base_config(), emitter=geo, receiver="iss")))
        assert there.delta > 0.0 and there.q > 0.0
        assert abs(there.redshift_ratio * back.redshift_ratio - 1.0) <= 2 * 2.0**-52

    @pytest.mark.filterwarnings("ignore:body radius")
    def test_photon_sphere_bound_is_the_geometry_bound(self):
        # the validator rejects exactly the orbits spacetime refuses
        body = Body(mass=1e30, radius=1700.0)
        sphere = 1.5 * body.schwarzschild_radius
        for radius in (sphere, math.nextafter(sphere, 0.0), math.nextafter(sphere, math.inf)):
            cfg = dict(base_config(), **COMPACT_LINK, receiver={"radius_m": radius, "motion": "orbit"})
            receiver = Observer(radius, "orbit")
            if radius > sphere:
                assert parse_config(cfg).receiver == receiver
                redshift_total(body, Observer(1700.0), receiver)
            else:
                with pytest.raises(ConfigError, match=r"1\.5 r_s"):
                    parse_config(cfg)
                with pytest.raises(ValueError, match=r"1\.5 r_s"):
                    redshift_total(body, Observer(1700.0), receiver)

    def test_monte_carlo_integers_keep_their_exact_value(self):
        cfg = base_config()
        cfg["monte_carlo"] = {"trials": 20_000, "seed": 2**60 + 1}
        assert parse_config(cfg).monte_carlo.seed == 2**60 + 1

    def test_load_config(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(base_config()))
        assert load_config(path) == parse_config(base_config())

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("trials", [10_000, 100_000, 200_000, 10**8])
    def test_monte_carlo_trials_up_to_the_maximum_pass(self, trials):
        cfg = base_config()
        cfg["monte_carlo"] = {"trials": trials, "seed": 1}
        assert parse_config(cfg).monte_carlo.trials == trials


@st.composite
def _links(draw):
    """A config on a preset or a random body, with a preset or a random
    static or orbiting station at either end."""
    if draw(st.booleans()):
        body, surface, presets = "earth", 6_371_000.0, ["ground", "iss", "far_field"]
    else:
        surface = draw(st.floats(1e6, 1e7))
        body, presets = {"mass_kg": draw(st.floats(1e20, 1e27)), "radius_m": surface}, ["far_field"]
    stations = st.sampled_from(presets) | st.builds(
        lambda factor, motion: {"radius_m": surface * factor, "motion": motion},
        st.floats(1.0, 1e4),
        st.sampled_from(["static", "orbit"]),
    )
    source = draw(st.sampled_from(["spdc_blue", "rb_vapor"]))
    return dict(base_config(), body=body, emitter=draw(stations), receiver=draw(stations), source=source)


@given(st.floats(allow_nan=False) | st.floats(-1e-9, 1e-9))
def test_the_signed_shift_is_the_scale_factor(x):
    """A link's k = 1 + x, with x = expm1(L/4), is the ShiftParameter
    rule k = 1 -+ delta (minus for UP, x <= 0) bit for bit."""
    delta = abs(x)
    assert 1.0 + x == (1.0 - delta if x <= 0.0 else 1.0 + delta)


class TestRunScenario:
    def test_entangle_qkd_ground_to_orbit(self):
        res = run_scenario(parse_config(base_config()))
        assert res.q == pytest.approx(Q_LEO, rel=1e-13)
        assert res.delta == pytest.approx(1.4318478306647888e-10, rel=1e-12)
        assert res.fidelity == pytest.approx(0.5 * (1.0 + math.sqrt(1.0 - res.q)), rel=1e-15)
        assert res.negativity == pytest.approx(0.5 * math.sqrt(1.0 - res.q), rel=1e-15)
        assert res.qber == res.q / 2.0
        assert res.travel_time_s == pytest.approx(TRAVEL_CURVED, rel=1e-12)
        assert res.redshift_ratio > 1.0
        assert res.chi == 1.0 / res.redshift_ratio

    def test_matches_hand_built_pipeline_exactly(self):
        sc = parse_config(base_config())
        res = run_scenario(sc)
        shift = shift_parameter(sc.body, sc.emitter, sc.receiver)
        overlap = overlap_gaussian_closed(sc.source, shift)
        assert res.delta == shift.delta
        assert res.Delta == overlap.delta
        assert res.q == overlap.q
        assert res.travel_time_s == coordinate_travel_time(
            sc.body, sc.emitter.radius, sc.receiver.radius
        )
        assert res.redshift_ratio == redshift_total(sc.body, sc.emitter, sc.receiver)

    @given(_links())
    @settings(max_examples=300, deadline=None)
    def test_link_fields_are_the_public_functions(self, doc):
        """Uplinks, downlinks and far-field links: each geometric field of a
        row is, bit for bit, the public function of that quantity."""
        sc = parse_config(doc)
        res = run_scenario(sc)
        link = (sc.body, sc.emitter, sc.receiver)
        shift = shift_parameter(*link)
        overlap = overlap_gaussian_closed(sc.source, shift)
        assert (res.redshift_ratio, res.chi) == (redshift_total(*link), 1.0 / redshift_total(*link))
        assert res.delta == shift.delta
        assert (res.Delta, res.q) == (overlap.delta, overlap.q)
        assert res.travel_time_s == coordinate_travel_time(sc.body, sc.emitter.radius, sc.receiver.radius)
        # a radius sweep point parses its receiver again, to the same row
        assert sweep(sc, "receiver_radius_m", [sc.receiver.radius]) == [res]

    def test_flat_space_is_exactly_trivial(self):
        cfg = base_config()
        cfg["body"] = {"mass_kg": 0.0, "radius_m": 6_371_000.0}
        res = run_scenario(parse_config(cfg))
        assert res.chi == 1.0
        assert res.redshift_ratio == 1.0
        assert res.delta == 0.0
        assert res.q == 0.0
        assert res.fidelity == 1.0
        assert res.negativity == 0.5
        assert res.qber == 0.0

    @pytest.mark.parametrize(
        "protocol",
        [
            {"kind": "single_photon"},
            {"kind": "coherent", "alpha": 2.0},
            {"kind": "tmss", "s": 1.5},
        ],
    )
    def test_pure_fidelity_protocols_leave_qkd_fields_empty(self, protocol):
        cfg = base_config()
        cfg["protocol"] = protocol
        res = run_scenario(parse_config(cfg))
        assert res.negativity is None
        assert res.qber is None
        assert 0.0 < res.fidelity <= 1.0

    def test_single_photon_fidelity_is_overlap_squared(self):
        cfg = base_config()
        cfg["receiver"] = "far_field"
        cfg["protocol"] = {"kind": "single_photon"}
        res = run_scenario(parse_config(cfg))
        assert res.fidelity == pytest.approx(0.9852697310314574, rel=1e-13)
        assert res.travel_time_s == math.inf

    def test_cv_homodyne_extras(self):
        cfg = base_config()
        cfg["protocol"] = CV_PROTOCOL
        res = run_scenario(parse_config(cfg))
        assert res.extras["x"] == 90.0
        assert res.extras["v"] == 16_200.0
        assert res.extras["exact_v"] == pytest.approx(16_200.5, rel=1e-15)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_extra_is_deterministic(self):
        cfg = base_config()
        cfg["monte_carlo"] = {"trials": 20_000, "seed": 99}
        first = run_scenario(parse_config(cfg))
        second = run_scenario(parse_config(cfg))
        assert first.extras["qber_mc"] == second.extras["qber_mc"]
        assert first.extras["qber_mc"] == pytest.approx(first.qber, abs=5e-4)

    @pytest.mark.parametrize(
        "body, receiver",
        [({"mass_kg": 0.0, "radius_m": 6_371_000.0}, "iss"), ("earth", "iss"),
         ("earth", "far_field")],
        ids=["flat", "earth-iss", "earth-far_field"],
    )
    @pytest.mark.parametrize("source", ["spdc_blue", "rb_vapor"])
    def test_cv_fidelity_is_the_quadrature_overlap(self, body, receiver, source):
        # the pipeline takes the matched signal/LO overlap as 1; the
        # quadrature route propagates both packets and integrates
        sc = parse_config(dict(base_config(), body=body, receiver=receiver, source=source,
                               protocol=CV_PROTOCOL))
        res = run_scenario(sc)
        prep = HomodynePrep(alpha=CV_PROTOCOL["alpha"], beta=CV_PROTOCOL["beta"])
        [row] = curvature_invariance_report(prep, [(sc.body, sc.emitter, sc.receiver)],
                                            packet=sc.source)
        assert res.fidelity == 1.0
        assert abs(res.fidelity - row["overlap"]) <= 1e-12
        assert row["pass"]

    def test_tags_cover_populated_fields_only(self):
        for protocol in ALL_PROTOCOLS:
            res = run_scenario(parse_config(dict(base_config(), protocol=protocol)))
            for name in res.tags:
                if name not in res.extras:
                    assert name in RESULT_FIELDS
                    assert getattr(res, name) is not None
            populated = {name for name in RESULT_FIELDS if getattr(res, name) is not None}
            assert set(res.tags) == populated | set(res.extras), protocol["kind"]
            assert "Delta" in res.tags and "fidelity" in res.tags
            assert ("qber" in res.tags) == (protocol["kind"] == "entangle_qkd")


class TestSweep:
    def test_width_sweep_quenches_the_mismatch(self):
        sc = parse_config(base_config())
        rows = sweep(sc, "width_hz", [1e6, 1e8, 1e10, 1e12])
        qs = [row.q for row in rows]
        assert qs[0] == pytest.approx(Q_LEO, rel=1e-13)
        assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_single_point_sweep_equals_run(self):
        sc = parse_config(base_config())
        row = sweep(sc, "width_hz", [1e6])[0]
        res = run_scenario(sc)
        for field in RESULT_FIELDS:
            assert getattr(row, field) == getattr(res, field)

    def test_q_sweep_hits_the_printed_negativities(self):
        sc = parse_config(base_config())
        rows = sweep(sc, "q", [0.0, 0.5, 1.0])
        negs = [row.negativity for row in rows]
        assert negs[0] == 0.5
        assert negs[1] == pytest.approx(0.354, abs=1e-3)
        assert negs[2] == 0.0
        for row in rows:
            assert row.Delta == pytest.approx(math.sqrt(1.0 - row.q), rel=1e-15)
            assert row.chi is None and row.travel_time_s is None

    def test_receiver_radius_sweep_crosses_zero_mismatch(self):
        # for an orbiting receiver the shift changes sign at r_B = 1.5 r_A,
        # so the mismatch dips to zero there instead of growing monotonically
        sc = parse_config(base_config())
        r_zero = 1.5 * 6_371_000.0
        rows = sweep(sc, "receiver_radius_m", [7e6, r_zero, 1e8])
        assert rows[1].q <= 1e-30
        assert rows[0].q > 1e-4 and rows[2].q > 1e-3

    def test_peak_sweep(self):
        sc = parse_config(base_config())
        rows = sweep(sc, "peak_hz", [350e12, 700e12])
        assert rows[0].q == pytest.approx(rows[1].q / 4.0, rel=1e-3)

    def test_sweep_validation(self):
        sc = parse_config(base_config())
        with pytest.raises(ConfigError, match=r"^sweep\.grid: must hold 1 to 100000 points, got 0$"):
            sweep(sc, "q", [])
        with pytest.raises(ConfigError, match="sweep.parameter"):
            sweep(sc, "mass", [1.0])

    def test_cv_q_sweep(self):
        # the matched signal/LO overlap does not depend on the swept q
        sc = parse_config(dict(base_config(), protocol=CV_PROTOCOL))
        extras = run_scenario(sc).extras
        rows = sweep(sc, "q", [0.0, 0.3, 1.0])
        assert [row.q for row in rows] == [0.0, 0.3, 1.0]
        for row in rows:
            assert row.fidelity == 1.0
            assert row.extras == extras == {"x": 90.0, "v": 16_200.0, "exact_v": 16_200.5}
            assert row.chi is None and row.negativity is None
        # built once per protocol: the points share one dict, as results without extras do
        assert len({id(row.extras) for row in rows}) == 1

    def test_cv_extras_are_the_homodyne_figures(self):
        # the extras dict is homodyne_expectation's own, shared by every point of a link sweep
        sc = parse_config(dict(base_config(), protocol=CV_PROTOCOL))
        extras = run_scenario(sc).extras
        assert extras == homodyne_expectation(HomodynePrep(alpha=0.5, beta=90.0))
        assert list(extras) == ["x", "v", "exact_v"]
        assert all(row.extras is extras for row in sweep(sc, "receiver_radius_m", [7e6, 4.2e7, 1e9]))

    @pytest.mark.parametrize(
        "parameter, grid, message",
        [
            ("receiver_radius_m", [7e6, 1.0, 2.0], r"sweep\.grid\[1\]: receiver\.radius_m"),
            # the message a config gets for the same value, not the surface's
            ("receiver_radius_m", [7e6, math.nan],
             r"^sweep\.grid\[1\]: receiver\.radius_m: expected a number, got nan$"),
            ("q", [0.5, 1.5], r"sweep\.grid\[1\]: q: must lie in \[0, 1\]"),
            ("width_hz", [1e6, 1e13], r"sweep\.grid\[1\]: source\.peak_hz/width_hz: must exceed"),
            ("peak_hz", [5e7, 700e12], r"sweep\.grid\[0\]: source\.peak_hz/width_hz: must exceed"),
        ],
        ids=["receiver_radius_m", "receiver_radius_m-nan", "q", "width_hz", "peak_hz"],
    )
    def test_out_of_domain_points_name_their_index(self, parameter, grid, message):
        with pytest.raises(ConfigError, match=message):
            sweep(parse_config(base_config()), parameter, grid)

    @pytest.mark.parametrize("parameter", ["peak_hz", "width_hz"])
    def test_infinite_source_values_are_rejected(self, parameter):
        message = rf"^sweep\.grid\[1\]: source\.{parameter}: must be finite and > 0, got inf$"
        valid = {"peak_hz": 7e14, "width_hz": 1e6}[parameter]
        with pytest.raises(ConfigError, match=message):
            sweep(parse_config(base_config()), parameter, [valid, math.inf])

    def test_narrowband_boundary_is_one_rule(self):
        # exactly 100 widths gets one message from a config and from a
        # width_hz sweep point, and the next float above passes both
        message = "source.peak_hz/width_hz: must exceed 100 (narrowband regime), got 100.0"
        with pytest.raises(ConfigError) as from_config:
            parse_config(dict(base_config(), source={"peak_hz": 100.0, "width_hz": 1.0}))
        assert str(from_config.value) == message
        sc = parse_config(dict(base_config(), source={"peak_hz": 100.0, "width_hz": 0.5}))
        with pytest.raises(ConfigError) as from_sweep:
            sweep(sc, "width_hz", [1.0])
        assert str(from_sweep.value) == "sweep.grid[0]: " + message
        above = math.nextafter(100.0, math.inf)
        sc = parse_config(dict(base_config(), source={"peak_hz": above, "width_hz": 1.0}))
        assert sweep(sc, "width_hz", [1.0]) == [run_scenario(sc)]

    def test_grid_point_maximum(self):
        sc = parse_config(base_config())
        with pytest.raises(ConfigError, match=r"^sweep\.grid: must hold 1 to 100000 points, got 100001$"):
            sweep(sc, "q", [0.0] * 100_001)
        # exactly the maximum passes the count check and reaches the points
        with pytest.raises(ConfigError, match=r"^sweep\.grid\[0\]: q: must lie"):
            sweep(sc, "q", [2.0] + [0.0] * 99_999)

    @pytest.mark.parametrize(
        "parameter, grid",
        [
            ("width_hz", [1e5, 3e6, 1e9, 5e12]),
            ("peak_hz", [2e14, 4.5e14, 7e14, 9.9e14]),
            ("receiver_radius_m", [6_371_000.0, 7e6, 9_556_500.0, 4e7, math.inf]),
        ],
    )
    @pytest.mark.parametrize("protocol", [{"kind": "tmss", "s": 0.7},
                                          {"kind": "cv_homodyne", "alpha": 0.5, "beta": 30.0},
                                          {"kind": "single_photon"},
                                          {"kind": "coherent", "alpha": 1.5},
                                          {"kind": "entangle_qkd"}])
    def test_sweep_rows_equal_runs_of_the_edited_config(self, parameter, grid, protocol):
        doc = dict(base_config(), protocol=protocol)
        rows = sweep(parse_config(doc), parameter, grid)
        assert len(rows) == len(grid)
        # one tag table per route, shared by every row and run, never copied
        tags = _LINK_TAGS[protocol["kind"]]
        assert all(row.tags is tags for row in rows)  # the CLI writes the first row's
        for value, row in zip(grid, rows):
            run = run_scenario(_edited(doc, parameter, value))
            assert run.tags is tags
            assert _field_reprs(row) == _field_reprs(run)
        if protocol["kind"] == "entangle_qkd":
            mc = dict(doc, monte_carlo={"trials": 10_000, "seed": 3})
            first, second = (run_scenario(_edited(mc, parameter, value)) for value in grid[:2])
            assert first.tags is second.tags and first.tags["qber_mc"]
            assert all(row.tags is tags for row in sweep(parse_config(mc), parameter, grid))

    @given(
        st.sampled_from(["width_hz", "peak_hz"]),
        st.lists(
            st.floats(1e4, 1e13) | st.floats(1e13, 1e16) | st.floats()
            | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 7e12, 1e8])
            # peak/width ratios past 1e154, where (delta ratio)^2 overflows, and inf
            | st.floats(1e160, 1.7e308) | st.floats(5e-324, 1e-140),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([{"kind": "tmss", "s": 0.7}, {"kind": "single_photon"},
                         {"kind": "coherent", "alpha": 1.5}, {"kind": "entangle_qkd"},
                         {"kind": "cv_homodyne", "alpha": 0.5, "beta": 30.0}]),
        # a massless body has delta = 0 exactly
        st.sampled_from(["earth", {"mass_kg": 0.0, "radius_m": 6_371_000.0}]),
    )
    @settings(max_examples=200, deadline=None)
    def test_source_sweeps_equal_runs_of_the_edited_config(self, parameter, grid, protocol, body):
        # the first point outside the domain fails as a run of the edited
        # config does, a ConfigError with the point's index in front; every
        # row before it equals a run
        doc = dict(base_config(), protocol=protocol, body=body)
        expected = []
        for index, value in enumerate(grid):
            try:
                expected.append(_field_reprs(run_scenario(_edited(doc, parameter, value))))
            except (ConfigError, ArithmeticError) as exc:
                with pytest.raises(type(exc)) as got:
                    sweep(parse_config(doc), parameter, grid)
                prefix = f"sweep.grid[{index}]: " if isinstance(exc, ConfigError) else ""
                assert str(got.value) == prefix + str(exc)
                return
        assert [_field_reprs(row) for row in sweep(parse_config(doc), parameter, grid)] == expected

    @pytest.mark.filterwarnings("ignore:body radius")
    def test_links_past_the_overlap_domain_fail_at_the_receiver(self):
        # just outside the photon sphere the shift parameter exceeds 1, the
        # closed-form overlap's domain: a source sweep fails at its link
        # before any point, a radius sweep at the point that reaches it
        config = parse_config(dict(base_config(), **COMPACT_LINK,
                                   receiver={"radius_m": 2230.0, "motion": "orbit"}))
        message = r"receiver\.radius_m: delta: must lie in \[0, 1\), got 2\.38259387433448\d*$"
        with pytest.raises(ConfigError, match="^" + message):
            run_scenario(config)
        for grid in ([1e13, 1e6], [1e6, 1e13]):
            with pytest.raises(ConfigError, match="^" + message):
                sweep(config, "width_hz", grid)
        with pytest.raises(ConfigError, match=r"^sweep\.grid\[1\]: " + message):
            sweep(config, "receiver_radius_m", [3000.0, 2230.0])

    @pytest.mark.filterwarnings("ignore:body radius")
    def test_orbits_inside_the_photon_sphere_name_their_index(self):
        cfg = dict(base_config(), **COMPACT_LINK, receiver={"radius_m": 3000.0, "motion": "orbit"})
        with pytest.raises(ConfigError, match=r"^sweep\.grid\[1\]: " + PHOTON_SPHERE_ERROR):
            sweep(parse_config(cfg), "receiver_radius_m", [3000.0, 2000.0])

    def test_source_sweeps_compute_the_geometry_once(self, monkeypatch):
        """The work budget, in station rate factors: one per station to
        parse it, and one per station for each link's geometry."""
        from gravlink import scenario, spacetime

        calls = []
        real = spacetime._log_rate_factor
        counted = lambda *a: calls.append(a) or real(*a)  # noqa: E731
        monkeypatch.setattr(spacetime, "_log_rate_factor", counted)
        monkeypatch.setattr(scenario, "_log_rate_factor", counted)
        sc = parse_config(base_config())
        assert len(calls) == 2
        calls.clear()
        run_scenario(sc)
        assert len(calls) == 2
        for parameter, grid, geometries in [
            ("width_hz", [1e5, 1e6, 1e7], 1),
            ("peak_hz", [5e14, 7e14], 1),
            ("receiver_radius_m", [7e6, 8e6, 9e6], 3),
            ("q", [0.1, 0.2], 0),
        ]:
            calls.clear()
            sweep(sc, parameter, grid)
            # a radius point also parses its receiver: three factors
            per_geometry = 3 if parameter == "receiver_radius_m" else 2
            assert len(calls) == per_geometry * geometries, parameter

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_q_sweep_matches_run(self, protocol):
        cfg = base_config()
        cfg["protocol"] = protocol
        sc = parse_config(cfg)
        res = run_scenario(sc)
        row = sweep(sc, "q", [res.q])[0]
        for name in ("fidelity", "negativity", "qber"):
            assert row.tags.get(name) == res.tags.get(name)
            if getattr(res, name) is None:
                assert getattr(row, name) is None
            else:
                assert getattr(row, name) == pytest.approx(getattr(res, name), rel=1e-15)


def _edited(doc: dict, parameter: str, value: float):
    """The config a sweep point stands for: doc with the swept value."""
    if parameter == "receiver_radius_m":
        return parse_config(dict(doc, receiver={"radius_m": value, "motion": "orbit"}))
    return parse_config(dict(doc, source={"peak_hz": 700e12, "width_hz": 1e6, parameter: value}))


def _field_reprs(result) -> dict:
    # repr tells -0.0 from 0.0, which == does not
    return {name: repr(getattr(result, name)) for name in result._fields}


class TestRecords:
    def test_results_and_configs_are_immutable(self):
        sc = parse_config(base_config())
        res = run_scenario(sc)
        with pytest.raises(AttributeError):
            res.q = 0.0
        with pytest.raises(AttributeError):
            sc.source = None

    @pytest.mark.parametrize("parameter, grid", [("width_hz", [1e6, 1e7, 1e8]), ("q", [0.0, 0.5])])
    def test_results_without_extras_share_one_extras(self, parameter, grid):
        rows = sweep(parse_config(base_config()), parameter, grid)
        assert len({id(row.extras) for row in rows}) == 1
        assert rows[0].extras == {} and rows[0].extras is run_scenario(parse_config(base_config())).extras
        assert "extras" not in result_to_dict(rows[0])


class TestReferenceTable:
    def test_shape_and_verdicts(self):
        rows = reference_table()
        assert len(rows) == 8
        for row in rows:
            assert set(row) == {
                "quantity", "reference", "computed", "tolerance",
                "deviation", "verdict", "note",
            }
            assert row["verdict"] in {"ok", "paper-inconsistent"}

    def test_far_field_shift_row(self):
        row = next(r for r in reference_table() if r["quantity"] == "delta far-field")
        assert row["reference"] == 3.5e-10
        assert row["deviation"] < 0.03
        assert row["verdict"] == "ok"

    def test_ground_to_orbit_shift_row_flags_the_reference(self):
        row = next(
            r for r in reference_table() if r["quantity"] == "delta ground-to-orbit"
        )
        assert row["reference"] == 1.45e-11
        assert row["computed"] == pytest.approx(1.4318478306647888e-10, rel=1e-12)
        assert row["verdict"] == "paper-inconsistent"
        assert "1.45e-10" in row["note"]

    def test_a_row_past_its_tolerance_fails(self, monkeypatch):
        from gravlink import scenario

        # every link read off the ground-to-iss one: the far-field delta is
        # 59% below its 3.5e-10 reference, far past the 3% tolerance
        real = scenario._earth_link
        monkeypatch.setattr(scenario, "_earth_link", lambda receiver, source: real("iss", source))
        by_name = {r["quantity"]: r for r in reference_table()}
        assert by_name["delta far-field"]["deviation"] > 0.5
        assert by_name["delta far-field"]["verdict"] == "fail"
        assert by_name["delta ground-to-orbit"]["verdict"] == "paper-inconsistent"

    def test_mismatch_rows_stay_within_printed_tolerances(self):
        by_name = {r["quantity"]: r for r in reference_table()}
        assert by_name["q ground-to-orbit (spdc_blue)"]["verdict"] == "ok"
        assert by_name["q far-field (spdc_blue)"]["verdict"] == "ok"
        assert by_name["q far-field (rb_vapor)"]["verdict"] == "paper-inconsistent"
        assert by_name["QBER far-field (%)"]["deviation"] < 0.1 / 0.75

    def test_computed_values_are_run_scenario_fields(self):
        def run(receiver, source):
            doc = dict(base_config(), receiver=receiver, source=source)
            return run_scenario(parse_config(doc))

        leo, far = run("iss", "spdc_blue"), run("far_field", "spdc_blue")
        far_rb = run("far_field", "rb_vapor")
        expected = {
            "delta far-field": far.delta,
            "delta ground-to-orbit": leo.delta,
            "1 - Delta ground-to-orbit (spdc_blue)": 1.0 - leo.Delta,
            "q ground-to-orbit (spdc_blue)": leo.q,
            "q far-field (spdc_blue)": far.q,
            "q far-field (rb_vapor)": far_rb.q,
            "negativity correction far-field (%)": 100.0 * (1.0 - 2.0 * far.negativity),
            "QBER far-field (%)": 100.0 * far.qber,
        }
        assert {r["quantity"]: r["computed"] for r in reference_table()} == expected


class TestRendering:
    def test_result_dict_holds_columns_and_extras(self):
        # the tags describe columns: they stay on the result, and a document states them once
        for cfg in (base_config(), dict(base_config(), monte_carlo={"trials": 10_000, "seed": 1})):
            res = run_scenario(parse_config(cfg))
            extras = ["extras"] if res.extras else []
            assert list(result_to_dict(res)) == [*RESULT_FIELDS, *extras]
        assert result_to_dict(res)["extras"] is res.extras  # the result's own, not a copy
        assert res.extras and "qber_mc" in res.tags

    def test_json_precision(self):
        res = run_scenario(parse_config(base_config()))
        payload = json.loads(render_json([result_to_dict(res)], precision=3))
        assert payload[0]["q"] == 0.00251
        payload = json.loads(render_json([result_to_dict(res)], precision=12))
        assert payload[0]["q"] == 0.00250832942837

    def test_json_inf_becomes_null(self):
        cfg = base_config()
        cfg["receiver"] = "far_field"
        res = run_scenario(parse_config(cfg))
        payload = json.loads(render_json([result_to_dict(res)], precision=12))
        assert payload[0]["travel_time_s"] is None

    def test_csv_header_and_round_trip(self):
        res = run_scenario(parse_config(base_config()))
        text = render_csv([result_to_dict(res)], columns=list(RESULT_FIELDS),
                          tags=res.tags)
        lines = text.strip().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(comments) == len(res.tags)
        assert data[0] == ",".join(RESULT_FIELDS)
        cells = data[1].split(",")
        assert float(cells[RESULT_FIELDS.index("q")]) == res.q
        assert float(cells[RESULT_FIELDS.index("travel_time_s")]) == res.travel_time_s

    def test_csv_empty_cell_for_missing_fields(self):
        cfg = base_config()
        cfg["protocol"] = {"kind": "single_photon"}
        res = run_scenario(parse_config(cfg))
        text = render_csv([result_to_dict(res)], columns=list(RESULT_FIELDS), tags={})
        row = text.strip().splitlines()[-1].split(",")
        assert row[RESULT_FIELDS.index("negativity")] == ""
        assert row[RESULT_FIELDS.index("qber")] == ""
