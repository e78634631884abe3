"""Scenario configuration, the end-to-end pipeline, and reporting.

A scenario is a gravitating body, an emitter, a receiver, a Gaussian
source, and a protocol choice.  run_scenario chains the geometry
(frequency-rate shift delta) through the mode overlap (Delta, q) into
the protocol figure of merit, tagging every emitted number with the
formula that produced it.  reference_table re-derives the published
Earth-to-orbit estimates this model targets and reports per-quantity
verdicts; sweep produces plot-ready rows over one parameter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import add

from . import entangleswap, fidelity
from .cvhomodyne import HomodynePrep, _received_overlap, homodyne_expectation
from .spacetime import (
    Body,
    Motion,
    Observer,
    ShiftParameter,
    coordinate_travel_time,
    redshift_total,
    shift_parameter,
)
from .wavepacket import (
    SOURCE_PRESETS,
    GaussianPacket,
    overlap_gaussian_closed,
)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "ScenarioResult",
    "MonteCarloSpec",
    "OutputSpec",
    "Protocol",
    "BODY_PRESETS",
    "STATION_PRESETS",
    "SOURCE_PRESETS",
    "load_config",
    "parse_config",
    "run_scenario",
    "reference_table",
    "sweep",
    "SWEEP_PARAMETERS",
    "result_to_dict",
    "render_json",
    "render_csv",
]


class ConfigError(ValueError):
    """Configuration rejected; the message starts with the field path."""


BODY_PRESETS: dict[str, dict] = {
    "earth": {"mass_kg": 5.972e24, "radius_m": 6_371_000.0},
}

STATION_PRESETS: dict[str, dict] = {
    "ground": {"radius_m": 6_371_000.0, "motion": "static"},
    "iss": {"radius_m": 6_771_000.0, "motion": "orbit"},
    "far_field": {"radius_m": math.inf, "motion": "static"},
}

PROTOCOL_KINDS = ("single_photon", "coherent", "tmss", "entangle_qkd", "cv_homodyne")


@dataclass(frozen=True)
class Protocol:
    kind: str
    alpha: float | None = None
    s: float | None = None
    beta: float | None = None


@dataclass(frozen=True)
class MonteCarloSpec:
    trials: int
    seed: int


@dataclass(frozen=True)
class OutputSpec:
    format: str = "json"
    path: str | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    body: Body
    emitter: Observer
    receiver: Observer
    source: GaussianPacket
    protocol: Protocol
    monte_carlo: MonteCarloSpec | None = None
    output: OutputSpec | None = None


# the nine reported quantities, in output column order
RESULT_FIELDS = (
    "chi",
    "delta",
    "Delta",
    "q",
    "fidelity",
    "negativity",
    "qber",
    "travel_time_s",
    "redshift_ratio",
)


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's numbers.  Fields not produced by the selected
    protocol are None; tags maps every populated field (and extras key)
    to the formula that produced it; extras carries protocol-specific
    values that have no column of their own."""

    chi: float | None
    delta: float | None
    Delta: float | None
    q: float | None
    fidelity: float | None
    negativity: float | None
    qber: float | None
    travel_time_s: float | None
    redshift_ratio: float | None
    tags: dict[str, str] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# config parsing (strict: unknown keys are errors, messages carry field paths)


def _require_mapping(doc, path: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {type(doc).__name__}")
    return doc


def _reject_unknown(doc: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}")


def _number(doc: dict, key: str, path: str) -> float:
    if key not in doc:
        raise ConfigError(f"{path}.{key}: missing")
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {val!r}")
    try:
        num = float(val)
    except OverflowError:
        raise ConfigError(f"{path}.{key}: integer too large for a float") from None
    if math.isnan(num):
        raise ConfigError(f"{path}.{key}: expected a number, got {val!r}")
    return num


def _positive(doc: dict, key: str, path: str) -> float:
    val = _number(doc, key, path)
    if not (0.0 < val < math.inf):
        raise ConfigError(f"{path}.{key}: must be finite and > 0, got {val}")
    return val


def _parse_body(doc, path: str = "body") -> Body:
    if isinstance(doc, str):
        if doc not in BODY_PRESETS:
            raise ConfigError(f"{path}: unknown preset {doc!r} (have {sorted(BODY_PRESETS)})")
        doc = BODY_PRESETS[doc]
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, {"mass_kg", "radius_m"}, path)
    mass = _number(doc, "mass_kg", path)
    if not (0.0 <= mass < math.inf):
        raise ConfigError(f"{path}.mass_kg: must be finite and >= 0, got {mass}")
    return Body(mass=mass, radius=_positive(doc, "radius_m", path))


def _parse_station(doc, path: str) -> Observer:
    if isinstance(doc, str):
        if doc not in STATION_PRESETS:
            raise ConfigError(f"{path}: unknown preset {doc!r} (have {sorted(STATION_PRESETS)})")
        doc = STATION_PRESETS[doc]
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, {"radius_m", "motion"}, path)
    radius = _number(doc, "radius_m", path)
    if not (radius > 0.0):
        raise ConfigError(f"{path}.radius_m: must be > 0, got {radius}")
    motion_raw = doc.get("motion", "static")
    try:
        motion = Motion(motion_raw)
    except ValueError:
        raise ConfigError(
            f"{path}.motion: expected 'static' or 'orbit', got {motion_raw!r}"
        ) from None
    return Observer(radius=radius, motion=motion)


def _parse_source(doc, path: str = "source") -> GaussianPacket:
    if isinstance(doc, str):
        if doc not in SOURCE_PRESETS:
            raise ConfigError(f"{path}: unknown preset {doc!r} (have {sorted(SOURCE_PRESETS)})")
        doc = SOURCE_PRESETS[doc]
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, {"peak_hz", "width_hz"}, path)
    peak = _positive(doc, "peak_hz", path)
    width = _positive(doc, "width_hz", path)
    try:
        return GaussianPacket(peak_hz=peak, width_hz=width)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


_PROTOCOL_PARAMS = {
    "single_photon": set(),
    "coherent": {"alpha"},
    "tmss": {"s"},
    "entangle_qkd": set(),
    "cv_homodyne": {"alpha", "beta"},
}


def _parse_protocol(doc, path: str = "protocol") -> Protocol:
    if isinstance(doc, str):
        doc = {"kind": doc}
    doc = _require_mapping(doc, path)
    kind = doc.get("kind")
    if kind not in PROTOCOL_KINDS:
        raise ConfigError(f"{path}.kind: expected one of {PROTOCOL_KINDS}, got {kind!r}")
    params = _PROTOCOL_PARAMS[kind]
    _reject_unknown(doc, params | {"kind"}, path)
    values = {}
    for name in sorted(params):
        values[name] = _number(doc, name, path)
        if math.isinf(values[name]):
            raise ConfigError(f"{path}.{name}: must be finite, got {values[name]}")
    if kind == "tmss" and values["s"] < 0.0:
        raise ConfigError(f"{path}.s: must be >= 0, got {values['s']}")
    return Protocol(kind=kind, **values)


def _count(doc: dict, key: str, path: str, minimum: int) -> int:
    val = _number(doc, key, path)
    if not (val.is_integer() and val >= minimum):
        raise ConfigError(f"{path}.{key}: must be an integer >= {minimum}, got {doc[key]!r}")
    # an int above 2**53 keeps its exact value, not its float rounding
    return doc[key] if isinstance(doc[key], int) else int(val)


# Largest accepted monte_carlo.trials: the sampler runs at about 9 ns per
# trial, so this is about a second of sampling.
_MAX_TRIALS = 10**8


def _parse_monte_carlo(doc, path: str = "monte_carlo") -> MonteCarloSpec:
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, {"trials", "seed"}, path)
    trials = _count(doc, "trials", path, minimum=10_000)
    if trials > _MAX_TRIALS:
        raise ConfigError(f"{path}.trials: must be <= {_MAX_TRIALS}, got {doc['trials']!r}")
    return MonteCarloSpec(trials=trials, seed=_count(doc, "seed", path, minimum=0))


def _parse_output(doc, path: str = "output") -> OutputSpec:
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, {"format", "path"}, path)
    fmt = doc.get("format", "json")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"{path}.format: expected 'csv' or 'json', got {fmt!r}")
    out_path = doc.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError(f"{path}.path: expected a string, got {out_path!r}")
    return OutputSpec(format=fmt, path=out_path)


def _check_station(body: Body, radius: float, path: str) -> None:
    if not (radius >= body.radius):
        raise ConfigError(f"{path}: below the body surface r = {body.radius} m, got {radius}")
    if radius <= body.schwarzschild_radius:
        raise ConfigError(f"{path}: at or below the horizon")


def _parse_link(body: Body, emitter_doc, receiver_doc) -> tuple[Observer, Observer]:
    """Parse both stations and check the link they form over body: a
    static emitter, and neither station below the surface or the horizon."""
    emitter = _parse_station(emitter_doc, "emitter")
    receiver = _parse_station(receiver_doc, "receiver")
    if emitter.motion is not Motion.STATIC:
        raise ConfigError("emitter.motion: orbiting emitters are not supported")
    _check_station(body, emitter.radius, "emitter.radius_m")
    _check_station(body, receiver.radius, "receiver.radius_m")
    return emitter, receiver


def parse_config(doc: dict) -> ScenarioConfig:
    """Validate a configuration document (presets expanded, strict keys)."""
    doc = _require_mapping(doc, "config")
    _reject_unknown(
        doc,
        {"body", "emitter", "receiver", "source", "protocol", "monte_carlo", "output"},
        "config",
    )
    for key in ("body", "emitter", "receiver", "source", "protocol"):
        if key not in doc:
            raise ConfigError(f"config.{key}: missing")
    body = _parse_body(doc["body"])
    emitter, receiver = _parse_link(body, doc["emitter"], doc["receiver"])
    config = ScenarioConfig(
        body=body,
        emitter=emitter,
        receiver=receiver,
        source=_parse_source(doc["source"]),
        protocol=_parse_protocol(doc["protocol"]),
        monte_carlo=_parse_monte_carlo(doc["monte_carlo"]) if "monte_carlo" in doc else None,
        output=_parse_output(doc["output"]) if "output" in doc else None,
    )
    return config


def load_config(path) -> ScenarioConfig:
    """Read and validate a JSON configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        # JSONDecodeError, an integer past Python's 4300-digit conversion
        # limit, or bytes that are not UTF-8
        raise ConfigError(f"config: not valid JSON ({exc})") from None
    return parse_config(doc)


# ---------------------------------------------------------------------------
# pipeline

_GEOMETRY_TAGS = {
    "chi": "chi = 1/redshift_ratio (received frequencies scale as nu -> nu/chi)",
    "delta": "delta = |(rate_A/rate_B)^(1/4) - 1|, rate = 1 - 2M/r static, 1 - 3M/r orbit",
    "Delta": "Delta = sqrt(2k/(1+k^2)) exp(-(delta peak)^2/(4(1+k^2) width^2)), k = 1 -+ delta",
    "q": "q = 1 - Delta^2",
    "travel_time_s": "t = |r_*(B) - r_*(A)|/c with r_* = r + r_s ln(r/r_s - 1)",
    "redshift_ratio": "Omega_B/Omega_A = sqrt(rate_A/rate_B)",
}


# Figures of merit per protocol kind: (Delta, q, protocol) -> values, and
# the tag of each value.  Entries look fidelity.* and entangleswap.* up
# at call time, so rebinding those module attributes reaches every caller.
# cv_homodyne is absent: its numbers are not functions of (Delta, q).
PROTOCOL_TABLE = {
    "single_photon": (
        lambda d, q, p: {"fidelity": fidelity.single_photon_fidelity(d)},
        {"fidelity": "F = |Delta|^2"},
    ),
    "coherent": (
        lambda d, q, p: {"fidelity": fidelity.coherent_fidelity(d, p.alpha)},
        {"fidelity": "F = exp(-2 |alpha|^2 (1 - Re Delta))"},
    ),
    "tmss": (
        lambda d, q, p: {"fidelity": fidelity.tmss_fidelity(d, p.s)},
        {"fidelity": "F = 1/((1 - Delta) cosh^2 s + Delta)^2"},
    ),
    "entangle_qkd": (
        lambda d, q, p: {
            "fidelity": 0.5 * (1.0 + math.sqrt(1.0 - q)),
            "negativity": entangleswap.negativity_closed(q),
            "qber": entangleswap.qber_closed(q),
        },
        {
            "fidelity": "F = <Psi+|rho_D1|Psi+> = (1 + sqrt(1-q))/2",
            "negativity": "N = sqrt(1-q)/2",
            "qber": "QBER = q/2",
        },
    ),
}


_Geometry = tuple[float, ShiftParameter, float]


def _link_geometry(body: Body, emitter: Observer, receiver: Observer) -> _Geometry:
    """What a link gives every source sent over it: (redshift_ratio,
    shift, travel_time_s)."""
    return (
        redshift_total(body, emitter, receiver),
        shift_parameter(body, emitter, receiver),
        coordinate_travel_time(body, emitter.radius, receiver.radius),
    )


def _link_result(
    geometry: _Geometry,
    source: GaussianPacket,
    proto: Protocol,
    monte_carlo: MonteCarloSpec | None = None,
) -> ScenarioResult:
    """One source over a link of known geometry: overlap -> protocol."""
    ratio, shift, travel = geometry
    chi = 1.0 / ratio
    overlap = overlap_gaussian_closed(source, shift)
    tags = dict(_GEOMETRY_TAGS)
    values: dict[str, float | None] = {
        "chi": chi,
        "delta": shift.delta,
        "Delta": float(overlap.delta),
        "q": overlap.q,
        "fidelity": None,
        "negativity": None,
        "qber": None,
        "travel_time_s": travel,
        "redshift_ratio": ratio,
    }
    extras: dict[str, float] = {}

    if proto.kind == "cv_homodyne":
        values["fidelity"] = _received_overlap(source, source, chi)
        tags["fidelity"] = "received signal/LO mode overlap (1: homodyne unaffected)"
        prep = HomodynePrep(alpha=proto.alpha, beta=proto.beta)
        hom = homodyne_expectation(prep)
        extras["x"] = hom.x
        extras["v"] = hom.v
        extras["exact_v"] = hom.exact_v
        tags["x"] = "X = 2 Re(alpha conj(beta))"
        tags["v"] = "V = 2 |beta|^2 for |beta| >= 10 |alpha|, else exact"
        tags["exact_v"] = "V_exact = 2 (|beta|^2 + |alpha|^2)"
    else:
        figures, figure_tags = PROTOCOL_TABLE[proto.kind]
        values.update(figures(values["Delta"], overlap.q, proto))
        tags.update(figure_tags)
        if proto.kind == "entangle_qkd" and monte_carlo is not None:
            extras["qber_mc"] = entangleswap.qber_monte_carlo(
                overlap.q, monte_carlo.trials, monte_carlo.seed
            )
            tags["qber_mc"] = "empirical fraction of disagreeing sifted bits (seeded)"

    return ScenarioResult(**values, tags=tags, extras=extras)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Chain geometry -> overlap -> protocol for one configuration."""
    geometry = _link_geometry(config.body, config.emitter, config.receiver)
    return _link_result(geometry, config.source, config.protocol, config.monte_carlo)


# ---------------------------------------------------------------------------
# reference table

def _row(quantity, reference, computed, tolerance, conflicted=False, note=""):
    deviation = abs(computed - reference) / abs(reference)
    if deviation <= tolerance:
        verdict = "ok"
    elif conflicted:
        verdict = "paper-inconsistent"
    else:
        verdict = "fail"
    return {
        "quantity": quantity,
        "reference": reference,
        "computed": computed,
        "deviation": deviation,
        "tolerance": tolerance,
        "verdict": verdict,
        "note": note,
    }


def _earth_link(receiver: str, source: str) -> ScenarioResult:
    """run_scenario on an entanglement-swap link from the ground on Earth."""
    doc = {
        "body": "earth",
        "emitter": "ground",
        "receiver": receiver,
        "source": source,
        "protocol": "entangle_qkd",
    }
    return run_scenario(parse_config(doc))


def reference_table() -> list[dict]:
    """Recompute the published Earth-link estimates and judge each one.

    The computed values are fields of run_scenario results on three
    preset links: ground to iss and to far_field with spdc_blue, and
    ground to far_field with rb_vapor.  Every row carries the published
    value, the value this model computes, their relative deviation and
    a verdict.  Rows where the published numbers contradict each other
    get the verdict "paper-inconsistent" instead of "fail", and the
    note shows both candidate values; the computed value is never tuned
    to match a printed number.
    """
    leo = _earth_link("iss", "spdc_blue")
    far = _earth_link("far_field", "spdc_blue")
    far_rb = _earth_link("far_field", "rb_vapor")

    leo_candidate = 1.45e-10
    leo_agrees = abs(leo.delta - leo_candidate) / leo_candidate

    rows = [
        _row("delta far-field", 3.5e-10, far.delta, 0.03),
        _row(
            "delta ground-to-orbit",
            1.45e-11,
            leo.delta,
            0.03,
            conflicted=True,
            note=(
                "published candidates: 1.45e-11 (printed) vs 1.45e-10 (required by"
                " the same source's q = 2.6e-3); the printed exponent cannot be"
                f" right, and the computed value matches the second candidate to"
                f" {100.0 * leo_agrees:.2f}%"
            ),
        ),
        _row("1 - Delta ground-to-orbit (spdc_blue)", 1.3e-3, 1.0 - leo.Delta, 0.10),
        _row("q ground-to-orbit (spdc_blue)", 2.6e-3, leo.q, 0.10),
        _row("q far-field (spdc_blue)", 1.5e-2, far.q, 0.10),
        _row(
            "q far-field (rb_vapor)",
            2.52e-4,
            far_rb.q,
            0.25,
            conflicted=True,
            note=(
                "candidates: 2.52e-4 (printed) vs the stated formula's own value"
                " with peak 380 THz and width 5 MHz (this row's computed); they"
                " cannot both hold, and the computed value is authoritative"
            ),
        ),
        _row(
            "negativity correction far-field (%)",
            0.7,
            100.0 * (1.0 - 2.0 * far.negativity),
            0.1 / 0.7,
            note="tolerance is 0.1 percentage point, expressed relative to 0.7",
        ),
        _row(
            "QBER far-field (%)",
            0.75,
            100.0 * far.qber,
            0.1 / 0.75,
            note="tolerance is 0.1 percentage point, expressed relative to 0.75",
        ),
    ]
    return rows


# ---------------------------------------------------------------------------
# sweeps

SWEEP_PARAMETERS = ("width_hz", "peak_hz", "receiver_radius_m", "q")

# Largest accepted sweep grid: a 10^5-point receiver_radius_m sweep
# prints 96 MB of JSON in about 4 s and 540 MB of memory on a 2-core
# host, and the cost grows linearly from there.
_MAX_GRID_POINTS = 100_000


def _check_q(q: float) -> float:
    """q, the mode mismatch weight, checked against its domain [0, 1]."""
    if not (0.0 <= q <= 1.0):
        raise ConfigError(f"q must lie in [0, 1], got {q}")
    return q


def _result_from_q(config: ScenarioConfig, q: float) -> ScenarioResult:
    _check_q(q)
    delta_mode = math.sqrt(1.0 - q)
    values: dict[str, float | None] = {name: None for name in RESULT_FIELDS}
    values["Delta"] = delta_mode
    values["q"] = q
    tags = {"Delta": "Delta = sqrt(1-q) (swept q, geometry bypassed)", "q": "swept input"}
    figures, figure_tags = PROTOCOL_TABLE[config.protocol.kind]
    values.update(figures(delta_mode, q, config.protocol))
    tags.update(figure_tags)
    return ScenarioResult(**values, tags=tags, extras={})


def sweep(config: ScenarioConfig, parameter: str, grid: list[float]) -> list[ScenarioResult]:
    """One ScenarioResult per grid value, in grid order.

    parameter is one of width_hz, peak_hz (source), receiver_radius_m,
    or q (bypasses the geometry entirely; geometric fields come back
    None).  A source sweep leaves the link alone, so its geometry is
    computed once for the whole grid.  Monte Carlo settings are dropped
    during sweeps to keep rows cheap and deterministic.  A grid value
    outside the model's domain raises ConfigError naming its index,
    sweep.grid[i]; a grid of more than _MAX_GRID_POINTS values raises it
    for sweep.grid before any point runs.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(
            f"sweep.parameter: expected one of {SWEEP_PARAMETERS}, got {parameter!r}"
        )
    if parameter == "q" and config.protocol.kind not in PROTOCOL_TABLE:
        raise ConfigError("sweep.parameter: q sweeps need a non-cv protocol")
    if len(grid) == 0:
        raise ConfigError("sweep.grid: empty grid")
    if len(grid) > _MAX_GRID_POINTS:
        raise ConfigError(f"sweep.grid: at most {_MAX_GRID_POINTS} points, got {len(grid)}")
    body, emitter, proto = config.body, config.emitter, config.protocol

    if parameter == "q":
        def point(value):
            return _result_from_q(config, value)
    elif parameter == "receiver_radius_m":
        def point(value):
            _check_station(body, value, "receiver.radius_m")
            receiver = Observer(radius=value, motion=config.receiver.motion)
            return _link_result(_link_geometry(body, emitter, receiver), config.source, proto)
    else:
        geometry = _link_geometry(body, emitter, config.receiver)
        source_doc = {"peak_hz": config.source.peak_hz, "width_hz": config.source.width_hz}

        def point(value):
            source = _parse_source({**source_doc, parameter: value})
            return _link_result(geometry, source, proto)

    results = []
    for index, value in enumerate(grid):
        try:
            results.append(point(float(value)))
        except ConfigError as exc:
            raise ConfigError(f"sweep.grid[{index}]: {exc}") from None
    return results


# ---------------------------------------------------------------------------
# rendering


def result_to_dict(result: ScenarioResult) -> dict:
    doc = {name: getattr(result, name) for name in RESULT_FIELDS}
    doc["tags"] = dict(result.tags)
    if result.extras:
        doc["extras"] = dict(result.extras)
    return doc


def render_json(rows: list[dict] | dict, precision: int | None = None) -> str:
    """JSON text with a two-space indent; floats rounded to `precision`
    significant digits when given (pass None or 17 for full round-trip
    fidelity).  JSON has no Infinity, so +-inf is written as null, which
    marks an unbounded value; so is a finite value that rounding carries
    past the largest float.

    The text is byte for byte json.dumps(doc, indent=2) + "\n" of the
    rounded document with every infinity replaced by None, written in
    one pass: each float is rounded and formatted once, and each
    distinct string, key list and all-string object (a row's tags) is
    encoded once per call.  A value json cannot encode raises json's own
    TypeError.
    """
    float_repr = float.__repr__
    # format(v, "") is repr(v) for a float
    spec = "" if precision is None else f".{precision}g"
    strings: dict[str, str] = {}
    shapes: dict[tuple, list[str]] = {}  # (indent, keys) -> "{" or "," + indent + key + ": "
    string_objects: dict[tuple, str] = {}

    def texts(values, inner: str) -> list[str]:
        # below 1e308 in magnitude a float stays finite when rounded
        return [
            float_repr(float(format(v, spec)))
            if type(v) is float and -1e308 < v < 1e308
            else "null" if v is None else value(v, inner)
            for v in values
        ]

    def number(v) -> str:
        if not math.isfinite(v):
            return "NaN" if v != v else "null"
        if precision is not None:
            v = float(format(v, spec))
            if not math.isfinite(v):  # rounded past the largest float
                return "null"
        return float_repr(v)

    def string(s) -> str:
        if type(s) is not str:
            return encode_basestring_ascii(s)
        text = strings.get(s)
        if text is None:
            text = strings[s] = encode_basestring_ascii(s)
        return text

    def key(k) -> str:
        if isinstance(k, str):
            return string(k)
        # json's own coercion of int, float, bool and None keys, and its
        # TypeError for any other key
        return json.dumps({k: None})[1:-7]

    def value(v, indent: str) -> str:
        if isinstance(v, str):
            return string(v)
        if v is True:
            return "true"
        if v is False:
            return "false"
        if isinstance(v, float):
            return number(v)
        if isinstance(v, int):
            return int.__repr__(v)
        if isinstance(v, dict):
            return mapping(v, indent)
        if isinstance(v, (list, tuple)):
            return sequence(v, indent)
        return json.dumps(v)  # None, or json's TypeError

    def mapping(d: dict, indent: str) -> str:
        if not d:
            return "{}"
        inner = indent + "  "
        shape = (inner, tuple(d))
        heads = shapes.get(shape)
        if heads is None:
            heads = [("," if i else "{") + inner + key(k) + ": " for i, k in enumerate(shape[1])]
            # only str keys: 1, 1.0 and True are equal keys with different texts
            if {*map(type, shape[1])} != {str}:
                return "".join(map(add, heads, texts(d.values(), inner))) + indent + "}"
            shapes[shape] = heads
        values = d.values()
        if type(next(iter(values))) is str and {*map(type, values)} == {str}:
            memo = (shape, tuple(values))
            text = string_objects.get(memo)
            if text is None:
                text = "".join(map(add, heads, map(string, values))) + indent + "}"
                string_objects[memo] = text
            return text
        return "".join(map(add, heads, texts(values, inner))) + indent + "}"

    def sequence(seq, indent: str) -> str:
        if not seq:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join(texts(seq, inner)) + indent + "]"

    return texts((rows,), "\n")[0] + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(float(value))  # float() strips numpy scalars from the repr
    cell = str(value)
    if "," in cell or '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def render_csv(rows: list[dict], columns: list[str], tags: dict | None = None) -> str:
    """CSV with shortest round-trip floats.

    The header row carries exactly the given column names; formula tags,
    if any, go above it as # comment lines so the table body stays
    machine-clean.
    """
    if not rows:
        return ""
    lines = []
    if tags:
        for key in columns:
            if key in tags:
                lines.append(f"# {key}: {tags[key]}")
        for key in sorted(set(tags) - set(columns)):
            lines.append(f"# {key}: {tags[key]}")
    lines.append(",".join(columns))
    for row in rows:
        cells = [repr(v) if type(v) is float else _csv_cell(v) for v in map(row.get, columns)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"

