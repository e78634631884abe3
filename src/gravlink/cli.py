"""Command-line front end.

Every subcommand prints a machine-readable table (JSON by default, CSV
with --format csv) in which each numeric column carries a formula tag,
in one tags block after the rows (JSON) or as # comment lines above the
header (CSV).

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 reference-table verdict failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

from . import entangleswap
from .cvhomodyne import HomodynePrep, curvature_invariance_report
from .scenario import (
    BODY_PRESETS,
    PROTOCOL_TABLE,
    SOURCE_PRESETS,
    STATION_PRESETS,
    SWEEP_PARAMETERS,
    ConfigError,
    Protocol,
    _GEOMETRY_TAGS,
    _QBER_MC_TAG,
    _check_grid_size,
    _link_geometry,
    _parse_body,
    _parse_monte_carlo,
    _parse_protocol,
    _parse_source,
    _parse_station,
    load_config,
    reference_table,
    render_csv,
    render_json,
    result_to_dict,
    run_scenario,
    sweep,
)
from .spacetime import (Body, ConvergenceError, Motion, Observer, Sign, _link_shift, _sign,
                        _signed_shift, coordinate_travel_time)
from .wavepacket import GaussianPacket, _overlap_at_ratio, _scale_terms, overlap_quadrature

# The one text of every column a subcommand prints: the pipeline's own for
# the link and protocol quantities (the fidelity is entangle_qkd's, which
# entangle prints), and here those only the subcommands print.
_TAGS = {
    **PROTOCOL_TABLE["cv_homodyne"][2],
    **PROTOCOL_TABLE["entangle_qkd"][2],
    **_GEOMETRY_TAGS,
    "qber_mc": _QBER_MC_TAG,
    "sign": "up: received frequencies lower (redshift), k = 1 - delta; down: higher (blueshift), k = 1 + delta",
    "Delta_quadrature": (
        "adaptive quadrature of integral F_A*(nu) F_B(nu) dnu over the"
        " explicitly scaled pair; differences from Delta at the 1e-9 level"
        " come from rounding the scale factor 1 -+ delta to a representable"
        " number when building that pair, not from the integrator"
    ),
    "q_quadrature": "q = 1 - |Delta_quadrature|^2",
    "quadrature_abserr": "integrator's absolute error estimate",
    "p_share": "p_share = (2 - q)/2",
    "p_diff": "p_diff = q/2",
    "p_d1": "six-mode simulation: P(single click at D1)",
    "p_d2": "six-mode simulation: P(single click at D2)",
    "negativity_d1_sim": "eigenvalue negativity of the simulated D1 memory state",
    "negativity_d2_sim": "eigenvalue negativity of the simulated D2 memory state",
    "sim_vs_closed_max_abs": "max |rho_sim - rho_closed| over both heralds",
    "trials": "Monte Carlo sample count",
    "seed": "generator seed (runs are reproducible)",
    "overlap": "received signal/LO mode overlap (quadrature)",
    "pass": "overlap is 1 to 1e-12 and (X, V) identical to the first matched row",
    "reference": "published value, as printed",
    "computed": "recomputed here from presets via the full pipeline",
    "deviation": "|computed - reference| / |reference|",
    "tolerance": "maximum acceptable relative deviation",
    "verdict": "ok | fail | paper-inconsistent (the published numbers conflict)",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default, which this tool reserves
    # for numerical failures; route all usage errors to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _one_of(names) -> str:
    """The {a,b} metavar argparse prints for choices=names: the flag's value
    is left to the config rule that checks it, and its message."""
    return "{" + ",".join(names) + "}"


# ---------------------------------------------------------------------------
# shared flag groups and their config sub-documents


def _output_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("output")
    group.add_argument(
        "--format",
        choices=("csv", "json"),
        default="json",
        help="output format (default json; CSV floats are exact round-trip)",
    )
    group.add_argument("--out", metavar="PATH", default=None, help="write to a file instead of stdout")
    group.add_argument(
        "--precision",
        type=int,  # render_json's rule: 1..17
        default=None,
        metavar="DIGITS",
        help="significant digits for JSON floats (default 12; 17 is exact)",
    )
    return parent


def _geometry_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("geometry")
    group.add_argument("--body", metavar=_one_of(sorted(BODY_PRESETS)), default=None, help="body preset")
    group.add_argument("--mass-kg", type=float, default=None)
    group.add_argument("--body-radius-m", type=float, default=None)
    group.add_argument(
        "--emitter-radius-m",
        type=float,
        default=None,
        help="static emitter radius (default: body surface)",
    )
    group.add_argument(
        "--receiver", metavar=_one_of(sorted(STATION_PRESETS)), default=None, help="receiver preset"
    )
    group.add_argument("--receiver-radius-m", type=float, default=None)
    group.add_argument("--receiver-motion", metavar=_one_of(m.value for m in Motion), default=None)
    return parent


def _source_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("source")
    group.add_argument(
        "--source", metavar=_one_of(sorted(SOURCE_PRESETS)), default=None, help="source preset"
    )
    group.add_argument("--peak-hz", type=float, default=None)
    group.add_argument("--width-hz", type=float, default=None)
    return parent


def _flag_doc(preset, path: str, **flags):
    """The config sub-document that a preset flag or a group of explicit
    flags spells, {} when none is given.  The config parsers validate it."""
    given = {key: value for key, value in flags.items() if value is not None}
    if preset is not None and given:
        raise ConfigError(f"{path}: give a preset or explicit flags, not both")
    return preset if preset is not None else given


# the flags that _link and _source read: every flag of their groups
_GEOMETRY_FLAGS = tuple(action.dest for action in _geometry_parent()._actions)
_SOURCE_FLAGS = tuple(action.dest for action in _source_parent()._actions)


def _reject_unread(args, dests: tuple[str, ...], reason: str) -> None:
    """Reject the flags among dests that were given: reason leaves them unread."""
    given = ["--" + dest.replace("_", "-") for dest in dests if getattr(args, dest) is not None]
    if given:
        raise ConfigError(f"{args.command}: {reason}; drop {', '.join(given)}")


def _source(args) -> GaussianPacket:
    doc = _flag_doc(args.source, "source", peak_hz=args.peak_hz, width_hz=args.width_hz)
    return _parse_source(doc or "spdc_blue")


def _link(args, alternative: str = "") -> tuple[Body, Observer, Observer]:
    """Body, emitter and receiver from the geometry flags; the emitter is
    static and defaults to the body surface (orbiting emitters come in
    through configs)."""
    body_doc = _flag_doc(args.body, "body", mass_kg=args.mass_kg, radius_m=args.body_radius_m)
    body = _parse_body(body_doc or "earth")
    receiver = _flag_doc(
        args.receiver, "receiver", radius_m=args.receiver_radius_m, motion=args.receiver_motion
    )
    if not receiver:
        raise ConfigError(f"receiver: give --receiver or --receiver-radius-m{alternative}")
    radius = body.radius if args.emitter_radius_m is None else args.emitter_radius_m
    emitter = _parse_station(body, {"radius_m": radius}, "emitter")
    return body, emitter, _parse_station(body, receiver, "receiver")


# ---------------------------------------------------------------------------
# emission


def _emit(args, rows: list[dict], tags=None, head=None, comments=()) -> None:
    """Write the rows and their tags to --out or stdout: as JSON, the
    document {**head, "rows": rows, "tags": tags}; as CSV, the comment
    lines, one # extra line per value of a row's extras, then
    render_csv of the columns (the first row's keys less extras).  tags
    defaults to the _TAGS texts of the columns."""
    columns = [key for key in rows[0] if key != "extras"]
    if tags is None:
        tags = {key: _TAGS[key] for key in columns if key in _TAGS}
    if args.format == "json":
        precision = 12 if args.precision is None else args.precision
        text = render_json({**(head or {}), "rows": rows, "tags": tags}, precision)
    else:
        lines = list(comments)
        for index, row in enumerate(rows):
            for key, value in row.get("extras", {}).items():
                lines.append(f"# extra {key}[{index}] = {value!r}")
        text = "".join(line + "\n" for line in lines) + render_csv(rows, columns, tags)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_redshift(args) -> int:
    body, emitter, receiver = _link(args)
    # the shift alone, so that links past the overlap's domain are reported
    ratio, x = _link_shift(body, emitter, receiver)
    row = {
        "redshift_ratio": ratio,
        "chi": 1.0 / ratio,
        "delta": abs(x),
        "sign": _sign(x),
        "travel_time_s": coordinate_travel_time(body, emitter.radius, receiver.radius),
    }
    _emit(args, [row])
    return 0


def _cmd_overlap(args) -> int:
    packet = _source(args)
    if args.delta is not None:
        _reject_unread(args, _GEOMETRY_FLAGS, "--delta replaces the geometry")
        sign = args.sign or "up"
        x = _signed_shift(args.delta, sign)
        terms = _scale_terms(args.delta, 1.0 + x)
    else:
        link = _link(args, " (or --delta)")
        _reject_unread(args, ("sign",), "the geometry sets the sign")
        _, _, terms, x = _link_geometry(*link)
        sign = _sign(x)
    d, q = _overlap_at_ratio(terms, packet.peak_hz / packet.width_hz)
    row = {"delta": terms[0], "sign": sign, "Delta": d, "q": q}
    if args.quadrature:
        k = 1.0 + x
        received = GaussianPacket(peak_hz=k * packet.peak_hz, width_hz=k * packet.width_hz)
        numeric = overlap_quadrature(packet, received)
        row["Delta_quadrature"] = float(abs(numeric.delta))
        row["q_quadrature"] = numeric.q
        row["quadrature_abserr"] = numeric.abserr
    _emit(args, [row])
    return 0


def _cmd_entangle(args) -> int:
    import numpy as np

    if args.q is not None:
        _reject_unread(args, _GEOMETRY_FLAGS + _SOURCE_FLAGS, "--q replaces the geometry and the source")
        q = args.q  # build_initial_state applies q's rule
    else:
        _, _, terms, _ = _link_geometry(*_link(args, " (or --q)"))
        packet = _source(args)
        q = _overlap_at_ratio(terms, packet.peak_hz / packet.width_hz)[1]
    state = entangleswap.build_initial_state(q)
    state = entangleswap.apply_beamsplitter(state, entangleswap.AP, entangleswap.BP)
    state = entangleswap.apply_beamsplitter(state, entangleswap.CP, entangleswap.DP)
    # a single click has probability 1/4 at every q: both heralds hold a state
    d1 = entangleswap.detect(state, "D1")
    d2 = entangleswap.detect(state, "D2")
    sim_gap = max(float(np.max(np.abs(o.memory_state - entangleswap.memory_state_closed(q, o.which))))
                  for o in (d1, d2))
    p_share, p_diff = entangleswap.bit_probabilities(q)
    figures = PROTOCOL_TABLE["entangle_qkd"][1]
    row = {
        "q": q,
        **figures(math.sqrt(1.0 - q), q, Protocol(kind="entangle_qkd")),
        "p_share": p_share,
        "p_diff": p_diff,
        "p_d1": d1.probability,
        "p_d2": d2.probability,
        "negativity_d1_sim": entangleswap.negativity(d1.memory_state),
        "negativity_d2_sim": entangleswap.negativity(d2.memory_state),
        "sim_vs_closed_max_abs": sim_gap,
    }
    _emit(args, [row])
    return 0


def _cmd_qber(args) -> int:
    row = {"q": args.q, "qber": entangleswap.qber_closed(args.q)}  # applies q's rule
    if args.trials is None:
        _reject_unread(args, ("seed",), "--seed needs --trials")
    else:
        seed = 12345 if args.seed is None else args.seed
        spec = _parse_monte_carlo({"trials": args.trials, "seed": seed})
        row["qber_mc"] = entangleswap.qber_monte_carlo(args.q, spec.trials, spec.seed)
        row["trials"] = spec.trials
        row["seed"] = spec.seed
    _emit(args, [row])
    return 0


def _cmd_cv_homodyne(args) -> int:
    packet = _source(args)
    lo_doc = _flag_doc(None, "lo", peak_hz=args.lo_peak_hz, width_hz=args.lo_width_hz)
    lo_packet = _parse_source(lo_doc, "lo") if lo_doc else None
    proto = _parse_protocol({"kind": "cv_homodyne", "alpha": args.alpha, "beta": args.beta})
    prep = HomodynePrep(alpha=proto.alpha, beta=proto.beta)
    earth = _parse_body("earth")
    ground, iss, far_field = (_parse_station(earth, n, n) for n in ("ground", "iss", "far_field"))
    scenarios = [
        (Body(mass=0.0, radius=earth.radius), ground, iss),
        (earth, ground, iss),
        (earth, ground, far_field),
    ]
    labels = ("flat", "leo", "far_field")
    rows = curvature_invariance_report(prep, scenarios, packet=packet, lo_packet=lo_packet)
    for row, label in zip(rows, labels):
        row["scenario"] = label
    _emit(args, rows)
    return 0


def _cmd_run(args) -> int:
    result = run_scenario(load_config(args.config))
    _emit(args, [result_to_dict(result)], result.tags)
    return 0


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """np.linspace(start, stop, count) bit for bit, in its float operations:
    point i is i*step + start, or i/div*delta + start where the step
    underflows to 0, and the last point is stop."""
    delta = stop - start
    if count == 1:
        return [0.0 * delta + start]
    div = count - 1
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + start for i in range(count)]
    else:
        values = [i * step + start for i in range(count)]
    values[-1] = stop
    return values


def _parse_grid(text: str) -> list[float]:
    head, _, rest = text.partition(":")
    if head in ("log", "lin"):
        parts = rest.split(":")
        if len(parts) != 3:
            raise ConfigError(f"sweep.grid: expected {head}:START:STOP:COUNT, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"sweep.grid: bad {head} range {text!r}") from None
        _check_grid_size(count)
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"sweep.grid: {head} range needs finite endpoints, got {text!r}")
        if head == "lin":
            if not math.isfinite(stop - start):
                raise ConfigError(f"sweep.grid: lin range wider than the largest float, got {text!r}")
            return _linspace(start, stop, count)
        if start <= 0.0 or stop <= 0.0:
            raise ConfigError("sweep.grid: log range needs positive endpoints")
        # np.geomspace: math's log10 and pow can differ from numpy's by an ulp
        import numpy as np

        return [float(v) for v in np.geomspace(start, stop, count)]
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    try:
        return [float(tok) for tok in tokens]
    except ValueError:
        raise ConfigError(f"sweep.grid: not numbers: {text!r}") from None


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    grid = _parse_grid(args.grid)
    results = sweep(config, args.parameter, grid)
    comments = (
        f"# sweep parameter: {args.parameter}",
        "# grid: " + ",".join(repr(v) for v in grid),
    )
    # sweep drops monte_carlo, so every row of one sweep has the same tags
    _emit(args, [result_to_dict(r) for r in results], results[0].tags,
          head={"parameter": args.parameter, "grid": grid}, comments=comments)
    return 0


def _cmd_paper_table(args) -> int:
    rows = reference_table()
    _emit(args, rows)
    return 3 if any(row["verdict"] == "fail" for row in rows) else 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gravlink",
        description="Gravitational effects on photonic quantum links: "
        "redshift, mode mismatch, and protocol figures of merit.",
    )
    outp = _output_parent()
    geo = _geometry_parent()
    src = _source_parent()
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser(
        "redshift",
        parents=[outp, geo],
        help="frequency ratio, shift parameter and travel time for a link",
    )
    p.set_defaults(handler=_cmd_redshift)

    p = sub.add_parser(
        "overlap",
        parents=[outp, geo, src],
        help="mode overlap Delta and mismatch q for a source over a link",
    )
    p.add_argument("--delta", type=float, default=None, help="shift parameter, replaces geometry")
    p.add_argument("--sign", choices=[s.value for s in Sign], help="shift direction for --delta (default up)")
    p.add_argument(
        "--quadrature",
        action="store_true",
        help="also integrate the overlap numerically as a cross-check",
    )
    p.set_defaults(handler=_cmd_overlap)

    p = sub.add_parser(
        "entangle",
        parents=[outp, geo, src],
        help="entanglement swap: closed forms next to the six-mode simulation",
    )
    p.add_argument("--q", type=float, default=None, help="mismatch weight, replaces geometry")
    p.set_defaults(handler=_cmd_entangle)

    p = sub.add_parser("qber", parents=[outp], help="key error rate at a given mismatch weight")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--trials", type=int, default=None, help="add a Monte Carlo estimate")
    p.add_argument("--seed", type=int, default=None, help="generator seed for --trials (default 12345)")
    p.set_defaults(handler=_cmd_qber)

    p = sub.add_parser(
        "cv-homodyne",
        parents=[outp, src],
        help="homodyne X and V across flat, orbit and far-field links",
    )
    p.add_argument("--alpha", type=float, required=True, help="signal amplitude")
    p.add_argument("--beta", type=float, required=True, help="local oscillator amplitude")
    p.add_argument("--lo-peak-hz", type=float, default=None, help="mismatched LO demo")
    p.add_argument("--lo-width-hz", type=float, default=None)
    p.set_defaults(handler=_cmd_cv_homodyne)

    p = sub.add_parser("run", parents=[outp], help="run one scenario from a JSON config")
    p.add_argument("config", help="path to the scenario configuration")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("sweep", parents=[outp], help="sweep one parameter over a grid")
    p.add_argument("config", help="path to the base scenario configuration")
    p.add_argument("--parameter", required=True, metavar=_one_of(SWEEP_PARAMETERS))
    p.add_argument(
        "--grid",
        required=True,
        help="comma-separated values, or log:START:STOP:COUNT, or lin:START:STOP:COUNT",
    )
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser(
        "paper-table",
        parents=[outp],
        help="recompute the published reference numbers and report verdicts",
    )
    p.set_defaults(handler=_cmd_paper_table)

    return parser


def _show_warning(message, *_location) -> None:
    # the library's warnings (the Body weak-field one) as one CLI line,
    # without the source location Python would print
    print(f"gravlink: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.format == "csv":
            _reject_unread(args, ("precision",), "CSV floats are exact round-trip")
        elif args.precision is not None:
            render_json(None, args.precision)  # its digit rule, before any work is done
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.handler(args)
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"gravlink: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # a ConfigError is a ValueError; so is numpy's LinAlgError, which can
        # only have been raised if numpy was imported
        numpy = sys.modules.get("numpy")
        if numpy is not None and isinstance(exc, numpy.linalg.LinAlgError):
            print(f"gravlink: numerical failure: {exc}", file=sys.stderr)
            return 2
        print(f"gravlink: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
