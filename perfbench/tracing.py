"""Span recording around calls into gravlink's public functions.

Spans live in flat arrays in memory until the run ends: a name id,
start, end, parent span index and op id each.  Wrapping replaces a
function object wherever a gravlink module binds it, so the calls that
`scenario`, `cli` and `cvhomodyne` make into the lower layers are
recorded as children of the caller's span.  Nothing on disk changes,
and `uninstall` puts every original object back.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Public functions per layer.  A name the package no longer defines is
# skipped at install time and reports zero calls.
LAYER_FUNCTIONS = {
    "spacetime": (
        "metric_factor",
        "proper_time_ratio",
        "redshift_static",
        "redshift_total",
        "shift_parameter",
        "tortoise",
        "coordinate_travel_time",
        "radius_after",
    ),
    "wavepacket": (
        "tabulate",
        "propagate_packet",
        "overlap_quadrature",
        "overlap_gaussian_closed",
        "mismatch_q",
        "read_packet_csv",
        "write_packet_csv",
    ),
    "fidelity": ("single_photon_fidelity", "coherent_fidelity", "tmss_fidelity"),
    "entangleswap": (
        "build_initial_state",
        "apply_beamsplitter",
        "detect",
        "memory_state_closed",
        "negativity",
        "negativity_closed",
        "bit_probabilities",
        "qber_closed",
        "qber_monte_carlo",
    ),
    "cvhomodyne": ("homodyne_expectation", "curvature_invariance_report"),
    "scenario": (
        "parse_config",
        "run_scenario",
        "reference_table",
        "sweep",
        "result_to_dict",
        "render_json",
        "render_csv",
    ),
    "cli": ("main",),
}


def _kind_of_config(args, kwargs):
    config = args[0] if args else kwargs.get("config")
    return "[" + config.protocol.kind + "]"


def _packet_pair(args, kwargs):
    from gravlink import wavepacket

    both = all(isinstance(p, wavepacket.GaussianPacket) for p in args[:2])
    return "[gaussian]" if both else "[tabulated]"


def _sweep_parameter(args, kwargs):
    return "[" + (args[1] if len(args) > 1 else kwargs["parameter"]) + "]"


# Some layer metrics split one function's calls by an input property.
VARIANTS = {
    "scenario.run_scenario": _kind_of_config,
    "wavepacket.overlap_quadrature": _packet_pair,
    "scenario.sweep": _sweep_parameter,
}


class Recorder:
    """In-memory span store; `op` tags every span begun while it is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self._stack = [-1]
        self.op = -1
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def high(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, -np.inf):
            self.maxima[key] = value

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which the call stack keeps nested inside it.
        """
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        sid = np.frombuffer(self.name_id, dtype=np.int32)
        k = len(self.names)
        calls = np.bincount(sid, minlength=k)
        incl = np.bincount(sid, weights=dur, minlength=k)
        self_s = np.bincount(sid, weights=dur - child, minlength=k)
        return {
            name: {"calls": float(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def top_level_by_op(self, n_ops: int) -> np.ndarray:
        """Seconds covered by top-level spans, per op id."""
        if len(self.start) == 0:
            return np.zeros(n_ops)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op_of, dtype=np.int32)
        top = (parent < 0) & (op >= 0)
        return np.bincount(op[top], weights=dur[top], minlength=n_ops)[:n_ops]


def _wrap(rec: Recorder, name: str, fn, config_error):
    variant = VARIANTS.get(name)

    def traced(*args, **kwargs):
        idx = rec.begin(name + variant(args, kwargs) if variant else name)
        try:
            result = fn(*args, **kwargs)
        except config_error:
            rec.add(name + ".rejected", 1)
            raise
        finally:
            rec.finish(idx)
        _observe(rec, name, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _observe(rec: Recorder, name: str, args, kwargs, result) -> None:
    if name == "wavepacket.overlap_quadrature" and result.abserr is not None:
        rec.high("wavepacket.overlap_quadrature.abserr", result.abserr)
    elif name in ("scenario.render_json", "scenario.render_csv"):
        rec.add(name + ".bytes", len(result))
    elif name == "scenario.sweep":
        rec.add("scenario.sweep.points" + _sweep_parameter(args, kwargs), len(result))
    elif name == "entangleswap.qber_monte_carlo":
        rec.add(name + ".trials", args[1] if len(args) > 1 else kwargs["trials"])


class Tracer:
    """Installs and removes span wrappers on the imported gravlink package."""

    def __init__(self, rec: Recorder):
        from gravlink.scenario import ConfigError

        self.rec = rec
        modules = [
            m
            for key, m in sys.modules.items()
            if m is not None and (key == "gravlink" or key.startswith("gravlink."))
        ]
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules.get(f"gravlink.{layer}")
            for fname in names:
                fn = getattr(module, fname, None) if module is not None else None
                if callable(fn) and id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, _wrap(rec, f"{layer}.{fname}", fn, ConfigError))
        self._bindings = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr, value, hit[1]))

    def install(self) -> None:
        for module, attr, _orig, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, orig, _wrapper in self._bindings:
            setattr(module, attr, orig)
