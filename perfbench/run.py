"""gravlink benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics (from spans recorded around calls into
gravlink) with --trace 1.  The line before it, starting with "report ",
carries the input digest, the checker self-test, the host noise probe
and the tail percentile with its sample and window counts.  NOTES.md
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROCESSES = 2  # fresh set-up processes before the loop, and again after it
TAIL_WINDOW = 100  # op_tail_ms is taken in windows of this many consecutive ops
TAIL_BEYOND = 10  # ... as the op time with this many ops of the window above it


def calib_ms() -> float:
    """Fixed pure-Python plus numpy work; a host-speed diagnostic only."""
    import numpy as np

    data = np.random.default_rng(0).random(200_000)
    samples = []
    for _ in range(9):
        t0 = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        np.sort(data)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def digest(description) -> str:
    text = json.dumps(description, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def set_up(name: str, seed: int, workdir: str):
    """Import, input generation and warm-up: the work setup_s times."""
    import workloads

    import gravlink

    if os.path.dirname(os.path.abspath(gravlink.__file__)) != os.path.join(SRC, "gravlink"):
        raise RuntimeError(f"imported gravlink from {gravlink.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[name](seed, workdir, ROOT)
    wl.warm_up()
    return wl


def time_setup_children(name: str, seed: int, times: list[float], digests: set[str]) -> None:
    for _ in range(SETUP_PROCESSES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        digests.add(proc.stdout.strip())


def self_test(wl) -> dict:
    """Every corruption of a real, passing record must fail the checker."""
    op = wl.units[0][0]
    record = wl.sample_record(op)
    outcome = {"real record passes": wl.check(op, record)[0]}
    for label, bad in wl.corruptions(op, record):
        outcome[label + " fails"] = not wl.check(op, bad)[0]
    return outcome


def tail(times_s: list[float]) -> tuple[float, float, int]:
    """(value in ms, percentile, windows): in each window of TAIL_WINDOW
    consecutive ops, the op time with TAIL_BEYOND ops of the window above
    it, and the median of that over the windows.  A run of fewer ops is
    one window.

    Interference from the rest of the host comes in bursts of seconds
    that slow a fifth of the ops in them two- to fivefold.  The highest
    percentile with ten samples above it over a whole run of thousands of
    ops lands inside whichever bursts the run met, so it moved by 35-70%
    between runs of the same code; the median over windows does not
    follow a burst unless it covers half the run.
    """
    w = min(TAIL_WINDOW, len(times_s))
    k = max(w - TAIL_BEYOND - 1, 0)
    values = [sorted(times_s[i:i + w])[k] for i in range(0, len(times_s) - w + 1, w)]
    return statistics.median(values) * 1e3, 100.0 * (k + 1) / w, len(values)


class Loop:
    """Closed loop: one client, the next op starts when the last one ends."""

    def __init__(self, wl, seconds: float):
        self.wl = wl
        self.seconds = seconds
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.infos: list[dict] = []
        self.attempted = self.failed = 0
        self.elapsed = 0.0

    def op(self, op, tracer=None) -> None:
        """Time one op; with a tracer, spans cover the op but not its check."""
        self.attempted += 1
        times = self.times
        rec = None
        if tracer is not None:
            times = self.traced_times
            rec = tracer.rec
            rec.op = len(times)
            tracer.install()
        t0 = time.perf_counter()
        try:
            record = self.wl.run_op(op, rec)
        except Exception:  # a crashing op is a failed op; keep measuring
            traceback.print_exc(file=sys.stderr)
            record = None
        finally:
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
                rec.op = -1
        if record is None:
            self.failed += 1
            return
        try:
            good, info = self.wl.check(op, record)
        except Exception:  # a record the checker cannot read fails the op
            traceback.print_exc(file=sys.stderr)
            good, info = False, {}
        if tracer is not None:
            self.infos.append(info)
        if not good:
            self.failed += 1

    def run(self, tracer=None) -> None:
        """Every unit started is finished, and at least `min_units` run.
        With a tracer, units alternate traced and untraced so both halves
        see the same host conditions.
        """
        units = self.wl.units
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < self.seconds or i < self.wl.min_units:
            for op in units[i % len(units)]:
                self.op(op, tracer if i % 2 == 0 else None)
            i += 1
        self.elapsed = time.perf_counter() - start


def import_profile() -> dict:
    """Cold `import gravlink` under -X importtime in a fresh process."""
    from workloads import child_env

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import gravlink"],
        cwd=ROOT,
        env=child_env(ROOT),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    gravlink_us = scipy_us = 0
    modules = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = (part.strip() for part in line[len("import time:"):].split("|"))
        modules += 1
        if name == "gravlink":
            gravlink_us = int(cumulative_us)
        if name.startswith("scipy"):
            scipy_us += int(self_us)
    return {
        "import.gravlink_s": (gravlink_us * 1e-6, "s", "lower"),
        "import.scipy_s": (scipy_us * 1e-6, "s", "lower"),
        "import.modules_loaded": (modules, "count", "lower"),
    }


def layer_metrics(wl, loop: Loop, rec, calib: tuple[float, float]) -> dict:
    """Per-layer values from the traced half of the run, per traced op."""
    import numpy as np
    from workloads import CLI_SUBCOMMANDS

    summary = rec.summary()
    n = max(len(loop.traced_times), 1)

    def agg(base: str) -> dict:
        out = {"calls": 0.0, "incl_s": 0.0, "self_s": 0.0}
        for name, s in summary.items():
            if name == base or name.startswith(base + "[") or (base.endswith(".") and name.startswith(base)):
                for key in out:
                    out[key] += s[key]
        return out

    def per_call(base: str, scale: float) -> float:
        s = agg(base)
        return s["incl_s"] / s["calls"] * scale if s["calls"] else 0.0

    m: dict[str, tuple] = {}
    m.update(import_profile())
    for sub in CLI_SUBCOMMANDS[:-1]:  # the config-error call has no metric of its own
        m[f"cli.{sub}.cold_ms"] = (per_call(f"cli.{sub}.cold", 1e3), "ms", "lower")
    info = wl.reduce(loop.infos) if loop.infos else {}
    m["cli.main.warm_ms"] = (info.get("cli.main.warm_ms", 0.0), "ms", "lower")
    m["cli.stdout_bytes"] = (info.get("cli.stdout_bytes", 0.0), "B", "lower")
    m["cli.exit_mismatches"] = (info.get("cli.exit_mismatches", 0.0), "count", "lower")

    points = 0.0
    for p in ("receiver_radius_m", "width_hz", "peak_hz", "q"):
        pts = rec.counters.get(f"scenario.sweep.points[{p}]", 0.0)
        points += pts
        incl = summary.get(f"scenario.sweep[{p}]", {}).get("incl_s", 0.0)
        m[f"scenario.sweep.us_per_point.{p}"] = (incl / pts * 1e6 if pts else 0.0, "us", "lower")
    m["scenario.sweep.points"] = (points / n, "count", "higher")

    for base in (
        "spacetime.shift_parameter",
        "spacetime.redshift_total",
        "spacetime.coordinate_travel_time",
        "wavepacket.overlap_gaussian_closed",
        "fidelity.",
    ):
        s = agg(base)
        key = base.rstrip(".")
        m[f"{key}.calls"] = (s["calls"] / n, "count", "lower")
        m[f"{key}.busy_s"] = (s["self_s"] / n, "s", "lower")

    m["scenario.result_to_dict.busy_s"] = (agg("scenario.result_to_dict")["self_s"] / n, "s", "lower")
    for fmt in ("json", "csv"):
        m[f"scenario.render_{fmt}.busy_s"] = (agg(f"scenario.render_{fmt}")["self_s"] / n, "s", "lower")
        m[f"scenario.render_{fmt}.bytes"] = (rec.counters.get(f"scenario.render_{fmt}.bytes", 0.0) / n, "B", "lower")

    parse = agg("scenario.parse_config")
    m["scenario.parse_config.calls"] = (parse["calls"] / n, "count", "lower")
    m["scenario.parse_config.us_per_call"] = (per_call("scenario.parse_config", 1e6), "us", "lower")
    m["scenario.parse_config.rejected"] = (rec.counters.get("scenario.parse_config.rejected", 0.0) / n, "count", "higher")
    m["scenario.run_scenario.calls"] = (agg("scenario.run_scenario")["calls"] / n, "count", "lower")
    for kind in ("single_photon", "coherent", "tmss", "entangle_qkd", "cv_homodyne"):
        s = summary.get(f"scenario.run_scenario[{kind}]")
        value = s["incl_s"] / s["calls"] * 1e6 if s else 0.0
        m[f"scenario.run_scenario.us_per_call.{kind}"] = (value, "us", "lower")

    for variant in ("gaussian", "tabulated"):
        s = summary.get(f"wavepacket.overlap_quadrature[{variant}]")
        m[f"wavepacket.overlap_quadrature.{variant}_us"] = (s["incl_s"] / s["calls"] * 1e6 if s else 0.0, "us", "lower")
    m["wavepacket.overlap_quadrature.calls"] = (agg("wavepacket.overlap_quadrature")["calls"] / n, "count", "lower")
    m["wavepacket.overlap_quadrature.abserr_max"] = (
        rec.maxima.get("wavepacket.overlap_quadrature.abserr", 0.0), "1", "lower")
    m["wavepacket.tabulate.us_per_call"] = (per_call("wavepacket.tabulate", 1e6), "us", "lower")
    m["wavepacket.propagate_packet.us_per_call"] = (per_call("wavepacket.propagate_packet", 1e6), "us", "lower")
    m["cvhomodyne.curvature_invariance_report.us_per_call"] = (
        per_call("cvhomodyne.curvature_invariance_report", 1e6), "us", "lower")
    m["wavepacket.write_packet_csv.ms_per_call"] = (per_call("wavepacket.write_packet_csv", 1e3), "ms", "lower")
    m["wavepacket.read_packet_csv.ms_per_call"] = (per_call("wavepacket.read_packet_csv", 1e3), "ms", "lower")
    m["wavepacket.write_packet_csv.bytes"] = (info.get("wavepacket.write_packet_csv.bytes", 0.0), "B", "lower")

    m["entangleswap.swap_sim.us_per_call"] = (per_call("entangleswap.swap_sim", 1e6), "us", "lower")
    m["entangleswap.fock_terms"] = (info.get("entangleswap.fock_terms", 0.0), "count", "lower")
    m["entangleswap.negativity.us_per_call"] = (per_call("entangleswap.negativity", 1e6), "us", "lower")
    mc = agg("entangleswap.qber_monte_carlo")
    trials = rec.counters.get("entangleswap.qber_monte_carlo.trials", 0.0)
    m["entangleswap.qber_monte_carlo.ns_per_trial"] = (mc["incl_s"] / trials * 1e9 if trials else 0.0, "ns", "lower")
    m["entangleswap.qber_monte_carlo.trials"] = (trials / mc["calls"] if mc["calls"] else 0.0, "count", "higher")
    m["spacetime.radius_after.us_per_call"] = (per_call("spacetime.radius_after", 1e6), "us", "lower")
    m["scenario.reference_table.us_per_call"] = (per_call("scenario.reference_table", 1e6), "us", "lower")

    for key in ("checks", "checks_passed"):
        m[f"oracle.{key}"] = (info.get(f"oracle.{key}", 0.0), "count", "higher")
    for key in ("overlap", "swap", "negativity", "radius_after", "cv_overlap"):
        m[f"oracle.{key}_gap_max"] = (info.get(f"oracle.{key}_gap_max", 0.0), "1", "lower")
    m["oracle.mc_sigma_max"] = (info.get("oracle.mc_sigma_max", 0.0), "sigma", "lower")
    m["wavepacket.propagated_over_closed_q"] = (
        wl.tracked()["wavepacket.propagated_over_closed_q"] if hasattr(wl, "tracked") else 0.0, "1", "lower")

    m["host.calib_ms.before"] = (calib[0], "ms", "lower")
    m["host.calib_ms.after"] = (calib[1], "ms", "lower")
    traced = np.asarray(loop.traced_times)
    covered = rec.top_level_by_op(len(traced))
    p50_traced = float(np.median(traced)) * 1e3 if traced.size else 0.0
    p50_plain = statistics.median(loop.times) * 1e3 if loop.times else 0.0
    m["trace.op_p50_ms.traced"] = (p50_traced, "ms", "lower")
    m["trace.op_p50_ms.untraced"] = (p50_plain, "ms", "lower")
    m["trace.overhead_ms"] = (p50_traced - p50_plain, "ms", "lower")
    m["trace.spans_per_op"] = (len(rec.start) / n, "count", "lower")
    uncovered = traced - covered if traced.size else np.zeros(1)
    m["trace.uncovered_ms_per_op"] = (float(np.mean(uncovered)) * 1e3, "ms", "lower")
    m["trace.uncovered_share"] = (float(np.sum(uncovered) / np.sum(traced)) if traced.size else 0.0, "1", "lower")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gravlink", "__init__.py")):
        print(f"run.py: no gravlink sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.setup_only:
            print(digest(set_up(args.workload, args.seed, workdir).description))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    calib_before = calib_ms()
    setup_times: list[float] = []
    child_digests: set[str] = set()
    if not args.trace:
        time_setup_children(args.workload, args.seed, setup_times, child_digests)
    wl = set_up(args.workload, args.seed, workdir)
    input_digest = digest(wl.description)
    selftest = self_test(wl)
    loop = Loop(wl, args.seconds)
    if args.trace:
        from tracing import Recorder, Tracer

        rec = Recorder()
        loop.run(Tracer(rec))
    else:
        loop.run()
        time_setup_children(args.workload, args.seed, setup_times, child_digests)
    calib_after = calib_ms()

    digests_match = all(d == input_digest for d in child_digests)
    correct = loop.failed == 0 and all(selftest.values()) and digests_match
    times = loop.times + loop.traced_times
    tail_ms, tail_pct, tail_windows = tail(times)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_digest": input_digest,
        "setup_child_digests_match": digests_match,
        "selftest": selftest,
        "host.calib_ms": {"before": calib_before, "after": calib_after},
        "ops_attempted": loop.attempted,
        "ops_failed": loop.failed,
        "op_samples": len(times),
        "op_tail_percentile": tail_pct,
        "op_tail_windows": tail_windows,
        "op_tail_whole_run_ms": sorted(times)[max(len(times) - TAIL_BEYOND - 1, 0)] * 1e3,
        # ungated: the share of the run the host spends in its slow regime
        # moves these by up to 0.4 between runs of the same code (NOTES.md)
        "op_p50_ms": statistics.median(times) * 1e3,
        "ok_ops_per_s": (loop.attempted - loop.failed) / loop.elapsed,
        "loop_s": loop.elapsed,
        "setup_samples_s": setup_times,
    }
    if args.trace:
        metrics = layer_metrics(wl, loop, rec, (calib_before, calib_after))
    else:
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
        )
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        }
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
