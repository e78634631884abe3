"""The four benchmark workloads.

Each workload turns a seed into a pool of inputs, runs one op on an
input (`run_op`, the timed part) and checks the op's output against a
second route the program itself provides (`check`, untimed).  The pool
is a list of units; a unit is a list of ops run back to back.  Only
`cli_cold` has units of more than one op: a shuffled cycle of every
subcommand, so percentiles always cover the same mix.

`corruptions` hands the checker damaged copies of a real record; each
must count as a failed op.  See NOTES.md for why each workload exists
and for the sizes stated here.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time

# Stated sizes (NOTES.md repeats them).
CLI_CYCLES = 6  # distinct seeded cycles in the cli_cold pool
CLI_SWEEP_POINTS = 8  # grid size of the cli_cold sweep subcommand
CLI_QBER_TRIALS = 100_000
SWEEP_POOL = 32  # seeded base configs per sweep_grid pool
SWEEP_POINTS = 64  # grid points per swept parameter, four parameters per op
SWEEP_SAMPLES = 4  # rows per sweep re-derived through the scalar route
BATCH_POOL = 16  # seeded batches per scenario_batch pool
BATCH_PER_KIND = 16  # valid docs per protocol kind in one batch
BATCH_PER_FAULT = 4  # invalid docs per fault type in one batch
ORACLE_POOL = 64  # seeded links per oracle_crosscheck pool
ORACLE_MC_TRIALS = 200_000
MC_SIGMAS = 6.0  # Monte Carlo QBER must sit within this many standard errors
REL_TOL = 1e-12

PROTOCOLS = ("single_photon", "coherent", "tmss", "entangle_qkd", "cv_homodyne")
FAULTS = ("unknown_key", "wrong_type", "unknown_preset", "narrowband")
SWEPT = ("receiver_radius_m", "width_hz", "peak_hz", "q")
CLI_SUBCOMMANDS = (
    "redshift",
    "overlap",
    "entangle",
    "qber",
    "cv-homodyne",
    "run",
    "sweep",
    "paper-table",
    "config-error",
)


def child_env(root: str) -> dict:
    """The environment for a child process that imports gravlink from root/src."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if a == b:
        return True
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def _rows_close(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(
        _close(got[k], want[k]) if isinstance(want[k], float) or want[k] is None else got[k] == want[k]
        for k in want
    )


def _round12(value):
    """The CLI's default JSON rendering of one value (12 significant digits)."""
    if isinstance(value, float):
        return None if math.isinf(value) else float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# seeded documents


def _body(rng: random.Random):
    if rng.random() < 0.5:
        return "earth", 6_371_000.0
    radius = rng.uniform(3.0e6, 7.0e6)
    return {"mass_kg": rng.uniform(1.0e24, 1.0e25), "radius_m": radius}, radius


def _source(rng: random.Random, max_ratio: float = 1e9):
    peak = rng.uniform(2.0e14, 8.0e14)
    width = peak / 10 ** rng.uniform(7.0, math.log10(max_ratio))
    return {"peak_hz": peak, "width_hz": width}


def _protocol(rng: random.Random, kind: str) -> dict:
    doc = {"kind": kind}
    if kind == "coherent":
        doc["alpha"] = rng.uniform(0.5, 3.0)
    elif kind == "tmss":
        doc["s"] = rng.uniform(0.1, 1.5)
    elif kind == "cv_homodyne":
        doc["alpha"] = rng.uniform(0.1, 2.0)
        doc["beta"] = rng.uniform(20.0, 40.0)
    return doc


def scenario_doc(rng: random.Random, kind: str) -> dict:
    """A valid config: static emitter on the surface, receiver above it."""
    body, radius = _body(rng)
    if rng.random() < 0.1:
        receiver = "far_field"
    else:
        receiver = {
            "radius_m": radius * rng.uniform(1.02, 7.0),
            "motion": rng.choice(("static", "orbit")),
        }
    return {
        "body": body,
        "emitter": {"radius_m": radius, "motion": "static"},
        "receiver": receiver,
        "source": _source(rng),
        "protocol": _protocol(rng, kind),
    }


def invalid_doc(rng: random.Random, fault: str) -> dict:
    """A config with exactly one fault that parse_config rejects."""
    doc = scenario_doc(rng, rng.choice(PROTOCOLS))
    if fault == "unknown_key":
        target = rng.choice(("config", "source", "protocol"))
        (doc if target == "config" else doc[target]).update({"colour": "blue"})
    elif fault == "wrong_type":
        doc["source"] = {"peak_hz": str(doc["source"]["peak_hz"]), "width_hz": 1e6}
    elif fault == "unknown_preset":
        doc[rng.choice(("body", "receiver"))] = rng.choice(("mars", "geo"))
    else:  # narrowband: peak/width below 100
        width = rng.uniform(1e12, 1e13)
        doc["source"] = {"peak_hz": width * rng.uniform(2.0, 90.0), "width_hz": width}
    return doc


# ---------------------------------------------------------------------------


class Workload:
    name = ""
    min_units = 1

    def __init__(self, seed: int, workdir: str, root: str):
        self.workdir = workdir
        self.root = root
        self.rng = random.Random(f"{self.name}/{seed}")
        self.units, self.description = self.generate()

    def generate(self):
        raise NotImplementedError

    def warm_up(self) -> None:
        for op in self.units[0]:
            self.check(op, self.run_op(op))

    def sample_record(self, op):
        """A real record for the checker self-test."""
        return self.run_op(op)

    def reduce(self, infos: list[dict]) -> dict:
        """Per-layer values carried by check infos: maxima for *_max keys,
        means otherwise."""
        out: dict[str, float] = {}
        for key in {k for info in infos for k in info}:
            vals = [info[key] for info in infos if key in info]
            out[key] = max(vals) if key.endswith("_max") else sum(vals) / len(vals)
        return out


class CliCold(Workload):
    """One op is one fresh `python -m gravlink` process."""

    name = "cli_cold"
    # three cycles give 27 ops, so the tail percentile (10 samples above
    # it) sits above the median even when the host runs slow
    min_units = 3

    def generate(self):
        rng = self.rng
        os.makedirs(self.workdir, exist_ok=True)
        units = []
        for c in range(CLI_CYCLES):
            cycle = []
            for sub in CLI_SUBCOMMANDS:
                argv, files = self._argv(rng, sub, c)
                for fname, doc in files.items():
                    with open(os.path.join(self.workdir, fname), "w", encoding="utf-8") as fh:
                        json.dump(doc, fh)
                cycle.append({"sub": sub, "argv": argv, "files": files})
            rng.shuffle(cycle)
            units.append(cycle)
        return units, units

    def _argv(self, rng: random.Random, sub: str, c: int):
        fmt = ["--format", rng.choice(("json", "csv"))]
        r = repr
        if sub == "redshift":
            return ["redshift", "--receiver-radius-m", r(rng.uniform(6.5e6, 4.2e7)),
                    "--receiver-motion", rng.choice(("static", "orbit")), *fmt], {}
        if sub == "overlap":
            src = _source(rng)
            return ["overlap", "--receiver", rng.choice(("iss", "far_field")),
                    "--peak-hz", r(src["peak_hz"]), "--width-hz", r(src["width_hz"]),
                    "--quadrature", *fmt], {}
        if sub == "entangle":
            return ["entangle", "--q", r(rng.uniform(0.0, 0.5)), *fmt], {}
        if sub == "qber":
            return ["qber", "--q", r(rng.uniform(0.0, 0.5)), "--trials", str(CLI_QBER_TRIALS),
                    "--seed", str(rng.randrange(1 << 30)), *fmt], {}
        if sub == "cv-homodyne":
            return ["cv-homodyne", "--alpha", r(rng.uniform(0.1, 2.0)),
                    "--beta", r(rng.uniform(20.0, 40.0)), *fmt], {}
        if sub == "run":
            name = f"run_{c}.json"
            return ["run", "{work}/" + name, *fmt], {name: scenario_doc(rng, rng.choice(PROTOCOLS))}
        if sub == "sweep":
            name = f"sweep_{c}.json"
            doc = scenario_doc(rng, rng.choice(PROTOCOLS[:4]))
            param = rng.choice(SWEPT)
            grid = {
                "receiver_radius_m": f"lin:7e6:{r(rng.uniform(2e7, 4e7))}:{CLI_SWEEP_POINTS}",
                "width_hz": f"log:1e4:{r(rng.uniform(1e5, 1e6))}:{CLI_SWEEP_POINTS}",
                "peak_hz": f"lin:2e14:{r(rng.uniform(5e14, 9e14))}:{CLI_SWEEP_POINTS}",
                "q": f"lin:0:{r(rng.uniform(0.2, 0.9))}:{CLI_SWEEP_POINTS}",
            }[param]
            return ["sweep", "{work}/" + name, "--parameter", param, "--grid", grid, *fmt], {name: doc}
        if sub == "paper-table":
            return ["paper-table", *fmt], {}
        name = f"bad_{c}.json"
        return ["run", "{work}/" + name], {name: invalid_doc(rng, rng.choice(FAULTS))}

    def _real_argv(self, op) -> list[str]:
        return [a.replace("{work}", self.workdir) for a in op["argv"]]

    def warm_up(self) -> None:
        # a cold process cannot be warmed; warm the in-process checker route
        for op in self.units[0]:
            self._in_process(op)

    def sample_record(self, op):
        code, stdout = self._in_process(op)
        return {"returncode": code, "stdout": stdout}

    def run_op(self, op, rec=None):
        argv = self._real_argv(op)
        span = rec.span(f"cli.{op['sub']}.cold") if rec else contextlib.nullcontext()
        with span:
            proc = subprocess.run(
                [sys.executable, "-m", "gravlink", *argv],
                cwd=self.root,
                env=child_env(self.root),
                capture_output=True,
                timeout=120,
                check=False,
            )
        return {"returncode": proc.returncode, "stdout": proc.stdout}

    def _in_process(self, op):
        from gravlink import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(self._real_argv(op))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue().encode()

    def check(self, op, record):
        t0 = time.perf_counter()
        code, stdout = self._in_process(op)
        warm_ms = (time.perf_counter() - t0) * 1e3
        want_code = 1 if op["sub"] == "config-error" else 0
        mismatch = record["returncode"] != want_code or code != want_code
        ok = not mismatch and record["stdout"] == stdout
        info = {
            "cli.main.warm_ms": warm_ms,
            "cli.stdout_bytes": float(len(record["stdout"])),
            "cli.exit_mismatches": float(mismatch),
        }
        return ok, info

    def corruptions(self, op, record):
        yield "wrong exit code", {**record, "returncode": record["returncode"] + 2}

    def reduce(self, infos):
        out = super().reduce(infos)
        out["cli.exit_mismatches"] = sum(i["cli.exit_mismatches"] for i in infos)
        return out


class SweepGrid(Workload):
    """One op sweeps one base config over four parameters and renders each."""

    name = "sweep_grid"

    def generate(self):
        rng = self.rng
        units = []
        n = SWEEP_POINTS
        for i in range(SWEEP_POOL):
            doc = scenario_doc(rng, PROTOCOLS[i % 4])
            if doc["receiver"] == "far_field":
                doc["receiver"] = {"radius_m": 4.0e7, "motion": "static"}
            surface = doc["emitter"]["radius_m"]
            lo_r, hi_r = surface * rng.uniform(1.02, 1.2), surface * rng.uniform(3.0, 7.0)
            lo_w, hi_w = 10 ** rng.uniform(4.0, 5.0), 10 ** rng.uniform(7.0, 8.0)
            lo_p, hi_p = rng.uniform(1e14, 3e14), rng.uniform(5e14, 9e14)
            hi_q = rng.uniform(0.2, 0.9)
            grids = {
                "receiver_radius_m": [lo_r + (hi_r - lo_r) * j / (n - 1) for j in range(n)],
                "width_hz": [lo_w * (hi_w / lo_w) ** (j / (n - 1)) for j in range(n)],
                "peak_hz": [lo_p + (hi_p - lo_p) * j / (n - 1) for j in range(n)],
                "q": [hi_q * j / (n - 1) for j in range(n)],
            }
            samples = sorted(rng.sample(range(n), SWEEP_SAMPLES))
            units.append([{"doc": doc, "grids": grids, "samples": samples}])
        return units, [u[0] for u in units]

    def run_op(self, op, rec=None):
        from gravlink import scenario

        config = scenario.parse_config(op["doc"])
        out = {}
        for param in SWEPT:
            grid = op["grids"][param]
            results = scenario.sweep(config, param, grid)
            rows = [scenario.result_to_dict(r) for r in results]
            text_json = scenario.render_json({"parameter": param, "grid": grid, "rows": rows}, 12)
            table = [{name: getattr(r, name) for name in scenario.RESULT_FIELDS} for r in results]
            tags: dict[str, str] = {}
            for r in results:
                for key, tag in r.tags.items():
                    tags.setdefault(key, tag)
            text_csv = scenario.render_csv(table, list(scenario.RESULT_FIELDS), tags)
            out[param] = {"rows": rows, "json": text_json, "csv": text_csv}
        return out

    def _scalar_row(self, op, param, value):
        from gravlink import entangleswap, fidelity, scenario

        doc = copy.deepcopy(op["doc"])
        if param == "q":
            kind = doc["protocol"]["kind"]
            d = math.sqrt(1.0 - value)
            row = {name: None for name in scenario.RESULT_FIELDS}
            row.update(Delta=d, q=value)
            if kind == "single_photon":
                row["fidelity"] = fidelity.single_photon_fidelity(d)
            elif kind == "coherent":
                row["fidelity"] = fidelity.coherent_fidelity(d, doc["protocol"]["alpha"])
            elif kind == "tmss":
                row["fidelity"] = fidelity.tmss_fidelity(d, doc["protocol"]["s"])
            else:
                row["fidelity"] = 0.5 * (1.0 + d)
                row["negativity"] = entangleswap.negativity_closed(value)
                row["qber"] = entangleswap.qber_closed(value)
            return row
        if param == "receiver_radius_m":
            doc["receiver"]["radius_m"] = value
        else:
            doc["source"] = {**doc["source"], param: value}
        result = scenario.run_scenario(scenario.parse_config(doc))
        return {name: getattr(result, name) for name in scenario.RESULT_FIELDS}

    def check(self, op, record):
        from gravlink import scenario

        fields = list(scenario.RESULT_FIELDS)
        ok = True
        for param in SWEPT:
            grid = op["grids"][param]
            got = record[param]
            rows = got["rows"]
            ok &= len(rows) == len(grid)
            for i in op["samples"]:
                want = self._scalar_row(op, param, grid[i])
                ok &= _rows_close({k: rows[i][k] for k in fields}, want)
            parsed = json.loads(got["json"])
            ok &= parsed["rows"] == _round12(rows) and parsed["grid"] == _round12(grid)
            body = [line for line in got["csv"].splitlines() if not line.startswith("#")]
            table = list(csv.reader(body))
            ok &= table[0] == fields and len(table) == len(rows) + 1
            for cells, row in zip(table[1:], rows):
                for cell, key in zip(cells, fields):
                    value = row[key]
                    ok &= (cell == "") if value is None else (float(cell) == value)
        return bool(ok), {}

    def corruptions(self, op, record):
        text = record["q"]["csv"]
        lines = text.splitlines(keepends=True)
        idx = len(lines) - 1
        cells = lines[idx].split(",")
        for j, cell in enumerate(cells):
            # the leading digit: a flip near the 17th can parse to the same float
            digits = [k for k, ch in enumerate(cell) if ch in "123456789"]
            if digits:
                k = digits[0]
                cells[j] = cell[:k] + str(int(cell[k]) % 9 + 1) + cell[k + 1:]
                break
        lines[idx] = ",".join(cells)
        bad = copy.copy(record)
        bad["q"] = {**record["q"], "csv": "".join(lines)}
        yield "flipped digit in a CSV float", bad


class ScenarioBatch(Workload):
    """One op runs a stratified batch of independent configs end to end."""

    name = "scenario_batch"

    def generate(self):
        rng = self.rng
        units = []
        for _ in range(BATCH_POOL):
            docs = [(scenario_doc(rng, kind), True) for kind in PROTOCOLS for _ in range(BATCH_PER_KIND)]
            for j, (doc, _valid) in enumerate(docs):
                if doc["protocol"]["kind"] == "entangle_qkd" and j % 4 == 0:
                    doc["monte_carlo"] = {"trials": 10_000, "seed": rng.randrange(1 << 30)}
            docs += [(invalid_doc(rng, f), False) for f in FAULTS for _ in range(BATCH_PER_FAULT)]
            rng.shuffle(docs)
            units.append([{"docs": [d for d, _ in docs], "valid": [v for _, v in docs]}])
        return units, [u[0] for u in units]

    def run_op(self, op, rec=None):
        from gravlink import scenario

        accepted, dicts = [], []
        for doc in op["docs"]:
            try:
                config = scenario.parse_config(doc)
            except scenario.ConfigError:
                accepted.append(False)
                continue
            accepted.append(True)
            dicts.append(scenario.result_to_dict(scenario.run_scenario(config)))
        return {"accepted": accepted, "results": dicts, "json": scenario.render_json(dicts, 12)}

    def check(self, op, record):
        from gravlink import entangleswap, fidelity

        if record["accepted"] != op["valid"]:
            return False, {}
        docs = [d for d, v in zip(op["docs"], op["valid"]) if v]
        results = record["results"]
        ok = len(results) == len(docs) and json.loads(record["json"]) == _round12(results)
        for doc, res in zip(docs, results):
            proto = doc["protocol"]
            d, q = res["Delta"], res["q"]
            ok &= abs(q - (1.0 - d) * (1.0 + d)) <= 1e-12
            ok &= _close(res["chi"] * res["redshift_ratio"], 1.0)
            kind = proto["kind"]
            if kind == "single_photon":
                ok &= _close(res["fidelity"], 1.0 - q) or abs(res["fidelity"] - (1.0 - q)) <= 1e-12
            elif kind == "coherent":
                ok &= _close(res["fidelity"], fidelity.coherent_fidelity(d, proto["alpha"]))
            elif kind == "tmss":
                ok &= _close(res["fidelity"], fidelity.tmss_fidelity(d, proto["s"]))
            elif kind == "entangle_qkd":
                ok &= _close(res["negativity"], 0.5 * math.sqrt(1.0 - q))
                ok &= _close(res["qber"], entangleswap.bit_probabilities(q)[1])
                if "monte_carlo" in doc:
                    n = doc["monte_carlo"]["trials"]
                    p = res["qber"]
                    sigma = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
                    ok &= abs(res["extras"]["qber_mc"] - p) <= MC_SIGMAS * sigma
            else:
                ok &= abs(res["fidelity"] - 1.0) <= 1e-12
                ok &= _close(res["extras"]["x"], 2.0 * proto["alpha"] * proto["beta"])
        return bool(ok), {}

    def corruptions(self, op, record):
        bad = copy.deepcopy(record)
        i = op["valid"].index(False)
        bad["accepted"][i] = True
        yield "invalid doc accepted", bad


class OracleCrosscheck(Workload):
    """One op checks one seeded link through every independent route."""

    name = "oracle_crosscheck"
    _files = 0

    def generate(self):
        rng = self.rng
        units = []
        for _ in range(ORACLE_POOL):
            doc = scenario_doc(rng, "entangle_qkd")
            if doc["receiver"] == "far_field":
                doc["receiver"] = {"radius_m": doc["emitter"]["radius_m"] * 7.0, "motion": "static"}
            # tabulate() fails its own normalization gate for some lines
            # narrower than ~3e-9 of the peak (NOTES.md, known defects)
            doc["source"] = _source(rng, max_ratio=1e8)
            units.append([{
                "doc": doc,
                "mc_seed": rng.randrange(1 << 30),
                "alpha": rng.uniform(0.1, 2.0),
                "beta": rng.uniform(20.0, 40.0),
            }])
        return units, [u[0] for u in units]

    def run_op(self, op, rec=None):
        from gravlink import cvhomodyne, entangleswap as es, scenario, spacetime as st, wavepacket as wp

        span = rec.span if rec else (lambda _name: contextlib.nullcontext())
        config = scenario.parse_config(op["doc"])
        body, emitter, receiver, src = config.body, config.emitter, config.receiver, config.source
        out = {}
        shift = st.shift_parameter(body, emitter, receiver)
        closed = wp.overlap_gaussian_closed(src, shift)
        k = 1.0 - shift.delta if shift.sign is st.Sign.UP else 1.0 + shift.delta
        received = wp.GaussianPacket(peak_hz=k * src.peak_hz, width_hz=k * src.width_hz)
        quad = wp.overlap_quadrature(src, received)
        out["closed"], out["quad"] = closed, quad

        chi = 1.0 / st.redshift_total(body, emitter, receiver)
        tab = wp.tabulate(src)
        out["propagated"] = wp.overlap_quadrature(tab, wp.propagate_packet(tab, chi))

        # A fresh file per op: rewriting one path makes the filesystem flush
        # the truncated file on close, which would time the disk, not gravlink.
        self._files += 1
        path = os.path.join(self.workdir, f"packet_{self._files}.csv")
        wp.write_packet_csv(tab, path)
        out["csv_bytes"] = os.path.getsize(path)
        out["tab"], out["tab_back"] = tab, wp.read_packet_csv(path)
        os.remove(path)

        q = closed.q
        with span("entangleswap.swap_sim"):
            state = es.build_initial_state(q)
            state = es.apply_beamsplitter(state, es.AP, es.BP)
            state = es.apply_beamsplitter(state, es.CP, es.DP)
            clicks = (es.detect(state, "D1"), es.detect(state, "D2"))
        out["fock_terms"] = len(state)
        out["rho"] = {c.which: c.memory_state for c in clicks}
        out["rho_closed"] = {w: es.memory_state_closed(q, w) for w in ("D1", "D2")}
        out["neg"] = es.negativity(clicks[0].memory_state)
        out["neg_closed"] = es.negativity_closed(q)
        out["mc"] = es.qber_monte_carlo(q, ORACLE_MC_TRIALS, op["mc_seed"])
        out["qber"] = es.qber_closed(q)

        flat = st.Body(mass=0.0, radius=body.radius)
        out["cv"] = cvhomodyne.curvature_invariance_report(
            cvhomodyne.HomodynePrep(alpha=op["alpha"], beta=op["beta"]),
            [(flat, emitter, receiver), (body, emitter, receiver)],
            packet=src,
        )
        travel = st.coordinate_travel_time(body, emitter.radius, receiver.radius)
        out["r_target"] = receiver.radius
        out["r_back"] = st.radius_after(body, emitter.radius, travel)
        out["table"] = scenario.reference_table()
        return out

    def check(self, op, record):
        import numpy as np

        gaps = {
            "oracle.overlap_gap_max": abs(record["closed"].delta - abs(record["quad"].delta)),
            "oracle.swap_gap_max": max(
                float(np.max(np.abs(record["rho"][w] - record["rho_closed"][w]))) for w in ("D1", "D2")
            ),
            "oracle.negativity_gap_max": abs(record["neg"] - record["neg_closed"]),
            "oracle.radius_after_gap_max": abs(record["r_back"] - record["r_target"]),
            "oracle.cv_overlap_gap_max": max(abs(row["overlap"] - 1.0) for row in record["cv"]),
        }
        p = record["qber"]
        sigma = math.sqrt(max(p * (1.0 - p), 1.0 / ORACLE_MC_TRIALS) / ORACLE_MC_TRIALS)
        mc_sigma = abs(record["mc"] - p) / sigma
        tab, back = record["tab"], record["tab_back"]
        checks = [
            gaps["oracle.overlap_gap_max"] <= 1e-8,
            gaps["oracle.swap_gap_max"] <= 1e-12,
            gaps["oracle.negativity_gap_max"] <= 1e-12,
            gaps["oracle.radius_after_gap_max"] <= 1e-6,
            gaps["oracle.cv_overlap_gap_max"] <= 1e-12 and all(row["pass"] for row in record["cv"]),
            mc_sigma <= MC_SIGMAS,
            np.array_equal(tab.freq_hz, back.freq_hz) and np.array_equal(tab.amp, back.amp),
            all(row["verdict"] != "fail" for row in record["table"]),
        ]
        info = {
            **gaps,
            "oracle.mc_sigma_max": mc_sigma,
            "oracle.checks": float(len(checks)),
            "oracle.checks_passed": float(sum(checks)),
            "entangleswap.fock_terms": float(record["fock_terms"]),
            "wavepacket.write_packet_csv.bytes": float(record["csv_bytes"]),
        }
        return all(checks), info

    def corruptions(self, op, record):
        p = record["qber"]
        sigma = math.sqrt(max(p * (1.0 - p), 1.0 / ORACLE_MC_TRIALS) / ORACLE_MC_TRIALS)
        yield "Monte Carlo estimate 10 sigma off", {**record, "mc": p + 10.0 * sigma}
        rho = {w: m.copy() for w, m in record["rho"].items()}
        rho["D1"][1, 2] += 1e-9
        yield "swap state with one perturbed element", {**record, "rho": rho}

    def tracked(self) -> dict:
        """q from propagate_packet + quadrature over the closed-form q on
        the preset ISS link.  Reported, never gated (NOTES.md)."""
        from gravlink import scenario, spacetime as st, wavepacket as wp

        config = scenario.parse_config(
            {"body": "earth", "emitter": "ground", "receiver": "iss", "source": "spdc_blue",
             "protocol": "single_photon"}
        )
        closed = wp.overlap_gaussian_closed(
            config.source, st.shift_parameter(config.body, config.emitter, config.receiver)
        )
        chi = 1.0 / st.redshift_total(config.body, config.emitter, config.receiver)
        propagated = wp.overlap_quadrature(config.source, wp.propagate_packet(config.source, chi))
        return {"wavepacket.propagated_over_closed_q": propagated.q / closed.q}


WORKLOADS = {w.name: w for w in (CliCold, SweepGrid, ScenarioBatch, OracleCrosscheck)}
