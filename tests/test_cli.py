"""Command line front end: output shapes, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gravlink.cli as cli
from gravlink import (
    Body,
    ConfigError,
    ConvergenceError,
    GaussianPacket,
    HomodynePrep,
    Observer,
    OverlapResult,
    coherent_fidelity,
    coordinate_travel_time,
    mismatch_q,
    overlap_gaussian_closed,
    qber_monte_carlo,
    radius_after,
    redshift_total,
    run_scenario,
    shift_parameter,
    single_photon_fidelity,
    tmss_fidelity,
)
from gravlink.scenario import (_ROW_BLOCK, RESULT_FIELDS, SOURCE_PRESETS, STATION_PRESETS, _parse_body,
                               _parse_monte_carlo, _parse_protocol, _parse_source, _parse_station, parse_config,
                               render_json, sweep)

LEO_CONFIG = {
    "body": "earth",
    "emitter": "ground",
    "receiver": "iss",
    "source": "spdc_blue",
    "protocol": {"kind": "entangle_qkd"},
    "monte_carlo": {"trials": 20_000, "seed": 99},
}


# child processes import the gravlink this suite imports, which pytest's
# pythonpath puts on sys.path but not in a child's environment
_SRC = os.path.dirname(os.path.dirname(cli.__file__))
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(*args: str):
    """A fresh `python -m gravlink` process: the entry point itself."""
    return subprocess.run(
        [sys.executable, "-m", "gravlink", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=_CHILD_ENV,
    )


def _main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def gravlink():
    """cli.main in this process, returned like a finished subprocess."""

    def call(*args: str):
        return subprocess.CompletedProcess(list(args), *_main_in_process(list(args)))

    return call


def _rows(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["rows"]


@pytest.fixture()
def leo_config(tmp_path):
    path = tmp_path / "leo.json"
    path.write_text(json.dumps(LEO_CONFIG))
    return path


_NO_SCIPY = """
import contextlib, io, sys
from gravlink import cli
for argv in ARGVS:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_subcommand_imports_scipy(tmp_path):
    link = {k: v for k, v in LEO_CONFIG.items() if k != "monte_carlo"}
    cv = tmp_path / "cv.json"
    cv.write_text(json.dumps(dict(link, protocol={"kind": "cv_homodyne", "alpha": 0.5, "beta": 1.0})))
    argvs = [
        ["redshift", "--receiver", "iss"],
        ["overlap", "--receiver", "iss", "--quadrature"],
        ["entangle", "--receiver", "iss"],
        ["qber", "--q", "0.1", "--trials", "20000", "--seed", "7"],
        ["cv-homodyne", "--alpha", "0.5", "--beta", "1"],
        ["run", str(cv)],
        ["sweep", str(cv), "--parameter", "width_hz", "--grid", "log:1e5:1e7:3"],
        ["paper-table"],
    ]
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in argvs} == set(subparsers.choices)
    proc = subprocess.run([sys.executable, "-c", f"ARGVS = {argvs!r}" + _NO_SCIPY],
                          capture_output=True, text=True, timeout=120, env=_CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_NO_NUMPY = """
import contextlib, io, sys
import gravlink
assert "numpy" not in sys.modules
from gravlink import cli
for argv, code in CALLS:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == code, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_closed_form_commands_leave_numpy_unloaded(tmp_path):
    """numpy loads only where an array is built: the import and every
    closed-form path run without it."""
    link = {k: v for k, v in LEO_CONFIG.items() if k != "monte_carlo"}
    config = tmp_path / "leo.json"
    config.write_text(json.dumps(link))
    cv = tmp_path / "cv.json"
    cv.write_text(json.dumps(dict(link, protocol={"kind": "cv_homodyne", "alpha": 0.5, "beta": 30.0})))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(LEO_CONFIG, source={"peak_hz": 700e12, "width_hz": -1.0})))
    calls = [
        (["redshift", "--receiver", "iss"], 0),
        (["overlap", "--receiver", "iss"], 0),
        (["qber", "--q", "0.1"], 0),
        (["run", str(config)], 0),
        (["sweep", str(config), "--parameter", "q", "--grid", "0.1,0.2"], 0),
        (["sweep", str(config), "--parameter", "q", "--grid", "lin:0:0.5:6"], 0),
        (["run", str(cv)], 0),
        (["sweep", str(cv), "--parameter", "width_hz", "--grid", "1e5,1e6,1e7"], 0),
        (["paper-table"], 0),
        (["run", str(bad)], 1),
    ]
    proc = subprocess.run([sys.executable, "-c", f"CALLS = {calls!r}" + _NO_NUMPY],
                          capture_output=True, text=True, timeout=120, env=_CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_each_tag_name_has_one_text(gravlink, tmp_path):
    """A quantity reads the same formula in every subcommand; fidelity is
    compared within one protocol kind, as each kind has its own."""
    link = {k: v for k, v in LEO_CONFIG.items() if k != "monte_carlo"}
    runs = {"entangle_qkd": LEO_CONFIG,
            "cv_homodyne": dict(link, protocol={"kind": "cv_homodyne", "alpha": 0.5, "beta": 30.0})}
    argvs = {
        "entangle_qkd": [["redshift", "--receiver", "iss"],
                         ["overlap", "--receiver", "iss", "--quadrature"],
                         ["entangle", "--receiver", "iss"],
                         ["qber", "--q", "0.1", "--trials", "20000"],
                         ["paper-table"]],
        "cv_homodyne": [["cv-homodyne", "--alpha", "0.5", "--beta", "30"]],
    }
    for kind, doc in runs.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        argvs[kind].append(["run", str(path)])
    texts: dict[tuple, set] = {}
    for kind, calls in argvs.items():
        for argv in calls:
            proc = gravlink(*argv)
            assert proc.returncode == 0, proc.stderr
            for name, text in json.loads(proc.stdout)["tags"].items():
                texts.setdefault((name, kind if name == "fidelity" else None), set()).add(text)
    assert {key: sorted(found) for key, found in texts.items() if len(found) > 1} == {}
    assert ("qber_mc", None) in texts and ("Delta_quadrature", None) in texts


class TestExitCodes:
    def test_missing_subcommand(self):
        assert run_cli().returncode == 1

    def test_unknown_flag(self):
        assert run_cli("redshift", "--receiver", "iss", "--bogus").returncode == 1

    def test_missing_receiver(self, gravlink):
        proc = gravlink("redshift")
        assert proc.returncode == 1
        assert "--receiver" in proc.stderr

    def test_config_error_names_the_field(self, tmp_path):
        path = tmp_path / "bad.json"
        cfg = dict(LEO_CONFIG, source={"peak_hz": 700e12, "width_hz": -1.0})
        path.write_text(json.dumps(cfg))
        proc = run_cli("run", str(path))
        assert proc.returncode == 1
        assert "source.width_hz" in proc.stderr

    def test_missing_config_file(self, gravlink, tmp_path):
        proc = gravlink("run", str(tmp_path / "nope.json"))
        assert proc.returncode == 1

    def test_precision_out_of_range(self, gravlink, monkeypatch):
        # rejected before the subcommand does any work
        def no_work(args):
            raise AssertionError("ran")

        monkeypatch.setattr(cli, "_cmd_redshift", no_work)
        assert gravlink("redshift", "--receiver", "iss", "--precision", "18").returncode == 1
        assert gravlink("redshift", "--receiver", "iss", "--precision", "0").returncode == 1

    def test_numerical_failure_maps_to_two(self, monkeypatch, capsys):
        def explode(args):
            raise ConvergenceError("did not settle")

        monkeypatch.setattr(cli, "_cmd_redshift", explode)
        assert cli.main(["redshift", "--receiver", "iss"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc, code, numerical",
        [(np.linalg.LinAlgError("singular matrix"), 2, True), (ValueError("bad value"), 1, False)],
        ids=["LinAlgError", "ValueError"],
    )
    def test_linalg_failure_maps_to_two(self, monkeypatch, capsys, exc, code, numerical):
        def explode(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_redshift", explode)
        assert cli.main(["redshift", "--receiver", "iss"]) == code
        err = capsys.readouterr().err
        assert ("numerical failure" in err) is numerical
        assert str(exc) in err

    def test_failed_table_row_maps_to_three(self, monkeypatch, capsys):
        row = {
            "quantity": "x", "reference": 1.0, "computed": 2.0,
            "deviation": 1.0, "tolerance": 0.1, "verdict": "fail", "note": "",
        }
        monkeypatch.setattr(cli, "reference_table", lambda: [row])
        assert cli.main(["paper-table"]) == 3
        capsys.readouterr()


class TestValidation:
    """Flags and configs share one validator: out-of-domain inputs exit 1
    with a one-line message that names the field."""

    @staticmethod
    def _rejected(proc, field):
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert field in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_nan_protocol_parameter(self, gravlink, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(dict(LEO_CONFIG, protocol={"kind": "coherent", "alpha": math.nan})))
        self._rejected(gravlink("run", str(path)), "protocol.alpha")

    def test_receiver_flags_below_the_surface(self, gravlink):
        self._rejected(gravlink("redshift", "--receiver-radius-m", "1"), "receiver.radius_m")

    def test_source_flags_carry_field_paths(self, gravlink):
        self._rejected(gravlink("overlap", "--receiver", "iss", "--peak-hz", "1e14"), "source.width_hz")

    def test_sweep_below_the_surface(self, gravlink, leo_config):
        proc = gravlink("sweep", str(leo_config), "--parameter", "receiver_radius_m",
                        "--grid", "lin:1:2:2")
        self._rejected(proc, "sweep.grid[0]: receiver.radius_m")

    def test_sweep_out_of_the_narrowband_regime(self, gravlink, leo_config):
        proc = gravlink("sweep", str(leo_config), "--parameter", "width_hz", "--grid", "1e6,1e13")
        self._rejected(proc, "sweep.grid[1]")

    @pytest.mark.parametrize(
        "parameter, grid",
        [("peak_hz", "inf,5e14"), ("width_hz", "inf,1e6")],
        ids=["peak_hz", "width_hz"],
    )
    def test_sweep_infinite_source_value(self, gravlink, leo_config, parameter, grid):
        proc = gravlink("sweep", str(leo_config), "--parameter", parameter, "--grid", grid)
        self._rejected(proc, f"sweep.grid[0]: source.{parameter}: must be finite and > 0, got inf")

    @pytest.mark.parametrize("count", ["10000000000", str(10**20), "100001"])
    def test_sweep_grid_count_over_the_maximum(self, gravlink, leo_config, monkeypatch, count):
        def no_allocation(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(np, "linspace", no_allocation)
        proc = gravlink("sweep", str(leo_config), "--parameter", "q", "--grid", f"lin:0:1:{count}")
        self._rejected(proc, f"sweep.grid: must hold 1 to 100000 points, got {int(count)}")

    def test_grid_count_at_the_maximum_passes(self):
        grid = cli._parse_grid("lin:0:1:100000")
        assert len(grid) == 100_000 and grid[0] == 0.0 and grid[-1] == 1.0

    @pytest.mark.parametrize(
        "parameter, grid",
        [
            ("q", "lin:0:inf:3"),
            ("q", "lin:-inf:inf:3"),
            ("width_hz", "log:1:inf:3"),
            ("width_hz", "log:nan:1e7:3"),
            ("receiver_radius_m", "log:inf:inf:2"),
            ("q", "lin:nan:1:1"),
        ],
    )
    def test_sweep_grid_non_finite_endpoints(self, gravlink, leo_config, parameter, grid):
        proc = gravlink("sweep", str(leo_config), "--parameter", parameter, "--grid", grid)
        head = grid.partition(":")[0]
        self._rejected(proc, f"sweep.grid: {head} range needs finite endpoints, got {grid!r}")

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("lin:a:1:3", "sweep.grid: bad lin range 'lin:a:1:3'"),
            ("log:1:2:x", "sweep.grid: bad log range 'log:1:2:x'"),
            ("log:0:1:3", "sweep.grid: log range needs positive endpoints, got 'log:0:1:3'"),
            ("log:1e7:-1:3", "sweep.grid: log range needs positive endpoints, got 'log:1e7:-1:3'"),
            ("1,x", "sweep.grid: not numbers: '1,x'"),
        ],
    )
    def test_sweep_grid_text_rejections(self, gravlink, leo_config, grid, message):
        proc = gravlink("sweep", str(leo_config), "--parameter", "width_hz", "--grid", grid)
        self._rejected(proc, message)
        assert proc.stderr == f"gravlink: {message}\n"

    def test_comma_grids_keep_infinities(self):
        assert cli._parse_grid("1,inf, -inf") == [1.0, math.inf, -math.inf]

    @pytest.mark.parametrize(
        "grid", ["lin:-1e308:1e308:3", "lin:-1e308:1e308:1", "lin:1.7976931348623157e308:-1e308:2"]
    )
    def test_sweep_lin_range_wider_than_the_largest_float(self, gravlink, leo_config, monkeypatch, grid):
        # STOP - START is inf, and 0 * inf would make point 0 NaN
        def no_points(*args):
            raise AssertionError("a point ran")

        monkeypatch.setattr(cli, "sweep", no_points)
        proc = gravlink("sweep", str(leo_config), "--parameter", "q", "--grid", grid)
        self._rejected(proc, f"sweep.grid: lin range wider than the largest float, got {grid!r}")

    def test_lin_range_just_inside_the_largest_float(self):
        assert cli._parse_grid("lin:-8e307:8e307:3") == [-8e307, 0.0, 8e307]

    def test_sweep_nan_radius_gets_the_config_message(self, gravlink, leo_config, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(dict(LEO_CONFIG, receiver={"radius_m": math.nan})))
        message = "receiver.radius_m: expected a number, got nan\n"
        assert gravlink("run", str(path)).stderr == "gravlink: " + message
        proc = gravlink("sweep", str(leo_config), "--parameter", "receiver_radius_m", "--grid", "7e6,nan")
        self._rejected(proc, "sweep.grid[1]: " + message)

    def test_sweep_infinite_radius_is_the_far_field(self, gravlink, tmp_path):
        path = tmp_path / "static.json"
        path.write_text(json.dumps(dict(LEO_CONFIG, receiver={"radius_m": 7e6, "motion": "static"})))
        (row,) = _rows(gravlink("sweep", str(path), "--parameter", "receiver_radius_m", "--grid", "inf"))
        path.write_text(json.dumps(dict(LEO_CONFIG, receiver="far_field")))
        (far,) = _rows(gravlink("run", str(path)))
        assert {k: row[k] for k in RESULT_FIELDS} == {k: far[k] for k in RESULT_FIELDS}


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["entangle", "--q", "nan"], "q: must lie in [0, 1], got nan"),
            (["entangle", "--q", "2"], "q: must lie in [0, 1], got 2.0"),
            (["qber", "--q", "1.5"], "q: must lie in [0, 1], got 1.5"),
            (["qber", "--q", "-1"], "q: must lie in [0, 1], got -1.0"),
            (["qber", "--q", "1.5", "--trials", "20000"], "q: must lie in [0, 1], got 1.5"),
            (["overlap", "--delta", "nan"], "delta: must lie in [0, 1), got nan"),
            (["overlap", "--delta", "1"], "delta: must lie in [0, 1), got 1.0"),
            (["overlap", "--delta", "-0.5"], "delta: must lie in [0, 1), got -0.5"),
            (["sweep", "{config}", "--parameter", "q", "--grid", "0.5,2"],
             "sweep.grid[1]: q: must lie in [0, 1], got 2.0"),
            (["sweep", "{config}", "--parameter", "q", "--grid", ","],
             "sweep.grid: must hold 1 to 100000 points, got 0"),
            (["sweep", "{config}", "--parameter", "q", "--grid", "lin:0:2:3"],
             "sweep.grid[2]: q: must lie in [0, 1], got 2.0"),
            (["cv-homodyne", "--alpha", "nan", "--beta", "1"], "protocol.alpha: expected a number, got nan"),
            (["cv-homodyne", "--alpha", "1", "--beta=-inf"], "protocol.beta: must be finite, got -inf"),
            (["qber", "--q", "0.1", "--trials", "5"], "monte_carlo.trials: must be an integer >= 10000, got 5"),
            (["qber", "--q", "0.1", "--trials", "1" + "0" * 400],
             "monte_carlo.trials: integer too large for a float"),
            (["qber", "--q", "0.1", "--trials", str(10**20)],
             f"monte_carlo.trials: must be <= 100000000, got {10**20}"),
            (["qber", "--q", "0.1", "--trials", "20000", "--seed", "-1"],
             "monte_carlo.seed: must be an integer >= 0, got -1"),
        ],
        ids=["entangle-q", "entangle-q-two", "qber-q", "qber-q-negative", "qber-q-trials",
             "delta-nan", "delta-one", "delta-negative", "sweep-q", "sweep-empty", "sweep-q-lin",
             "alpha", "beta", "trials", "trials-huge", "trials-over-max", "seed"],
    )
    def test_flag_numbers_carry_field_paths(self, gravlink, leo_config, argv, message):
        """One stderr line and exit 1, the same line on every route to a rule."""
        proc = gravlink(*[arg.format(config=leo_config) for arg in argv])
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"gravlink: {message}\n")

    @pytest.mark.parametrize(
        "monte_carlo, field",
        [
            ({"trials": int("9" * 401), "seed": 1}, "monte_carlo.trials"),
            ({"trials": 20_000, "seed": -1}, "monte_carlo.seed"),
        ],
        ids=["trials-huge", "seed-negative"],
    )
    def test_monte_carlo_config_numbers(self, gravlink, tmp_path, monte_carlo, field):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(dict(LEO_CONFIG, monte_carlo=monte_carlo)))
        self._rejected(gravlink("run", str(path)), field)

    # r_s = 1485 m, so every orbit above this body's surface and inside
    # its photon sphere (2228 m) also draws the weak-field warning
    _COMPACT = {"body": {"mass_kg": 1e30, "radius_m": 1700}, "emitter": {"radius_m": 1700}}
    _COMPACT_FLAGS = ("--mass-kg", "1e30", "--body-radius-m", "1700", "--receiver-motion", "orbit")

    @staticmethod
    def _photon_sphere_rejected(proc, prefix=""):
        assert proc.returncode == 1 and proc.stdout == ""
        warning, error = proc.stderr.splitlines()
        assert warning.startswith("gravlink: warning: body radius 1700.0 m is within 1000")
        assert error.startswith(f"gravlink: {prefix}receiver.radius_m: a circular orbit needs r > 1.5 r_s")
        assert error.endswith("got 2000.0")

    @pytest.mark.parametrize("command", ["redshift", "overlap", "entangle"])
    def test_orbit_flags_inside_the_photon_sphere(self, gravlink, command):
        proc = gravlink(command, *self._COMPACT_FLAGS, "--receiver-radius-m", "2000")
        self._photon_sphere_rejected(proc)

    def test_orbit_config_inside_the_photon_sphere(self, gravlink, tmp_path):
        path = tmp_path / "compact.json"
        path.write_text(json.dumps(dict(LEO_CONFIG, **self._COMPACT,
                                        receiver={"radius_m": 2000, "motion": "orbit"})))
        self._photon_sphere_rejected(gravlink("run", str(path)))

    def test_sweep_into_the_photon_sphere(self, gravlink, tmp_path):
        path = tmp_path / "compact.json"
        path.write_text(json.dumps(dict(LEO_CONFIG, **self._COMPACT,
                                        receiver={"radius_m": 3000, "motion": "orbit"})))
        proc = gravlink("sweep", str(path), "--parameter", "receiver_radius_m", "--grid", "3000,2000")
        self._photon_sphere_rejected(proc, prefix="sweep.grid[1]: ")

    # an orbit just outside this body's photon sphere: delta = 2.38, past
    # the closed-form overlap's domain [0, 1)
    @staticmethod
    def _overlap_domain_rejected(proc, prefix=""):
        assert proc.returncode == 1 and proc.stdout == ""
        warning, error = proc.stderr.splitlines()
        assert warning.startswith("gravlink: warning: body radius 1700.0 m is within 1000")
        assert error.startswith(f"gravlink: {prefix}receiver.radius_m: delta: must lie in [0, 1), got 2.38")

    @pytest.mark.parametrize("command", ["overlap", "entangle"])
    def test_orbit_flags_past_the_overlap_domain(self, gravlink, command):
        proc = gravlink(command, *self._COMPACT_FLAGS, "--receiver-radius-m", "2230")
        self._overlap_domain_rejected(proc)

    def test_redshift_reports_a_link_past_the_overlap_domain(self, gravlink):
        proc = gravlink("redshift", *self._COMPACT_FLAGS, "--receiver-radius-m", "2230")
        assert _rows(proc)[0]["delta"] > 1.0

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["run"], ""),
            (["sweep", "--parameter", "width_hz", "--grid", "1e6,1e13"], ""),
            (["sweep", "--parameter", "receiver_radius_m", "--grid", "3000,2230"], "sweep.grid[1]: "),
        ],
        ids=["run", "sweep-width_hz", "sweep-receiver_radius_m"],
    )
    def test_config_past_the_overlap_domain(self, gravlink, tmp_path, argv, prefix):
        path = tmp_path / "compact.json"
        path.write_text(json.dumps(dict(LEO_CONFIG, **self._COMPACT,
                                        receiver={"radius_m": 2230, "motion": "orbit"})))
        self._overlap_domain_rejected(gravlink(argv[0], str(path), *argv[1:]), prefix)

    def test_integer_past_the_digit_limit(self, gravlink, tmp_path):
        # json.load refuses integer literals of more than 4300 digits
        path = tmp_path / "long.json"
        text = json.dumps(dict(LEO_CONFIG, monte_carlo={"trials": 1, "seed": 1}))
        path.write_text(text.replace('"trials": 1,', '"trials": ' + "9" * 5000 + ","))
        self._rejected(gravlink("run", str(path)), "gravlink: config: not valid JSON (")

    def test_huge_coherent_amplitude_underflows(self, gravlink, tmp_path):
        path = tmp_path / "loud.json"
        link = {k: v for k, v in LEO_CONFIG.items() if k != "monte_carlo"}
        path.write_text(json.dumps(dict(link, protocol={"kind": "coherent", "alpha": 1e200})))
        proc = gravlink("run", str(path))
        assert proc.returncode == 0, proc.stderr
        assert _rows(proc)[0]["fidelity"] == 0.0


class TestOneRulePerInput:
    """Each rule on an input or a derived quantity is stated once, in the
    library module that owns the quantity.  A library call, a config and a
    flag that break it get the same rule text: the library's after the
    quantity's name, the config's and the flag's after the field path."""

    _LINK = {key: value for key, value in LEO_CONFIG.items() if key != "monte_carlo"}

    @staticmethod
    def _one_rule(gravlink, library_call, name, field, config=None, argv=None) -> str:
        with pytest.raises(ValueError) as library:
            library_call()
        library_name, _, text = str(library.value).partition(": ")
        assert library_name == name
        message = f"{field}: {text}"
        if config is not None:
            with pytest.raises(ConfigError) as from_config:
                parse_config(config)
            assert str(from_config.value) == message
        if argv is not None:
            proc = gravlink(*argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"gravlink: {message}\n")
        return message

    @pytest.mark.parametrize(
        "peak, width, name",
        [
            (math.inf, 1e6, "peak_hz"),
            (-7e14, 1e6, "peak_hz"),
            (0.0, -1.0, "peak_hz"),  # the peak is judged before the width
            (7e14, math.inf, "width_hz"),
            (7e14, 0.0, "width_hz"),
            (7e14, 7e12, "peak_hz/width_hz"),  # exactly 100 widths
        ],
    )
    def test_source(self, gravlink, peak, width, name):
        message = self._one_rule(
            gravlink, lambda: GaussianPacket(peak, width), name, f"source.{name}",
            dict(self._LINK, source={"peak_hz": peak, "width_hz": width}),
            ["overlap", "--receiver", "iss", f"--peak-hz={peak!r}", f"--width-hz={width!r}"],
        )
        # a source sweep point over spdc_blue reads the same rule
        if peak != 7e14 and width != 1e6:
            return
        config = parse_config(self._LINK)
        parameter, value = ("peak_hz", peak) if width == 1e6 else ("width_hz", width)
        with pytest.raises(ConfigError) as point:
            sweep(config, parameter, [value])
        assert str(point.value) == f"sweep.grid[0]: {message}"

    @pytest.mark.parametrize(
        "mass, radius, name, key",
        [
            (5.972e24, math.inf, "radius", "radius_m"),
            (5.972e24, 0.0, "radius", "radius_m"),
            (math.inf, 6.371e6, "mass", "mass_kg"),
            (-1.0, 0.0, "mass", "mass_kg"),  # the mass is judged before the radius
        ],
    )
    def test_body(self, gravlink, mass, radius, name, key):
        self._one_rule(
            gravlink, lambda: Body(mass, radius), name, f"body.{key}",
            dict(self._LINK, body={"mass_kg": mass, "radius_m": radius}),
            ["redshift", f"--mass-kg={mass!r}", f"--body-radius-m={radius!r}", "--receiver-radius-m", "7e6"],
        )

    @pytest.mark.parametrize("s", [-1.0, -5e-324, math.inf])
    def test_tmss_squeezing(self, gravlink, s):
        self._one_rule(gravlink, lambda: tmss_fidelity(0.9, s), "s", "protocol.s",
                       dict(self._LINK, protocol={"kind": "tmss", "s": s}))

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
    def test_coherent_amplitude(self, gravlink, alpha):
        config = None
        if isinstance(alpha, float) and not math.isnan(alpha):
            config = dict(self._LINK, protocol={"kind": "coherent", "alpha": alpha})
        message = self._one_rule(gravlink, lambda: coherent_fidelity(0.9, alpha), "alpha", "protocol.alpha",
                                 config)
        # a matched mode, where F = 1 for every finite alpha, judges alpha too
        with pytest.raises(ValueError) as matched:
            coherent_fidelity(1.0, alpha)
        assert f"protocol.{matched.value}" == message

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf])
    def test_homodyne_amplitude(self, gravlink, alpha):
        # one amplitude rule: the coherent protocol's and the homodyne's
        message = self._one_rule(
            gravlink, lambda: HomodynePrep(alpha, 1.0), "alpha", "protocol.alpha",
            dict(self._LINK, protocol={"kind": "cv_homodyne", "alpha": alpha, "beta": 1.0}),
            ["cv-homodyne", f"--alpha={alpha!r}", "--beta", "1"],
        )
        with pytest.raises(ValueError) as coherent:
            coherent_fidelity(0.9, alpha)
        assert f"protocol.{coherent.value}" == message

    @pytest.mark.parametrize("delta", [math.nan, 1.0 + 1e-10, complex(0.6, 0.8000001), -math.inf])
    def test_overlap_modulus(self, gravlink, delta):
        # Delta has no config field or flag; every library route states one rule
        routes = (mismatch_q, single_photon_fidelity, lambda d: OverlapResult(delta=d, q=0.0),
                  lambda d: coherent_fidelity(d, 1.0), lambda d: tmss_fidelity(d, 1.0))
        texts = {self._one_rule(gravlink, lambda: route(delta), "delta", "delta") for route in routes}
        assert texts == {f"delta: |delta| must be <= 1 + 1e-12, got {abs(delta)!r}"}

    @pytest.mark.filterwarnings("ignore:body radius")
    def test_overlap_shift_domain(self, gravlink):
        # an orbit just outside a compact body's photon sphere: delta = 2.38
        body = Body(1e30, 1700.0)
        shift = shift_parameter(body, Observer(1700.0), Observer(2230.0, "orbit"))
        packet = GaussianPacket(7e14, 1e6)
        with pytest.raises(ValueError) as library:
            overlap_gaussian_closed(packet, shift)
        message = f"receiver.radius_m: {library.value}"
        assert message.startswith("receiver.radius_m: delta: must lie in [0, 1), got 2.38")
        doc = dict(self._LINK, body={"mass_kg": 1e30, "radius_m": 1700}, emitter={"radius_m": 1700},
                   receiver={"radius_m": 2230, "motion": "orbit"})
        with pytest.raises(ConfigError) as from_config:
            run_scenario(parse_config(doc))
        assert str(from_config.value) == message
        proc = gravlink("overlap", "--mass-kg", "1e30", "--body-radius-m", "1700",
                        "--receiver-motion", "orbit", "--receiver-radius-m", "2230")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines()[-1] == f"gravlink: {message}"

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_light_travel_time(self, gravlink, t):
        self._one_rule(gravlink, lambda: radius_after(Body(5.972e24, 6.371e6), 6.371e6, t), "t", "t")

    @pytest.mark.parametrize(
        "rule, field, config, argv",
        [
            (lambda: _parse_body("mars"), "body", {"body": "mars"}, ["redshift", "--body", "mars", "--receiver", "iss"]),
            (lambda: _parse_station(_parse_body("earth"), "geo", "receiver"), "receiver", {"receiver": "geo"},
             ["redshift", "--receiver", "geo"]),
            (lambda: _parse_station(_parse_body("earth"), {"radius_m": 7e6, "motion": "spin"}, "receiver"),
             "receiver.motion", {"receiver": {"radius_m": 7e6, "motion": "spin"}},
             ["redshift", "--receiver-radius-m", "7e6", "--receiver-motion", "spin"]),
            (lambda: _parse_source("nope"), "source", {"source": "nope"},
             ["overlap", "--receiver", "iss", "--source", "nope"]),
            (lambda: sweep(parse_config(LEO_CONFIG), "bogus", [0.5]), "sweep.parameter", None,
             ["sweep", "{config}", "--parameter", "bogus", "--grid", "0.5"]),
            (lambda: render_json({}, 0), "precision", None, ["redshift", "--receiver", "iss", "--precision", "0"]),
            (lambda: render_json({}, 18), "precision", None, ["redshift", "--receiver", "iss", "--precision", "18"]),
            (lambda: _parse_body({"mass_kg": "abc", "radius_m": 6e6}), "body.mass_kg",
             {"body": {"mass_kg": "abc", "radius_m": 6e6}},
             ["redshift", "--mass-kg", "abc", "--body-radius-m", "6e6", "--receiver-radius-m", "7e6"]),
            (lambda: _parse_station(_parse_body("earth"), {"radius_m": "abc"}, "emitter"), "emitter.radius_m",
             {"emitter": {"radius_m": "abc"}}, ["redshift", "--emitter-radius-m", "abc", "--receiver", "iss"]),
            (lambda: _parse_source({"peak_hz": 7e14, "width_hz": "abc"}, "lo"), "lo.width_hz", None,
             ["cv-homodyne", "--alpha", "1", "--beta", "20", "--lo-peak-hz", "7e14", "--lo-width-hz", "abc"]),
            (lambda: _parse_protocol({"kind": "cv_homodyne", "alpha": "abc", "beta": 1.0}), "protocol.alpha",
             {"protocol": {"kind": "cv_homodyne", "alpha": "abc", "beta": 1.0}},
             ["cv-homodyne", "--alpha", "abc", "--beta", "1"]),
            (lambda: _parse_monte_carlo({"trials": "abc", "seed": 12345}), "monte_carlo.trials",
             {"monte_carlo": {"trials": "abc", "seed": 12345}}, ["qber", "--q", "0.1", "--trials", "abc"]),
        ],
        ids=["body", "receiver", "receiver-motion", "source", "sweep-parameter", "precision-0", "precision-18",
             "mass-kg", "emitter-radius-m", "lo-width-hz", "alpha", "trials"],
    )
    def test_flag_values(self, gravlink, leo_config, rule, field, config, argv):
        # argparse checks none of these values: each reaches the rule a config
        # meets, and a bad one prints that rule's line and no usage block
        self._one_rule(gravlink, rule, field, field, config and dict(self._LINK, **config),
                       [arg.format(config=leo_config) for arg in argv])

    def test_number_flags_read_like_config_numbers(self, gravlink):
        # a config takes "trials": 2e4 and "seed": 3.0, and so does a flag
        spelled = gravlink("qber", "--q", "0.1", "--trials", "2e4", "--seed", "3.0")
        assert spelled.returncode == 0, spelled.stderr
        assert spelled.stdout == gravlink("qber", "--q", "0.1", "--trials", "20000", "--seed", "3").stdout

    @pytest.mark.parametrize("count", [0, 100_001])
    def test_sweep_grid_size(self, gravlink, leo_config, count):
        message = f"sweep.grid: must hold 1 to 100000 points, got {count}"
        with pytest.raises(ConfigError) as from_sweep:
            sweep(parse_config(self._LINK), "q", [0.5] * count)
        assert str(from_sweep.value) == message
        proc = gravlink("sweep", str(leo_config), "--parameter", "q", "--grid", f"lin:0:1:{count}")
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"gravlink: {message}\n")

    @pytest.mark.parametrize("trials", [10**8 + 1, 10**20, 1e300, 5, -1, 20_000.5, math.inf])
    def test_monte_carlo_trials(self, gravlink, monkeypatch, trials):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(np.random, "default_rng", no_sampling)
        argv = ["qber", "--q", "0.1", "--trials", str(trials)] if isinstance(trials, int) else None
        self._one_rule(gravlink, lambda: qber_monte_carlo(0.1, trials, 0), "trials", "monte_carlo.trials",
                       dict(LEO_CONFIG, monte_carlo={"trials": trials, "seed": 0}), argv)


# numbers outside every domain next to ordinary ones: NaN, +-inf, integers
# beyond the float range, floats whose square overflows, and any float
_ODD = st.sampled_from([math.nan, math.inf, -math.inf])
_HUGE = st.integers(10**309, 10**401) | st.integers(-(10**401), -(10**309))
_BIG = st.floats(1e150, 1.7e308) | st.floats(-1.7e308, -1e150)
_NUMBERS = _ODD | _HUGE | _BIG | st.floats()
# the sampler's cost grows linearly with the trial count, so accepted
# counts stay small; counts beyond the float range come from _HUGE
_TRIALS = _ODD | _HUGE | st.floats(-1e6, 1e6) | st.integers(-(10**5), 2 * 10**5)
_SEEDS = _NUMBERS | st.integers(-(10**3), 2**64)
_PARAMS = {"single_photon": (), "coherent": ("alpha",), "tmss": ("s",), "entangle_qkd": (),
           "cv_homodyne": ("alpha", "beta")}


@st.composite
def _run_docs(draw):
    """One config per protocol kind, all sharing the drawn numbers."""
    numbers = {name: draw(_NUMBERS) for name in ("alpha", "s", "beta")}
    base = dict(LEO_CONFIG, receiver=draw(st.sampled_from(["iss", "far_field"])))
    del base["monte_carlo"]
    if draw(st.booleans()):
        base["monte_carlo"] = {"trials": draw(_TRIALS), "seed": draw(_SEEDS)}
    return [
        dict(base, protocol={"kind": kind, **{name: numbers[name] for name in params}})
        for kind, params in _PARAMS.items()
    ]


def _flag(name: str, number) -> str:
    # one token, so that argparse reads "-inf" as a value, not an option
    return f"--{name}={number!r}"


_FLAG_ARGV = st.one_of(
    st.builds(lambda q: ["entangle", _flag("q", q)], _NUMBERS),
    st.builds(lambda d, sign: ["overlap", _flag("delta", d), "--sign", sign],
              _NUMBERS, st.sampled_from(["up", "down"])),
    st.builds(lambda a, b: ["cv-homodyne", _flag("alpha", a), _flag("beta", b)],
              _NUMBERS, _NUMBERS),
    st.builds(lambda q: ["qber", _flag("q", q)], _NUMBERS),
    st.builds(lambda q, n, seed: ["qber", _flag("q", q), _flag("trials", n), _flag("seed", seed)],
              _NUMBERS, st.integers(-(10**5), 2 * 10**5), _HUGE | st.integers(-(10**3), 2**64)),
)


def _assert_exit_contract(argv):
    """Exit 0, or exit 1 with a single `gravlink: ` line on stderr."""
    code, out, err = _main_in_process(argv)
    assert "Traceback" not in err
    assert code in (0, 1), (argv, code, err)
    if code == 1:
        assert out == ""
        assert err.startswith("gravlink: ") and err.count("\n") == 1, err


_BITS_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, 2.2250738585072014e-308]
)


@given(_BITS_FLOATS, _BITS_FLOATS, st.integers(1, 300))
@settings(max_examples=500, deadline=None)
def test_lin_grid_is_np_linspace_bit_for_bit(start, stop, count):
    got = np.array(cli._linspace(start, stop, count))
    with np.errstate(all="ignore"):  # an overflowing STOP - START gives inf and nan in both
        want = np.linspace(start, stop, count)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestExitCodeContract:
    @given(_run_docs())
    @settings(max_examples=100, deadline=None)
    def test_run_configs(self, tmp_path_factory, docs):
        path = tmp_path_factory.mktemp("fuzz") / "config.json"
        for doc in docs:
            path.write_text(json.dumps(doc))
            _assert_exit_contract(["run", str(path)])

    @given(_FLAG_ARGV)
    @settings(max_examples=100, deadline=None)
    def test_flag_numbers(self, argv):
        _assert_exit_contract(argv)


class TestRedshift:
    def test_weak_field_warning_is_one_cli_line(self, gravlink):
        proc = gravlink("redshift", "--mass-kg", "1e30", "--body-radius-m", "1700",
                        "--receiver-radius-m", "3000", "--receiver-motion", "orbit")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rows"][0]["sign"] == "up"
        assert proc.stderr == (
            "gravlink: warning: body radius 1700.0 m is within 1000 Schwarzschild radii"
            " (1485.232053823733 m); weak-field assumptions degrade\n"
        )

    def test_json_row(self, gravlink):
        rows = _rows(gravlink("redshift", "--receiver", "iss", "--precision", "17"))
        row = rows[0]
        assert row["delta"] == pytest.approx(1.4318478306647888e-10, rel=1e-12)
        assert row["sign"] == "down"
        assert row["redshift_ratio"] > 1.0
        assert row["chi"] == pytest.approx(1.0 / row["redshift_ratio"], rel=1e-15)
        assert row["travel_time_s"] == pytest.approx(0.0013342563825941988, rel=1e-12)

    def test_far_field_travel_time_is_null(self, gravlink):
        rows = _rows(gravlink("redshift", "--receiver", "far_field"))
        assert rows[0]["travel_time_s"] is None
        assert rows[0]["sign"] == "up"

    def test_co_located_far_field_stations_take_no_time(self, gravlink, tmp_path):
        # inf - inf in the tortoise coordinates used to print NaN
        path = tmp_path / "far.json"
        path.write_text(json.dumps(dict(LEO_CONFIG, emitter="far_field", receiver="far_field")))
        for argv in (["redshift", "--emitter-radius-m", "inf", "--receiver", "far_field"],
                     ["run", str(path)]):
            for fmt in ("json", "csv"):
                proc = gravlink(*argv, "--format", fmt)
                assert proc.returncode == 0, proc.stderr
                assert "nan" not in proc.stdout.lower()
            doc = json.loads(gravlink(*argv).stdout)
            assert (doc["rows"][0] if "rows" in doc else doc)["travel_time_s"] == 0.0

    def test_explicit_geometry(self, gravlink):
        rows = _rows(
            gravlink(
                "redshift",
                "--mass-kg", "0", "--body-radius-m", "6371e3",
                "--emitter-radius-m", "6371e3",
                "--receiver-radius-m", "6771e3", "--receiver-motion", "static",
            )
        )
        assert rows[0]["delta"] == 0.0
        assert rows[0]["redshift_ratio"] == 1.0

    def test_preset_conflicts_are_rejected(self, gravlink):
        proc = gravlink("redshift", "--receiver", "iss", "--body", "earth", "--mass-kg", "1")
        assert proc.returncode == 1


class TestOverlap:
    def test_delta_bypass(self, gravlink):
        rows = _rows(
            gravlink("overlap", "--delta", "3.4805390951444395e-10", "--sign", "up",
                    "--precision", "17")
        )
        assert rows[0]["Delta"] == pytest.approx(0.9926075412928603, rel=1e-13)
        assert rows[0]["q"] == pytest.approx(0.014730268968542607, rel=1e-13)

    def test_quadrature_cross_check(self, gravlink):
        rows = _rows(
            gravlink("overlap", "--receiver", "iss", "--quadrature", "--precision", "17")
        )
        row = rows[0]
        assert row["quadrature_abserr"] < 1e-13
        # the two routes describe packets that differ by the rounding of
        # 1 -+ delta, so they may part at the 1e-9 level, never more
        assert abs(row["Delta_quadrature"] - row["Delta"]) < 5e-9

    @pytest.mark.parametrize(
        "peak, width", [("1e200", "1e197"), ("1e-159", "1e-162"), ("1e-160", "1e-163")]
    )
    def test_quadrature_at_extreme_widths(self, gravlink, peak, width):
        # norm = (2 pi w1 w2)^-1/2 overflows or underflows unless the
        # lengths are scaled first
        (row,) = _rows(gravlink("overlap", "--receiver", "iss", "--peak-hz", peak, "--width-hz", width,
                                "--quadrature", "--precision", "17"))
        assert math.isfinite(row["Delta_quadrature"])
        assert abs(row["Delta_quadrature"] - row["Delta"]) <= 1e-12

    def test_geometry_and_delta_conflict(self, gravlink):
        proc = gravlink("overlap", "--receiver", "iss", "--delta", "1e-10")
        assert proc.returncode == 1

    def test_delta_alone_is_up(self, gravlink):
        assert _rows(gravlink("overlap", "--delta", "1e-10"))[0]["sign"] == "up"


class TestUnreadFlags:
    """A flag that the chosen route would leave unread is rejected by name."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["entangle", "--q", "0.1", "--receiver", "iss"],
             "entangle: --q replaces the geometry and the source; drop --receiver"),
            (["entangle", "--q", "0.1", "--source", "rb_vapor"],
             "entangle: --q replaces the geometry and the source; drop --source"),
            (["entangle", "--q", "0.1", "--peak-hz", "5e14", "--mass-kg", "1"],
             "entangle: --q replaces the geometry and the source; drop --mass-kg, --peak-hz"),
            (["overlap", "--delta", "1e-10", "--body", "earth"],
             "overlap: --delta replaces the geometry; drop --body"),
            (["overlap", "--delta", "1e-10", "--mass-kg", "1", "--emitter-radius-m", "7e6"],
             "overlap: --delta replaces the geometry; drop --mass-kg, --emitter-radius-m"),
            (["overlap", "--delta", "1e-10", "--receiver", "iss", "--receiver-motion", "orbit"],
             "overlap: --delta replaces the geometry; drop --receiver, --receiver-motion"),
            (["overlap", "--receiver", "far_field", "--sign", "down"],
             "overlap: the geometry sets the sign; drop --sign"),
            (["qber", "--q", "0.1", "--seed", "5"], "qber: --seed needs --trials; drop --seed"),
            (["redshift", "--receiver", "iss", "--format", "csv", "--precision", "3"],
             "redshift: CSV floats are exact round-trip; drop --precision"),
            # rejected before the handler runs: the config file is never opened
            (["run", "missing.json", "--format", "csv", "--precision", "17"],
             "run: CSV floats are exact round-trip; drop --precision"),
        ],
        ids=["entangle-receiver", "entangle-source", "entangle-peak-and-mass", "overlap-body",
             "overlap-mass-and-emitter", "overlap-receiver", "overlap-sign", "qber-seed",
             "redshift-csv-precision", "run-csv-precision"],
    )
    def test_rejected_with_their_names(self, gravlink, argv, message):
        proc = gravlink(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"gravlink: {message}\n")

    def test_the_lists_are_the_flag_groups(self):
        for flags, group in [(cli._GEOMETRY_FLAGS, cli._geometry_parent()),
                             (cli._SOURCE_FLAGS, cli._source_parent())]:
            assert set(flags) == {action.dest for action in group._actions}


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "{config}"],
        ["redshift", "--receiver", "iss"],
        ["overlap", "--receiver", "iss"],
        ["overlap", "--receiver", "iss", "--quadrature"],
        ["entangle", "--receiver", "iss"],
    ],
    ids=["run", "redshift", "overlap", "overlap-quadrature", "entangle"],
)
def test_link_commands_rate_each_station_as_run_does(monkeypatch, tmp_path, argv):
    """The work budget, in station rate factors: one per station to parse
    it, and one per station for the link's shift."""
    from gravlink import scenario, spacetime

    config = tmp_path / "leo.json"
    config.write_text(json.dumps({k: v for k, v in LEO_CONFIG.items() if k != "monte_carlo"}))
    calls = []
    real = spacetime._log_rate_factor
    counted = lambda *a: calls.append(a) or real(*a)  # noqa: E731
    monkeypatch.setattr(spacetime, "_log_rate_factor", counted)
    monkeypatch.setattr(scenario, "_log_rate_factor", counted)
    code, _, err = _main_in_process([arg.format(config=config) for arg in argv])
    assert code == 0, err
    assert len(calls) == 4


_EARTH_RADII = st.floats(6_371_000.0, 5e7)


@st.composite
def _earth_links(draw):
    """A config of an Earth link with a static emitter, and the CLI flags
    that spell its geometry and its source."""
    emitter = draw(_EARTH_RADII)
    geometry = ["--emitter-radius-m", repr(emitter)]
    if draw(st.booleans()):
        receiver = draw(st.sampled_from(sorted(STATION_PRESETS)))
        geometry += ["--receiver", receiver]
    else:
        motion = draw(st.sampled_from(["static", "orbit"]))
        receiver = {"radius_m": draw(_EARTH_RADII), "motion": motion}
        geometry += ["--receiver-radius-m", repr(receiver["radius_m"]),
                     "--receiver-motion", receiver["motion"]]
    if draw(st.booleans()):
        source = draw(st.sampled_from(sorted(SOURCE_PRESETS)))
        source_flags = ["--source", source]
    else:
        width = draw(st.floats(1e3, 1e12))
        source = {"peak_hz": width * draw(st.floats(101.0, 1e11)), "width_hz": width}
        source_flags = ["--peak-hz", repr(source["peak_hz"]), "--width-hz", repr(width)]
    doc = {"body": "earth", "emitter": {"radius_m": emitter}, "receiver": receiver,
           "source": source, "protocol": "single_photon"}
    return doc, geometry, source_flags


@given(_earth_links())
@settings(max_examples=100, deadline=None)
def test_link_rows_are_the_public_functions(link):
    """At 17 digits, every number of a redshift or overlap row is, with ==,
    the public function of that quantity."""
    doc, geometry, source_flags = link
    sc = parse_config(doc)
    stations = (sc.body, sc.emitter, sc.receiver)
    ratio, shift = redshift_total(*stations), shift_parameter(*stations)
    travel = coordinate_travel_time(sc.body, sc.emitter.radius, sc.receiver.radius)
    closed = overlap_gaussian_closed(sc.source, shift)
    rows = {}
    for command, flags in (("redshift", geometry), ("overlap", geometry + source_flags)):
        code, out, err = _main_in_process([command, *flags, "--precision", "17"])
        assert code == 0, err
        (rows[command],) = json.loads(out)["rows"]
    assert rows["redshift"] == {
        "redshift_ratio": ratio,
        "chi": 1.0 / ratio,
        "delta": shift.delta,
        "sign": shift.sign.value,
        "travel_time_s": travel if math.isfinite(travel) else None,
    }
    assert rows["overlap"] == {
        "delta": shift.delta, "sign": shift.sign.value, "Delta": closed.delta, "q": closed.q,
    }


class TestEntangle:
    def test_dual_route_agreement(self, gravlink):
        rows = _rows(gravlink("entangle", "--q", "0.0147", "--precision", "17"))
        row = rows[0]
        assert row["sim_vs_closed_max_abs"] < 1e-12
        assert row["p_d1"] == pytest.approx(0.25, abs=1e-12)
        assert row["p_d2"] == pytest.approx(0.25, abs=1e-12)
        assert row["negativity_d1_sim"] == pytest.approx(row["negativity"], abs=1e-10)
        assert row["p_share"] + row["p_diff"] == pytest.approx(1.0, abs=1e-15)
        assert row["qber"] == pytest.approx(0.00735, rel=1e-3)

    def test_figures_match_the_q_sweep(self, gravlink):
        q = 0.0147
        proc = gravlink("entangle", "--q", repr(q), "--precision", "17")
        doc = json.loads(proc.stdout)
        swept = sweep(parse_config(LEO_CONFIG), "q", [q])[0]
        for name in ("fidelity", "negativity", "qber"):
            assert doc["rows"][0][name] == getattr(swept, name)
            assert doc["tags"][name] == swept.tags[name]

    def test_geometry_route(self, gravlink):
        rows = _rows(gravlink("entangle", "--receiver", "iss", "--precision", "17"))
        assert rows[0]["q"] == pytest.approx(0.0025083294283674017, rel=1e-13)


class TestQber:
    def test_closed_only(self, gravlink):
        rows = _rows(gravlink("qber", "--q", "0.1"))
        assert rows[0] == {"q": 0.1, "qber": 0.05}

    def test_with_monte_carlo(self, gravlink):
        rows = _rows(gravlink("qber", "--q", "0.1", "--trials", "50000", "--seed", "7"))
        row = rows[0]
        assert row["trials"] == 50_000 and row["seed"] == 7
        assert abs(row["qber_mc"] - 0.05) < 0.003
        again = _rows(gravlink("qber", "--q", "0.1", "--trials", "50000", "--seed", "7"))
        assert again[0]["qber_mc"] == row["qber_mc"]

    def test_trials_without_seed_use_the_default_seed(self, gravlink):
        (row,) = _rows(gravlink("qber", "--q", "0.1", "--trials", "20000"))
        assert row["seed"] == 12345


class TestCvHomodyne:
    def test_three_scenarios_agree(self, gravlink):
        rows = _rows(gravlink("cv-homodyne", "--alpha", "0.5", "--beta", "90"))
        assert [r["scenario"] for r in rows] == ["flat", "leo", "far_field"]
        assert all(r["pass"] for r in rows)
        assert {(r["x"], r["v"]) for r in rows} == {(90.0, 16200.0)}

    def test_mismatched_lo_demo(self, gravlink):
        rows = _rows(
            gravlink("cv-homodyne", "--alpha", "0.5", "--beta", "90",
                    "--lo-peak-hz", "700.00001e12", "--lo-width-hz", "1e6")
        )
        assert all(r["x"] is None and not r["pass"] for r in rows)

    def test_rounding_past_the_largest_float_writes_null(self, gravlink):
        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        # V = 2 beta^2 = 1.7975e308 is finite and rounds to 1.80e308
        proc = gravlink("cv-homodyne", "--alpha", "0", "--beta", "9.4803e153", "--precision", "3")
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout, parse_constant=refuse)["rows"]
        assert [r["v"] for r in rows] == [None, None, None]

    @pytest.mark.parametrize("peak, width", [("1e200", "1e197"), ("1e-159", "1e-162")])
    def test_matched_lo_passes_at_extreme_widths(self, gravlink, peak, width):
        rows = _rows(gravlink("cv-homodyne", "--alpha", "1", "--beta", "30",
                              "--peak-hz", peak, "--width-hz", width))
        assert all(r["pass"] for r in rows) and {(r["x"], r["v"]) for r in rows} == {(60.0, 1800.0)}

    def test_half_specified_lo_is_rejected(self, gravlink):
        proc = gravlink("cv-homodyne", "--alpha", "0.5", "--beta", "90",
                       "--lo-peak-hz", "700.00001e12")
        assert proc.returncode == 1


class TestRunAndSweep:
    def test_run_csv_header_is_the_result_schema(self, gravlink, leo_config):
        proc = gravlink("run", str(leo_config), "--format", "csv")
        assert proc.returncode == 0
        data = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert data[0] == ",".join(RESULT_FIELDS)
        cells = data[1].split(",")
        assert float(cells[RESULT_FIELDS.index("q")]) == pytest.approx(
            0.0025083294283674017, rel=1e-13
        )

    def test_run_reports_monte_carlo_extra_as_comment(self, gravlink, leo_config):
        proc = gravlink("run", str(leo_config), "--format", "csv")
        assert any(ln.startswith("# extra qber_mc") for ln in proc.stdout.splitlines())

    def test_out_file_is_byte_identical_across_runs(self, leo_config, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("run", str(leo_config), "--out", str(out1)).returncode == 0
        assert run_cli("run", str(leo_config), "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        (doc,) = json.loads(out1.read_text())["rows"]
        assert doc["q"] == pytest.approx(0.0025083294283674017, rel=1e-6)
        assert "qber_mc" in doc["extras"]

    def test_config_output_block_is_an_unknown_key(self, gravlink, tmp_path):
        # a config holds the physics; --format and --out choose the output
        target = tmp_path / "from_config.csv"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(LEO_CONFIG, output={"format": "csv", "path": str(target)})))
        for argv in (["run", str(path)], ["sweep", str(path), "--parameter", "q", "--grid", "0,0.5"]):
            proc = gravlink(*argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                1, "", "gravlink: config: unknown key(s) output\n")
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sweep_failing_last_point_writes_nothing(self, gravlink, leo_config, tmp_path, fmt):
        # every point is computed and checked before the first block of rows
        # is rendered, so a failure past that block leaves no partial output
        count = _ROW_BLOCK + 100
        grid = ",".join(["0.5"] * (count - 1) + ["2"])
        message = f"gravlink: sweep.grid[{count - 1}]: q: must lie in [0, 1], got 2.0\n"
        target = tmp_path / f"sweep.{fmt}"
        argv = ["sweep", str(leo_config), "--parameter", "q", "--grid", grid, "--format", fmt]
        for extra in ([], ["--out", str(target)]):
            proc = gravlink(*argv, *extra)
            assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)
        assert not target.exists()

    def test_downlink_runs_end_to_end(self, gravlink, tmp_path):
        docs = {"up": dict(LEO_CONFIG), "down": dict(LEO_CONFIG, emitter="iss", receiver="ground")}
        rows = {}
        for name, doc in docs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            proc = gravlink("run", str(path), "--precision", "17")
            assert proc.returncode == 0, proc.stderr
            (rows[name],) = _rows(proc)
        up, down = rows["up"], rows["down"]
        assert abs(down["redshift_ratio"] * up["redshift_ratio"] - 1.0) <= 2 * 2.0**-52
        assert down["q"] == pytest.approx(up["q"], rel=1e-12)

    def test_sweep_log_grid(self, gravlink, leo_config):
        proc = gravlink(
            "sweep", str(leo_config), "--parameter", "width_hz",
            "--grid", "log:1e6:1e12:4", "--format", "csv",
        )
        assert proc.returncode == 0
        data = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert data[0] == ",".join(RESULT_FIELDS)
        q_col = RESULT_FIELDS.index("q")
        qs = [float(ln.split(",")[q_col]) for ln in data[1:]]
        assert len(qs) == 4
        assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_sweep_comma_grid(self, gravlink, leo_config):
        proc = gravlink(
            "sweep", str(leo_config), "--parameter", "q", "--grid", "0,0.5,1",
        )
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)["rows"]
        assert [r["negativity"] for r in rows] == pytest.approx(
            [0.5, 0.353553390593, 0.0]
        )

    def test_peak_past_the_float_square(self, gravlink, tmp_path):
        # (delta peak/width)^2 overflows a float: the overlap underflows to 0
        path = tmp_path / "far_peak.json"
        path.write_text(json.dumps(dict(LEO_CONFIG, source={"peak_hz": 1e170, "width_hz": 1e6})))
        proc = gravlink("run", str(path))
        assert proc.returncode == 0, proc.stderr
        (doc,) = _rows(proc)
        assert (doc["Delta"], doc["q"]) == (0.0, 1.0)
        rows = _rows(gravlink("sweep", str(path), "--parameter", "peak_hz", "--grid", "7e14,1e170"))
        assert (rows[1]["Delta"], rows[1]["q"]) == (0.0, 1.0)

    def test_flat_link_at_an_infinite_ratio(self, gravlink, tmp_path):
        # peak/width overflows to inf; with no shift the packet arrives as sent
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(dict(LEO_CONFIG, body={"mass_kg": 0, "radius_m": 6.371e6},
                                        source={"peak_hz": 1e300, "width_hz": 1e-10})))
        run = gravlink("run", str(path))
        assert run.returncode == 0, run.stderr
        rows = _rows(run)
        rows += _rows(gravlink("sweep", str(path), "--parameter", "width_hz", "--grid", "1e-10,1e6"))
        for row in rows:
            assert (row["Delta"], row["q"], row["fidelity"]) == (1.0, 0.0, 1.0)
        csv_text = gravlink("sweep", str(path), "--parameter", "width_hz", "--grid", "1e-10",
                            "--format", "csv").stdout
        assert "nan" not in csv_text and csv_text.endswith("1.0,0.0,1.0,0.0,1.0,0.5,0.0,0.0013342563807926082,1.0\n")

    def test_sweep_bad_grid(self, gravlink, leo_config):
        proc = gravlink("sweep", str(leo_config), "--parameter", "q", "--grid", "log:1:2")
        assert proc.returncode == 1


class TestPaperTable:
    def test_exit_zero_and_verdict_vocabulary(self):
        proc = run_cli("paper-table", "--format", "json")
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)["rows"]
        assert len(rows) == 8
        verdicts = {r["verdict"] for r in rows}
        assert verdicts == {"ok", "paper-inconsistent"}

    def test_csv_carries_the_flag_literally(self, gravlink):
        proc = gravlink("paper-table", "--format", "csv")
        assert proc.returncode == 0
        assert "paper-inconsistent" in proc.stdout
