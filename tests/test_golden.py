"""Byte gate: the demos, the reference table and a set of CLI commands
print exactly the stored output.

The files under tests/golden/ hold the stdout of each demo and of
`gravlink paper-table --format csv`; tests/golden/cli/ holds the stdout
of every command in CLI_CASES.  A refactor that changes any printed byte
fails here; a deliberate change of output regenerates the files that
hold it (`python tests/test_golden.py` rewrites every file these tests
compare whose bytes changed, and names each on stderr).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # run as a script: the checkout's package, ahead of any installed copy
    sys.path.insert(0, str(ROOT / "src"))

import gravlink.cli as cli  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = ("cv_invariance", "entanglement_swap", "mode_mismatch", "redshift_budget", "reference_table")

# Base configs of the `run` and `sweep` cases, written to a temporary
# directory under these names; {name} in an argv is that file's path.
_LINK = {"body": "earth", "emitter": "ground", "receiver": "iss", "source": "spdc_blue"}
CLI_CONFIGS = {
    "single_photon": dict(_LINK, protocol="single_photon"),
    "coherent": dict(_LINK, receiver="far_field", protocol={"kind": "coherent", "alpha": 1.5}),
    "tmss": {
        "body": {"mass_kg": 6.4e23, "radius_m": 3.39e6},
        "emitter": {"radius_m": 3.39e6},
        "receiver": {"radius_m": 2.0e7, "motion": "static"},
        "source": "rb_vapor",
        "protocol": {"kind": "tmss", "s": 0.8},
    },
    "entangle_qkd": dict(_LINK, protocol="entangle_qkd", monte_carlo={"trials": 20_000, "seed": 7}),
    "cv_homodyne": dict(_LINK, protocol={"kind": "cv_homodyne", "alpha": 0.5, "beta": 30.0}),
    # a massless body: delta = 0 exactly, swept to peak/width ratios of 7e175
    "flat": dict(_LINK, body={"mass_kg": 0.0, "radius_m": 6.371e6}, protocol="entangle_qkd"),
    # the uplink of entangle_qkd run backwards, from an orbiting emitter
    "downlink": dict(_LINK, emitter="iss", receiver="ground", protocol="entangle_qkd"),
}

_SWEEPS = {
    "width_hz": "log:1e6:1e12:7",
    "peak_hz": "3e14,5e14,7.5e14,9e14",
    # 1.5 r_A is the orbit's zero-shift radius; inf renders travel_time_s as null
    "receiver_radius_m": "6371000,6.771e6,9556500,4.2e7,inf",
    "q": "lin:0:1:5",
}
_FORMATS = {
    "json": [],
    "csv": ["--format", "csv"],
    "p17": ["--precision", "17"],
    "p3": ["--precision", "3"],
    # 15 and 16 digits sit on either side of render_json's text-path switch
    "p15": ["--precision", "15"],
    "p16": ["--precision", "16"],
}


def _cli_cases() -> dict[str, list[str]]:
    cases = {}
    for param, grid in _SWEEPS.items():
        for label, flags in _FORMATS.items():
            argv = ["sweep", "{entangle_qkd}", "--parameter", param, "--grid", grid, *flags]
            cases[f"sweep-{param}-{label}"] = argv
    for label in ("json", "csv"):
        cases[f"sweep-cv_homodyne-width_hz-{label}"] = [
            "sweep", "{cv_homodyne}", "--parameter", "width_hz", "--grid", "1e5,1e6,1e7",
            *_FORMATS[label],
        ]
        cases[f"sweep-flat-width_hz-{label}"] = [
            "sweep", "{flat}", "--parameter", "width_hz", "--grid", "1e-161,1e-10,1e6,1e12",
            *_FORMATS[label],
        ]
    for kind in CLI_CONFIGS.keys() - {"flat", "downlink"}:
        for label in ("json", "csv"):
            cases[f"run-{kind}-{label}"] = ["run", "{" + kind + "}", *_FORMATS[label]]
    cases["run-downlink-json"] = ["run", "{downlink}"]
    cases["overlap-quadrature"] = ["overlap", "--receiver", "iss", "--quadrature"]
    cases["overlap-quadrature-rb_vapor"] = [
        "overlap", "--receiver", "far_field", "--source", "rb_vapor", "--quadrature",
    ]
    cases["overlap-delta-down-quadrature"] = [
        "overlap", "--delta", "1e-10", "--sign", "down", "--quadrature",
    ]
    # no shift keeps the sign it was given
    cases["overlap-delta-zero-down"] = ["overlap", "--delta", "0", "--sign", "down"]
    cases["overlap-far_field-p17"] = ["overlap", "--receiver", "far_field", "--precision", "17"]
    cases["overlap-iss-csv"] = ["overlap", "--receiver", "iss", "--format", "csv"]
    cases["entangle"] = ["entangle", "--receiver", "far_field"]
    cases["entangle-csv"] = ["entangle", "--q", "0.25", "--format", "csv"]
    cases["entangle-iss-csv"] = ["entangle", "--receiver", "iss", "--format", "csv"]
    cases["redshift-far_field"] = ["redshift", "--receiver", "far_field"]
    cases["redshift-far_field-csv"] = ["redshift", "--receiver", "far_field", "--format", "csv"]
    # an orbit just outside a compact body's photon sphere: delta = 2.38,
    # past the overlap's domain, which redshift still reports
    cases["redshift-compact-p17"] = [
        "redshift", "--mass-kg", "1e30", "--body-radius-m", "1700", "--receiver-radius-m", "2230",
        "--receiver-motion", "orbit", "--precision", "17",
    ]
    cases["qber"] = ["qber", "--q", "0.1"]
    cases["qber-csv"] = ["qber", "--q", "0.1", "--format", "csv"]
    cases["qber-monte_carlo"] = ["qber", "--q", "0.2", "--trials", "20000", "--seed", "3"]
    cases["cv-homodyne"] = ["cv-homodyne", "--alpha", "0.5", "--beta", "30"]
    cases["cv-homodyne-csv"] = ["cv-homodyne", "--alpha", "0.5", "--beta", "30", "--format", "csv"]
    cases["cv-homodyne-mismatched"] = [
        "cv-homodyne", "--alpha", "0.5", "--beta", "30", "--lo-peak-hz", "7.00000001e14",
        "--lo-width-hz", "1e6",
    ]
    cases["paper-table-json"] = ["paper-table"]
    cases["help"] = ["--help"]
    for command in ("redshift", "overlap", "entangle", "qber", "cv-homodyne", "run", "sweep", "paper-table"):
        cases[f"help-{command}"] = [command, "--help"]
    return cases


CLI_CASES = _cli_cases()


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def _stdout(call) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        call()
    return out.getvalue()


def _main(argv: list[str]) -> None:
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # --help prints and exits 0
        code = exc.code
    assert code == 0, argv


def _demo_stdout(demo: str) -> str:
    return _stdout(lambda: runpy.run_path(str(ROOT / "demos" / f"{demo}.py"), run_name="__main__"))


def _paper_table_csv() -> str:
    return _stdout(lambda: _main(["paper-table", "--format", "csv"]))


def _cli_stdout(case: str, config_dir: Path) -> str:
    paths = {}
    for name, doc in CLI_CONFIGS.items():
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    with mock.patch.dict(os.environ, COLUMNS="80"):
        return _stdout(lambda: _main([arg.format(**paths) for arg in CLI_CASES[case]]))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_stdout(demo):
    assert _demo_stdout(demo) == _golden(f"{demo}.txt")


def test_paper_table_csv():
    assert _paper_table_csv() == _golden("paper_table.csv")


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_stdout(case, tmp_path):
    assert _cli_stdout(case, tmp_path) == _golden(f"cli/{case}.txt")


def test_cli_set_has_no_stale_files():
    stored = {path.stem for path in (GOLDEN / "cli").glob("*.txt")}
    assert stored == set(CLI_CASES)


if __name__ == "__main__":
    import tempfile

    # every text first, so that a failing command leaves the stored set as it was
    texts = {f"{demo}.txt": _demo_stdout(demo) for demo in DEMOS}
    texts["paper_table.csv"] = _paper_table_csv()
    with tempfile.TemporaryDirectory() as tmp:
        texts.update((f"cli/{case}.txt", _cli_stdout(case, Path(tmp))) for case in CLI_CASES)
    (GOLDEN / "cli").mkdir(exist_ok=True)
    for stale in (GOLDEN / "cli").glob("*.txt"):
        if f"cli/{stale.name}" not in texts:
            stale.unlink()
            print(f"removed {stale.relative_to(GOLDEN)}", file=sys.stderr)
    # name each file whose bytes change, and leave the others untouched
    for name, text in texts.items():
        path = GOLDEN / name
        if not path.exists() or path.read_bytes() != text.encode("utf-8"):
            path.write_text(text, encoding="utf-8", newline="")
            print(f"wrote {name}", file=sys.stderr)
