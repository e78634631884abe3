"""Byte gate: the demos and the reference table print exactly the stored output.

The files under tests/golden/ hold the stdout of each demo and of
`gravlink paper-table --format csv`.  A refactor that changes any
printed byte fails here; a deliberate change of output regenerates the
file that holds it.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

import gravlink.cli as cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = ("cv_invariance", "entanglement_swap", "mode_mismatch", "redshift_budget", "reference_table")


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_stdout(demo, capsys):
    runpy.run_path(str(ROOT / "demos" / f"{demo}.py"), run_name="__main__")
    assert capsys.readouterr().out == _golden(f"{demo}.txt")


def test_paper_table_csv(capsys):
    assert cli.main(["paper-table", "--format", "csv"]) == 0
    assert capsys.readouterr().out == _golden("paper_table.csv")
