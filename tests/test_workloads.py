"""The benchmark's workloads pass their own checkers on the program.

One pool unit of each perfbench workload runs in process, as
tests/traffic.py drives them: run_op, then check (cli_cold runs its
commands through the checker's in-process route).  So a change to what
perfbench reads of gravlink (sweep rows, result_to_dict, render_json,
tabulate, ...) fails here, not only in a benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_pool_unit_passes_its_checker(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, str(tmp_path), str(ROOT))
    for op in workload.units[0]:
        record = workload.sample_record(op) if name == "cli_cold" else workload.run_op(op)
        assert workload.check(op, record)[0], op
