"""Which lines of src/gravlink the program's own callers reach.

    PYTHONPATH=src python tests/traffic.py [--seed N]

Traces, with the standard library's sys.settrace, every line of the
gravlink package that runs while this script drives, in one process:

- every CLI_CASES command of tests/test_golden.py;
- the five demos;
- the first three pool units of each perfbench workload: run_op, then
  check (cli_cold runs its commands in process, through the checker's
  own route).

Tracing starts before gravlink is imported, so module-level lines
count.  The script prints, per module, the executable lines that never
ran.  It asserts that every command exits 0 and that every perfbench
check passes, and it changes no file in the checkout (perfbench writes
its config files to a temporary directory).  pytest does not collect
it, and it refuses to run under -O.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNITS = 3  # pool units per perfbench workload


def _executable_lines(path: Path) -> set[int]:
    """Every line an instruction of the module's code objects maps to."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _drive(seed: int) -> list[str]:
    """Run every caller; the names of what ran, for the summary."""
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
    import test_golden
    import workloads

    ran = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in test_golden.CLI_CASES:
            test_golden._cli_stdout(case, Path(tmp))
        ran.append(f"{len(test_golden.CLI_CASES)} golden CLI commands")
        for demo in test_golden.DEMOS:
            test_golden._demo_stdout(demo)
        ran.append(f"{len(test_golden.DEMOS)} demos")
        for name, workload in workloads.WORKLOADS.items():
            workdir = os.path.join(tmp, name)
            os.mkdir(workdir)
            wl = workload(seed, workdir, str(ROOT))
            ops = [op for unit in wl.units[:UNITS] for op in unit]
            for op in ops:
                # cli_cold's sample_record is its in-process route
                record = wl.sample_record(op) if name == "cli_cold" else wl.run_op(op)
                if not wl.check(op, record)[0]:
                    raise RuntimeError(f"{name}: check failed on {op!r}")
            ran.append(f"{name} {len(ops)} ops")
    return ran


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="perfbench pool seed")
    args = parser.parse_args(argv)
    if not __debug__:
        raise RuntimeError("run without -O: test_golden's commands run inside assert statements")
    if "gravlink" in sys.modules:
        raise RuntimeError("gravlink is already imported; its module-level lines would not count")
    package = Path(importlib.util.find_spec("gravlink").origin).parent
    prefix = str(package) + os.sep
    reached: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.settrace(calls)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            ran = _drive(args.seed)
    finally:
        sys.settrace(None)

    print("gravlink lines never reached by " + ", ".join(ran))
    total = unreached_total = 0
    for path in sorted(package.glob("*.py")):
        executable = _executable_lines(path)
        unreached = sorted(executable - reached[str(path)])
        total += len(executable)
        unreached_total += len(unreached)
        print(f"{path.name}: {len(unreached)} of {len(executable)}" + (f": {_ranges(unreached)}" if unreached else ""))
    print(f"total: {unreached_total} of {total} executable lines never reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
