"""README's python blocks run as written and give the figures their comments state."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)

# a "# name = figure" comment, and the value it states, read from the block's names
FIGURE = re.compile(r"# (\S+) = ([-+.e\d]+)")
FIGURES = {
    "delta": lambda names: names["shift"].delta,
    "|Delta|": lambda names: abs(names["overlap"].delta),
    "q": lambda names: names["q"],
}


def _rounds_to(value: float, shown: str) -> bool:
    """value rounded to the significant digits of shown is shown."""
    digits = len(re.sub(r"e.*|\D", "", shown).lstrip("0"))
    return float(f"{value:.{digits - 1}e}") == float(shown)


def test_quick_start_states_the_leo_figures():
    stated = FIGURE.findall("".join(BLOCKS))
    assert stated == [("delta", "1.43e-10"), ("|Delta|", "0.99875"), ("q", "2.51e-3")]


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs_and_gives_its_figures(block):
    names: dict = {}
    exec(block, names)
    for name, shown in FIGURE.findall(block):
        assert _rounds_to(FIGURES[name](names), shown), (name, FIGURES[name](names), shown)
    if "blueshift" in block:
        assert names["shift"].sign.value == "down"
