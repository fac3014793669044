"""README's "Library quick start" block runs and prints what its comments say."""

import re
from pathlib import Path

from movability.decide import GENERICALLY_MOVABLE
from movability.graphs import Graph

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under Library quick start"
    return match.group(1)


def test_library_quick_start_prints_its_commented_values(capsys):
    namespace = {"__name__": "readme"}
    exec(compile(quick_start_block(), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    four_cycle = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert printed == ["6", str(four_cycle), "4", "201"]
    assert namespace["verdict"].kind == GENERICALLY_MOVABLE
