"""The README's library example runs as printed."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under '## Library use'"
    exec(compile(block.group(1), f"{README}:Library use", "exec"), {})
    out = capsys.readouterr().out
    assert "arrival window [5, 5.25]: decoherent" in out
