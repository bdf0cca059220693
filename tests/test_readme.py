"""The README's library example runs as written, so the documented API cannot drift."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:python", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 5  # xi, expected cost, feasible; mean iterations, mean energy
    assert printed[2] == "True"
