"""The README's library example runs as written and its config block is the defaults, so the
documented API and config cannot drift."""

import json
import re
from pathlib import Path

from clustergossip.config import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def test_readme_library_example_runs(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:python", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 5  # xi, expected cost, feasible; mean iterations, mean energy
    assert printed[2] == "True"


def test_readme_config_block_is_the_defaults():
    """Every key, in table order, with its default; alphas is a JSON list."""
    blocks = _blocks("json")
    assert len(blocks) == 1
    defaults = {key: default for key, (default, _, _) in ExperimentConfig.KEYS.items()}
    defaults["alphas"] = list(defaults["alphas"])
    assert list(json.loads(blocks[0]).items()) == list(defaults.items())
