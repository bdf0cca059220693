"""Compare the program's outputs on the working tree with its outputs at a git revision.

Usage: python3 tools/parent_diff.py [REV]

Exports REV (default HEAD) with ``git archive`` into a temporary directory. Under that tree and
under the working tree, each with its own ``src`` on PYTHONPATH and one BLAS thread, runs
``clustergossip run`` on five configs (the defaults, the slow-mixing workload's overrides, a pool
of at most 5 members, a 40-node grid, and seeds of several 32-bit words: ``topology_seed``
2**64 + 7, and 200 runs from ``sim_base_seed`` 2**32 - 100, whose one chunk of streams crosses
from one-word to two-word seeds) and ``clustergossip candidates`` on three (the defaults, the
40-node grid with every size, and 200 nodes). Prints each output file or stdout
that differs and, for a differing summary.json, the keys that differ in each entry. Exits 0 when
nothing differs, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKING_TREE = Path(__file__).resolve().parents[1]
GRID = {"positions": [[i % 8, i // 8] for i in range(40)]}
GRID_FILE = "grid.json"  # relative to the working directory the commands run in
NARROW = {"cluster_size_max": 5, "alphas": [4e-5], "error_threshold": 1e-6}
RUNS = {
    "default": {},
    "slow-mixing": {**NARROW, "runs": 1000},
    "narrow": {**NARROW, "runs": 200},
    "grid-40": {"topology_file": GRID_FILE, "cluster_size_max": 12, "alphas": [4e-5], "runs": 200},
    "multi-word-seeds": {"topology_seed": 2**64 + 7, "sim_base_seed": 2**32 - 100, "runs": 200},
}
TABLES = {
    "default": {},
    "grid-40": {"topology_file": GRID_FILE},
    "200-nodes": {"n_nodes": 200},
}


def _outputs(tree: Path, label: str, work: Path) -> dict[str, bytes]:
    """Every output of the configs above under ``tree``, keyed by config and file name."""
    env = {
        **os.environ, "PYTHONPATH": str(tree / "src"),
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    }
    out = {}
    for command, configs in (("run", RUNS), ("candidates", TABLES)):
        for name, config in configs.items():
            path = work / f"{command}-{name}.json"
            path.write_text(json.dumps(config))
            argv = [sys.executable, "-m", "clustergossip", command, "--config", str(path)]
            output_dir = work / f"{label}-{name}"
            if command == "run":
                argv += ["--output-dir", str(output_dir)]
            done = subprocess.run(argv, env=env, cwd=work, capture_output=True)
            key = f"{command} {name}"
            out[f"{key}: exit code"] = str(done.returncode).encode()
            out[f"{key}: stdout"] = done.stdout
            if command == "run":
                for file in sorted(output_dir.glob("*")):
                    out[f"{key}: {file.name}"] = file.read_bytes()
    return out


def _summary_keys(before: bytes, after: bytes) -> list[str]:
    """For each entry of two summary.json files, the keys whose values differ."""
    lines = []
    old, new = json.loads(before), json.loads(after)
    if len(old) != len(new):
        lines.append(f"    {len(old)} entries, now {len(new)}")
    for i, (a, b) in enumerate(zip(old, new)):
        keys = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))
        if keys:
            lines.append(f"    entry {i} (alpha {a.get('alpha')}): {', '.join(keys)}")
    return lines


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        base = work / "rev"
        base.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(WORKING_TREE), "archive", rev], capture_output=True, check=True
        )
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        (work / GRID_FILE).write_text(json.dumps(GRID))
        before, after = _outputs(base, "rev", work), _outputs(WORKING_TREE, "tree", work)
    keys = sorted(before.keys() | after.keys())
    differing = [key for key in keys if before.get(key) != after.get(key)]
    for key in differing:
        print(f"differs: {key}")
        if key.endswith("summary.json") and key in before and key in after:
            print("\n".join(_summary_keys(before[key], after[key])))
    print(f"{len(differing)} of {len(keys)} outputs differ from {rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
