"""Shared fixtures and the acceptance-suite result reporter."""

import numpy as np
import pytest

from clustergossip import Topology


THREE_NODE_POSITIONS = np.array([[0.0, 0.0], [3.0, 4.0], [10.0, 0.0]])


@pytest.fixture
def three_node_topology() -> Topology:
    """Nodes at (0,0), (3,4), (10,0): squared distances 25 / 65 / 100."""
    return Topology(THREE_NODE_POSITIONS.copy())


@pytest.fixture
def collinear_topology() -> Topology:
    return Topology(
        np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    )


@pytest.fixture
def coincident_topology() -> Topology:
    """Three nodes at one point, (2,2): every squared distance is 0."""
    return Topology(np.array([[2.0, 2.0]] * 3))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion after the run.

    A gate passes only when its call passed; an error in its setup (say, a
    fixture that raised) or teardown makes it FAIL. Later outcomes overwrite
    earlier ones, so a failure or error always wins over a pass.
    """
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if outcome == "passed" and getattr(report, "when", "call") != "call":
                continue
            name = report.nodeid.rsplit("::", 1)[-1]
            if "test_acceptance" in report.nodeid and name.startswith("test_criterion"):
                verdict = "PASS" if outcome == "passed" else "FAIL"
                lines[name] = f"{verdict}  {name.removeprefix('test_')}"
    if lines:
        terminalreporter.section("acceptance criteria")
        for name in sorted(lines):
            terminalreporter.write_line(lines[name])
