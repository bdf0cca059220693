import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clustergossip import (
    ConfigurationError,
    Topology,
    generate_topology,
    load_topology,
)


def test_three_four_five_triangle():
    d = Topology(np.array([[0.0, 0.0], [3.0, 4.0]])).d_sq
    assert d[0, 1] == 25.0
    assert d[1, 0] == 25.0


def test_coincident_points():
    d = Topology(np.array([[1.0, 1.0], [1.0, 1.0]])).d_sq
    assert d[0, 1] == 0.0


def test_three_node_matrix(three_node_topology):
    expected = np.array(
        [[0.0, 25.0, 100.0], [25.0, 0.0, 65.0], [100.0, 65.0, 0.0]]
    )
    np.testing.assert_array_equal(three_node_topology.d_sq, expected)
    # cross-check against a straightforward per-pair evaluation
    pos = three_node_topology.positions
    for i in range(3):
        for j in range(3):
            direct = float(np.sum((pos[i] - pos[j]) ** 2))
            assert three_node_topology.d_sq[i, j] == pytest.approx(direct, abs=1e-12)


def test_generated_field_bounds_and_reproducibility():
    t1 = generate_topology(30, 50.0, seed=7)
    t2 = generate_topology(30, 50.0, seed=7)
    assert t1.positions.shape == (30, 2)
    assert np.all(t1.positions >= 0.0) and np.all(t1.positions <= 50.0)
    np.testing.assert_array_equal(t1.positions, t2.positions)


def test_generated_large_field_bitwise_identical():
    a = generate_topology(100, 50.0, seed=1)
    b = generate_topology(100, 50.0, seed=1)
    assert a.positions.tobytes() == b.positions.tobytes()
    assert a.d_sq.tobytes() == b.d_sq.tobytes()


def test_two_node_symmetry():
    t = generate_topology(2, 1.0, seed=3)
    assert t.d_sq[0, 1] == t.d_sq[1, 0]
    assert t.d_sq[0, 1] >= 0.0


@pytest.mark.parametrize(
    "n,side", [(1, 10.0), (0, 10.0), (5, 0.0), (5, -1.0), (5, float("nan")), (5, float("inf"))]
)
def test_generate_rejects_bad_parameters(n, side):
    with pytest.raises(ConfigurationError):
        generate_topology(n, side, seed=0)


coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(
    st.lists(st.tuples(coords, coords), min_size=2, max_size=12),
    st.tuples(coords, coords),
)
@settings(max_examples=60, deadline=None)
def test_distance_matrix_properties(points, shift):
    pos = np.array(points, dtype=float)
    d = Topology(pos).d_sq
    np.testing.assert_array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d >= 0.0)
    shifted = Topology(pos + np.array(shift)).d_sq
    np.testing.assert_allclose(shifted, d, atol=1e-9 * (1.0 + np.abs(d).max()))


def test_positions_are_read_only():
    t = generate_topology(4, 10.0, seed=0)
    with pytest.raises(ValueError):
        t.positions[0, 0] = 99.0
    with pytest.raises(ValueError):
        t.d_sq[0, 1] = -1.0


def test_load_topology_roundtrip(tmp_path):
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps({"positions": [[0.0, 0.0], [3.0, 4.0], [10.0, 0.0]]}))
    t = load_topology(path)
    assert t.n == 3
    assert t.d_sq[0, 1] == 25.0


def test_load_topology_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"positions": [[0.0, 0.0]]}))
    with pytest.raises(ConfigurationError):
        load_topology(path)
    path.write_text("not json")
    with pytest.raises(ConfigurationError):
        load_topology(path)
    path.write_text(json.dumps({"positions": [[0.0, 0.0], [1.0, float("inf")]]}))
    with pytest.raises(ConfigurationError, match="finite"):
        load_topology(path)
    path.write_text(json.dumps({"nodes": [[0.0, 0.0], [3.0, 4.0]]}))
    with pytest.raises(ConfigurationError, match='"positions" key'):
        load_topology(path)


def _per_pair_squared_distances(positions: np.ndarray) -> list[list[float]]:
    """``(xi-xj)*(xi-xj) + (yi-yj)*(yi-yj)`` for every pair, one Python float at a time."""
    points = positions.tolist()
    return [
        [(xi - xj) * (xi - xj) + (yi - yj) * (yi - yj) for xj, yj in points] for xi, yi in points
    ]


def test_topology_derives_d_sq_from_its_positions():
    """d_sq is no constructor argument, so it cannot disagree with positions: it is the per-pair
    squared distances, bit for bit."""
    t = Topology([[0, 0], [3, 4], [10, 0]])
    for field in (t, generate_topology(30, 50.0, 7)):
        assert field.d_sq.tolist() == _per_pair_squared_distances(field.positions)
    assert t.positions.dtype == float
    assert not t.positions.flags.writeable and not t.d_sq.flags.writeable
    with pytest.raises(TypeError):
        Topology(positions=np.zeros((2, 2)), d_sq=np.ones((2, 2)))


@pytest.mark.parametrize(
    "positions",
    [
        "abc",
        None,
        True,
        {"x": [0, 1]},
        [[0, 0], [1]],
        [[0, 0]],
        [[0, 0, 0], [1, 1, 1]],
        [[[0, 0]], [[1, 1]]],
        [],
        [[0, "x"], [1, 1]],
        [[0, 0], [1, 10**400]],
        [[0, 0], [1, float("nan")]],
        [["0", "0"], ["3", "4"], [True, False]],
        [[True, 0], [1, 2]],
        np.array([[True, False], [False, True]]),
    ],
)
def test_topology_rejects_malformed_positions(positions):
    with pytest.raises(ConfigurationError, match="positions"):
        Topology(positions)


@pytest.mark.parametrize(
    "positions",
    [
        [[0, 0], [3.0, 4]],
        np.array([[0, 0], [3, 4]], dtype=np.int64),
        np.array([[0, 0], [3, 4]], dtype=np.uint8),
        np.array([[0, 0], [3, 4]], dtype=np.float32),
    ],
)
def test_topology_accepts_numbers_and_numeric_arrays(positions):
    t = Topology(positions)
    assert t.positions.dtype == float and t.d_sq[0, 1] == 25.0


def test_load_topology_rejects_overlong_integer(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"positions": [[0, 0], [1, ' + "1" * 5000 + "]]}")  # past int-string limits
    with pytest.raises(ConfigurationError):
        load_topology(path)
