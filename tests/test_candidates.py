import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clustergossip import (
    ClusterCandidate,
    ConfigurationError,
    EnergyParams,
    SimulationScenario,
    Topology,
    candidate_cost_l1,
    consensus_step,
    enumerate_candidates,
    generate_topology,
    load_topology,
    mixing_matrix,
    monte_carlo,
    objective_subgradient,
    optimize,
    prune_dominated,
    xi,
)
import clustergossip.candidates as candidates
from clustergossip.cli import prepare_pool
import reference
from reference import build_weight_matrix, cost_bc, cost_fc, run_trial


PAIR_01 = ClusterCandidate(head=0, members=(0, 1))
PAIR_3_4 = Topology(np.array([[0.0, 0.0], [3.0, 4.0]]))  # squared distance 25
PAIR_CANDIDATES = [ClusterCandidate(head=h, members=(0, 1)) for h in (0, 1)]


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
    "n,side",
    [
        (1, 10.0), (0, 10.0), (5, 0.0), (5, -1.0), (5, float("nan")), (5, float("inf")),
        (2.5, 10.0), (True, 10.0), ("3", 10.0),  # numpy raised TypeError on the first and last
    ],
)
def test_generate_rejects_bad_parameters(n, side):
    with pytest.raises(ConfigurationError):
        generate_topology(n, side, seed=0)


@pytest.mark.parametrize("seed", [None, True, -1, 1.5, "7"])
def test_generate_rejects_a_seed_that_is_not_a_count(seed):
    """None would draw from OS entropy, True would read as 1, and numpy would raise its own
    ValueError or TypeError on the others: the package's count rule names the seed instead."""
    with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
        generate_topology(5, 10.0, seed)


# Seeds of 1, 1, 1, 2, 3, 4, 5 and 7 little-endian 32-bit words: SeedSequence hashes fewer than 4
# as if padded with zeros, and mixes each word past the fourth into its pool one at a time.
ORACLE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**200 + 3]


def test_streams_are_default_rng_bit_for_bit():
    """All eight seeds in one stream set, read in runs of 1 to 300 draws on changing row subsets,
    so that rows sit at different places in their streams and a call spans under one, exactly one
    or several 64-state slices: each row reads exactly its default_rng(seed).random() doubles."""
    streams = candidates._Streams(ORACLE_SEEDS)
    oracles = [np.random.default_rng(seed) for seed in ORACLE_SEEDS]
    pick = np.random.default_rng(0)
    for k in (1, 5, 64, 300, 1, 63, 5, 64, 300, 2):
        rows = np.sort(pick.choice(len(ORACLE_SEEDS), pick.integers(1, 9), replace=False))
        expected = np.array([oracles[r].random(k) for r in rows])
        assert streams.random(k, rows).tobytes() == expected.tobytes(), (k, rows)
    expected = np.array([oracle.random(7) for oracle in oracles])
    assert streams.random(7).tobytes() == expected.tobytes()


@given(st.lists(st.integers(0, 2**160), min_size=1, max_size=6), st.integers(1, 150))
@settings(max_examples=40, deadline=None)
def test_streams_match_default_rng_on_any_seeds(seeds, k):
    expected = np.array([np.random.default_rng(seed).random(k) for seed in seeds])
    assert candidates._Streams(seeds).random(k).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "n,side,seed", [(2, 1.0, 0), (30, 50.0, 7), (100, 91.3, 2**64 + 7), (200, 129.1, 2**200 + 3)]
)
def test_generated_field_is_default_rng_uniform(n, side, seed):
    """2n positions from one stream, past one 64-state slice from n = 33 on."""
    expected = np.random.default_rng(seed).uniform(0.0, side, size=(n, 2))
    assert generate_topology(n, side, seed).positions.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [3, 31, 300])
@pytest.mark.parametrize("low,high", [(0.0, 30.0), (-5.0, 5.0), (10.0, 12.0), (7.0, 7.0), (0, 30)])
def test_stream_uniform_is_default_rng_uniform(low, high, n):
    """The initial readings of monte_carlo's runs: one row of n per seed, across 2**32."""
    seeds = [1000, 1001, 2**32 - 2, 2**32 - 1, 2**32]
    expected = np.array([np.random.default_rng(seed).uniform(low, high, n) for seed in seeds])
    assert candidates._Streams(seeds).uniform(low, high, n).tobytes() == expected.tobytes()


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



def test_candidate_validation():
    ClusterCandidate(head=0, members=(0, 1))
    ClusterCandidate(head=np.int64(0), members=(np.int32(0), np.int64(1)))  # numpy integers
    with pytest.raises(ValueError):
        ClusterCandidate(head=2, members=(0, 1))  # head outside members
    with pytest.raises(ValueError):
        ClusterCandidate(head=0, members=(0,))  # too small
    with pytest.raises(ValueError):
        ClusterCandidate(head=0, members=(0, 0, 1))  # duplicate member
    with pytest.raises(ValueError):
        ClusterCandidate(head=0, members=(1, 0))  # not sorted
    for head, members in ((0, (0, 1.5)), (0, (0.0, 1)), (1, (False, 1)), (True, (0, 1))):
        with pytest.raises(ValueError, match="integers"):  # a float or bool node index
            ClusterCandidate(head=head, members=members)


def test_energy_params_reject_negative():
    with pytest.raises(ValueError):
        EnergyParams(eps_amp=-1.0)
    with pytest.raises(ValueError):
        EnergyParams(e_elec=-0.5)
    with pytest.raises(ValueError):
        EnergyParams(k_bits=-2.0)
    for name in ("eps_amp", "e_elec", "k_bits"):  # inf * 0 would price a nonmember as NaN
        with pytest.raises(ValueError, match=name):
            EnergyParams(**{name: float("inf")})


def test_full_range_count_is_n_minus_1_times_n(three_node_topology):
    cands = enumerate_candidates(three_node_topology, 2, 3)
    assert len(cands) == 6  # (N-1)*N for N=3
    by_size = {}
    for c in cands:
        by_size.setdefault(c.size, []).append(c)
    # size 2: each head grabs its nearest neighbour
    assert {(c.head, c.members) for c in by_size[2]} == {
        (0, (0, 1)),
        (1, (0, 1)),
        (2, (1, 2)),
    }
    # size 3: everything, one candidate per head
    assert {(c.head, c.members) for c in by_size[3]} == {
        (0, (0, 1, 2)),
        (1, (0, 1, 2)),
        (2, (0, 1, 2)),
    }


def test_two_node_enumeration():
    topo = generate_topology(2, 1.0, seed=0)
    cands = enumerate_candidates(topo, 2, 2)
    assert [(c.head, c.members) for c in cands] == [(0, (0, 1)), (1, (0, 1))]


def test_equidistant_neighbours_take_lower_index(collinear_topology):
    """Middle node of a 0-1-2 line sees both ends at distance 1."""
    cands = enumerate_candidates(collinear_topology, 2, 2)
    middle = [c for c in cands if c.head == 1]
    assert len(middle) == 1
    assert middle[0].members == (0, 1)


def test_enumerate_rejects_bad_size_range(three_node_topology):
    # A valid range passes and yields its largest size; an unset one spans all n nodes.
    assert candidates.check_sizes(3, 2, None) == 3 and candidates.check_sizes(3, 2, 2) == 2
    assert enumerate_candidates(three_node_topology, 2, None) == enumerate_candidates(
        three_node_topology, 2, 3
    )
    with pytest.raises(ConfigurationError):
        enumerate_candidates(three_node_topology, 1, 3)
    with pytest.raises(ConfigurationError):
        enumerate_candidates(three_node_topology, 3, 2)
    with pytest.raises(ConfigurationError):
        enumerate_candidates(three_node_topology, 2, 4)
    # A size with more digits than str() converts is shown by its bit count.
    with pytest.raises(ConfigurationError, match="^cluster_size_max .*an integer of 16610 bits"):
        enumerate_candidates(three_node_topology, 2, 10**5000)
    with pytest.raises(ConfigurationError, match="^cluster_size_min .*an integer of 16610 bits"):
        enumerate_candidates(three_node_topology, 10**5000, 3)


@given(st.integers(2, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_enumeration_count_bound(n, data):
    smin = data.draw(st.integers(2, n))
    smax = data.draw(st.integers(smin, n))
    topo = generate_topology(n, 10.0, seed=data.draw(st.integers(0, 1000)))
    cands = enumerate_candidates(topo, smin, smax)
    assert len(cands) <= (smax - smin + 1) * n
    for c in cands:
        assert c.head in c.members
        assert smin <= c.size <= smax
        assert all(0 <= m < n for m in c.members)


def test_pair_weight_matrix():
    w = build_weight_matrix(ClusterCandidate(head=0, members=(0, 1)), 3)
    np.testing.assert_array_equal(
        w, np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    )


def test_full_cluster_weight_matrix():
    w = build_weight_matrix(ClusterCandidate(head=1, members=(0, 1, 2)), 3)
    np.testing.assert_allclose(w, np.full((3, 3), 1.0 / 3.0))


def test_weight_matrices_are_averaging_projectors():
    """Symmetric, doubly stochastic, idempotent, entries in [0,1]."""
    topo = generate_topology(9, 20.0, seed=11)
    for cand in enumerate_candidates(topo, 2, 9):
        w = build_weight_matrix(cand, 9)
        np.testing.assert_array_equal(w, w.T)
        np.testing.assert_allclose(w @ np.ones(9), np.ones(9), atol=1e-12)
        np.testing.assert_allclose(w @ w, w, atol=1e-12)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)


@pytest.mark.parametrize(
    "params,expected",
    [
        (EnergyParams(), [50.0, 50.0]),  # fan-in 25 + broadcast 25, from either head
        # k*e_elec + eps_amp*k*d^2 + k*e_elec = 6 + 75 + 6 = 87, for fan-in and for broadcast
        (EnergyParams(eps_amp=1.0, e_elec=2.0, k_bits=3.0), [174.0, 174.0]),
    ],
    ids=["defaults-squared-distance", "full-form"],
)
def test_candidate_costs_of_a_pair(params, expected):
    assert candidates.candidate_costs(PAIR_CANDIDATES, PAIR_3_4, params).tolist() == expected


def test_oracle_transmission_energy_rejects_negative_and_nan():
    params = EnergyParams(eps_amp=1.0, e_elec=2.0, k_bits=3.0)
    assert reference.transmission_energy(params, 25.0) == 87.0
    for bad in (-1.0, -1e-300, np.nan):
        with pytest.raises(ValueError, match="squared distances"):
            reference.transmission_energy(params, bad)


@pytest.mark.parametrize(
    "topology,head,members,expected",
    [
        ("three_node_topology", 0, (0, 1), [0.0, 25.0, 0.0]),
        ("three_node_topology", 0, (0, 2), [0.0, 0.0, 100.0]),
        ("coincident_topology", 1, (0, 1, 2), [0.0, 0.0, 0.0]),
    ],
    ids=["pair", "skips-nonmembers", "coincident-cluster"],
)
def test_fan_in_cost(request, topology, head, members, expected):
    c = ClusterCandidate(head=head, members=members)
    topo = request.getfixturevalue(topology)
    np.testing.assert_array_equal(cost_fc(c, topo, EnergyParams()), expected)


@pytest.mark.parametrize(
    "topology,head,members,expected",
    [  # the head's largest squared distance to a member
        ("three_node_topology", 0, (0, 1), [25.0, 0.0, 0.0]),
        ("three_node_topology", 0, (0, 1, 2), [100.0, 0.0, 0.0]),
        ("coincident_topology", 1, (0, 1, 2), [0.0, 0.0, 0.0]),
    ],
    ids=["pair", "full", "coincident-cluster"],
)
def test_broadcast_cost(request, topology, head, members, expected):
    c = ClusterCandidate(head=head, members=members)
    topo = request.getfixturevalue(topology)
    np.testing.assert_array_equal(cost_bc(c, topo, EnergyParams()), expected)


def test_candidate_cost_l1_values(three_node_topology):
    params = EnergyParams()
    pair = ClusterCandidate(head=0, members=(0, 1))
    full = ClusterCandidate(head=0, members=(0, 1, 2))
    for price in (candidate_cost_l1, reference.candidate_cost_l1):
        assert price(pair, three_node_topology, params) == 50.0
        # fan-in 25 + 100, broadcast 100
        assert price(full, three_node_topology, params) == 225.0


@pytest.mark.parametrize("params", [EnergyParams(), EnergyParams(2.0, 0.5, 3.0)])
@pytest.mark.parametrize(
    "topo",
    [
        generate_topology(30, 50.0, 7),  # the default config's field: 870 candidates
        Topology(np.array([[i % 8, i // 8] for i in range(40)], dtype=float)),  # 1560
    ],
    ids=["default-field", "40-node-grid"],
)
def test_candidate_cost_l1_is_one_row_of_candidate_costs(topo, params):
    """The package's one-candidate price is the pool pricing's row and the scalar oracle's total,
    bit for bit, on every candidate of every size."""
    enumerated = enumerate_candidates(topo, 2, topo.n)
    assert len(enumerated) == topo.n * (topo.n - 1)
    one_row = [candidate_cost_l1(c, topo, params) for c in enumerated]
    assert one_row == candidates.candidate_costs(enumerated, topo, params).tolist()
    assert one_row == [reference.candidate_cost_l1(c, topo, params) for c in enumerated]


def test_cost_vector_structure(three_node_topology):
    """Nonnegative entries; broadcast cost concentrated at the head."""
    params = EnergyParams(eps_amp=2.0, e_elec=1.0, k_bits=2.0)
    for head, members in [(0, (0, 1)), (1, (0, 1, 2)), (2, (1, 2))]:
        c = ClusterCandidate(head=head, members=members)
        fc = cost_fc(c, three_node_topology, params)
        bc = cost_bc(c, three_node_topology, params)
        assert np.all(fc >= 0.0) and np.all(bc >= 0.0)
        assert np.count_nonzero(bc) <= 1
        if np.count_nonzero(bc):
            assert bc[head] > 0.0
        outside = [j for j in range(3) if j not in members]
        assert all(fc[j] == 0.0 and bc[j] == 0.0 for j in outside)


def test_larger_cluster_never_cheaper():
    """Adding members (same head) cannot reduce the total cost."""
    rng = np.random.default_rng(8)
    topo = Topology(rng.uniform(0.0, 30.0, size=(8, 2)))
    params = EnergyParams()
    order = sorted(range(1, 8), key=lambda j: topo.d_sq[0, j])
    prev = None
    for size in range(2, 9):
        members = tuple(sorted([0] + order[: size - 1]))
        cost = reference.candidate_cost_l1(
            ClusterCandidate(head=0, members=members), topo, params
        )
        if prev is not None:
            assert cost >= prev - 1e-12
        prev = cost


@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 40),
    st.booleans(),
    st.floats(0.0, 5.0),
    st.floats(0.0, 5.0),
    st.floats(0.0, 5.0),
    st.sampled_from([1, 7, candidates._PRICE_BLOCK]),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_prepare_pool_matches_scalar_oracles(
    seed, n, default, eps_amp, e_elec, k_bits, block, unset
):
    """Vectorized pricing equals the scalar candidate_cost_l1, and the kept set equals
    prune_dominated over the scalar costs, whatever the pricing block width.
    An unset size_max gives the same pool as size_max = n."""
    rng = np.random.default_rng(seed)
    topo = generate_topology(n, float(rng.uniform(1.0, 100.0)), seed)
    params = EnergyParams() if default else EnergyParams(eps_amp, e_elec, k_bits)
    size_min = int(rng.integers(2, n + 1))
    size_max = None if unset else int(rng.integers(size_min, n + 1))
    with mock.patch.object(candidates, "_PRICE_BLOCK", block):
        enumerated, costs, kept = prepare_pool(topo, size_min, size_max, params)
        if unset:
            full = prepare_pool(topo, size_min, n, params)
            assert enumerated == full[0]
            np.testing.assert_array_equal(costs, full[1])
            np.testing.assert_array_equal(kept, full[2])
    scalar = np.array([reference.candidate_cost_l1(c, topo, params) for c in enumerated])
    if default:
        np.testing.assert_array_equal(costs, scalar)
    else:
        np.testing.assert_allclose(costs, scalar, rtol=1e-12, atol=0.0)
    assert [enumerated[i] for i in kept] == prune_dominated(enumerated, list(scalar))


def _costs(topo, cands):
    return [candidate_cost_l1(c, topo, EnergyParams()) for c in cands]


def test_prune_keeps_cheapest_head_per_member_set(collinear_topology):
    full = [ClusterCandidate(head=h, members=(0, 1, 2)) for h in range(3)]
    kept = prune_dominated(full, _costs(collinear_topology, full))
    # middle head: fan-in 1+1, broadcast max 1 -> cost 3; end heads cost 9
    assert [(c.head, c.members) for c in kept] == [(1, (0, 1, 2))]


def test_prune_keeps_distinct_member_sets():
    a = ClusterCandidate(head=0, members=(0, 1))
    b = ClusterCandidate(head=2, members=(1, 2))
    kept = prune_dominated([a, b], [5.0, 5.0])
    assert kept == [a, b]


def test_prune_tie_breaks_to_lower_head():
    pair = Topology(np.array([[0.0, 0.0], [1.0, 0.0]]))
    cands = enumerate_candidates(pair, 2, 2)
    kept = prune_dominated(cands, _costs(pair, cands))
    assert [(c.head, c.members) for c in kept] == [(0, (0, 1))]


@st.composite
def _candidate_on_five_nodes(draw):
    members = tuple(sorted(draw(st.sets(st.integers(0, 4), min_size=2, max_size=5))))
    return ClusterCandidate(head=draw(st.sampled_from(members)), members=members)


@given(
    pool=st.lists(
        st.tuples(_candidate_on_five_nodes(), st.sampled_from([0.0, 1.0, 2.5])),
        min_size=1,
        max_size=40,
    ),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_prune_matches_brute_force_oracle_on_shuffled_pools(pool, data):
    """Whatever the order and however costs tie, a candidate survives iff no other with
    its member set has a lower (cost, head), the earlier one winning a full tie; the
    survivors keep their input order."""
    pool = data.draw(st.permutations(pool))
    cands = [cand for cand, _ in pool]
    costs = np.array([cost for _, cost in pool])
    expected = [
        cand
        for i, cand in enumerate(cands)
        if not any(
            other.members == cand.members
            and (costs[j], other.head, j) < (costs[i], cand.head, i)
            for j, other in enumerate(cands)
        )
    ]
    assert [id(c) for c in prune_dominated(cands, costs)] == [id(c) for c in expected]


def test_prune_preserves_distinct_weight_matrices():
    topo = generate_topology(7, 15.0, seed=2)
    cands = enumerate_candidates(topo, 2, 7)
    kept = prune_dominated(cands, _costs(topo, cands))
    before = {tuple(c.members) for c in cands}
    after = {tuple(c.members) for c in kept}
    assert before == after  # member set determines the weight matrix
    assert len(kept) == len(after)


def _scenario(cands):
    return SimulationScenario(tuple(cands), [1.0], [1.0], 2, 0.0, 30.0, 0.1, 10)


@pytest.mark.parametrize(
    "call",
    [
        lambda cands: optimize(cands, [1.0], 2),
        lambda cands: mixing_matrix(np.array([1.0]), cands, 2),
        lambda cands: xi(np.array([1.0]), cands, 2),
        lambda cands: objective_subgradient(np.array([1.0]), cands, [1.0], 0.0, 2),
        lambda cands: candidates.candidate_costs(cands, Topology(np.zeros((2, 2))), EnergyParams()),
        lambda cands: build_weight_matrix(cands[0], 2),
        lambda cands: run_trial(_scenario(cands), np.array([0.0, 30.0]), np.random.default_rng(0)),
        lambda cands: monte_carlo(_scenario(cands), 1, 0),
        lambda cands: consensus_step(np.array([0.0, 30.0]), cands[0]),
    ],
    ids=[
        "optimize", "mixing_matrix", "xi", "objective_subgradient", "candidate_costs",
        "build_weight_matrix", "run_trial", "monte_carlo", "consensus_step",
    ],
)
@pytest.mark.parametrize("head,members", [(0, (0, 1, 2)), (2, (0, 1, 2)), (-1, (-1, 0))])
def test_member_outside_range_names_n(call, head, members):
    """Every layer that reads candidates' members, both simulators included, rejects
    a member outside [0, n) with a ValueError naming n, not numpy's IndexError or a
    silent wrap of -1 to n - 1."""
    with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
        call([ClusterCandidate(head=head, members=members)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: optimize([], [], 3),
        lambda: mixing_matrix(np.zeros(0), [], 3),
        lambda: xi(np.zeros(0), [], 3),
        lambda: objective_subgradient(np.zeros(0), [], [], 0.0, 3),
    ],
    ids=["optimize", "mixing_matrix", "xi", "objective_subgradient"],
)
def test_empty_pool_is_rejected(call):
    """A pool with no clusters is refused, not read as a zero W(p) that mixes perfectly (xi 0)
    or as an empty subgradient."""
    with pytest.raises(ValueError, match="candidate list is empty"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda n: optimize([PAIR_01], [1.0], n),
        lambda n: xi(np.array([1.0]), [PAIR_01], n),
        lambda n: SimulationScenario((PAIR_01,), [1.0], [1.0], n, 0.0, 30.0, 0.1, 10),
    ],
    ids=["optimize", "xi", "SimulationScenario"],
)
@pytest.mark.parametrize("n", [8.0, True])
def test_node_count_must_be_an_integer(call, n):
    """n is an integer (numpy's too) and never a bool or a float, by the one pool rule."""
    with pytest.raises(ValueError, match="n must be an integer"):
        call(n)


def test_prune_rejects_mismatched_costs():
    a = ClusterCandidate(head=0, members=(0, 1))
    with pytest.raises(ValueError):
        prune_dominated([a], [1.0, 2.0])
