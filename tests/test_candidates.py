import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clustergossip import (
    ClusterCandidate,
    ConfigurationError,
    EnergyParams,
    SimulationScenario,
    Topology,
    build_weight_matrix,
    candidate_cost_l1,
    enumerate_candidates,
    generate_topology,
    mixing_matrix,
    monte_carlo,
    objective_subgradient,
    optimize,
    prune_dominated,
    run_trial,
    xi,
)
from clustergossip.candidates import check_sizes
from clustergossip.energy import cost_rows
from clustergossip.optimizer import OptimizerOptions


def test_candidate_validation():
    ClusterCandidate(head=0, members=(0, 1))
    with pytest.raises(ValueError):
        ClusterCandidate(head=2, members=(0, 1))  # head outside members
    with pytest.raises(ValueError):
        ClusterCandidate(head=0, members=(0,))  # too small
    with pytest.raises(ValueError):
        ClusterCandidate(head=0, members=(0, 0, 1))  # duplicate member
    with pytest.raises(ValueError):
        ClusterCandidate(head=0, members=(1, 0))  # not sorted


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
    assert check_sizes(3, 2, None) == 3 and check_sizes(3, 2, 2) == 2
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
        lambda cands: optimize(cands, [1.0], 2, OptimizerOptions()),
        lambda cands: mixing_matrix(np.array([1.0]), cands, 2),
        lambda cands: xi(np.array([1.0]), cands, 2),
        lambda cands: objective_subgradient(np.array([1.0]), cands, [1.0], 0.0, 2),
        lambda cands: cost_rows(cands, Topology(np.zeros((2, 2))), EnergyParams()),
        lambda cands: build_weight_matrix(cands[0], 2),
        lambda cands: run_trial(_scenario(cands), np.array([0.0, 30.0]), np.random.default_rng(0)),
        lambda cands: monte_carlo(_scenario(cands), 1, 0),
    ],
    ids=[
        "optimize", "mixing_matrix", "xi", "objective_subgradient", "cost_rows",
        "build_weight_matrix", "run_trial", "monte_carlo",
    ],
)
@pytest.mark.parametrize("head,members", [(0, (0, 1, 2)), (2, (0, 1, 2)), (-1, (-1, 0))])
def test_member_outside_range_names_n(call, head, members):
    """Every layer that reads candidates' members, both simulators included, rejects
    a member outside [0, n) with a ValueError naming n, not numpy's IndexError or a
    silent wrap of -1 to n - 1."""
    with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
        call([ClusterCandidate(head=head, members=members)])


def test_prune_rejects_mismatched_costs():
    a = ClusterCandidate(head=0, members=(0, 1))
    with pytest.raises(ValueError):
        prune_dominated([a], [1.0, 2.0])
