from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clustergossip import (
    ClusterCandidate,
    EnergyParams,
    Topology,
    candidate_cost_l1,
    cost_bc,
    cost_fc,
    expected_cost,
    generate_topology,
    prune_dominated,
    transmission_energy,
)
import clustergossip.cli as cli
from clustergossip.cli import prepare_pool


def test_transmission_energy_defaults_is_squared_distance():
    assert transmission_energy(EnergyParams(), 25.0) == 25.0
    assert transmission_energy(EnergyParams(), 0.0) == 0.0


def test_transmission_energy_full_form():
    # k*e_elec + eps_amp*k*d^2 + k*e_elec = 6 + 75 + 6
    params = EnergyParams(eps_amp=1.0, e_elec=2.0, k_bits=3.0)
    assert transmission_energy(params, 25.0) == 87.0


def test_transmission_energy_on_arrays():
    params = EnergyParams(eps_amp=1.0, e_elec=2.0, k_bits=3.0)
    d_sq = np.array([[25.0, 0.0], [1.5, 7.0]])
    expected = [[transmission_energy(params, float(d)) for d in row] for row in d_sq]
    np.testing.assert_array_equal(transmission_energy(params, d_sq), expected)
    for bad in (-1.0, np.array([1.0, -1e-300]), np.array([[0.0, np.nan]])):
        with pytest.raises(ValueError, match="squared distances"):
            transmission_energy(params, bad)


def test_energy_params_reject_negative():
    with pytest.raises(ValueError):
        EnergyParams(eps_amp=-1.0)
    with pytest.raises(ValueError):
        EnergyParams(e_elec=-0.5)
    with pytest.raises(ValueError):
        EnergyParams(k_bits=-2.0)


def test_fan_in_cost_pair(three_node_topology):
    c = ClusterCandidate(head=0, members=(0, 1))
    np.testing.assert_array_equal(
        cost_fc(c, three_node_topology, EnergyParams()), [0.0, 25.0, 0.0]
    )


def test_fan_in_cost_skips_nonmembers(three_node_topology):
    c = ClusterCandidate(head=0, members=(0, 2))
    np.testing.assert_array_equal(
        cost_fc(c, three_node_topology, EnergyParams()), [0.0, 0.0, 100.0]
    )


def test_fan_in_cost_coincident_cluster():
    topo = Topology.from_positions(np.array([[2.0, 2.0]] * 3))
    c = ClusterCandidate(head=1, members=(0, 1, 2))
    np.testing.assert_array_equal(cost_fc(c, topo, EnergyParams()), np.zeros(3))


def test_broadcast_cost_is_max_member_distance(three_node_topology):
    params = EnergyParams()
    pair = ClusterCandidate(head=0, members=(0, 1))
    np.testing.assert_array_equal(
        cost_bc(pair, three_node_topology, params), [25.0, 0.0, 0.0]
    )
    full = ClusterCandidate(head=0, members=(0, 1, 2))
    np.testing.assert_array_equal(
        cost_bc(full, three_node_topology, params), [100.0, 0.0, 0.0]
    )


def test_broadcast_cost_coincident_cluster():
    topo = Topology.from_positions(np.array([[2.0, 2.0]] * 3))
    c = ClusterCandidate(head=1, members=(0, 1, 2))
    np.testing.assert_array_equal(cost_bc(c, topo, EnergyParams()), np.zeros(3))


def test_candidate_cost_l1_values(three_node_topology):
    params = EnergyParams()
    pair = ClusterCandidate(head=0, members=(0, 1))
    assert candidate_cost_l1(pair, three_node_topology, params) == 50.0
    full = ClusterCandidate(head=0, members=(0, 1, 2))
    # fan-in 25 + 100, broadcast 100
    assert candidate_cost_l1(full, three_node_topology, params) == 225.0


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


def test_expected_cost_degenerate_and_mean(three_node_topology):
    params = EnergyParams()
    a = ClusterCandidate(head=0, members=(0, 1))
    b = ClusterCandidate(head=1, members=(1, 2))
    ca = cost_fc(a, three_node_topology, params) + cost_bc(a, three_node_topology, params)
    cb = cost_fc(b, three_node_topology, params) + cost_bc(b, three_node_topology, params)
    np.testing.assert_array_equal(
        expected_cost(np.array([1.0, 0.0]), [a, b], three_node_topology, params), ca
    )
    np.testing.assert_allclose(
        expected_cost(np.array([0.5, 0.5]), [a, b], three_node_topology, params),
        0.5 * (ca + cb),
        atol=1e-12,
    )


def test_expected_cost_l1_equals_dot_of_l1s(three_node_topology):
    params = EnergyParams()
    cands = [
        ClusterCandidate(head=0, members=(0, 1)),
        ClusterCandidate(head=1, members=(1, 2)),
        ClusterCandidate(head=2, members=(0, 1, 2)),
    ]
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(3))
    vec = expected_cost(p, cands, three_node_topology, params)
    l1s = np.array([candidate_cost_l1(c, three_node_topology, params) for c in cands])
    assert np.sum(vec) == pytest.approx(float(p @ l1s), abs=1e-12)


def test_expected_cost_rejects_shape_mismatch(three_node_topology):
    a = ClusterCandidate(head=0, members=(0, 1))
    with pytest.raises(ValueError):
        expected_cost(np.array([0.5, 0.5]), [a], three_node_topology, EnergyParams())


@given(st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_expected_cost_l1_linear_in_p(lam):
    topo = Topology.from_positions(np.array([[0.0, 0.0], [3.0, 4.0], [10.0, 0.0]]))
    params = EnergyParams()
    cands = [
        ClusterCandidate(head=0, members=(0, 1)),
        ClusterCandidate(head=2, members=(1, 2)),
    ]
    p = np.array([0.9, 0.1])
    q = np.array([0.2, 0.8])
    mix = lam * p + (1.0 - lam) * q
    f = lambda r: float(np.sum(expected_cost(r, cands, topo, params)))
    assert f(mix) == pytest.approx(lam * f(p) + (1.0 - lam) * f(q), abs=1e-12)


def test_larger_cluster_never_cheaper():
    """Adding members (same head) cannot reduce the total cost."""
    rng = np.random.default_rng(8)
    topo = Topology.from_positions(rng.uniform(0.0, 30.0, size=(8, 2)))
    params = EnergyParams()
    order = sorted(range(1, 8), key=lambda j: topo.d_sq[0, j])
    prev = None
    for size in range(2, 9):
        members = tuple(sorted([0] + order[: size - 1]))
        cost = candidate_cost_l1(
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
    st.sampled_from([1, 7, cli._PRICE_BLOCK]),
)
@settings(max_examples=40, deadline=None)
def test_prepare_pool_matches_scalar_oracles(seed, n, default, eps_amp, e_elec, k_bits, block):
    """Vectorized pricing equals candidate_cost_l1, and the kept set equals
    prune_dominated over the scalar costs, whatever the pricing block width."""
    rng = np.random.default_rng(seed)
    topo = generate_topology(n, float(rng.uniform(1.0, 100.0)), seed)
    params = EnergyParams() if default else EnergyParams(eps_amp, e_elec, k_bits)
    size_min = int(rng.integers(2, n + 1))
    size_max = int(rng.integers(size_min, n + 1))
    with mock.patch.object(cli, "_PRICE_BLOCK", block):
        enumerated, costs, kept = prepare_pool(topo, size_min, size_max, params)
    scalar = np.array([candidate_cost_l1(c, topo, params) for c in enumerated])
    if default:
        np.testing.assert_array_equal(costs, scalar)
    else:
        np.testing.assert_allclose(costs, scalar, rtol=1e-12, atol=0.0)
    assert [enumerated[i] for i in kept] == prune_dominated(enumerated, list(scalar))
