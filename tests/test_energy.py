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
    generate_topology,
    prune_dominated,
    transmission_energy,
)
import clustergossip.energy as energy
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
    topo = Topology(np.array([[2.0, 2.0]] * 3))
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
    topo = Topology(np.array([[2.0, 2.0]] * 3))
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


def test_larger_cluster_never_cheaper():
    """Adding members (same head) cannot reduce the total cost."""
    rng = np.random.default_rng(8)
    topo = Topology(rng.uniform(0.0, 30.0, size=(8, 2)))
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
    st.sampled_from([1, 7, energy._PRICE_BLOCK]),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_prepare_pool_matches_scalar_oracles(
    seed, n, default, eps_amp, e_elec, k_bits, block, unset
):
    """Vectorized pricing equals candidate_cost_l1, and the kept set equals
    prune_dominated over the scalar costs, whatever the pricing block width.
    An unset size_max gives the same pool as size_max = n."""
    rng = np.random.default_rng(seed)
    topo = generate_topology(n, float(rng.uniform(1.0, 100.0)), seed)
    params = EnergyParams() if default else EnergyParams(eps_amp, e_elec, k_bits)
    size_min = int(rng.integers(2, n + 1))
    size_max = None if unset else int(rng.integers(size_min, n + 1))
    with mock.patch.object(energy, "_PRICE_BLOCK", block):
        enumerated, costs, kept = prepare_pool(topo, size_min, size_max, params)
        if unset:
            full = prepare_pool(topo, size_min, n, params)
            assert enumerated == full[0]
            np.testing.assert_array_equal(costs, full[1])
            np.testing.assert_array_equal(kept, full[2])
    scalar = np.array([candidate_cost_l1(c, topo, params) for c in enumerated])
    if default:
        np.testing.assert_array_equal(costs, scalar)
    else:
        np.testing.assert_allclose(costs, scalar, rtol=1e-12, atol=0.0)
    assert [enumerated[i] for i in kept] == prune_dominated(enumerated, list(scalar))
