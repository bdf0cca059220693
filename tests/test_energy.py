from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clustergossip import (
    ClusterCandidate,
    EnergyParams,
    Topology,
    candidate_cost_l1,
    enumerate_candidates,
    generate_topology,
    prune_dominated,
)
import clustergossip.candidates as candidates
from clustergossip.cli import prepare_pool
import reference
from reference import cost_bc, cost_fc


PAIR_3_4 = Topology(np.array([[0.0, 0.0], [3.0, 4.0]]))  # squared distance 25
PAIR_CANDIDATES = [ClusterCandidate(head=h, members=(0, 1)) for h in (0, 1)]


def test_transmission_energy_defaults_is_squared_distance():
    # fan-in 25 + broadcast 25, from either head
    costs = candidates.candidate_costs(PAIR_CANDIDATES, PAIR_3_4, EnergyParams())
    assert costs.tolist() == [50.0, 50.0]


def test_transmission_energy_full_form():
    # one transmission: k*e_elec + eps_amp*k*d^2 + k*e_elec = 6 + 75 + 6 = 87; fan-in + broadcast
    params = EnergyParams(eps_amp=1.0, e_elec=2.0, k_bits=3.0)
    assert candidates.candidate_costs(PAIR_CANDIDATES, PAIR_3_4, params).tolist() == [174.0, 174.0]


def test_oracle_transmission_energy_rejects_negative_and_nan():
    params = EnergyParams(eps_amp=1.0, e_elec=2.0, k_bits=3.0)
    assert reference.transmission_energy(params, 25.0) == 87.0
    for bad in (-1.0, -1e-300, np.nan):
        with pytest.raises(ValueError, match="squared distances"):
            reference.transmission_energy(params, bad)


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
