import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clustergossip import (
    ClusterCandidate,
    EnergyParams,
    Topology,
    build_weight_matrix,
    candidate_cost_l1,
    enumerate_candidates,
    generate_topology,
    mixing_matrix,
    objective_subgradient,
    optimize,
    project_simplex,
    symmetric_top_eigenpair,
    xi,
)
from clustergossip.cli import prepare_pool
from clustergossip.optimizer import OptimizerOptions


PAIR_01 = ClusterCandidate(head=0, members=(0, 1))
PAIR_12 = ClusterCandidate(head=1, members=(1, 2))
FULL_3 = ClusterCandidate(head=0, members=(0, 1, 2))


def test_mixing_matrix_full_cluster():
    np.testing.assert_allclose(
        mixing_matrix(np.array([1.0]), [FULL_3], 3), np.full((3, 3), 1.0 / 3.0)
    )


def test_mixing_matrix_two_pair_average():
    w = mixing_matrix(np.array([0.5, 0.5]), [PAIR_01, PAIR_12], 3)
    np.testing.assert_allclose(
        w,
        np.array([[0.75, 0.25, 0.0], [0.25, 0.5, 0.25], [0.0, 0.25, 0.75]]),
        atol=1e-15,
    )


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_mixing_matrix_rows_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    topo = generate_topology(n, 10.0, seed)
    cands = enumerate_candidates(topo, 2, n)
    p = rng.dirichlet(np.ones(len(cands)))
    w = mixing_matrix(p, cands, n)
    np.testing.assert_allclose(w @ np.ones(n), np.ones(n), atol=1e-12)
    np.testing.assert_allclose(w, w.T, atol=1e-15)


def test_xi_full_cluster_is_zero():
    assert xi(np.array([1.0]), [FULL_3], 3) <= 1e-12


def test_xi_symmetric_two_pair():
    assert xi(np.array([0.5, 0.5]), [PAIR_01, PAIR_12], 3) == pytest.approx(
        0.75, abs=1e-9
    )


def test_xi_detects_disconnection():
    """One pair alone leaves the third node isolated."""
    val = xi(np.array([1.0]), [PAIR_01], 3)
    assert val >= 1.0 - 1e-12
    assert val <= 1.0


def test_xi_matches_second_eigenvalue_of_full_spectrum():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        topo = generate_topology(n, 20.0, int(rng.integers(0, 2**31)))
        cands = enumerate_candidates(topo, 2, n)
        p = rng.dirichlet(np.ones(len(cands)))
        w = mixing_matrix(p, cands, n)
        second = float(np.sort(np.linalg.eigvalsh(w))[-2])
        assert xi(p, cands, n) == pytest.approx(
            min(max(second, 0.0), 1.0), abs=1e-9
        )


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_xi_is_convex_along_segments(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    topo = generate_topology(n, 10.0, seed)
    cands = enumerate_candidates(topo, 2, n)
    p = rng.dirichlet(np.ones(len(cands)))
    q = rng.dirichlet(np.ones(len(cands)))
    lam = float(rng.uniform())
    mid = lam * p + (1.0 - lam) * q
    assert xi(mid, cands, n) <= lam * xi(p, cands, n) + (1.0 - lam) * xi(
        q, cands, n
    ) + 1e-9


@given(st.integers(0, 2**31 - 1), st.integers(2, 40), st.floats(0.5, 1.5))
@settings(max_examples=40, deadline=None)
def test_factored_model_matches_dense_oracle(seed, n, scale):
    """mixing_matrix and objective_subgradient agree with the dense
    sum of per-candidate averaging matrices, on and off the simplex, and
    a lone cluster's xi is 1 unless it spans every node (then 0)."""
    rng = np.random.default_rng(seed)
    topo = generate_topology(n, 30.0, seed)
    cands = enumerate_candidates(topo, 2, n)
    p = scale * rng.dirichlet(np.ones(len(cands)))
    costs = rng.uniform(0.0, 100.0, size=len(cands))
    stack = np.array([build_weight_matrix(c, n) for c in cands])
    dense = np.tensordot(p, stack, axes=1)
    np.testing.assert_allclose(mixing_matrix(p, cands, n), dense, rtol=0.0, atol=1e-12)

    evals, evecs = np.linalg.eigh(dense - 1.0 / n)
    if n > 2 and evals[-1] - evals[-2] > 1e-2:  # the top eigenvector is well defined
        v = evecs[:, -1]
        expected = np.einsum("j,ijk,k->i", v, stack, v) + 1e-4 * costs
        g = objective_subgradient(p, cands, costs, 1e-4, n)
        np.testing.assert_allclose(g, expected, rtol=0.0, atol=1e-12)

    full = [i for i, c in enumerate(cands) if c.size == n]
    for i in [*rng.choice(len(cands), size=min(5, len(cands)), replace=False), *full]:
        top = np.linalg.eigvalsh(stack[i] - 1.0 / n)[-1]
        assert top == pytest.approx(float(cands[i].size < n), abs=1e-12)


def test_top_eigenpair_identity():
    lam, v = symmetric_top_eigenpair(np.eye(4))
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_top_eigenpair_diagonal():
    lam, v = symmetric_top_eigenpair(np.diag([3.0, 1.0, 2.0]))
    assert lam == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(v), [1.0, 0.0, 0.0], atol=1e-12)


def test_top_eigenpair_residual_and_rayleigh():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    a = (a + a.T) / 2.0
    lam, v = symmetric_top_eigenpair(a)
    assert np.linalg.norm(a @ v - lam * v) <= 1e-9
    for _ in range(20):
        probe = rng.normal(size=6)
        probe /= np.linalg.norm(probe)
        assert lam >= float(probe @ a @ probe) - 1e-12


def test_top_eigenpair_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetric_top_eigenpair(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_subgradient_symmetric_two_pair():
    g = objective_subgradient(
        np.array([0.5, 0.5]), [PAIR_01, PAIR_12], np.zeros(2), 0.0, 3
    )
    np.testing.assert_allclose(g, [0.75, 0.75], atol=1e-9)


@pytest.mark.parametrize(
    "p,costs,name",
    [
        (np.array([0.5, 0.5]), [1.0], "costs"),  # was broadcast to both candidates
        (np.array([1.0]), [1.0, 2.0], "p"),
        (np.array([0.25, 0.25, 0.5]), [1.0, 2.0], "p"),
    ],
)
def test_subgradient_rejects_wrong_lengths(p, costs, name):
    with pytest.raises(ValueError, match=rf"^{name}: shape .*, expected \(2,\)"):
        objective_subgradient(p, [PAIR_01, PAIR_12], costs, 1.0, 3)


def test_subgradient_regularizer_is_additive():
    p = np.array([0.5, 0.5])
    costs = np.array([50.0, 130.0])
    g0 = objective_subgradient(p, [PAIR_01, PAIR_12], costs, 0.0, 3)
    g1 = objective_subgradient(p, [PAIR_01, PAIR_12], costs, 1e-3, 3)
    np.testing.assert_allclose(g1 - g0, 1e-3 * costs, atol=1e-12)


def test_subgradient_inequality_at_degenerate_vertex():
    """Top eigenvalue has multiplicity at the all-cluster vertex; the
    returned vector must still satisfy f(q) >= f(p) + g.(q - p)."""
    cands = [FULL_3, PAIR_01, PAIR_12]
    costs = np.array([225.0, 50.0, 130.0])
    alpha = 1e-4
    p = np.array([1.0, 0.0, 0.0])
    g = objective_subgradient(p, cands, costs, alpha, 3)
    f = lambda r: xi(r, cands, 3) + alpha * float(costs @ r)
    fp = f(p)
    rng = np.random.default_rng(23)
    for _ in range(100):
        q = rng.dirichlet(np.ones(3))
        assert f(q) >= fp + float(g @ (q - p)) - 1e-9


def test_subgradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 10:
        n = int(rng.integers(3, 7))
        topo = generate_topology(n, 10.0, int(rng.integers(0, 2**31)))
        cands = enumerate_candidates(topo, 2, n)
        costs = np.array([candidate_cost_l1(c, topo, EnergyParams()) for c in cands])
        alpha = 1e-4
        p = rng.dirichlet(np.ones(len(cands)))
        w = mixing_matrix(p, cands, n) - np.full((n, n), 1.0 / n)
        top2 = np.sort(np.linalg.eigvalsh(w))[-2:]
        if top2[1] - top2[0] < 1e-3 or not 0.05 < top2[1] < 0.95:
            continue  # needs a simple top eigenvalue away from the clamp
        checked += 1
        g = objective_subgradient(p, cands, costs, alpha, n)
        delta = 1e-6
        for i in range(len(cands)):
            e = np.zeros(len(cands))
            e[i] = delta
            hi = xi(p + e, cands, n) + alpha * float(costs @ (p + e))
            lo = xi(p - e, cands, n) + alpha * float(costs @ (p - e))
            assert g[i] == pytest.approx((hi - lo) / (2 * delta), abs=1e-4)


def test_project_simplex_examples():
    np.testing.assert_allclose(project_simplex(np.array([0.5, 0.7])), [0.4, 0.6])
    np.testing.assert_allclose(project_simplex(np.array([1.0, 0.0])), [1.0, 0.0])
    np.testing.assert_allclose(project_simplex(np.array([-1.0, -1.0])), [0.5, 0.5])


@given(
    st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=10)
)
@settings(max_examples=100)
def test_project_simplex_properties(values):
    v = np.array(values)
    p = project_simplex(v)
    assert np.all(p >= 0.0)
    assert np.sum(p) == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(project_simplex(p), p, atol=1e-12)


def test_optimize_single_full_cluster():
    r = optimize([FULL_3], np.array([225.0]), 3, OptimizerOptions(alpha=0.0))
    np.testing.assert_array_equal(r.p, [1.0])
    assert r.xi <= 1e-12
    assert r.objective <= 1e-12
    assert r.feasible


def test_optimize_symmetric_two_pair():
    r = optimize(
        [PAIR_01, PAIR_12], np.array([50.0, 130.0]), 3, OptimizerOptions(alpha=0.0)
    )
    assert r.feasible
    np.testing.assert_allclose(r.p, [0.5, 0.5], atol=1e-6)
    assert r.xi == pytest.approx(0.75, abs=1e-9)


def test_optimize_reports_infeasible_for_split_network():
    """Two node groups a million length units apart, clusters too small
    to bridge: every mixture keeps xi pinned at 1."""
    rng = np.random.default_rng(0)
    a = rng.uniform(0.0, 10.0, size=(4, 2))
    b = rng.uniform(0.0, 10.0, size=(4, 2)) + np.array([1e6, 0.0])
    topo = Topology.from_positions(np.vstack([a, b]))
    cands = enumerate_candidates(topo, 2, 4)
    costs = np.array([candidate_cost_l1(c, topo, EnergyParams()) for c in cands])
    r = optimize(cands, costs, 8, OptimizerOptions(alpha=0.0))
    assert not r.feasible
    assert r.xi >= 1.0 - 1e-9


def test_optimize_not_worse_than_any_feasible_vertex():
    topo = generate_topology(8, 25.0, seed=6)
    cands = enumerate_candidates(topo, 2, 8)
    costs = np.array([candidate_cost_l1(c, topo, EnergyParams()) for c in cands])
    opts = OptimizerOptions(alpha=5e-5)
    r = optimize(cands, costs, 8, opts)
    margin = 1.0 - opts.epsilon
    for i, cand in enumerate(cands):
        e = np.zeros(len(cands))
        e[i] = 1.0
        if xi(e, cands, 8) <= margin:
            vertex_obj = xi(e, cands, 8) + opts.alpha * costs[i]
            assert r.objective <= vertex_obj + 1e-6


def test_optimize_regularization_path_monotone():
    """More weight on cost can only trade mixing speed for cheaper
    clusters: expected cost falls, xi rises (up to solver tolerance)."""
    topo = generate_topology(10, 30.0, seed=4)
    enumerated, all_costs, kept = prepare_pool(topo, 2, 10, EnergyParams())
    cands, costs = [enumerated[i] for i in kept], all_costs[kept]
    results = [
        optimize(cands, costs, 10, OptimizerOptions(alpha=a))
        for a in (0.0, 5e-5, 2e-4)
    ]
    tol = 1e-3
    for lo, hi in zip(results, results[1:]):
        assert lo.expected_cost_l1 >= hi.expected_cost_l1 - tol * max(1.0, lo.expected_cost_l1)
        assert lo.xi <= hi.xi + tol


def test_optimize_is_deterministic():
    topo = generate_topology(7, 20.0, seed=9)
    cands = enumerate_candidates(topo, 2, 7)
    costs = np.array([candidate_cost_l1(c, topo, EnergyParams()) for c in cands])
    r1 = optimize(cands, costs, 7, OptimizerOptions(alpha=3e-5))
    r2 = optimize(cands, costs, 7, OptimizerOptions(alpha=3e-5))
    np.testing.assert_array_equal(r1.p, r2.p)
    assert r1.xi == r2.xi and r1.objective == r2.objective


def test_optimize_cleans_tiny_support():
    topo = generate_topology(6, 15.0, seed=12)
    cands = enumerate_candidates(topo, 2, 6)
    costs = np.array([candidate_cost_l1(c, topo, EnergyParams()) for c in cands])
    r = optimize(cands, costs, 6, OptimizerOptions(alpha=0.0))
    assert np.all((r.p == 0.0) | (r.p > 1e-6))
    assert np.sum(r.p) == pytest.approx(1.0, abs=1e-12)


def test_optimize_margin_meeting_point_beats_lower_scalar_progress():
    """The all-node cluster costs 1e6, so every point that meets the margin
    has an objective (~11) far above 1 plus any violating xi; it must still
    be returned, which one scalar key (obj or 1 + xi) would not guarantee."""
    r = optimize([PAIR_01, FULL_3], [0.0, 1e6], 3, OptimizerOptions(alpha=1e-3))
    assert r.feasible
    assert r.xi == pytest.approx(0.99, abs=1e-3) and r.xi <= 0.99
    assert r.objective == pytest.approx(10.994, abs=1e-2)


def test_optimize_rejects_empty_and_mismatched_inputs():
    with pytest.raises(ValueError):
        optimize([], np.array([]), 3, OptimizerOptions())
    with pytest.raises(ValueError):
        optimize([FULL_3], np.array([1.0, 2.0]), 3, OptimizerOptions())


def test_optimizer_options_validation():
    with pytest.raises(ValueError):
        OptimizerOptions(epsilon=0.0)
    with pytest.raises(ValueError):
        OptimizerOptions(epsilon=1.0)
    with pytest.raises(ValueError):
        OptimizerOptions(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerOptions(alpha=-1e-3)
