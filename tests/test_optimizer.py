import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from clustergossip import (
    ClusterCandidate,
    EnergyParams,
    NumericalError,
    Topology,
    candidate_cost_l1,
    enumerate_candidates,
    generate_topology,
    mixing_matrix,
    objective_subgradient,
    optimize,
    project_simplex,
    xi,
)
from clustergossip import optimizer
from clustergossip.candidates import membership
from clustergossip.cli import ExperimentConfig, prepare_pool
from reference import build_weight_matrix
from test_acceptance import _draw_tiny_instance, _grid_xi_and_cost


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


@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 40),
    st.floats(0.5, 1.5),
    st.sampled_from([0.0, 0.5, 0.9]),
)
@settings(max_examples=40, deadline=None)
def test_factored_model_matches_dense_oracle(seed, n, scale, zero_share):
    """mixing_matrix and objective_subgradient agree with the dense
    sum of per-candidate averaging matrices, on and off the simplex and
    with a share of p zeroed (W(p) is built from the support only), and
    a lone cluster's xi is 1 unless it spans every node (then 0)."""
    rng = np.random.default_rng(seed)
    topo = generate_topology(n, 30.0, seed)
    cands = enumerate_candidates(topo, 2, n)
    p = scale * rng.dirichlet(np.ones(len(cands)))
    p[rng.uniform(size=len(cands)) < zero_share] = 0.0
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
    """W = I leaves every node alone: W - J has top eigenvalue 1 on the vectors orthogonal to 1."""
    lam, v = optimizer._deflated_top(np.eye(4), 4)
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert abs(v.sum()) <= 1e-12


def test_top_eigenpair_diagonal():
    """W = J + D makes W - J the diagonal D; its top eigenvalue is clipped to [0, 1]."""
    for diagonal, top, vector in (
        ([0.9, 0.2, 0.5], 0.9, [1.0, 0.0, 0.0]),
        ([3.0, 1.0, 2.0], 1.0, [1.0, 0.0, 0.0]),
        ([-3.0, -1.0, -2.0], 0.0, [0.0, 1.0, 0.0]),
    ):
        lam, v = optimizer._deflated_top(np.diag(diagonal) + 1.0 / 3, 3)
        assert lam == pytest.approx(top, abs=1e-12)
        np.testing.assert_allclose(np.abs(v), vector, atol=1e-12)


def test_top_eigenpair_residual_and_rayleigh():
    """On a random W(p), the pair solves W - J to 1e-9, and no unit vector has a larger
    Rayleigh quotient of W - J."""
    rng = np.random.default_rng(5)
    cands, _, n = _random_pool(5, (6, 7), with_all_node=False)
    w = mixing_matrix(rng.dirichlet(np.ones(len(cands))), cands, n)
    a = w - 1.0 / n
    lam, v = optimizer._deflated_top(w, n)
    assert np.linalg.norm(a @ v - lam * v) <= 1e-9
    for _ in range(20):
        probe = rng.normal(size=n)
        probe /= np.linalg.norm(probe)
        assert lam >= float(probe @ a @ probe) - 1e-12


def test_top_eigenpair_rejects_asymmetric():
    """Without a start and with one (the warm-started path)."""
    for start in (None, np.ones(2)):
        with pytest.raises(ValueError, match="not symmetric"):
            optimizer._deflated_top(np.array([[0.0, 1.0], [0.0, 0.0]]), 2, start)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_top_eigenpair_rejects_non_finite_entries(bad):
    """A ValueError before LAPACK or the symmetry check sees the entry, by both
    the full decomposition and the warm-started path."""
    w = np.eye(3)
    w[0, 1] = w[1, 0] = bad
    for start in (None, np.ones(3)):
        with pytest.raises(ValueError, match="non-finite"):
            optimizer._deflated_top(w, 3, start)


def test_xi_and_subgradient_reject_a_nan_probability():
    p = np.array([np.nan, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        xi(p, [PAIR_01, PAIR_12], 3)
    with pytest.raises(ValueError, match="non-finite"):
        objective_subgradient(p, [PAIR_01, PAIR_12], [1.0, 1.0], 0.0, 3)


def test_top_eigenpair_residual_message_prints_the_tolerance_applied(monkeypatch):
    """At |top| = 1e4 the tolerance is 1e-12 * 1e4 = 1e-8, not the 1e-9 floor: the residual
    is judged on the eigenvalue before it is clipped to 1."""
    eigh = np.linalg.eigh

    def perturbed(a):
        values, vectors = eigh(a)
        vectors[:, -1] += 1e-3
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(NumericalError, match=r"exceeds tolerance 1e-08$"):
        optimizer._deflated_top(np.diag([1e4, 1.0, 2.0]) + 1.0 / 3, 3)


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


@pytest.mark.parametrize(
    "alpha,costs,error,match",
    [
        (np.nan, [1.0, 1.0], ValueError, "alpha"),
        (np.inf, [1.0, 1.0], ValueError, "alpha"),
        (-1.0, [1.0, 1.0], ValueError, "alpha"),
        (True, [1.0, 1.0], ValueError, "alpha"),
        (1e-3, [np.nan, 1.0], ValueError, "finite and nonnegative"),
        (1e-3, [-5.0, 1.0], ValueError, "finite and nonnegative"),
        (1e10, [1e300, 1.0], NumericalError, "overflows"),
    ],
    ids=["nan alpha", "inf alpha", "negative alpha", "bool alpha", "nan cost", "negative cost",
         "overflow"],
)
def test_subgradient_rejects_what_optimize_rejects(alpha, costs, error, match):
    """objective_subgradient applies optimize's alpha and cost rules, with the same exception."""
    with pytest.raises(error, match=match):
        optimize([PAIR_01, PAIR_12], costs, 3, alpha=alpha)
    with pytest.raises(error, match=match):
        objective_subgradient(np.array([0.5, 0.5]), [PAIR_01, PAIR_12], costs, alpha, 3)


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


@pytest.mark.parametrize(
    "v",
    [
        [1e16, 0.0],  # u1 - (u1 - 1) rounds to 0, so no k qualifies
        [6e15, 6e15],  # only k = 1 qualifies, and the shift by u1 - 1 gives [1, 1]
        [-0.5, -1.6e306, -1.79e308],  # the running sum overflows to -inf
    ],
)
def test_project_simplex_raises_when_float_precision_loses_the_simplex(v):
    with pytest.raises(NumericalError, match="float precision"):
        project_simplex(np.array(v))


@pytest.mark.parametrize("v", [[], [[0.5, 0.5]], [np.nan, 1.0], [np.inf, 0.0]])
def test_project_simplex_rejects_anything_but_a_finite_vector(v):
    with pytest.raises(ValueError):
        project_simplex(np.array(v))


def test_optimize_single_full_cluster():
    r = optimize([FULL_3], np.array([225.0]), 3, alpha=0.0)
    np.testing.assert_array_equal(r.p, [1.0])
    assert r.xi <= 1e-12
    assert r.objective <= 1e-12
    assert r.feasible


def test_optimize_symmetric_two_pair():
    r = optimize([PAIR_01, PAIR_12], np.array([50.0, 130.0]), 3, alpha=0.0)
    assert r.feasible
    np.testing.assert_allclose(r.p, [0.5, 0.5], atol=1e-6)
    assert r.xi == pytest.approx(0.75, abs=1e-9)


def test_optimize_reports_infeasible_for_split_network():
    """Two node groups a million length units apart, clusters too small
    to bridge: every mixture keeps xi pinned at 1."""
    rng = np.random.default_rng(0)
    a = rng.uniform(0.0, 10.0, size=(4, 2))
    b = rng.uniform(0.0, 10.0, size=(4, 2)) + np.array([1e6, 0.0])
    topo = Topology(np.vstack([a, b]))
    cands = enumerate_candidates(topo, 2, 4)
    costs = np.array([candidate_cost_l1(c, topo, EnergyParams()) for c in cands])
    r = optimize(cands, costs, 8, alpha=0.0)
    assert not r.feasible
    assert r.xi >= 1.0 - 1e-9


def test_optimize_not_worse_than_any_feasible_vertex():
    topo = generate_topology(8, 25.0, seed=6)
    cands = enumerate_candidates(topo, 2, 8)
    costs = np.array([candidate_cost_l1(c, topo, EnergyParams()) for c in cands])
    r = optimize(cands, costs, 8, alpha=5e-5)
    margin = 1.0 - 1e-2  # optimize's default epsilon
    for i, cand in enumerate(cands):
        e = np.zeros(len(cands))
        e[i] = 1.0
        if xi(e, cands, 8) <= margin:
            vertex_obj = xi(e, cands, 8) + 5e-5 * costs[i]
            assert r.objective <= vertex_obj + 1e-6


def test_optimize_regularization_path_monotone():
    """More weight on cost can only trade mixing speed for cheaper
    clusters: expected cost falls, xi rises (up to solver tolerance)."""
    topo = generate_topology(10, 30.0, seed=4)
    enumerated, all_costs, kept = prepare_pool(topo, 2, 10, EnergyParams())
    cands, costs = [enumerated[i] for i in kept], all_costs[kept]
    results = [
        optimize(cands, costs, 10, alpha=a)
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
    r1 = optimize(cands, costs, 7, alpha=3e-5)
    r2 = optimize(cands, costs, 7, alpha=3e-5)
    np.testing.assert_array_equal(r1.p, r2.p)
    assert r1.xi == r2.xi and r1.objective == r2.objective


def test_optimize_cleans_tiny_support():
    topo = generate_topology(6, 15.0, seed=12)
    cands = enumerate_candidates(topo, 2, 6)
    costs = np.array([candidate_cost_l1(c, topo, EnergyParams()) for c in cands])
    r = optimize(cands, costs, 6, alpha=0.0)
    assert np.all((r.p == 0.0) | (r.p > 1e-6))
    assert np.sum(r.p) == pytest.approx(1.0, abs=1e-12)


def test_optimize_margin_meeting_point_beats_lower_scalar_progress():
    """The all-node cluster costs 1e6, so every point that meets the margin
    has an objective (~11) far above 1 plus any violating xi; it must still
    be returned, which one scalar key (obj or 1 + xi) would not guarantee."""
    r = optimize([PAIR_01, FULL_3], [0.0, 1e6], 3, alpha=1e-3)
    assert r.feasible
    assert r.xi == pytest.approx(0.99, abs=1e-3) and r.xi <= 0.99
    assert r.objective == pytest.approx(10.994, abs=1e-2)


def test_optimize_rejects_empty_and_mismatched_inputs():
    with pytest.raises(ValueError):
        optimize([], np.array([]), 3)
    with pytest.raises(ValueError):
        optimize([FULL_3], np.array([1.0, 2.0]), 3)
    for cost in (-1.0, np.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            optimize([FULL_3], np.array([cost]), 3)
    with pytest.raises(NumericalError, match="overflows"):
        optimize([FULL_3], np.array([1e300]), 3, alpha=1e10)


def test_optimize_rejects_bad_alpha_and_epsilon():
    """alpha and epsilon are checked first, each by name: a bad scalar wins over an empty pool."""
    for bad in ({"epsilon": 0.0}, {"epsilon": 1.0}, {"alpha": -1e-3}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            optimize([FULL_3], [1.0], 3, **bad)
    for alpha in (np.nan, np.inf, -np.inf, "0.1", None, True, np.float32(1e-5)):
        with pytest.raises(ValueError, match="alpha"):
            optimize([FULL_3], [1.0], 3, alpha=alpha)
    for epsilon in (1e-300, 1e-15, "0.1", None, True, np.float32(0.01)):
        with pytest.raises(ValueError, match="epsilon"):
            optimize([FULL_3], [1.0], 3, epsilon=epsilon)
    with pytest.raises(ValueError, match="alpha"):
        optimize([], [], 3, alpha=-1.0)
    with pytest.raises(ValueError, match="epsilon"):
        optimize([], [], 3, epsilon=0.0)


def test_optimize_checks_every_eigenpair(monkeypatch):
    """The solver's eigensolves go through the residual check, so a wrong
    eigenvector stops the run instead of steering it."""
    eigh = np.linalg.eigh

    def perturbed(a):
        values, vectors = eigh(a)
        vectors[:, -1] += 1e-3
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(NumericalError, match="residual"):
        optimize([PAIR_01, PAIR_12], [1.0, 1.0], 3)


@given(
    alpha=st.floats(0.0, 1e308),
    costs=st.lists(st.floats(0.0, 1e3), min_size=3, max_size=3),
)
@settings(max_examples=15, deadline=None)
def test_optimize_huge_alpha_gives_a_result_or_numerical_error(alpha, costs):
    """Float precision may lose the simplex for a large alpha; that must end in
    NumericalError, never another exception or a point off the simplex."""
    try:
        r = optimize([PAIR_01, PAIR_12, FULL_3], costs, 3, alpha=alpha)
    except NumericalError:
        return
    assert np.all(r.p >= 0.0) and r.p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.isfinite(r.objective) and 0.0 <= r.xi <= 1.0


def test_support_floor_never_breaks_the_margin(monkeypatch):
    """The best point puts ~0.01 on the all-node cluster, which alone keeps
    xi at 0.99; a floor of 0.2 would zero it and disconnect node 2, so the
    unfloored best point is returned instead of an infeasible one."""
    monkeypatch.setattr(optimizer, "_SUPPORT_FLOOR", 0.2)
    r = optimize([PAIR_01, FULL_3], [0.0, 1e6], 3, alpha=1e-3)
    assert r.feasible and r.xi <= 0.99
    assert 0.0 < r.p[1] <= 0.2
    assert r.objective == pytest.approx(r.xi + 1e-3 * 1e6 * r.p[1], rel=1e-12)


def test_support_floor_that_zeroes_every_entry_keeps_the_largest(monkeypatch):
    """A floor of 1.0 zeroes the whole best point, so the vertex of its largest entry is tried.
    At margin 0.4 the best point is ~(0.4, 0.6) and that vertex is the all-node cluster (xi = 0),
    which is returned; at margin 0.99 it is ~(0.99, 0.01) and the vertex is the pair (xi = 1),
    so the unfloored best point is returned."""
    pool, costs = [PAIR_01, FULL_3], [0.0, 1e6]
    wide, narrow = {"alpha": 1e-3, "epsilon": 0.6}, {"alpha": 1e-3}
    unfloored_wide = optimize(pool, costs, 3, **wide)
    unfloored_narrow = optimize(pool, costs, 3, **narrow)
    assert 0.5 < unfloored_wide.p[1] < 0.7  # so the vertex below is not the best point
    monkeypatch.setattr(optimizer, "_SUPPORT_FLOOR", 1.0)

    r = optimize(pool, costs, 3, **wide)
    assert r.feasible and r.p.tolist() == [0.0, 1.0] and r.xi == 0.0 and r.objective == 1e3

    r = optimize(pool, costs, 3, **narrow)
    assert r.feasible and r.xi <= 0.99 and 0.0 < r.p[1] < 0.5
    assert r.p.tolist() == unfloored_narrow.p.tolist()
    assert r.objective == unfloored_narrow.objective


def _random_pool(seed, n_range, with_all_node):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(*n_range))
    topo = generate_topology(n, 20.0, seed)
    enumerated, all_costs, kept = prepare_pool(
        topo, 2, n if with_all_node else n - 1, EnergyParams()
    )
    return [enumerated[i] for i in kept], all_costs[kept], n


@given(
    seed=st.integers(0, 2**31 - 1),
    with_all_node=st.booleans(),
    alpha=st.floats(0.0, 1e-3),
)
@settings(max_examples=8, deadline=None)
def test_lower_bound_never_exceeds_the_objective(seed, with_all_node, alpha):
    cands, costs, n = _random_pool(seed, (3, 11), with_all_node)
    r = optimize(cands, costs, n, alpha=alpha)
    assert r.lower_bound <= r.objective + 1e-12
    assert r.gap == (r.objective - r.lower_bound if r.feasible else None)
    assert 0 <= r.iterations <= optimizer._MAX_ITERS


@pytest.mark.parametrize("epsilon", [0.01, 0.3])
@given(seed=st.integers(0, 2**31 - 1), alpha=st.floats(0.0, 1e-3), data=st.data())
@settings(max_examples=8, deadline=None)
def test_epsilon_corner_meets_the_margin_and_bounds_the_dual(epsilon, seed, alpha, data):
    """The epsilon-corner: 1 - epsilon on any candidate i with fewer than n members and epsilon on
    the all-node one give W(p) = (1 - epsilon) W_i + epsilon J, whose xi is 1 - epsilon in exact
    arithmetic. Its objective is no lower than optimize's weak-duality bound over the whole
    simplex (up to the rounding the bound test above allows)."""
    cands, costs, n = _random_pool(seed, (3, 11), with_all_node=True)
    sizes = np.array([c.size for c in cands])
    (full,) = np.flatnonzero(sizes == n)
    p = np.zeros(len(cands))
    p[data.draw(st.sampled_from(np.flatnonzero(sizes < n).tolist()))] = 1.0 - epsilon
    p[full] = epsilon
    corner_xi = xi(p, cands, n)
    assert abs(corner_xi - (1.0 - epsilon)) <= 1e-12
    r = optimize(cands, costs, n, alpha=alpha, epsilon=epsilon)
    assert r.lower_bound <= corner_xi + alpha * float(costs @ p) + 1e-12


@pytest.mark.parametrize("seed,alpha", [(0, 0.0), (2, 5.9e-4), (7, 1e-4)])
def test_optimize_projects_once_per_step(monkeypatch, seed, alpha):
    """perfbench's optimizer.iterations counts calls of optimizer.project_simplex, looked up on
    the module, so optimize makes exactly one per step."""
    project, calls = optimizer.project_simplex, []

    def counted(v):
        calls.append(v)
        return project(v)

    monkeypatch.setattr(optimizer, "project_simplex", counted)
    cands, costs, n = _random_pool(seed, (3, 9), with_all_node=False)
    r = optimize(cands, costs, n, alpha=alpha)
    assert r.iterations > 0 and len(calls) == r.iterations


def test_lower_bound_never_exceeds_the_grid_minimum():
    """The bound holds on the whole simplex, margin or not, so it stays below
    the minimum over a 0.01 grid on criterion 3's kind of tiny instance."""
    rng = np.random.default_rng(31)
    for _ in range(3):
        topology, candidates, costs = _draw_tiny_instance(rng)
        xis, lin = _grid_xi_and_cost(candidates, costs, topology.n, step=0.01)
        for alpha in (0.0, 1e-4):
            r = optimize(candidates, costs, topology.n, alpha=alpha)
            assert r.lower_bound <= float(np.min(xis + alpha * lin)) + 1e-12


@given(seed=st.integers(0, 2**31 - 1), alpha=st.floats(1e-6, 1e-3))
@example(seed=2, alpha=5.9e-4)  # certifies after 500 steps, not at the start
@settings(max_examples=8, deadline=None)
def test_certified_stop_returns_the_full_schedule_point(seed, alpha):
    """Where the bound certifies, running the whole schedule instead (a gap
    tolerance nothing meets) returns a byte-equal p."""
    cands, costs, n = _random_pool(seed, (3, 9), with_all_node=True)
    certified = optimize(cands, costs, n, alpha=alpha)
    assume(certified.gap <= optimizer._GAP_TOL * max(1.0, abs(certified.objective)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_GAP_TOL", -np.inf)
        full = optimize(cands, costs, n, alpha=alpha)
    assert full.iterations > certified.iterations
    assert full.p.tobytes() == certified.p.tobytes()
    assert (full.xi, full.objective) == (certified.xi, certified.objective)


def _default_pool():
    """The default config's kept candidates (n=30, sizes 2..30), their costs, and n."""
    config = ExperimentConfig()
    topo = generate_topology(config.n_nodes, config.area_side, config.topology_seed)
    params = EnergyParams(eps_amp=config.eps_amp, e_elec=config.e_elec, k_bits=config.k_bits)
    enumerated, all_costs, kept = prepare_pool(
        topo, config.cluster_size_min, config.size_max(), params
    )
    return [enumerated[i] for i in kept], all_costs[kept], topo.n


def test_default_pool_certifies_the_first_two_alphas_at_the_start():
    config = ExperimentConfig()
    cands, costs, n = _default_pool()
    for alpha in config.alphas[:2]:
        r = optimize(cands, costs, n, alpha=alpha, epsilon=config.epsilon)
        assert (r.iterations, r.gap) == (0, 0.0)


def test_default_pool_bound_from_the_last_window_is_within_a_percent():
    """At the default alpha 8e-5 the schedule runs 3832 steps without certifying. The mean of
    v v' over the last stall window bounds the objective to a gap of about 0.005, where the mean
    over every step would leave about 0.042."""
    cands, costs, n = _default_pool()
    r = optimize(cands, costs, n, alpha=8e-5)
    assert r.feasible and r.gap < 0.01


@given(
    seed=st.integers(0, 2**31 - 1),
    case=st.sampled_from(["nearby start", "all-node vertex", "repeated top", "orthogonal start"]),
)
@settings(max_examples=40, deadline=None)
def test_warm_eigenpair_matches_eigh(seed, case):
    """The warm-started eigenpair of W(p) - J agrees with eigh (xi is in [0, 1] for every
    simplex p, so the clip moves it by rounding at most); a start with no component in the top
    eigenspace takes the eigh fallback."""
    rng = np.random.default_rng(seed)
    cands, _, n = _random_pool(seed, (4, 13), with_all_node=True)
    members, sizes = membership(cands, n)
    p = rng.dirichlet(np.ones(len(cands)))
    q = project_simplex(p + rng.normal(scale=1e-2, size=len(cands)))
    start = np.linalg.eigh(optimizer._mixture(q, members, sizes) - 1.0 / n)[1][:, -1]
    if case == "all-node vertex":  # W - J = 0: every unit vector is a top eigenvector
        p = (sizes == n).astype(float)
        start = rng.normal(size=n)
    elif case == "repeated top":  # one pair alone leaves n - 2 nodes fixed: top 1, n - 2 times
        p = np.eye(1, len(cands), int(np.argmin(sizes)))[0]
    w = optimizer._mixture(p, members, sizes)
    a = w - 1.0 / n
    values, vectors = np.linalg.eigh(a)
    if case == "orthogonal start":
        assume(values[-1] - values[-2] > 1e-6)
        start = vectors[:, -2]
    elif case == "repeated top":
        assert values[-1] - values[-2] <= 1e-12
    elif case == "all-node vertex":
        assert not a.any()

    fallbacks = []
    with pytest.MonkeyPatch.context() as patch:
        eigh = np.linalg.eigh
        patch.setattr(np.linalg, "eigh", lambda m: fallbacks.append(m) or eigh(m))
        top, v = optimizer._deflated_top(w, n, start)
    assert abs(top - values[-1]) <= 1e-12
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(a @ v - top * v) <= 1e-9
    if case == "orthogonal start":
        assert len(fallbacks) == 1


def test_wrong_warm_solve_falls_back_to_eigh_byte_for_byte():
    """A solve that returns a wrong, a zero or a NaN vector has no usable
    eigenvector, so the run is the one where every eigenpair comes from eigh
    (solve raising)."""
    cands, costs, n = _random_pool(5, (8, 9), with_all_node=False)

    def wrong(a, b):
        return np.arange(1.0, b.size + 1.0)

    def zero(a, b):
        return np.zeros_like(b)

    def nan(a, b):
        return np.full_like(b, np.nan)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    results = []
    for solve in (wrong, zero, nan, singular):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "solve", solve)
            results.append(optimize(cands, costs, n, alpha=1e-4))
    *from_bad, from_eigh = results
    assert from_eigh.iterations > 0
    for result in from_bad:
        assert result.p.tobytes() == from_eigh.p.tobytes()
        assert (result.xi, result.objective, result.lower_bound, result.iterations) == (
            from_eigh.xi, from_eigh.objective, from_eigh.lower_bound, from_eigh.iterations
        )
