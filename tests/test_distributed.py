"""In-network RLS: local updates, consensus loop, and centralized limits.

The structural invariants checked here are (a) the node information
matrices, rebuilt from the closed form a I + omega_i u_i u_i^T, always sum
to the centralized one, (b) the local update is the exact stationary point
of its augmented Lagrangian, verified by evaluating the gradient at the
returned minimizer, and agrees with explicit solves of the local systems,
and (c) the aggregated duals reproduce the per-link multiplier recursion,
checked against a reference that keeps one multiplier per directed link.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import reference
from graphadapt.distributed import (
    CommGraph,
    DrlsConfig,
    _local_gains,
    drls_local_update,
    drls_multiplier_update,
    drls_network_init,
    drls_round,
    drls_simulate,
)
from graphadapt.filters import rls_outer_table, rls_update
from graphadapt.graphs import (
    Bandlimit,
    Graph,
    build_laplacian,
    eigendecompose,
    random_geometric_graph,
)
from graphadapt.harness import _drls_params, build_setup, resolve_sampling, run_experiment
from graphadapt.sampling import NoiseModel, stream

PATH2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def make_setup(n=6, f=3, seed=4, sigma=0.01):
    g = random_geometric_graph(n, radius=0.9, seed=seed)
    b = Bandlimit.lowest(eigendecompose(build_laplacian(g)), f)
    return b, NoiseModel.uniform(n, sigma)


def neighbors(comm):
    return [np.nonzero(row)[0] for row in comm.adjacency]


def random_information(rng, shape, omega=10.0):
    """A random closed-form state: the scale a > 0 and weights 0 <= omega_i <=
    ``omega``, about a third of them exactly zero (nodes that never sensed)."""
    weights = omega * rng.uniform(0.5, 1.0, shape) * (rng.random(shape) < 0.7)
    return float(rng.uniform(0.1, 2.0)), weights


def local_update(psiv, alpha, estimates, comm, rho, u, scale, weights):
    return drls_local_update(psiv, alpha, estimates, comm, rho, u,
                             *_local_gains(scale, weights, u, comm, rho))


# ------------------------------------------------------------- comm graphs


class TestCommGraph:
    def test_ring_structure(self):
        ring = CommGraph.ring(5)
        assert ring.n == 5
        assert ring.num_edges == 5
        assert list(neighbors(ring)[0]) == [1, 4]

    def test_complete_structure(self):
        comm = CommGraph.complete(4)
        assert comm.num_edges == 6
        assert (comm.adjacency.sum(axis=1) == 3).all()

    def test_ring_minimum_size(self):
        with pytest.raises(ValueError):
            CommGraph.ring(2)

    def test_two_node_path_is_valid(self):
        comm = CommGraph(PATH2)
        assert comm.num_edges == 1

    def test_asymmetric_link_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            CommGraph([[0.0, 1.0], [0.0, 0.0]])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            CommGraph([[1.0, 1.0], [1.0, 0.0]])

    def test_weighted_link_rejected(self):
        with pytest.raises(ValueError, match="weight 0 or 1"):
            CommGraph([[0.0, 2.0], [2.0, 0.0]])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            CommGraph(np.kron(np.eye(2), PATH2))

    def test_from_graph_matches_neighbors(self):
        # a weighted graph: every edge becomes one unit link
        g = random_geometric_graph(8, radius=0.7, seed=3)
        weighted = Graph(g.weights * np.add.outer(np.arange(8.0), np.arange(8.0) + 1.0))
        comm = CommGraph.from_graph(weighted)
        np.testing.assert_array_equal(comm.adjacency, g.weights)
        assert comm.num_edges == np.count_nonzero(np.triu(g.weights))


class TestDrlsConfig:
    def test_defaults(self):
        cfg = DrlsConfig()
        assert cfg.rho == 1.0 and cfg.inner_iters == 1

    @pytest.mark.parametrize(
        "kw",
        [dict(rho=0.0), dict(rho=-1.0), dict(inner_iters=0),
         dict(beta=0.0), dict(beta=1.1), dict(delta=0.0),
         dict(rho=np.nan), dict(inner_iters=np.nan), dict(delta=np.nan),
         dict(inner_iters=2.5), dict(inner_iters=True), dict(rho=np.inf),
         dict(delta=np.inf)],
    )
    def test_rejects_bad_parameters(self, kw):
        with pytest.raises(ValueError):
            DrlsConfig(**kw)


# ----------------------------------------------------------- local algebra


def test_network_init_sums_to_centralized_regularizer():
    b, noise = make_setup()
    comm = CommGraph.complete(b.n)
    net = drls_network_init(comm, b, noise, DrlsConfig(delta=1e-3))
    psi = reference.drls_information(net.scale, net.weights, b.basis_slice)
    np.testing.assert_allclose(psi.sum(axis=0), 1e-3 * np.eye(b.size), atol=1e-15)
    assert net.message_count == 0


def test_network_init_size_mismatch():
    b, noise = make_setup()
    with pytest.raises(ValueError):
        drls_network_init(CommGraph.complete(b.n + 1), b, noise, DrlsConfig())


def test_information_sums_to_centralized():
    """After any number of rounds the node information pairs must sum to the
    centralized RLS pair fed with the same observations."""
    b, noise = make_setup()
    comm = CommGraph.complete(b.n)
    cfg = DrlsConfig(rho=50.0, inner_iters=2, beta=0.9, delta=1e-3)
    net = drls_network_init(comm, b, noise, cfg)
    u = b.basis_slice
    outer = rls_outer_table(u)
    psi, psiv = 1e-3 * np.eye(b.size), np.zeros(b.size)
    rng = np.random.default_rng(11)
    for _ in range(10):
        draws = (rng.random(b.n) < 0.6).astype(np.int8)
        obs = draws * rng.standard_normal(b.n)
        net = drls_round(net, draws, obs, cfg)
        psi, psiv = rls_update(psi, psiv, draws / noise.variances, obs, u, outer, 0.9)
    total = reference.drls_information(net.scale, net.weights, u).sum(axis=0)
    np.testing.assert_allclose(total, psi, atol=1e-10)
    np.testing.assert_allclose(net.psiv.sum(axis=0), psiv, atol=1e-10)


def test_sense_formula():
    b, noise = make_setup()
    rng = np.random.default_rng(7)
    n, f = b.n, b.size
    net = drls_network_init(CommGraph.complete(n), b, noise, DrlsConfig())
    net.scale, net.weights = random_information(rng, n)
    net.psiv = rng.standard_normal((n, f))
    scale0, weights0, psiv0 = net.scale, net.weights.copy(), net.psiv.copy()
    draws = np.zeros(n, dtype=np.int8)
    draws[2] = 1
    obs = 1.5 * draws
    drls_round(net, draws, obs, DrlsConfig(beta=0.9))
    row = b.basis_slice[2]
    # Psi_i <- 0.9 Psi_i + 100 u_i u_i^T on the sensing node: a and omega_i decay,
    # and omega_i gains 1 / sigma_i^2
    assert net.scale == 0.9 * scale0
    np.testing.assert_allclose(net.weights[2], 0.9 * weights0[2] + 100.0, atol=1e-12)
    np.testing.assert_allclose(net.psiv[2], 0.9 * psiv0[2] + 100.0 * 1.5 * row, atol=1e-12)
    # skipped instants only decay
    skipped = draws == 0
    np.testing.assert_allclose(net.weights[skipped], 0.9 * weights0[skipped], atol=1e-15)
    np.testing.assert_allclose(net.psiv[skipped], 0.9 * psiv0[skipped], atol=1e-15)


def test_local_update_is_stationary_point():
    """Every returned estimate must zero the gradient of its node's local
    augmented Lagrangian  (1/2) s'Psi_i s - psi_i's + (1/2) alpha_i's
    + (rho/2) sum_j ||s - s_j||^2,  where alpha_i = sum_j (l_ij - l_ji)."""
    rng = np.random.default_rng(13)
    g = random_geometric_graph(7, radius=0.6, seed=2)
    comm = CommGraph.from_graph(g)
    n, f, rho = comm.n, 4, 7.5
    for _ in range(10):
        u = rng.standard_normal((n, f))
        scale, weights = random_information(rng, n)
        psi = reference.drls_information(scale, weights, u)
        psiv = rng.standard_normal((n, f))
        alpha = rng.standard_normal((n, f))
        old = rng.standard_normal((n, f))
        s = local_update(psiv, alpha, old, comm, rho, u, scale, weights)
        for i, nbrs in enumerate(neighbors(comm)):
            grad = psi[i] @ s[i] - psiv[i] + 0.5 * alpha[i]
            for j in nbrs:
                grad += rho * (s[i] - old[j])
            np.testing.assert_allclose(grad, np.zeros(f), atol=1e-10)


def test_local_update_fixed_point():
    # consensus already reached and duals balanced: nothing moves
    rng = np.random.default_rng(17)
    comm = CommGraph.ring(4)
    n, f = comm.n, 3
    s_star = rng.standard_normal(f)
    u = rng.standard_normal((n, f))
    scale, weights = random_information(rng, n)
    psi = reference.drls_information(scale, weights, u)
    estimates = np.tile(s_star, (n, 1))
    s = local_update(psi @ s_star, np.zeros((n, f)), estimates, comm, 12.0, u, scale, weights)
    np.testing.assert_allclose(s, estimates, atol=1e-12)


CLOSED_FORM_COMMS = {
    "path": lambda: CommGraph(np.eye(5, k=1) + np.eye(5, k=-1)),
    "ring": lambda: CommGraph.ring(6),
    "random_geometric": lambda: CommGraph.from_graph(random_geometric_graph(8, 0.5, seed=2)),
}


def closed_form_case(topology, omega, seed=53):
    """A local update on structured matrices a I + omega_i u_i u_i^T, weights of
    size ``omega`` (some zero), three trials on a leading axis, and the rows u_i
    of an orthonormal (n, 5) basis."""
    comm = CLOSED_FORM_COMMS[topology]()
    rng = np.random.default_rng(seed)
    trials, n, f = 3, comm.n, 5
    u = np.linalg.qr(rng.standard_normal((n, f)))[0]
    scale, weights = random_information(rng, (trials, n), omega)
    psiv, alpha, old = rng.standard_normal((3, trials, n, f))
    return comm, u, scale, weights, psiv, alpha, old


def assert_nodewise_close(actual, expected, rtol):
    """Every node's error within ``rtol`` of its largest entry."""
    err = np.abs(actual - expected).max(axis=-1)
    assert (err <= rtol * np.abs(expected).max(axis=-1)).all(), err.max()


def local_right_side(comm, rho, psiv, alpha, old):
    """r_i = psi_i + rho sum_{j in N_i} s_j - alpha_i / 2, neighbor by neighbor."""
    pulled = np.stack([old[..., nbrs, :].sum(axis=-2) for nbrs in neighbors(comm)], axis=-2)
    return psiv + rho * pulled - 0.5 * alpha


@pytest.mark.parametrize("omega", [1.0, 1e2, 1e4])
@pytest.mark.parametrize("topology", sorted(CLOSED_FORM_COMMS))
def test_local_update_matches_explicit_solves(topology, omega):
    comm, u, scale, weights, psiv, alpha, old = closed_form_case(topology, omega)
    rho, f = 2.0, u.shape[1]
    assert (weights == 0).any() and (weights > 0).any()
    s = local_update(psiv, alpha, old, comm, rho, u, scale, weights)
    matrices = (reference.drls_information(scale, weights, u)
                + rho * np.diagonal(comm.laplacian)[:, None, None] * np.eye(f))
    rhs = local_right_side(comm, rho, psiv, alpha, old)
    assert_nodewise_close(s, np.linalg.solve(matrices, rhs[..., None])[..., 0], 1e-12)


def spectral_solve(c, omega, u, r):
    """(c I + omega u u^T)^{-1} r per node from the eigenpairs of the matrix:
    c on the complement of u, c + omega ||u||^2 along u."""
    norm2 = (u * u).sum(axis=-1)
    along = (u * r).sum(axis=-1) / norm2
    return ((r - along[..., None] * u) / c[..., None]
            + (along / (c + omega * norm2))[..., None] * u)


@pytest.mark.parametrize("omega", [1e8, 1e12])
@pytest.mark.parametrize("topology", sorted(CLOSED_FORM_COMMS))
def test_local_update_is_accurate_at_large_weights(topology, omega):
    """Where omega_i ||u_i||^2 dwarfs c_i an LU solve of the explicit matrix
    loses about cond * eps; the closed form stays within 1e-14 of an extended-
    precision evaluation, relative to each node's largest entry."""
    comm, u, scale, weights, psiv, alpha, old = closed_form_case(topology, omega)
    rho = 2.0
    s = local_update(psiv, alpha, old, comm, rho, u, scale, weights)
    wide = [np.asarray(v, dtype=np.longdouble) for v in (u, weights, psiv, alpha, old)]
    c = np.longdouble(scale) + rho * np.diagonal(comm.laplacian).astype(np.longdouble)
    exact = spectral_solve(c, wide[1], wide[0], local_right_side(comm, rho, *wide[2:]))
    assert_nodewise_close(s, exact, 1e-14)


def test_multiplier_update_direction():
    comm = CommGraph(PATH2)
    alpha = np.array([[1.0, -2.0], [-1.0, 2.0]])
    s = np.array([[3.0, 0.0], [1.0, 0.0]])
    out = drls_multiplier_update(alpha, s, comm, rho=4.0)
    # alpha_i moves by rho sum_j (s_i - s_j)
    np.testing.assert_allclose(out[0], alpha[0] + 4.0 * (s[0] - s[1]), atol=1e-15)
    np.testing.assert_allclose(out[1], alpha[1] + 4.0 * (s[1] - s[0]), atol=1e-15)
    # zero penalty leaves the duals untouched
    np.testing.assert_allclose(drls_multiplier_update(alpha, s, comm, rho=0.0), alpha,
                               atol=1e-15)


def test_aggregated_duals_sum_to_zero():
    # 1^T L = 0, so the dual ascent never moves sum_i alpha_i off zero
    b, noise = make_setup()
    comm = CommGraph.complete(b.n)
    cfg = DrlsConfig(rho=30.0, inner_iters=3, beta=0.95)
    net = drls_network_init(comm, b, noise, cfg)
    rng = np.random.default_rng(19)
    for _ in range(5):
        draws = (rng.random(b.n) < 0.7).astype(np.int8)
        obs = draws * rng.standard_normal(b.n)
        net = drls_round(net, draws, obs, cfg)
    assert np.abs(net.alpha).max() > 1e-3
    np.testing.assert_allclose(net.alpha.sum(axis=0), np.zeros(b.size), atol=1e-10)


def per_link_reference(comm, b, noise, cfg, draws, obs):
    """D-RLS with one multiplier per directed link, in the paper's order:
    sense, then per inner iteration local solves on the previous neighbor
    estimates followed by lambda_ij <- lambda_ij + (rho/2)(s_i - s_j).
    Returns the (n, f) estimates after each instant, (instants, n, f)."""
    n, f, u = comm.n, b.size, b.basis_slice
    psi = [cfg.delta / n * np.eye(f) for _ in range(n)]
    psiv = [np.zeros(f) for _ in range(n)]
    s = [np.zeros(f) for _ in range(n)]
    lam = {(i, j): np.zeros(f) for i, nbrs in enumerate(neighbors(comm)) for j in nbrs}
    history = []
    for d, y in zip(draws, obs):
        for i in range(n):
            w = d[i] / noise.variances[i]
            psi[i] = cfg.beta * psi[i] + w * np.outer(u[i], u[i])
            psiv[i] = cfg.beta * psiv[i] + w * y[i] * u[i]
        for _ in range(cfg.inner_iters):
            old = list(s)
            for i, nbrs in enumerate(neighbors(comm)):
                rhs = psiv[i] + sum(cfg.rho * old[j] - 0.5 * (lam[i, j] - lam[j, i])
                                    for j in nbrs)
                s[i] = np.linalg.solve(psi[i] + cfg.rho * len(nbrs) * np.eye(f), rhs)
            for i, j in lam:
                lam[i, j] = lam[i, j] + 0.5 * cfg.rho * (s[i] - s[j])
        history.append(np.array(s))
    return np.array(history)


@pytest.mark.parametrize("topology", ["ring", "random_geometric"])
def test_matches_per_link_reference(topology):
    if topology == "ring":
        b, noise = make_setup(n=6, f=3)
        comm = CommGraph.ring(6)
    else:
        g = random_geometric_graph(8, radius=0.5, seed=2)
        b = Bandlimit.lowest(eigendecompose(build_laplacian(g)), 3)
        noise = NoiseModel.uniform(8, 0.01)
        comm = CommGraph.from_graph(g)
    cfg = DrlsConfig(rho=2.0, inner_iters=3, beta=0.95)
    rng = np.random.default_rng(37)
    draws = (rng.random((10, comm.n)) < 0.7).astype(np.int8)
    obs = draws * rng.standard_normal((10, comm.n))
    net = drls_network_init(comm, b, noise, cfg)
    for t in range(10):
        drls_round(net, draws[t], obs[t], cfg)
    reference = per_link_reference(comm, b, noise, cfg, draws, obs)[-1]
    assert np.abs(reference).max() > 1e-2
    np.testing.assert_allclose(net.estimates, reference, rtol=1e-10)


def test_zero_data_node_pulled_toward_neighbor():
    # node 1 never observes anything; consensus drags it to node 0
    comm = CommGraph(PATH2)
    basis = np.array([[1.0], [1.0]]) / np.sqrt(2.0)

    class TinyBand:
        n = 2
        size = 1
        basis_slice = basis

    noise = NoiseModel.uniform(2, 0.01)
    cfg = DrlsConfig(rho=1.0, inner_iters=5, beta=1.0, delta=1e-3)
    net = drls_network_init(comm, TinyBand(), noise, cfg)
    draws = np.array([1, 0], dtype=np.int8)
    obs = np.array([2.0, 0.0])
    for _ in range(20):
        net = drls_round(net, draws, obs, cfg)
    e0 = float(net.estimates[0, 0])
    e1 = float(net.estimates[1, 0])
    assert e0 > 0.5
    assert e1 > 0.25
    assert abs(e1 - e0) < abs(e0)


# ------------------------------------------------------------ network runs


def test_message_count_per_round():
    b, noise = make_setup(n=5, f=2)
    comm = CommGraph.ring(5)
    cfg = DrlsConfig(rho=1.0, inner_iters=3)
    net = drls_network_init(comm, b, noise, cfg)
    net = drls_round(net, np.ones(5, dtype=np.int8), np.zeros(5), cfg)
    # 2 |E| directed payloads per inner iteration
    assert net.message_count == 2 * 5 * 3


def test_round_validates_shapes():
    b, noise = make_setup(n=5, f=2)
    comm = CommGraph.complete(5)
    cfg = DrlsConfig()
    net = drls_network_init(comm, b, noise, cfg)
    with pytest.raises(ValueError):
        drls_round(net, np.ones(4, dtype=np.int8), np.zeros(5), cfg)


def test_identical_nodes_stay_identical():
    """Fully symmetric problem: same data everywhere on a complete graph
    keeps every estimate equal and every dual at zero."""
    n, f = 4, 2
    g = random_geometric_graph(n, radius=0.95, seed=8)
    b = Bandlimit.lowest(eigendecompose(build_laplacian(g)), f)
    # make all basis rows equal so every node sees the same regressor
    row = b.basis_slice[0].copy()
    uniform_rows = np.tile(row, (n, 1))

    class SymBand:
        pass

    sym = SymBand()
    sym.n = n
    sym.size = f
    sym.basis_slice = uniform_rows
    noise = NoiseModel.uniform(n, 0.01)
    comm = CommGraph.complete(n)
    cfg = DrlsConfig(rho=20.0, inner_iters=1, beta=0.95)
    net = drls_network_init(comm, sym, noise, cfg)
    rng = np.random.default_rng(23)
    for _ in range(6):
        y = float(rng.standard_normal())
        net = drls_round(net, np.ones(n, dtype=np.int8), np.full(n, y), cfg)
    for estimate in net.estimates[1:]:
        np.testing.assert_allclose(estimate, net.estimates[0], atol=1e-12)
    np.testing.assert_allclose(net.alpha, np.zeros((n, f)), atol=1e-12)


def test_many_inner_iterations_recover_centralized():
    """With a dense network and enough consensus rounds per instant the
    node estimates must match the centralized exponentially weighted
    least-squares coefficients."""
    n, f = 5, 3
    g = random_geometric_graph(n, radius=0.9, seed=1)
    b = Bandlimit.lowest(eigendecompose(build_laplacian(g)), f)
    noise = NoiseModel.uniform(n, 0.01)
    comm = CommGraph.complete(n)
    cfg = DrlsConfig(rho=300.0, inner_iters=40, beta=0.95, delta=1e-3)
    rng = np.random.default_rng(31)
    coeffs = rng.standard_normal(f)
    x_true = b.basis_slice @ coeffs
    horizon = 30
    draws = np.ones((horizon, n), dtype=np.int8)
    obs = x_true + rng.normal(0.0, 0.1, size=(horizon, n))

    _, net = drls_simulate(comm, b, noise, cfg, [(draws[None], obs[None])], coeffs)

    u = b.basis_slice
    outer = rls_outer_table(u)
    psi, psiv = 1e-3 * np.eye(f), np.zeros(f)
    for t in range(horizon):
        psi, psiv = rls_update(psi, psiv, draws[t] / noise.variances, obs[t], u, outer, 0.95)
    reference = np.linalg.solve(psi, psiv)
    for estimate in net.estimates[0]:
        np.testing.assert_allclose(estimate, reference, atol=1e-5)


def test_simulate_curve_convention():
    b, noise = make_setup(n=5, f=2)
    comm = CommGraph.complete(5)
    cfg = DrlsConfig(rho=20.0)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(2)
    x_true = b.basis_slice @ coeffs
    horizon = 4
    draws = np.ones((1, horizon, 5), dtype=np.int8)
    obs = np.tile(x_true, (1, horizon, 1))
    curves, _ = drls_simulate(comm, b, noise, cfg, [(draws, obs)], coeffs)
    assert curves.shape == (horizon, 5)
    # estimates start at zero, so the first row is the signal energy
    np.testing.assert_allclose(curves[0], float(x_true @ x_true) * np.ones(5), atol=1e-12)
    assert (curves[-1] < curves[0]).all()


def test_batched_simulate_matches_per_trial_runs():
    """Trials stacked on a leading axis and streamed in time blocks advance
    as if run one at a time: the curve is the in-order sum of the single-
    trial curves, and the network counts every trial's messages."""
    b, noise = make_setup(n=6, f=3)
    comm = CommGraph.from_graph(random_geometric_graph(6, radius=0.9, seed=4))
    cfg = DrlsConfig(rho=20.0, inner_iters=2, beta=0.9)
    rng = np.random.default_rng(41)
    coeffs = rng.standard_normal(3)
    x_true = b.basis_slice @ coeffs
    trials, horizon = 3, 12
    draws = (rng.random((trials, horizon, 6)) < 0.7).astype(np.int8)
    obs = x_true + 0.1 * rng.standard_normal((trials, horizon, 6))

    def blocks(c):  # 5, 5 and 2 steps
        return [(draws[c, t:t + 5], obs[c, t:t + 5]) for t in range(0, horizon, 5)]

    curve, net = drls_simulate(comm, b, noise, cfg, blocks(slice(None)), coeffs)
    assert curve.shape == (horizon, 6)
    assert net.estimates.shape == (trials, 6, 3)
    assert net.message_count == 2 * comm.num_edges * 2 * horizon * trials
    # an unobserved vertex adds nothing, whatever its observation
    masked, _ = drls_simulate(comm, b, noise, cfg, [(draws, draws * obs)], coeffs)
    np.testing.assert_array_equal(masked, curve)
    total = np.zeros((horizon, 6))
    for c in range(trials):
        alone, single = drls_simulate(comm, b, noise, cfg, blocks(slice(c, c + 1)), coeffs)
        total += alone
        np.testing.assert_array_equal(net.estimates[c], single.estimates[0])
        np.testing.assert_array_equal(net.alpha[c], single.alpha[0])
    np.testing.assert_array_equal(curve, total)


def test_simulate_validates_shapes():
    b, noise = make_setup(n=5, f=2)
    comm = CommGraph.complete(5)
    blocks = [(np.ones((1, 4, 5)), np.zeros((1, 4, 5))),
              (np.ones((1, 4, 5)), np.zeros((1, 3, 5)))]
    with pytest.raises(ValueError, match="same shape"):
        drls_simulate(comm, b, noise, DrlsConfig(), blocks, np.zeros(2))


def per_link_curve(config):
    """A DRLS run's msd_linear from ``per_link_reference``: dense per-node
    solves with per-link multipliers, fed each trial's masks and noise drawn
    whole from its two keyed streams."""
    setup = build_setup(config)
    probs = resolve_sampling(setup)[0].probs
    _, (cfg, comm, _) = _drls_params(config)
    n, f, horizon = setup.graph.n, setup.bandlimit.size, setup.horizon
    assert comm in ("processing", "complete"), comm
    graph = CommGraph.from_graph(setup.graph) if comm == "processing" else CommGraph.complete(n)
    curve = np.zeros(horizon)
    for t in range(setup.trials):
        draws = stream(setup.seed, "masks", t).random((horizon, n)) < probs
        noise = stream(setup.seed, "noise", t).normal(0.0, setup.noise.std, (horizon, n))
        history = per_link_reference(graph, setup.bandlimit, setup.noise, cfg, draws,
                                     setup.x_true + noise)
        # the estimates before each instant: zero, then those after the last one
        estimates = np.concatenate([np.zeros((1, n, f)), history[:-1]])
        curve += ((estimates - setup.signal_coeffs) ** 2).sum(axis=2).mean(axis=1)
    return curve / setup.trials


# msd_linear of DRLS runs written by per_link_curve: the GOLDEN_CURVES["drls"]
# config (2 trials x 30 steps) and configs/drls.yaml at 4 trials.  The closed
# form must follow them to a relative 1e-10 per instant.
DENSE_SOLVE_CURVES = json.loads(
    (Path(__file__).parent / "data" / "drls_parent_curves.json").read_text())


def test_dense_solve_curves_are_the_per_link_reference():
    stored = DENSE_SOLVE_CURVES["golden_drls"]
    np.testing.assert_array_equal(per_link_curve(stored["config"]), stored["msd_linear"])


@pytest.mark.parametrize("name", sorted(DENSE_SOLVE_CURVES))
def test_run_matches_the_dense_solve_curves(name):
    stored = DENSE_SOLVE_CURVES[name]
    curve = run_experiment(stored["config"]).msd_linear
    np.testing.assert_allclose(curve, stored["msd_linear"], rtol=1e-10, atol=0.0)
