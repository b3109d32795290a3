"""Simulated in-network recursive least squares via consensus ADMM.

Every node keeps a local information pair fed only by its own observations;
agreement on the global estimate is enforced by K rounds of a synchronous
ADMM consensus loop per sampling instant, exchanging estimates with
communication-graph neighbors.  The sum of the local information matrices
reproduces the centralized RLS information matrix exactly, which is the
invariant that makes K large recover the centralized estimator.

The network state is held as arrays with one row per node, and each inner
iteration is one batched solve over all nodes.  Every state array may carry
leading trial axes, so independent Monte Carlo trials advance together
through the same code: ``drls_simulate`` runs them in ``filters.track`` and
keeps only their trial-summed curve.  The per-link multipliers
lambda_ij stay antisymmetric, and the local update reads them only through
alpha_i = sum_j (lambda_ij - lambda_ji), so only these aggregated duals are
kept; they advance as alpha <- alpha + rho L s with L the communication
Laplacian (Shi, Ling, Yuan, Wu & Yin, IEEE TSP 2014; D-RLS as in Mateos,
Schizas & Giannakis, IEEE TSP 2009).  Messages are still counted per link:
each inner iteration sends one payload per directed edge, 2 |E| in total.

The simulator reuses the shared math: a ``CommGraph`` is a 0/1 adjacency
matrix checked by :class:`graphs.Graph`, its L is ``graphs.build_laplacian``,
and the per-node sensing reads the u_i u_i^T table of
``filters.rls_outer_table`` instead of forming it at every instant.

The consensus penalty rho is only conditionally stable: the local update
anchors on raw neighbor estimates, so the inner loop converges for rho
below a ceiling that depends on the topology and on the conditioning of
the local information matrices.  Dense communication graphs tolerate a
wide range of rho; long rings and similar weakly connected topologies with
near-singular per-node data may not converge for any rho and should be
avoided for the estimator itself (they remain fine as message-count
fixtures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .filters import rls_outer_table, track
from .graphs import Bandlimit, Graph, build_laplacian, connected_components
from .sampling import NoiseModel


@dataclass(frozen=True)
class CommGraph:
    """Undirected, connected communication topology: a 0/1 adjacency matrix
    checked by :class:`Graph`, with its Laplacian from ``build_laplacian``."""

    adjacency: np.ndarray
    laplacian: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = Graph(self.adjacency)
        if not np.isin(g.weights, (0.0, 1.0)).all():
            raise ValueError("communication links must have weight 0 or 1")
        if connected_components(g) != 1:
            raise ValueError("communication graph must be connected")
        object.__setattr__(self, "adjacency", g.weights)
        object.__setattr__(self, "laplacian", build_laplacian(g))

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2

    @classmethod
    def from_graph(cls, g: Graph) -> "CommGraph":
        return cls((g.weights != 0).astype(float))

    @classmethod
    def complete(cls, n: int) -> "CommGraph":
        return cls(1.0 - np.eye(n))

    @classmethod
    def ring(cls, n: int) -> "CommGraph":
        if n < 3:
            raise ValueError("a ring needs at least three nodes")
        return cls(np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1))


@dataclass(frozen=True)
class DrlsConfig:
    """ADMM parameters: penalty rho, inner rounds per instant, forgetting
    factor, and the initialization weight delta."""

    rho: float = 1.0
    inner_iters: int = 1
    beta: float = 0.95
    delta: float = 1e-3

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("consensus penalty rho must be positive")
        if not self.inner_iters >= 1:
            raise ValueError("need at least one inner iteration per instant")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("forgetting factor must lie in (0, 1]")
        if not self.delta > 0:
            raise ValueError("initialization weight delta must be positive")


@dataclass
class DrlsNetwork:
    """Every node's state as one row of an array: information pairs
    ``psi`` (..., n, f, f) and ``psiv`` (..., n, f), consensus ``estimates``
    (..., n, f), aggregated duals ``alpha`` (..., n, f), plus a message
    counter summed over all trials.  The leading axes ``...`` index
    independent trials and are empty for a single network.  ``outer``
    (n, f, f) is the ``rls_outer_table`` of the basis rows, u_i u_i^T."""

    comm: CommGraph
    basis: Bandlimit
    noise: NoiseModel
    outer: np.ndarray
    psi: np.ndarray
    psiv: np.ndarray
    estimates: np.ndarray
    alpha: np.ndarray
    message_count: int = 0


def drls_network_init(comm: CommGraph, b: Bandlimit, noise: NoiseModel,
                      config: DrlsConfig, batch: tuple = ()) -> DrlsNetwork:
    """Fresh network: each node starts with Psi_i = (delta/N) I so the sum
    over nodes equals the centralized initialization exactly.  ``batch`` is
    the shape of the leading trial axes."""
    if comm.n != b.n or noise.n != b.n:
        raise ValueError("communication graph, basis and noise sizes must agree")
    n, f = comm.n, b.size
    return DrlsNetwork(comm=comm, basis=b, noise=noise,
                       outer=rls_outer_table(b.basis_slice).reshape(n, f, f),
                       psi=np.tile(config.delta / n * np.eye(f), (*batch, n, 1, 1)),
                       psiv=np.zeros((*batch, n, f)), estimates=np.zeros((*batch, n, f)),
                       alpha=np.zeros((*batch, n, f)))


def _penalized(psi: np.ndarray, comm: CommGraph, rho: float) -> np.ndarray:
    """The local update's matrices Psi_i + rho d_i I."""
    f = psi.shape[-1]
    return psi + (rho * np.diagonal(comm.laplacian))[:, None, None] * np.eye(f)


def drls_local_update(psiv: np.ndarray, alpha: np.ndarray, estimates: np.ndarray,
                      comm: CommGraph, rho: float, penalized: np.ndarray) -> np.ndarray:
    """Closed-form minimizers of every node's local augmented Lagrangian,
    one batched solve:
    s_i = (Psi_i + rho d_i I)^{-1} [psi_i + rho sum_{j in N_i} s_j - alpha_i / 2].

    ``penalized`` holds the matrices Psi_i + rho d_i I, built once per
    instant by ``_penalized`` (they do not change between its inner
    iterations).  Every array may carry leading trial axes.
    """
    rhs = psiv + rho * (comm.adjacency @ estimates) - 0.5 * alpha
    return np.linalg.solve(penalized, rhs[..., None])[..., 0]


def drls_multiplier_update(alpha: np.ndarray, estimates: np.ndarray, comm: CommGraph,
                           rho: float) -> np.ndarray:
    """Dual ascent on the aggregated multipliers: alpha <- alpha + rho L s.

    Per link the ascent is lambda_ij <- lambda_ij + (rho/2)(s_i - s_j), so
    alpha_i = sum_j (lambda_ij - lambda_ji) moves by rho sum_j (s_i - s_j).
    The opposite sign turns the consensus loop into positive feedback and
    diverges for every rho.
    """
    return alpha + rho * (comm.laplacian @ estimates)


def drls_round(network: DrlsNetwork, draws: np.ndarray, observations: np.ndarray,
               config: DrlsConfig) -> DrlsNetwork:
    """One sampling instant: every node senses its own observation,
    Psi_i <- beta Psi_i + d_i u_i u_i^T / sigma_i^2 (likewise psi_i), then
    ``config.inner_iters`` synchronous consensus iterations follow.  Each
    solves on the previous iteration's estimates, advances the duals on the
    fresh ones, and adds 2 |E| messages per trial, one per directed edge.

    ``draws`` and ``observations`` are (..., n), with the network's leading
    trial axes.
    """
    draws = np.asarray(draws)
    observations = np.asarray(observations, dtype=float)
    shape = network.psiv.shape[:-1]
    if draws.shape != shape or observations.shape != shape:
        raise ValueError(f"draws and observations must both have shape {shape}")
    u = network.basis.basis_slice
    w = draws / network.noise.variances
    network.psi = config.beta * network.psi + w[..., None, None] * network.outer
    network.psiv = config.beta * network.psiv + (w * observations)[..., None] * u
    penalized = _penalized(network.psi, network.comm, config.rho)
    messages = 2 * network.comm.num_edges * math.prod(shape[:-1])
    for _ in range(config.inner_iters):
        network.estimates = drls_local_update(network.psiv, network.alpha, network.estimates,
                                              network.comm, config.rho, penalized)
        network.alpha = drls_multiplier_update(network.alpha, network.estimates,
                                               network.comm, config.rho)
        network.message_count += messages
    return network


def drls_simulate(comm: CommGraph, b: Bandlimit, noise: NoiseModel,
                  config: DrlsConfig, blocks, x_true: np.ndarray):
    """Run independent trials of the network together through the one
    per-instant loop, ``filters.track``, over ``blocks`` of ``(draws,
    observations)``.  An unobserved vertex (draw 0) adds nothing, whatever
    its observation.

    Returns (curve, network).  curve[t, i] is the squared deviation of node
    i's synthesized estimate from the true signal before instant t is
    sensed, summed over the trials, matching the centralized learning-curve
    convention.  The network carries the trial axis and counts every
    trial's messages.
    """
    def deviation(network):
        err = network.estimates @ b.basis_slice.T - x_true
        return np.einsum("...ij,...ij->...i", err, err).sum(axis=0)

    return track(blocks,
                 lambda trials: drls_network_init(comm, b, noise, config, batch=(trials,)),
                 lambda network, draws, obs: drls_round(network, draws, obs, config),
                 deviation)
