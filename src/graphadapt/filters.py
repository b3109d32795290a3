"""Adaptive estimators for bandlimited graph signals and their mean-square theory.

Two online estimators consume the stream of masked noisy observations: a
stochastic-gradient filter (constant step mu, projected onto the bandlimited
subspace) and an exponentially weighted recursive least-squares filter
(forgetting factor beta).  Both come with closed-form steady-state
mean-square-deviation predictions driven by the sampling probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Bandlimit
from .sampling import (
    NoiseModel,
    ReconstructabilityError,
    SamplingDraw,
    SamplingProbabilities,
    weighted_gram,
)

_COND_LIMIT = 1e12


@dataclass
class LmsState:
    """Stochastic-gradient filter state: current estimate and step size."""

    estimate: np.ndarray
    step: float


@dataclass
class RlsState:
    """Recursive least-squares state.

    psi_mat accumulates the exponentially weighted information matrix,
    psi_vec the matching weighted observation correlation; regularizer is
    the initialization Pi = delta * I kept for batch cross-checks.
    """

    psi_mat: np.ndarray
    psi_vec: np.ndarray
    beta: float
    regularizer: np.ndarray


@dataclass(frozen=True)
class TheoryReport:
    """Closed-form predictions for one estimator configuration."""

    msd: float
    rate: float = None
    step_bound: float = None

    @property
    def msd_db(self) -> float:
        return 10.0 * math.log10(self.msd)


def _check_lengths(b: Bandlimit, *vectors):
    for v in vectors:
        if v is not None and v.shape[0] != b.n:
            raise ValueError("vector length must match the graph size")


def lms_init(b: Bandlimit, step: float, x0=None) -> LmsState:
    """Fresh filter state; any initial guess is projected onto the bandlimit."""
    if step <= 0:
        raise ValueError("step size must be positive")
    if x0 is None:
        est = np.zeros(b.n)
    else:
        x0 = np.asarray(x0, dtype=float)
        _check_lengths(b, x0)
        est = b.basis_slice @ (b.basis_slice.T @ x0)
    return LmsState(estimate=est, step=float(step))


def lms_step(state: LmsState, y, draw: SamplingDraw, b: Bandlimit) -> LmsState:
    """One stochastic-gradient update
    x <- x + mu * B_F D_S (y - x), evaluated in factored form."""
    y = np.asarray(y, dtype=float)
    _check_lengths(b, y, state.estimate)
    if draw.n != b.n:
        raise ValueError("mask length must match the graph size")
    residual = draw.mask * (y - state.estimate)
    update = b.basis_slice @ (b.basis_slice.T @ residual)
    return LmsState(estimate=state.estimate + state.step * update, step=state.step)


def lms_step_bound(p: SamplingProbabilities, b: Bandlimit) -> float:
    """Largest mean-square stable step size, 2 lambda_min / lambda_max^2 of
    the expected Gram matrix."""
    eigs = np.linalg.eigvalsh(weighted_gram(b, p.probs))
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_max <= 0.0:
        return 0.0
    return 2.0 * max(lam_min, 0.0) / lam_max ** 2


def _gram_pair(p: SamplingProbabilities, noise: NoiseModel, b: Bandlimit):
    if p.n != b.n or noise.n != b.n:
        raise ValueError("probabilities and noise model must match the graph size")
    h = weighted_gram(b, p.probs)
    g = weighted_gram(b, p.probs * noise.variances)
    return h, g


def _require_invertible(h: np.ndarray, what: str) -> None:
    eigs = np.linalg.eigvalsh(h)
    if eigs[0] <= 1e-12 * max(eigs[-1], 1.0):
        raise ReconstructabilityError(
            f"{what}: expected sampling pattern is rank deficient "
            f"(lambda_min = {eigs[0]:.3e}); increase the probabilities or "
            "shrink the bandlimit"
        )


def lms_msd_theory(p: SamplingProbabilities, mu: float, noise: NoiseModel, b: Bandlimit) -> float:
    """Small-step steady-state MSD prediction
    (mu/2) Tr[H^{-1} U_F^T diag(p) C_v U_F]; reduces to (mu/2) |F| sigma^2
    under white noise and full-rank expected sampling."""
    if mu <= 0:
        raise ValueError("step size must be positive")
    h, g = _gram_pair(p, noise, b)
    _require_invertible(h, "lms_msd_theory")
    return 0.5 * mu * float(np.trace(np.linalg.solve(h, g)))


def lms_msd_upper_bound(p: SamplingProbabilities, mu: float, noise: NoiseModel, b: Bandlimit) -> float:
    """Convexity-friendly upper bound (mu/2) Tr(G) / lambda_min(H) >= MSD."""
    if mu <= 0:
        raise ValueError("step size must be positive")
    h, g = _gram_pair(p, noise, b)
    lam_min = float(np.linalg.eigvalsh(h)[0])
    if lam_min <= 0.0:
        return math.inf
    return 0.5 * mu * float(np.trace(g)) / lam_min


def lms_rate_theory(p: SamplingProbabilities, mu: float, b: Bandlimit) -> float:
    """Per-iteration geometric convergence factor 1 - 2 mu lambda_min(H).

    Accurate in the small-step regime mu << 2 lambda_min / lambda_max^2; for
    larger steps it understates the true factor.
    """
    if mu <= 0:
        raise ValueError("step size must be positive")
    if p.n != b.n:
        raise ValueError("probability vector length must match the graph size")
    lam_min = float(np.linalg.eigvalsh(weighted_gram(b, p.probs))[0])
    return 1.0 - 2.0 * mu * lam_min


def lms_theory_report(p: SamplingProbabilities, mu: float, noise: NoiseModel, b: Bandlimit) -> TheoryReport:
    return TheoryReport(
        msd=lms_msd_theory(p, mu, noise, b),
        rate=lms_rate_theory(p, mu, b),
        step_bound=lms_step_bound(p, b),
    )


def rls_init(b: Bandlimit, beta: float, delta: float = 1e-3) -> RlsState:
    """Fresh RLS state with regularized information matrix Pi = delta I."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("forgetting factor must lie in (0, 1]")
    if delta <= 0:
        raise ValueError("regularizer must be positive")
    eye = np.eye(b.size)
    return RlsState(
        psi_mat=delta * eye,
        psi_vec=np.zeros(b.size),
        beta=float(beta),
        regularizer=delta * eye,
    )


def rls_step(state: RlsState, y, draw: SamplingDraw, noise: NoiseModel, b: Bandlimit) -> RlsState:
    """One exponentially weighted update of the information pair:
    Psi <- beta Psi + U_F^T D_S C_v^{-1} U_F,  psi <- beta psi + U_F^T D_S C_v^{-1} y.
    """
    y = np.asarray(y, dtype=float)
    _check_lengths(b, y)
    if draw.n != b.n or noise.n != b.n:
        raise ValueError("mask and noise model must match the graph size")
    sampled = draw.mask.astype(bool)
    rows = b.basis_slice[sampled]
    inv_var = 1.0 / noise.variances[sampled]
    psi_mat = state.beta * state.psi_mat + rows.T @ (inv_var[:, None] * rows)
    psi_vec = state.beta * state.psi_vec + rows.T @ (inv_var * y[sampled])
    return RlsState(
        psi_mat=(psi_mat + psi_mat.T) / 2.0,
        psi_vec=psi_vec,
        beta=state.beta,
        regularizer=state.regularizer,
    )


def rls_estimate(state: RlsState, b: Bandlimit) -> np.ndarray:
    """Current estimate U_F Psi^{-1} psi, once Psi is checked positive definite
    and well conditioned."""
    eigs = np.linalg.eigvalsh(state.psi_mat)
    if eigs[0] <= 0.0 or eigs[-1] / eigs[0] > _COND_LIMIT:
        raise ReconstructabilityError(
            "rls_estimate: information matrix is numerically singular "
            f"(condition number {eigs[-1] / max(eigs[0], 1e-300):.3e}); "
            "the sampling pattern does not cover the bandlimit"
        )
    return b.basis_slice @ np.linalg.solve(state.psi_mat, state.psi_vec)


def rls_msd_theory(p: SamplingProbabilities, beta: float, noise: NoiseModel, b: Bandlimit) -> float:
    """Steady-state MSD prediction
    ((1-beta)/(1+beta)) Tr[(U_F^T diag(p) C_v^{-1} U_F)^{-1}]."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("forgetting factor must lie in (0, 1]")
    if p.n != b.n or noise.n != b.n:
        raise ValueError("probabilities and noise model must match the graph size")
    info = weighted_gram(b, p.probs / noise.variances)
    eigs = np.linalg.eigvalsh(info)
    if eigs[0] <= 1e-12 * max(eigs[-1], 1.0):
        raise ReconstructabilityError(
            "rls_msd_theory: expected sampling pattern is rank deficient "
            f"(lambda_min = {eigs[0]:.3e})"
        )
    return (1.0 - beta) / (1.0 + beta) * float((1.0 / eigs).sum())


def rls_theory_report(p: SamplingProbabilities, beta: float, noise: NoiseModel, b: Bandlimit) -> TheoryReport:
    return TheoryReport(msd=rls_msd_theory(p, beta, noise, b))
