"""Adaptive estimators for bandlimited graph signals and their mean-square theory.

Two online estimators consume the stream of masked noisy observations: an
LMS filter (constant step mu, projected onto the bandlimited subspace) and
an exponentially weighted recursive least-squares filter (forgetting factor
beta).  Their updates are batched kernels in bandlimited coordinates: every
array carries any number of leading trial axes, so one call advances all
the trials of a Monte Carlo pass, and :func:`track` is the one per-instant
loop that drives them and the distributed simulator.  Both estimators come
with closed-form steady-state mean-square-deviation predictions driven by
the sampling probabilities, evaluated by :func:`_lms_msd` and
:func:`_rls_trace_inverse`, which the design solvers share.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import Bandlimit
from .sampling import (
    NoiseModel,
    ReconstructabilityError,
    SamplingProbabilities,
    reconstructability_lambda,
    weighted_gram,
)


# ---------------------------------------------------------------------------
# estimator kernels

def lms_update(s_hat: np.ndarray, masks: np.ndarray, y: np.ndarray, u: np.ndarray,
               mu: float) -> np.ndarray:
    """One LMS step for a chunk of trials, in bandlimited coordinates:
    s <- s + mu U_F^T D_S (y - U_F s)."""
    return s_hat + mu * ((masks * (y - s_hat @ u.T)) @ u)


def rls_outer_table(u: np.ndarray) -> np.ndarray:
    """Row i holds vec(u_i u_i^T), so ``w @ table`` is sum_i w_i u_i u_i^T."""
    n, f = u.shape
    return (u[:, :, None] * u[:, None, :]).reshape(n, f * f)


def rls_update(psi: np.ndarray, psiv: np.ndarray, w: np.ndarray, y: np.ndarray,
               u: np.ndarray, outer: np.ndarray, beta: float):
    """One RLS step for a chunk of trials, with weights w = D_S C_v^{-1}:
    Psi <- beta Psi + U_F^T W U_F (one GEMM against ``outer``, in place),
    psi <- beta psi + U_F^T W y.  The estimate is U_F Psi^{-1} psi."""
    psi *= beta
    psi += (w @ outer).reshape(psi.shape)
    return psi, beta * psiv + (w * y) @ u


def track(blocks, init, step, deviation):
    """The one per-instant loop, over ``(masks, y)`` blocks of shape (trials,
    steps, n) that cover the horizon in order: the state starts as
    ``init(trials)``; before each instant t, ``deviation(state)`` is recorded,
    then ``state = step(state, masks[:, t], y[:, t])``.  Returns the rows,
    as one array, and the final state."""
    state, rows = None, []
    for masks, y in blocks:
        if masks.shape != y.shape:
            raise ValueError("masks and observations must have the same shape, "
                             f"got {masks.shape} and {y.shape}")
        if state is None:
            state = init(masks.shape[0])
        for t in range(masks.shape[1]):
            rows.append(deviation(state))
            state = step(state, masks[:, t], y[:, t])
    return np.array(rows), state


# ---------------------------------------------------------------------------
# closed-form evaluators, shared with the design solvers

def _singular(vals: np.ndarray) -> bool:
    """Whether a Gram matrix with ascending eigenvalues ``vals`` is
    numerically singular: lambda_min <= 1e-12 max(lambda_max, 1)."""
    return vals[0] <= 1e-12 * max(vals[-1], 1.0)


def _lms_msd(b, sig2, p, mu, derivs=False):
    """The LMS MSD (mu/2) Tr[H(p)^-1 G(p)], H(p) = U^T diag(p) U and
    G(p) = U^T diag(p sigma^2) U over the basis U of bandlimit ``b``; inf
    where H(p) is singular.

    With ``derivs`` it returns (value, gradient, Hessian, excess), all from
    one eigendecomposition of H(p).  With K = U H^-1 U^T and
    L = U H^-1 G H^-1 U^T the gradient is (mu/2)(sigma^2 o diag K - diag L)
    and the Hessian mu K o L - E, E_ij = (mu/2)(sigma_i^2 + sigma_j^2) K_ij^2.
    The Hessian is indefinite in general; the excess E lifts it to the
    curvature mu K o L, the Schur product of two PSD matrices and so PSD.
    """
    vals, vecs = np.linalg.eigh(weighted_gram(b, p))
    if _singular(vals):
        return math.inf
    core = vecs.T @ weighted_gram(b, p * sig2) @ vecs
    value = 0.5 * mu * float((np.diag(core) / vals).sum())
    if not derivs:
        return value
    q = b.basis_slice @ vecs
    r = q / vals                            # U H^-1 in the eigenbasis
    k = r @ q.T
    l = r @ core @ r.T
    grad = 0.5 * mu * (sig2 * k.diagonal() - l.diagonal())
    excess = 0.5 * mu * (sig2[:, None] + sig2) * k * k
    return value, grad, mu * k * l - excess, excess


def _rls_trace_inverse(b, sig2, p, derivs=False):
    """Tr[M(p)^-1], M(p) = U^T diag(p / sigma^2) U over the basis U of
    bandlimit ``b``, inf where M(p) is singular; with ``derivs`` (value,
    gradient, Hessian, 0.0), the function being convex.  The value alone
    takes no eigenvectors."""
    m = weighted_gram(b, p / sig2)
    vals, vecs = np.linalg.eigh(m) if derivs else (np.linalg.eigvalsh(m), None)
    if _singular(vals):
        return math.inf
    value = float((1.0 / vals).sum())
    if not derivs:
        return value
    q = (b.basis_slice @ vecs) / np.sqrt(sig2)[:, None]
    k1 = (q / vals) @ q.T                   # u_i^T M^{-1} u_j / (sigma_i sigma_j)
    k2 = (q / vals ** 2) @ q.T
    return value, -k2.diagonal().copy(), 2.0 * k1 * k2, 0.0


def _check_sizes(p: SamplingProbabilities, noise: NoiseModel, b: Bandlimit) -> None:
    if p.n != b.n or noise.n != b.n:
        raise ValueError("probabilities and noise model must match the graph size")


# ---------------------------------------------------------------------------
# closed-form theory

def lms_step_bound(p: SamplingProbabilities, b: Bandlimit) -> float:
    """The small-step figure 2 lambda_min / lambda_max^2 of H = U_F^T diag(p) U_F.

    Not the mean-square stability bound: it leaves out the sampling variance
    term (on ``configs/design_min_rate.yaml`` it reads 8.61, yet mu = 3
    diverges).  The exact bound is left to ROADMAP.md, item 1."""
    eigs = np.linalg.eigvalsh(weighted_gram(b, p.probs))
    if _singular(eigs):
        return 0.0
    return 2.0 * float(eigs[0]) / float(eigs[-1]) ** 2


def lms_msd_theory(p: SamplingProbabilities, mu: float, noise: NoiseModel, b: Bandlimit) -> float:
    """Small-step steady-state MSD prediction
    (mu/2) Tr[H^{-1} U_F^T diag(p) C_v U_F]; reduces to (mu/2) |F| sigma^2
    under white noise and full-rank expected sampling."""
    if not mu > 0:
        raise ValueError("step size must be positive")
    _check_sizes(p, noise, b)
    msd = _lms_msd(b, noise.variances, p.probs, mu)
    if msd == math.inf:
        raise ReconstructabilityError(
            "lms_msd_theory: expected sampling pattern is rank deficient; "
            "increase the probabilities or shrink the bandlimit"
        )
    return msd


def lms_msd_upper_bound(p: SamplingProbabilities, mu: float, noise: NoiseModel, b: Bandlimit) -> float:
    """Convexity-friendly upper bound (mu/2) Tr(G) / lambda_min(H) >= MSD."""
    if not mu > 0:
        raise ValueError("step size must be positive")
    _check_sizes(p, noise, b)
    eigs = np.linalg.eigvalsh(weighted_gram(b, p.probs))
    if _singular(eigs):
        return math.inf
    return 0.5 * mu * float(np.trace(weighted_gram(b, p.probs * noise.variances))) / float(eigs[0])


def lms_rate_theory(p: SamplingProbabilities, mu: float, b: Bandlimit) -> float:
    """Per-iteration geometric convergence factor 1 - 2 mu lambda_min(H).

    Accurate in the small-step regime mu << 2 lambda_min / lambda_max^2; for
    larger steps it understates the true factor.
    """
    if not mu > 0:
        raise ValueError("step size must be positive")
    return 1.0 - 2.0 * mu * reconstructability_lambda(p, b)


def lms_theory_report(p: SamplingProbabilities, mu: float, noise: NoiseModel, b: Bandlimit) -> dict:
    """theory.csv's LMS rows, in order."""
    msd = lms_msd_theory(p, mu, noise, b)
    return {"msd_linear": msd, "msd_db": 10.0 * math.log10(msd),
            "convergence_rate": lms_rate_theory(p, mu, b), "step_bound": lms_step_bound(p, b)}


def rls_msd_theory(p: SamplingProbabilities, beta: float, noise: NoiseModel, b: Bandlimit) -> float:
    """Steady-state MSD prediction
    ((1-beta)/(1+beta)) Tr[(U_F^T diag(p) C_v^{-1} U_F)^{-1}]."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("forgetting factor must lie in (0, 1]")
    _check_sizes(p, noise, b)
    trace = _rls_trace_inverse(b, noise.variances, p.probs)
    if trace == math.inf:
        raise ReconstructabilityError(
            "rls_msd_theory: expected sampling pattern is rank deficient"
        )
    return (1.0 - beta) / (1.0 + beta) * trace


def rls_theory_report(p: SamplingProbabilities, beta: float, noise: NoiseModel, b: Bandlimit) -> dict:
    """theory.csv's RLS rows, in order."""
    msd = rls_msd_theory(p, beta, noise, b)
    return {"msd_linear": msd, "msd_db": 10.0 * math.log10(msd)}
