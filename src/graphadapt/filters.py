"""Adaptive estimators for bandlimited graph signals and their mean-square theory.

Two online estimators consume the stream of masked noisy observations: an
LMS filter (constant step mu, projected onto the bandlimited subspace) and
an exponentially weighted recursive least-squares filter (forgetting factor
beta).  Their updates are batched kernels in bandlimited coordinates: every
array carries any number of leading trial axes, so one call advances all
the trials of a Monte Carlo pass, and :func:`track` is the one per-instant
loop that drives them and the distributed simulator.  Both estimators come
with closed-form steady-state mean-square-deviation predictions driven by
the sampling probabilities p.  Each reads the eigendecomposition of
H(p) = U_F^T diag(p) U_F (or M(p)) from the one evaluator of p,
``sampling._Instance``, which decomposes each point once; the design
solvers share :func:`_lms_msd`, :func:`_rls_trace_inverse` and :func:`_msd_bound`.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import Bandlimit
from .sampling import (
    NoiseModel,
    ReconstructabilityError,
    SamplingProbabilities,
    _Instance,
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


def track(blocks, init, step, estimate, truth):
    """The one per-instant loop, over ``(masks, y)`` blocks of shape (trials,
    steps, n) that cover the horizon in order: the state starts as
    ``init(trials)``; before each instant t, the squared deviation of the
    coefficients ``estimate(state)``, (trials, ..., f), from ``truth`` is
    recorded, summed over the trials and the coefficients, then ``state =
    step(state, masks[:, t], y[:, t])``.  Returns the rows, as one array, and
    the final state."""
    state, rows = None, []
    for masks, y in blocks:
        if masks.shape != y.shape:
            raise ValueError("masks and observations must have the same shape, "
                             f"got {masks.shape} and {y.shape}")
        if state is None:
            state = init(masks.shape[0])
        for t in range(masks.shape[1]):
            rows.append(np.square(estimate(state) - truth).sum(axis=(0, -1)))
            state = step(state, masks[:, t], y[:, t])
    return np.array(rows), state


# ---------------------------------------------------------------------------
# closed forms at one sampling point p, read from its evaluator
# (sampling._Instance), shared with the design solvers

def _singular(vals: np.ndarray) -> bool:
    """Whether a Gram matrix with ascending eigenvalues ``vals`` is
    numerically singular: lambda_min <= 1e-12 max(lambda_max, 1)."""
    return vals[0] <= 1e-12 * max(vals[-1], 1.0)


def _lms_msd(inst, p, mu, derivs=False):
    """The LMS MSD (mu/2) Tr[H(p)^-1 G(p)], G(p) = U^T diag(p sigma^2) U,
    inf where H(p) is singular; with ``derivs`` (value, gradient, Hessian).
    With K = U H^-1 U^T and L = U H^-1 G H^-1 U^T the gradient is
    (mu/2)(sigma^2 o diag K - diag L) and the Hessian
    mu K o L - (mu/2)(sigma_i^2 + sigma_j^2) K_ij^2, indefinite in general."""
    vals, vecs = inst.spectrum(p)
    if _singular(vals):
        return math.inf
    core = vecs.T @ weighted_gram(inst.b, p * inst.sig2) @ vecs
    value = 0.5 * mu * float((np.diag(core) / vals).sum())
    if not derivs:
        return value
    q = inst.u @ vecs
    r = q / vals                            # U H^-1 in the eigenbasis
    k = r @ q.T
    l = r @ core @ r.T
    grad = 0.5 * mu * (inst.sig2 * k.diagonal() - l.diagonal())
    return value, grad, mu * k * l - 0.5 * mu * (inst.sig2[:, None] + inst.sig2) * k * k


def _rls_trace_inverse(inst, p, derivs=False):
    """Tr[M(p)^-1], M(p) = U^T diag(p / sigma^2) U, inf where M(p) is singular;
    with ``derivs`` (value, gradient, Hessian).  It is convex."""
    vals, vecs = inst.spectrum(p, rls=True)
    if _singular(vals):
        return math.inf
    value = float((1.0 / vals).sum())
    if not derivs:
        return value
    q = (inst.u @ vecs) / np.sqrt(inst.sig2)[:, None]
    k1 = (q / vals) @ q.T                   # u_i^T M^{-1} u_j / (sigma_i sigma_j)
    k2 = (q / vals ** 2) @ q.T
    return value, -k2.diagonal().copy(), 2.0 * k1 * k2


def _msd_bound(inst, p, mu):
    """:func:`lms_msd_upper_bound` at the evaluator's point p, Tr G(p) = g_lin @ p."""
    vals = inst.spectrum(p)[0]
    if _singular(vals):
        return math.inf
    return 0.5 * mu * float(inst.g_lin @ p) / float(vals[0])


def _step_bound(inst, p):
    """:func:`lms_step_bound` at the evaluator's point p."""
    vals, vecs = inst.spectrum(p)
    if _singular(vals):
        return 0.0
    a, c = np.triu_indices(vals.shape[0])
    total = vals[a] + vals[c]
    q = inst.u @ vecs
    w = q[:, a] * q[:, c] * np.where(a == c, 1.0, math.sqrt(2.0)) / np.sqrt(total)
    m = (w.T * (p * (1.0 - p))) @ w
    m[np.diag_indices_from(m)] += vals[a] * vals[c] / total
    return 1.0 / float(np.linalg.eigvalsh(m)[-1])


def _lms_point(p: SamplingProbabilities, mu: float, noise: NoiseModel, b: Bandlimit):
    """The checked evaluator of p and its LMS MSD; ReconstructabilityError where H(p) is singular."""
    _check_step(mu)
    inst = _point(p, noise, b)
    msd = _lms_msd(inst, p.probs, mu)
    if msd == math.inf:
        raise ReconstructabilityError("lms_msd_theory: expected sampling pattern is rank "
                                      "deficient; increase the probabilities or shrink the bandlimit")
    return inst, msd


def _check_step(mu: float) -> None:
    if not 0.0 < mu < math.inf:
        raise ValueError("step size must be positive and finite")


def _point(p: SamplingProbabilities, noise: NoiseModel, b: Bandlimit) -> _Instance:
    """The evaluator of p, once p and the noise model are checked to fit b."""
    if p.n != b.n or noise.n != b.n:
        raise ValueError("probabilities and noise model must match the graph size")
    return _Instance(b, noise)


# ---------------------------------------------------------------------------
# closed-form theory

def lms_step_bound(p: SamplingProbabilities, b: Bandlimit) -> float:
    """The exact mean-square stability bound: the largest mu at which
    F = E[B (x) B], B = I - mu U_F^T D U_F, has spectral radius 1.

    In the eigenbasis (lambda, Q) of H = U_F^T diag(p) U_F, with q_i = Q^T u_i
    and v_i,ab = q_ia q_ib (sqrt 2 if a != b) over the pairs a <= b, F on
    symmetric matrices is I - mu S + mu^2 (diag(lambda_a lambda_b) +
    sum_i p_i (1 - p_i) v_i v_i^T) with S = diag(lambda_a + lambda_b).  So
    F < I exactly for mu below 1 / lambda_max of S^-1/2 (...) S^-1/2, and
    there F > -I holds too.  2 / lambda_max(H) when every p_i is 0 or 1; 0
    where H is singular."""
    return _step_bound(_Instance(b), p.probs)


def lms_msd_theory(p: SamplingProbabilities, mu: float, noise: NoiseModel, b: Bandlimit) -> float:
    """Small-step steady-state MSD prediction
    (mu/2) Tr[H^{-1} U_F^T diag(p) C_v U_F]; reduces to (mu/2) |F| sigma^2
    under white noise and full-rank expected sampling."""
    return _lms_point(p, mu, noise, b)[1]


def lms_msd_upper_bound(p: SamplingProbabilities, mu: float, noise: NoiseModel, b: Bandlimit) -> float:
    """Convexity-friendly upper bound (mu/2) Tr(G) / lambda_min(H) >= MSD, inf
    where H is singular."""
    _check_step(mu)
    return _msd_bound(_point(p, noise, b), p.probs, mu)


def lms_rate_theory(p: SamplingProbabilities, mu: float, b: Bandlimit) -> float:
    """Per-iteration geometric convergence factor 1 - 2 mu lambda_min(H),
    accurate in the small-step regime mu << 2 lambda_min / lambda_max^2; for
    larger steps it understates the true factor."""
    _check_step(mu)
    return 1.0 - 2.0 * mu * reconstructability_lambda(p, b)


def lms_theory_report(p: SamplingProbabilities, mu: float, noise: NoiseModel, b: Bandlimit) -> dict:
    """theory.csv's LMS rows, in order, from one evaluator of p."""
    inst, msd = _lms_point(p, mu, noise, b)
    return {"msd_linear": msd, "msd_db": 10.0 * math.log10(msd),
            "convergence_rate": 1.0 - 2.0 * mu * inst.lam_min(p.probs),
            "step_bound": _step_bound(inst, p.probs)}


def rls_msd_theory(p: SamplingProbabilities, beta: float, noise: NoiseModel, b: Bandlimit) -> float:
    """Steady-state MSD prediction
    ((1-beta)/(1+beta)) Tr[(U_F^T diag(p) C_v^{-1} U_F)^{-1}]."""
    if not 0.0 < beta < 1.0:
        raise ValueError("forgetting factor must lie in (0, 1)")
    trace = _rls_trace_inverse(_point(p, noise, b), p.probs)
    if trace == math.inf:
        raise ReconstructabilityError("rls_msd_theory: expected sampling pattern is rank deficient")
    return (1.0 - beta) / (1.0 + beta) * trace


def rls_theory_report(p: SamplingProbabilities, beta: float, noise: NoiseModel, b: Bandlimit) -> dict:
    """theory.csv's RLS rows, in order."""
    msd = rls_msd_theory(p, beta, noise, b)
    return {"msd_linear": msd, "msd_db": 10.0 * math.log10(msd)}
