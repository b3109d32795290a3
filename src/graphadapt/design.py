"""Sampling-probability design solvers.

Four programs over the box of per-vertex sampling probabilities:

* rate-constrained minimal sampling via a convex upper bound on the MSD
  (``solve_min_rate_convex``) and its successive-convex-approximation
  refinement on the exact MSD (``sca_min_rate``);
* MSD-minimal sampling under a rate constraint and a budget, solved either
  through the fractional bound program (``dinkelbach_min_msd``) or by SCA on
  the exact MSD (``sca_min_msd``);
* the recursive-least-squares analogue (``solve_rls_design``), which is
  convex outright.

All inner convex problems are solved by a projected subgradient method with
exact-penalty constraint handling and diminishing steps; box (and budget)
constraints are enforced by exact projection.  Scaling along the ray t*p is
exploited wherever the constraint functions are positively homogeneous: it
maps any iterate onto the active constraint surface in closed form, which is
what lets a subgradient method hit the tight tolerances below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

try:  # the LAPACK gufunc behind np.linalg.eigh: private, so only if present
    from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo
except ImportError:
    _eigh_lo = None

from .graphs import Bandlimit
from .sampling import NoiseModel, SamplingProbabilities, ReconstructabilityError

TRUNCATE_TOL = 1e-9
FEAS_TOL = 1e-6


class InfeasibleDesignError(ValueError):
    """No probability vector in the box satisfies the requested constraints."""

    def __init__(self, message, max_achievable_lambda=None, min_achievable_msd=None):
        super().__init__(message)
        self.max_achievable_lambda = max_achievable_lambda
        self.min_achievable_msd = min_achievable_msd


@dataclass(frozen=True)
class DesignSpec:
    """Problem data shared by the design solvers.

    ``mu`` is required by the rate/MSD programs, ``beta`` by the RLS
    program; ``rate_target`` is the admissible convergence factor, so the
    induced floor on lambda_min is (1 - rate_target) / (2 mu).  ``budget``
    caps sum(p); ``bounds`` caps each entry (scalar or per-vertex).
    """

    bandlimit: Bandlimit
    noise: NoiseModel
    mu: float = None
    beta: float = None
    rate_target: float = None
    msd_target: float = None
    budget: float = None
    bounds: object = None

    def __post_init__(self):
        if self.noise.n != self.bandlimit.n:
            raise ValueError("noise model must match the graph size")
        if self.mu is not None and self.mu <= 0:
            raise ValueError("step size mu must be positive")
        if self.beta is not None and not 0.0 < self.beta < 1.0:
            raise ValueError("forgetting factor beta must lie in (0, 1)")
        if self.rate_target is not None and not 0.0 < self.rate_target < 1.0:
            raise ValueError("rate target must lie in (0, 1)")
        if self.msd_target is not None and self.msd_target <= 0:
            raise ValueError("MSD target must be positive")
        ub = self.bounds
        if ub is None:
            ub = np.ones(self.bandlimit.n)
        elif np.isscalar(ub):
            ub = np.full(self.bandlimit.n, float(ub))
        else:
            ub = np.asarray(ub, dtype=float)
            if ub.shape != (self.bandlimit.n,):
                raise ValueError("bounds must be a scalar or a length-n vector")
        if (ub < 0).any() or (ub > 1).any():
            raise ValueError("bounds must lie in [0, 1]")
        object.__setattr__(self, "bounds", ub)
        if self.budget is not None:
            if not 0.0 <= self.budget <= ub.sum() + 1e-12:
                raise ValueError("budget must lie in [0, sum(bounds)]")

    def lambda_target(self) -> float:
        if self.rate_target is None or self.mu is None:
            raise ValueError("rate_target and mu are required for this problem")
        return (1.0 - self.rate_target) / (2.0 * self.mu)


@dataclass
class SolverTrace:
    """Recorded iterates of one solver run.

    ``points[k]`` is the k-th recorded probability vector with matching
    ``objectives``, ``residuals`` (max constraint violation, 0 = feasible)
    and ``msd_values``; ``iterations`` equals ``len(points) - 1``.
    """

    points: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    msd_values: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0

    def record(self, p, objective, residual, msd):
        self.points.append(np.asarray(p, dtype=float).copy())
        self.objectives.append(float(objective))
        self.residuals.append(float(residual))
        self.msd_values.append(float(msd))
        self.iterations = len(self.points) - 1


# ---------------------------------------------------------------------------
# shared evaluation plumbing

def _eigh(m):
    """``np.linalg.eigh(m)`` for one real symmetric matrix: the same LAPACK
    gufunc and the same bits, without the wrapper's per-call type checks and
    error-state switch, which on the f x f Grams here cost about as much as
    the decomposition.  Non-convergence comes back as NaN and raises as in
    ``np.linalg.eigh``, after numpy's invalid-value warning.  A numpy without
    the gufunc gets the wrapper itself."""
    if _eigh_lo is None:
        return np.linalg.eigh(m)
    vals, vecs = _eigh_lo(m, signature="d->dd")
    if math.isnan(vals[0]):
        raise LinAlgError("Eigenvalues did not converge")
    return vals, vecs


class _Instance:
    def __init__(self, b: Bandlimit, noise: NoiseModel, ub: np.ndarray):
        self.u = b.basis_slice
        self.n, self.f = self.u.shape
        self.ub = ub
        self.sig2 = noise.variances
        self.row2 = (self.u ** 2).sum(axis=1)
        self.g_lin = self.sig2 * self.row2     # gradient of Tr G(p)
        self.m_lin = self.row2 / self.sig2     # gradient of Tr M(p), RLS program

    def gram(self, w):
        m = self.u.T @ (w[:, None] * self.u)
        return (m + m.T) / 2.0

    def h_eig(self, p):
        return _eigh(self.gram(p))

    def tr_g(self, p):
        return float(self.g_lin @ p)

    def exact_msd(self, p, mu):
        vals, vecs = self.h_eig(p)
        if vals[0] <= 1e-12 * max(vals[-1], 1.0):
            return math.inf
        core = vecs.T @ self.gram(p * self.sig2) @ vecs
        return 0.5 * mu * float((np.diag(core) / vals).sum())


def _as_probs(p, n):
    if isinstance(p, SamplingProbabilities):
        arr = p.probs
    else:
        arr = np.asarray(p, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"expected a length-{n} probability vector")
    return arr


def msd_gradient(p, mu, noise: NoiseModel, b: Bandlimit) -> np.ndarray:
    """Gradient of the steady-state MSD prediction with respect to p.

    Component i is (mu/2) [sigma_i^2 u_i^T H^{-1} u_i - u_i^T H^{-1} G H^{-1} u_i].
    """
    if mu <= 0:
        raise ValueError("step size mu must be positive")
    probs = _as_probs(p, b.n)
    inst = _Instance(b, noise, np.ones(b.n))
    vals, vecs = inst.h_eig(probs)
    if vals[0] <= 1e-12 * max(vals[-1], 1.0):
        raise ReconstructabilityError(
            f"msd_gradient: Gram matrix is singular (lambda_min = {vals[0]:.3e})"
        )
    k = vecs @ ((vecs.T @ inst.u.T) / vals[:, None])       # H^{-1} U_F^T
    g = inst.gram(probs * inst.sig2)
    t1 = inst.sig2 * np.einsum("nf,fn->n", inst.u, k)
    t2 = np.einsum("fn,fg,gn->n", k, g, k)
    return 0.5 * mu * (t1 - t2)


def lambda_min_subgradient(p, b: Bandlimit) -> np.ndarray:
    """Supergradient of lambda_min(U_F^T diag(p) U_F): component i is
    (v^T u_i)^2 for a unit eigenvector v of the smallest eigenvalue."""
    probs = _as_probs(p, b.n)
    inst = _Instance(b, NoiseModel.uniform(b.n, 1.0), np.ones(b.n))
    _, vecs = inst.h_eig(probs)
    return (inst.u @ vecs[:, 0]) ** 2


def sca_msd_surrogate(p, anchor, mu, noise: NoiseModel, b: Bandlimit, tau: float = 1e-6):
    """Partially linearized MSD surrogate used by :func:`sca_min_msd`.

    Returns (value, gradient) at ``p`` for the anchor point ``z``:
    (tau/2)||p-z||^2 + (mu/2) Tr[H(z)^{-1} G(p)] + (mu/2) Tr[H(p)^{-1} G(z)].
    At p = z the value is exactly twice the MSD and the gradient coincides
    with :func:`msd_gradient`.
    """
    probs = _as_probs(p, b.n)
    z = _as_probs(anchor, b.n)
    inst = _Instance(b, noise, np.ones(b.n))
    vals_z, vecs_z = inst.h_eig(z)
    floor_z = 1e-12 * max(vals_z[-1], 1.0)
    if vals_z[0] <= floor_z:
        raise ReconstructabilityError("sca_msd_surrogate: singular Gram at the anchor")
    kz = vecs_z @ ((vecs_z.T @ inst.u.T) / vals_z[:, None])
    lin = 0.5 * mu * inst.sig2 * np.einsum("nf,fn->n", inst.u, kz)
    g_z = inst.gram(z * inst.sig2)

    vals, vecs = inst.h_eig(probs)
    vals_f = np.maximum(vals, 1e-12 * max(vals[-1], 1.0))
    core = vecs.T @ g_z @ vecs
    val2 = 0.5 * mu * float((np.diag(core) / vals_f).sum())
    k = vecs @ ((vecs.T @ inst.u.T) / vals_f[:, None])
    grad2 = -0.5 * mu * np.einsum("fn,fg,gn->n", k, g_z, k)

    d = probs - z
    value = 0.5 * tau * float(d @ d) + float(lin @ probs) + val2
    gradient = tau * d + lin + grad2
    return value, gradient


# ---------------------------------------------------------------------------
# projected subgradient engine

@dataclass
class _Eval:
    obj: float
    grad: np.ndarray
    viols: tuple = ()
    vgrads: tuple = ()
    polished: tuple = None      # (point, objective, residual), already projected


@dataclass
class _SubgradResult:
    p: np.ndarray
    obj: float
    found: bool
    fallback: np.ndarray
    fallback_viol: float
    iterations: int


def _project(p, ub, budget):
    q = np.minimum(np.maximum(p, 0.0), ub)
    if budget is None or q.sum() <= budget + 1e-12:
        return q
    # Bisection on the shift, at most 80 steps.  A step that leaves (lo, hi)
    # unchanged leaves every later step unchanged too, so stopping there
    # returns exactly the 80-step result.  q is the predicate's buffer.
    lo, hi = 0.0, float(p.max(initial=0.0))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        np.subtract(p, mid, out=q)
        np.maximum(q, 0.0, out=q)
        np.minimum(q, ub, out=q)
        if q.sum() > budget:
            if lo == mid:
                break
            lo = mid
        elif hi == mid:
            break
        else:
            hi = mid
    return np.minimum(np.maximum(p - hi, 0.0), ub)


def _subgrad_minimize(evaluate, p0, ub, *, budget=None, iters=10_000,
                      step_a=2.0, step_b=25.0, penalty=200.0,
                      stall_limit=None, stop_below=None, seeds=(),
                      recorder=None, record_every=None) -> _SubgradResult:
    best_p, best_obj = None, math.inf
    least_p, least_viol = None, math.inf

    def consider(q, obj_q, viol_q):
        nonlocal best_p, best_obj, least_p, least_viol
        improved = False
        if viol_q <= FEAS_TOL and obj_q < best_obj - 1e-14:
            best_p, best_obj = np.array(q, dtype=float), float(obj_q)
            improved = True
        if viol_q < least_viol:
            least_p, least_viol = np.array(q, dtype=float), float(viol_q)
        return improved

    def max_viol(ev):
        return max([max(v, 0.0) for v in ev.viols], default=0.0)

    for q in seeds:
        q = _project(np.asarray(q, dtype=float), ub, budget)
        ev = evaluate(q)
        consider(q, ev.obj, max_viol(ev))
        if ev.polished is not None:
            consider(*ev.polished)

    p = _project(np.asarray(p0, dtype=float), ub, budget)
    since_improve = 0
    done = 0
    for k in range(iters):
        done = k + 1
        ev = evaluate(p)
        viol = max_viol(ev)
        improved = consider(p, ev.obj, viol)
        if ev.polished is not None:
            improved = consider(*ev.polished) or improved
        since_improve = 0 if improved else since_improve + 1
        if recorder is not None and record_every and k % record_every == 0:
            recorder(best_p if best_p is not None else p,
                     best_obj if best_p is not None else ev.obj,
                     0.0 if best_p is not None else viol)
        if stop_below is not None and best_obj < stop_below:
            break
        if stall_limit and since_improve >= stall_limit and best_p is not None:
            break
        g = ev.grad
        for v, vg in zip(ev.viols, ev.vgrads):
            if v > 0.0:
                g = g + penalty * vg
        norm = math.sqrt(float(g @ g))
        if norm < 1e-15:
            break
        p = _project(p - (step_a / (step_b + k)) * (g / norm), ub, budget)
    return _SubgradResult(best_p, best_obj, best_p is not None,
                          least_p, least_viol, done)


def _solve_penalized(evaluate, p0, ub, **kw):
    penalty = kw.pop("penalty", 200.0)
    start = np.asarray(p0, dtype=float)
    res = None
    for _ in range(4):
        res = _subgrad_minimize(evaluate, start, ub, penalty=penalty, **kw)
        if res.found:
            return res
        if res.fallback is not None:
            start = res.fallback
        penalty *= 10.0
    return res


def _truncate(p):
    out = np.array(p, dtype=float)
    out[out < TRUNCATE_TOL] = 0.0
    return out


def _rate_polish(p, inst, lam_t):
    """Scale the final iterate exactly onto the rate floor.

    The Gram matrix is linear in p, so lambda_min scales with it; the inner
    loop only guarantees feasibility up to FEAS_TOL, and this removes that
    slack whenever the box allows the scaling."""
    if lam_t <= 0.0:
        return p
    lam = float(np.linalg.eigvalsh(inst.gram(p))[0])
    if lam <= 0.0:
        return p
    scaled = (lam_t / lam) * p
    if (scaled <= inst.ub + 1e-15).all():
        return np.minimum(scaled, inst.ub)
    return p


# ---------------------------------------------------------------------------
# rate-constrained minimal sampling (convex bound formulation)

def _min_rate_evaluate(inst, lam_t, mu, gamma):
    ones = np.ones(inst.n)
    half_mu = 0.5 * mu
    bound_lin = half_mu * inst.g_lin
    ub_tol = inst.ub + 1e-15
    ub_min = inst.ub.min(initial=1.0)

    def evaluate(p):
        vals, vecs = inst.h_eig(p)
        lam = float(vals[0])
        gsub = inst.u @ vecs[:, 0]
        gsub *= gsub
        c_bound = half_mu * inst.tr_g(p) - gamma * lam
        polished = None
        if lam > 1e-15:
            t = lam_t / lam
            tp = t * p
            if t * p.max(initial=0.0) <= ub_min or (tp <= ub_tol).all():
                q = np.minimum(tp, inst.ub)
                polished = (q, float(q.sum()), max(t * c_bound, 0.0))
        elif lam_t == 0.0:
            polished = (np.zeros(inst.n), 0.0, 0.0)
        return _Eval(obj=float(p.sum()), grad=ones, viols=(lam_t - lam, c_bound),
                     vgrads=(-gsub, bound_lin - gamma * gsub), polished=polished)

    return evaluate


def solve_min_rate_convex(spec: DesignSpec, iters: int = 10_000):
    """Minimize sum(p) subject to a convergence-rate floor and the convex
    MSD upper-bound constraint (mu/2) Tr(G(p)) <= gamma * lambda_min(H(p)).

    Returns the designed probabilities and the solver trace.  Raises
    :class:`InfeasibleDesignError` when even the box ceiling cannot meet the
    constraints; the error carries the maximal achievable lambda_min.
    """
    if spec.mu is None or spec.rate_target is None or spec.msd_target is None:
        raise ValueError("solve_min_rate_convex needs mu, rate_target and msd_target")
    inst = _Instance(spec.bandlimit, spec.noise, spec.bounds)
    lam_t = spec.lambda_target()
    gamma = spec.msd_target
    lam_ceiling = float(np.linalg.eigvalsh(inst.gram(inst.ub))[0])
    if lam_ceiling < lam_t - 1e-12:
        raise InfeasibleDesignError(
            f"rate target unreachable: lambda_min at the box ceiling is "
            f"{lam_ceiling:.6g} < required {lam_t:.6g}",
            max_achievable_lambda=lam_ceiling,
        )

    evaluate = _min_rate_evaluate(inst, lam_t, spec.mu, gamma)

    # locate a point satisfying the bound constraint if the ceiling violates it
    start = inst.ub.copy()
    ev0 = evaluate(start)
    if ev0.viols[1] > 0.0:
        def feas_eval(p):
            ev = evaluate(p)
            return _Eval(obj=ev.viols[1], grad=ev.vgrads[1],
                         viols=(ev.viols[0],), vgrads=(ev.vgrads[0],))
        probe = _solve_penalized(feas_eval, start, inst.ub,
                                 iters=4000, stall_limit=1500, stop_below=-1e-9)
        if not probe.found or probe.obj > 0.0:
            raise InfeasibleDesignError(
                "MSD bound target unreachable anywhere in the box "
                f"(best residual {probe.obj if probe.found else probe.fallback_viol:.3e}); "
                f"maximal achievable lambda_min is {lam_ceiling:.6g}",
                max_achievable_lambda=lam_ceiling,
            )
        start = probe.p

    trace = SolverTrace()

    def recorder(p, obj, viol):
        trace.record(p, obj, viol, inst.exact_msd(p, spec.mu))

    res = _solve_penalized(evaluate, start, inst.ub, iters=iters,
                           stall_limit=2500, recorder=recorder, record_every=100)
    if not res.found:
        raise InfeasibleDesignError(
            f"no feasible design found (best residual {res.fallback_viol:.3e}); "
            f"maximal achievable lambda_min is {lam_ceiling:.6g}",
            max_achievable_lambda=lam_ceiling,
        )
    final = _rate_polish(_truncate(res.p), inst, lam_t)
    trace.record(final, final.sum(), 0.0, inst.exact_msd(final, spec.mu))
    trace.converged = True
    return SamplingProbabilities(probs=final, bounds=inst.ub), trace


# ---------------------------------------------------------------------------
# SCA refinement of the rate-constrained program on the exact MSD

def _gamma_steps(step_schedule):
    if step_schedule is None:
        step_schedule = (1.0, 0.001)
    if callable(step_schedule):
        k = 0
        while True:
            yield float(step_schedule(k))
            k += 1
    elif isinstance(step_schedule, tuple) and len(step_schedule) == 2:
        gamma, eta = float(step_schedule[0]), float(step_schedule[1])
        while True:
            yield gamma
            gamma = gamma * (1.0 - eta * gamma)
    else:
        seq = [float(g) for g in step_schedule]
        yield from seq
        while True:
            yield seq[-1]


def sca_min_rate(spec: DesignSpec, tau: float = 1e-6, step_schedule=None,
                 initial=None, max_outer: int = 500):
    """Successive convex approximation on the exact MSD constraint.

    Starting from a point feasible for the true constraints (by default the
    output of :func:`solve_min_rate_convex`), each round minimizes
    sum(p) + (tau/2)||p - p_k||^2 over a quadratic majorizer of the MSD
    around p_k (curvature found by doubling until the majorization holds at
    the trial point) and moves by a diminishing convex-combination step.
    The objective never increases, so the result refines the convex design.
    """
    if spec.mu is None or spec.rate_target is None or spec.msd_target is None:
        raise ValueError("sca_min_rate needs mu, rate_target and msd_target")
    inst = _Instance(spec.bandlimit, spec.noise, spec.bounds)
    lam_t = spec.lambda_target()
    gamma_msd = spec.msd_target
    mu = spec.mu

    if initial is None:
        p, _ = solve_min_rate_convex(spec)
        p = p.probs.copy()
    else:
        p = _as_probs(initial, inst.n).copy()
        lam0 = float(np.linalg.eigvalsh(inst.gram(p))[0])
        if lam0 < lam_t - 1e-9 or inst.exact_msd(p, mu) > gamma_msd + 1e-9:
            raise InfeasibleDesignError("sca_min_rate: initial point is infeasible")

    ones = np.ones(inst.n)
    trace = SolverTrace()

    def residual(q):
        lam = float(np.linalg.eigvalsh(inst.gram(q))[0])
        return max(lam_t - lam, 0.0, inst.exact_msd(q, mu) - gamma_msd)

    trace.record(p, p.sum(), residual(p), inst.exact_msd(p, mu))
    gammas = _gamma_steps(step_schedule)
    curvature = 1.0
    converged = False
    stall = 0
    for _ in range(max_outer):
        z = p.copy()
        msd_z = inst.exact_msd(z, mu)
        grad_z = msd_gradient(z, mu, spec.noise, spec.bandlimit)

        p_hat = None
        for _ in range(60):
            big_l = curvature

            def evaluate(q, big_l=big_l):
                d = q - z
                dd = float(d @ d)
                vals, vecs = inst.h_eig(q)
                lam = float(vals[0])
                gsub = inst.u @ vecs[:, 0]
                gsub *= gsub
                ball = msd_z + float(grad_z @ d) + 0.5 * big_l * dd - gamma_msd
                return _Eval(
                    obj=float(q.sum()) + 0.5 * tau * dd,
                    grad=ones + tau * d,
                    viols=(lam_t - lam, ball),
                    vgrads=(-gsub, grad_z + big_l * d),
                )

            res = _subgrad_minimize(evaluate, z, inst.ub, iters=1500,
                                    step_a=0.8, step_b=15.0,
                                    stall_limit=400, seeds=(z,))
            cand = res.p if res.found else z
            d = cand - z
            surrogate = msd_z + float(grad_z @ d) + 0.5 * curvature * float(d @ d)
            if inst.exact_msd(cand, mu) <= surrogate + 1e-12:
                p_hat = cand
                break
            curvature *= 2.0
        if p_hat is None:
            p_hat = z

        step = next(gammas)
        p_next = np.clip(z + step * (p_hat - z), 0.0, inst.ub)
        trace.record(p_next, p_next.sum(), residual(p_next), inst.exact_msd(p_next, mu))
        move = float(np.abs(p_next - z).max(initial=0.0))
        inner_move = float(np.abs(p_hat - z).max(initial=0.0))
        p = p_next
        if move < 1e-7:
            converged = True
            break
        # subgradient noise in the inner solves keeps the literal 1e-7 test
        # from firing on some instances; a persistent fixed point is as good
        stall = stall + 1 if inner_move < 1e-6 else 0
        if stall >= 10:
            converged = True
            break
    # the exact MSD is scale-invariant in p, so snapping onto the rate floor
    # keeps the second constraint intact
    final = _rate_polish(_truncate(p), inst, lam_t)
    trace.record(final, final.sum(), residual(final), inst.exact_msd(final, mu))
    trace.converged = converged and trace.residuals[-1] <= FEAS_TOL
    return SamplingProbabilities(probs=final, bounds=inst.ub), trace


# ---------------------------------------------------------------------------
# MSD-minimal sampling under rate and budget constraints

def _feasible_in_c(inst, lam_t, budget, initial):
    seeds = []
    if initial is not None:
        seeds.append(_as_probs(initial, inst.n))
    ceiling = inst.ub.copy()
    if budget is not None and ceiling.sum() > budget:
        ceiling = _project(ceiling * (budget / ceiling.sum()), inst.ub, budget)
    seeds.append(ceiling)
    for q in seeds:
        lam = float(np.linalg.eigvalsh(inst.gram(q))[0])
        if lam >= lam_t - 1e-12:
            return q, lam
    # push lambda_min up by supergradient ascent inside box and budget

    def evaluate(p):
        vals, vecs = inst.h_eig(p)
        gsub = inst.u @ vecs[:, 0]
        gsub *= gsub
        return _Eval(obj=-float(vals[0]), grad=-gsub)

    res = _subgrad_minimize(evaluate, ceiling, inst.ub, budget=budget,
                            iters=3000, stall_limit=800,
                            stop_below=-(lam_t + 1e-9))
    best_lam = -res.obj if res.found else 0.0
    if best_lam < lam_t - 1e-12:
        raise InfeasibleDesignError(
            f"rate target unreachable under the budget: best achievable "
            f"lambda_min is {best_lam:.6g} < required {lam_t:.6g}",
            max_achievable_lambda=best_lam,
        )
    return res.p, best_lam


def dinkelbach_min_msd(spec: DesignSpec, initial=None, max_outer: int = 60,
                       inner_iters: int = 3000):
    """Minimize the MSD upper bound Tr(G(p)) / lambda_min(H(p)) over the
    rate-and-budget feasible set by Dinkelbach's parametric method.

    Each round minimizes h(p, w) = Tr(G(p)) - w * lambda_min(H(p)) and
    updates w to the new ratio; w is nonincreasing and the loop stops when
    |h| < 1e-8.  The recorded objective is the bound value (mu/2) * ratio.
    """
    if spec.mu is None or spec.rate_target is None:
        raise ValueError("dinkelbach_min_msd needs mu and rate_target")
    inst = _Instance(spec.bandlimit, spec.noise, spec.bounds)
    lam_t = spec.lambda_target()
    budget = spec.budget
    mu = spec.mu

    p, _ = _feasible_in_c(inst, lam_t, budget, initial)
    p = np.asarray(p, dtype=float)

    def ratio(q):
        lam = float(np.linalg.eigvalsh(inst.gram(q))[0])
        return inst.tr_g(q) / lam, lam

    trace = SolverTrace()

    def record(q):
        r, lam = ratio(q)
        trace.record(q, 0.5 * mu * r, max(lam_t - lam, 0.0), inst.exact_msd(q, mu))

    record(p)
    converged = False
    omega, _ = ratio(p)
    for _ in range(max_outer):
        def evaluate(q, omega=omega):
            vals, vecs = inst.h_eig(q)
            lam = float(vals[0])
            gsub = inst.u @ vecs[:, 0]
            gsub *= gsub
            h_val = inst.tr_g(q) - omega * lam
            polished = None
            if lam > 1e-15:
                live = q > 1e-15
                total = q.sum()
                t_hi = min((inst.ub[live] / q[live]).min(initial=math.inf),
                           math.inf if budget is None or total < 1e-15
                           else budget / total)
                t = t_hi if h_val < 0 else max(lam_t / lam, 0.0)
                if math.isfinite(t) and t > 0:
                    qq = _project(t * q, inst.ub, budget)
                    lam_q = t * lam
                    polished = (qq, t * h_val, max(lam_t - lam_q, 0.0))
            return _Eval(obj=h_val, grad=inst.g_lin - omega * gsub,
                         viols=(lam_t - lam,), vgrads=(-gsub,),
                         polished=polished)

        res = _solve_penalized(evaluate, p, inst.ub, budget=budget,
                               iters=inner_iters, stall_limit=800, seeds=(p,))
        if not res.found:
            break
        p = res.p
        record(p)
        h_val = res.obj
        if abs(h_val) < 1e-8:
            converged = True
            break
        new_omega, _ = ratio(p)
        if new_omega >= omega - 1e-15:
            converged = True
            break
        omega = new_omega
    final = _truncate(p)
    record(final)
    trace.converged = converged
    return SamplingProbabilities(probs=final, bounds=inst.ub), trace


def sca_min_msd(spec: DesignSpec, tau: float = 1e-6, step_schedule=None,
                initial=None, max_outer: int = 500, inner_iters: int = 1200):
    """Minimize the exact MSD over the rate-and-budget feasible set by
    successive convex approximation with the partially linearized surrogate
    of :func:`sca_msd_surrogate` and diminishing convex-combination steps."""
    if spec.mu is None or spec.rate_target is None:
        raise ValueError("sca_min_msd needs mu and rate_target")
    inst = _Instance(spec.bandlimit, spec.noise, spec.bounds)
    lam_t = spec.lambda_target()
    budget = spec.budget
    mu = spec.mu

    p, _ = _feasible_in_c(inst, lam_t, budget, initial)
    p = np.asarray(p, dtype=float)

    trace = SolverTrace()

    def record(q):
        lam = float(np.linalg.eigvalsh(inst.gram(q))[0])
        msd = inst.exact_msd(q, mu)
        trace.record(q, msd, max(lam_t - lam, 0.0), msd)

    record(p)
    gammas = _gamma_steps(step_schedule)
    converged = False
    stall = 0
    budget_slack = math.inf if budget is None else budget
    half_mu = 0.5 * mu
    for outer in range(max_outer):
        z = p.copy()
        vals_z, vecs_z = inst.h_eig(z)
        kz = vecs_z @ ((vecs_z.T @ inst.u.T) / np.maximum(vals_z, 1e-15)[:, None])
        lin = 0.5 * mu * inst.sig2 * np.einsum("nf,fn->n", inst.u, kz)
        g_z = inst.gram(z * inst.sig2)

        def evaluate(q):
            d = q - z
            vals, vecs = inst.h_eig(q)
            lam = float(vals[0])
            vals_f = np.maximum(vals, 1e-12 * max(vals[-1], 1.0))
            gsub = inst.u @ vecs[:, 0]
            gsub *= gsub
            core = vecs.T @ g_z @ vecs
            val2 = half_mu * float((core.diagonal() / vals_f).sum())
            k = vecs.T @ inst.u.T
            k /= vals_f[:, None]
            k = vecs @ k
            grad2 = np.einsum("fn,fg,gn->n", k, g_z, k)
            grad2 *= -half_mu
            grad = tau * d
            grad += lin
            grad += grad2
            return _Eval(
                obj=0.5 * tau * float(d @ d) + float(lin @ q) + val2,
                grad=grad,
                viols=(lam_t - lam,),
                vgrads=(-gsub,),
            )

        res = _subgrad_minimize(
            evaluate, z, inst.ub, budget=budget,
            iters=inner_iters if outer < 2 else max(400, inner_iters // 3),
            step_a=0.8, step_b=15.0, stall_limit=300, seeds=(z,))
        p_hat = res.p if res.found else z

        step = next(gammas)
        p_next = np.clip(z + step * (p_hat - z), 0.0, inst.ub)
        if p_next.sum() > budget_slack:
            p_next = _project(p_next, inst.ub, budget)
        record(p_next)
        move = float(np.abs(p_next - z).max(initial=0.0))
        inner_move = float(np.abs(p_hat - z).max(initial=0.0))
        p = p_next
        if move < 1e-7:
            converged = True
            break
        stall = stall + 1 if inner_move < 1e-6 else 0
        if stall >= 10:
            converged = True
            break
    final = _truncate(p)
    record(final)
    trace.converged = converged
    return SamplingProbabilities(probs=final, bounds=inst.ub), trace


# ---------------------------------------------------------------------------
# RLS sampling design (convex)

def solve_rls_design(spec: DesignSpec, iters: int = 10_000):
    """Minimize sum(p) subject to the RLS steady-state MSD target:
    Tr[(U_F^T diag(p) C_v^{-1} U_F)^{-1}] <= gamma (1+beta)/(1-beta).

    Raises :class:`InfeasibleDesignError` when the target is unreachable
    even at the box ceiling; the error carries the minimum achievable MSD.
    """
    if spec.beta is None or spec.msd_target is None:
        raise ValueError("solve_rls_design needs beta and msd_target")
    inst = _Instance(spec.bandlimit, spec.noise, spec.bounds)
    beta = spec.beta
    scale = (1.0 - beta) / (1.0 + beta)
    t_target = spec.msd_target / scale

    def trace_inv(p):
        vals, vecs = _eigh(inst.gram(p / inst.sig2))
        floor = 1e-14 * max(vals[-1], 1.0)
        vals_f = np.maximum(vals, floor)
        t = float((1.0 / vals_f).sum())
        w = inst.u @ vecs
        w *= w
        w /= vals_f * vals_f
        grad = -w.sum(axis=1)
        grad /= inst.sig2
        return t, grad, float(vals[0])

    t_ceiling, _, lam_ceiling = trace_inv(inst.ub)
    if lam_ceiling <= 0.0 or t_ceiling > t_target + 1e-12:
        raise InfeasibleDesignError(
            f"MSD target unreachable: minimum achievable MSD is "
            f"{scale * t_ceiling:.6g} > requested {spec.msd_target:.6g}",
            min_achievable_msd=scale * t_ceiling,
        )

    ones = np.ones(inst.n)
    ub_tol = inst.ub + 1e-15

    def evaluate(p):
        t, grad, _ = trace_inv(p)
        c = t - t_target
        polished = None
        if t < math.inf and t > 0.0:
            ratio = t / t_target
            q = ratio * p
            if (q <= ub_tol).all():
                polished = (np.minimum(q, inst.ub), float(q.sum()), 0.0)
        return _Eval(obj=float(p.sum()), grad=ones,
                     viols=(c,), vgrads=(grad,), polished=polished)

    trace = SolverTrace()

    def recorder(p, obj, viol):
        t, _, lam = trace_inv(p)
        trace.record(p, obj, viol, scale * t if lam > 0 else math.nan)

    res = _solve_penalized(evaluate, inst.ub, inst.ub, iters=iters,
                           stall_limit=2500, recorder=recorder, record_every=100)
    if not res.found:
        raise InfeasibleDesignError(
            f"no feasible design found (best residual {res.fallback_viol:.3e})",
            min_achievable_msd=scale * t_ceiling,
        )
    final = _truncate(res.p)
    t_fin, _, lam_fin = trace_inv(final)
    if lam_fin > 0.0 and math.isfinite(t_fin):
        # trace-inverse scales as 1/t in p, so this lands exactly on target
        scaled = (t_fin / t_target) * final
        if (scaled <= inst.ub + 1e-15).all():
            final = np.minimum(scaled, inst.ub)
            t_fin, _, _ = trace_inv(final)
    trace.record(final, final.sum(), max(t_fin - t_target, 0.0), scale * t_fin)
    trace.converged = True
    return SamplingProbabilities(probs=final, bounds=inst.ub), trace
