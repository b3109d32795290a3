"""Sampling-probability design solvers.

Five programs over the box of per-vertex sampling probabilities:

* rate-constrained minimal sampling via a convex upper bound on the MSD
  (``solve_min_rate_convex``) and on the exact MSD (``sca_min_rate``);
* MSD-minimal sampling under a rate constraint and a budget, solved either
  through the fractional bound program (``dinkelbach_min_msd``) or on the
  exact MSD (``sca_min_msd``);
* the recursive-least-squares analogue (``solve_rls_design``), which is
  convex outright.

All of them run one damped-Newton log-barrier method (Boyd & Vandenberghe,
*Convex Optimization*, ch. 11; Joshi & Boyd, "Sensor selection via convex
optimization", IEEE TSP 2009).  Each constraint is either a linear matrix
inequality H(p) - l(p, s) I >= 0 with H(p) = U_F^T diag(p) U_F and l affine,
whose -log det barrier has a closed-form gradient and Hessian in the
eigenbasis of H(p), or a smooth function of p (the exact MSD, the RLS trace
inverse).  The box and the budget are barrier terms too, and a vertex whose
bound is 0 stays at 0.  A run centres by Newton steps, each accepted by a
backtracking line search on the exact barrier value, and multiplies t by 20
until the duality-gap bound m/t reaches ``GAP``, m being the degree of the
barrier.  On the convex programs that bounds the distance to the optimum.
The exact MSD is not convex.  Its Newton steps take the exact Hessian
wherever the Newton matrix is positive definite, and otherwise fall back on
the curvature mu K o L, the Schur product of K = U_F H(p)^-1 U_F^T and
L = U_F H(p)^-1 G(p) H(p)^-1 U_F^T with G(p) = U_F^T diag(p sigma^2) U_F.
Both factors are positive semidefinite, so their Schur product is too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .filters import _lms_msd, _rls_trace_inverse
from .graphs import Bandlimit
from .sampling import NoiseModel, SamplingProbabilities, leverage_scores, weighted_gram

TRUNCATE_TOL = 1e-9
GAP = 1e-9              # duality-gap bound m/t at which a barrier run stops
_T_GROWTH = 20.0        # factor on t between centerings
_CENTER_STEPS = 1000    # Newton steps per centering at most


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
        if self.mu is not None and not self.mu > 0:
            raise ValueError("step size mu must be positive")
        if self.beta is not None and not 0.0 < self.beta < 1.0:
            raise ValueError("forgetting factor beta must lie in (0, 1)")
        if self.rate_target is not None and not 0.0 < self.rate_target < 1.0:
            raise ValueError("rate target must lie in (0, 1)")
        if self.msd_target is not None and not self.msd_target > 0:
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
        if not ((ub >= 0) & (ub <= 1)).all():
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

    Entry k of ``objectives``, ``residuals`` (max constraint violation,
    0 = feasible) and ``msd_values`` belongs to the k-th recorded
    probability vector; ``iterations`` is one less than the number of
    records.  The barrier solvers record their start, every Newton step and
    the final design; Dinkelbach's method records its start, every round
    and the final design.
    """

    objectives: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    msd_values: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0

    def record(self, objective, residual, msd):
        self.objectives.append(float(objective))
        self.residuals.append(float(residual))
        self.msd_values.append(float(msd))
        self.iterations = len(self.objectives) - 1


# ---------------------------------------------------------------------------
# shared evaluation plumbing

class _Instance:
    def __init__(self, b: Bandlimit, noise: NoiseModel, ub: np.ndarray):
        self.b = b
        self.u = b.basis_slice
        self.n, self.f = self.u.shape
        self.ub = ub
        self.sig2 = noise.variances
        self.g_lin = self.sig2 * leverage_scores(b)     # gradient of Tr G(p)

    def lam_min(self, p):
        return float(np.linalg.eigvalsh(weighted_gram(self.b, p))[0])

    def tr_g(self, p):
        return float(self.g_lin @ p)


def _msd(inst, mu):
    """The exact MSD of :func:`filters._lms_msd`: inf where H(p) is
    singular, with ``derivs`` (value, gradient, Hessian, excess)."""
    return lambda p, derivs=False: _lms_msd(inst.b, inst.sig2, p, mu, derivs)


def _trace_inverse(inst):
    """Tr[(U_F^T diag(p / sigma^2) U_F)^{-1}], inf where singular."""
    return lambda p, derivs=False: _rls_trace_inverse(inst.b, inst.sig2, p, derivs)


def _truncate(p):
    out = np.array(p, dtype=float)
    out[out < TRUNCATE_TOL] = 0.0
    return out


# ---------------------------------------------------------------------------
# log-barrier Newton core

class _Barrier:
    """The log barrier of one program over x = (p, s).

    ``lmis`` holds triples (c, const, e), each the LMI
    H(p) - (c @ p + const + e s) I >= 0.  ``objective`` is a vector over
    (p, s) (a linear objective) or a smooth function of p; ``constraints``
    holds pairs (fn, bound), each a smooth function of p held strictly below
    its bound by the barrier term -log(bound - fn(p)).  A smooth function
    ``fn(p, derivs)`` returns its value, inf outside its domain, or with
    ``derivs`` the quadruple (value, gradient, Hessian, excess) over all n
    vertices: the excess is 0.0 for a convex function, else the matrix that
    lifts an indefinite Hessian to a PSD curvature.
    The scalar s exists only with ``epigraph``, which no program pairs with
    a smooth function.  A vertex with bound 0 has no box term and is pinned
    at p_i = 0 by :func:`_newton_step`.
    """

    def __init__(self, inst, lmis=(), objective=None, constraints=(), budget=None,
                 epigraph=False):
        self.inst, self.objective = inst, objective
        self.constraints, self.budget = constraints, budget
        self.pinned = np.flatnonzero(inst.ub == 0.0)
        extra = int(epigraph)
        self.u = np.vstack([inst.u, np.zeros((extra, inst.f))])
        self.lmis = [(np.append(c, [e] * extra), const) for c, const, e in lmis]
        self.degree = (inst.f * len(self.lmis) + 2 * (inst.n - self.pinned.size)
                       + (budget is not None) + len(constraints))

    def f0(self, x, derivs=False):
        """The objective at x, inf outside its domain; with ``derivs`` the
        quadruple (value, gradient, Hessian, excess) over x."""
        if callable(self.objective):
            return self.objective(x, derivs)
        value = float(self.objective @ x)
        return (value, self.objective, 0.0, 0.0) if derivs else value

    def f0_change(self, x, y):
        # a linear objective's change is taken from y - x, which is exact for
        # nearby points, not from two large nearly equal values
        if callable(self.objective):
            return self.f0(y) - self.f0(x)
        return float(self.objective @ (y - x))

    def __call__(self, x, derivs=False):
        """The barrier at x, inf outside the domain; with ``derivs`` the
        quadruple (value, gradient, Hessian, excess), the excess summed from
        the smooth constraints."""
        n = self.inst.n
        p = x[:n]
        low, room = p.copy(), self.inst.ub - p
        low[self.pinned] = room[self.pinned] = 1.0     # no box term
        if low.min() <= 0.0 or room.min() <= 0.0:
            return math.inf
        value = -float(np.log(low).sum() + np.log(room).sum())
        if derivs:
            grad, hess, excess = np.zeros(x.size), np.zeros((x.size, x.size)), 0.0
            grad[:n] = 1.0 / room - 1.0 / low
            hess[range(n), range(n)] = 1.0 / low ** 2 + 1.0 / room ** 2
        if self.budget is not None:
            slack = self.budget - float(p.sum())
            if slack <= 0.0:
                return math.inf
            value -= math.log(slack)
            if derivs:
                grad[:n] += 1.0 / slack
                hess[:n, :n] += 1.0 / slack ** 2
        if self.lmis:
            lam, vecs = np.linalg.eigh(weighted_gram(self.inst.b, p))
            q = self.u @ vecs
            for c, const in self.lmis:
                eig = lam - (float(c @ x) + const)
                if eig[0] <= 0.0:
                    return math.inf
                value -= float(np.log(eig).sum())
                if derivs:
                    # -log det S, S = sum_i x_i A_i - const I, A_i = u_i u_i^T - c_i I:
                    # the gradient is -tr(W A_i) and the Hessian tr(W A_i W A_j)
                    # with W = S^{-1}, i.e. (u_i^T W u_j)^2 plus rank-one terms in c.
                    # It is formed as the Gram matrix of B_i = W^1/2 A_i W^1/2 in
                    # the eigenbasis, which stays PSD where the expanded sum
                    # cancels near the boundary.
                    w = 1.0 / eig
                    r = q * np.sqrt(w)
                    b = r[:, :, None] * r[:, None, :]
                    b[:, range(w.size), range(w.size)] -= c[:, None] * w
                    b = b.reshape(len(c), -1)
                    grad += c * w.sum() - (r * r).sum(axis=1)
                    hess += b @ b.T
        for fn, bound in self.constraints:
            out = fn(p, derivs)
            slack = bound - (out[0] if derivs else out)
            if not slack > 0.0:
                return math.inf
            value -= math.log(slack)
            if derivs:
                _, gx, hx, ex = out
                grad += gx / slack
                hess += np.outer(gx, gx) / slack ** 2 + hx / slack
                excess = excess + ex / slack
        return (value, grad, hess, excess) if derivs else value


def _positive_definite(hess):
    """Whether ``hess`` is positive definite, by one Cholesky factorization
    of its Jacobi scaling; a diagonal entry <= 0 already says no."""
    diag = hess.diagonal()
    if not diag.min() > 0.0:
        return False
    scale = 1.0 / np.sqrt(diag)
    try:
        np.linalg.cholesky(hess * scale * scale[:, None])
    except np.linalg.LinAlgError:
        return False
    return True


def _newton_step(prog, x, t):
    """(barrier value, Newton step, Newton decrement) of t f0 + barrier at
    x; the step is None when the Newton system is singular.

    Where the objective or a constraint is not convex (a nonzero excess),
    the step takes the exact Hessian when the Newton matrix is positive
    definite and the PSD curvature, Hessian plus excess, otherwise.
    A pinned vertex gets a zero gradient entry and the identity's row and
    column in the Newton matrix, so its step entry is exactly 0.
    """
    phi, grad, hess, excess = prog(x, True)
    _, obj_grad, obj_hess, obj_excess = prog.f0(x, True)
    grad, hess = grad + t * obj_grad, hess + t * obj_hess
    excess = excess + t * obj_excess
    pin = prog.pinned
    grad[pin] = hess[pin] = hess[:, pin] = 0.0
    hess[pin, pin] = 1.0
    if not np.isscalar(excess) and not _positive_definite(hess):
        excess[pin] = excess[:, pin] = 0.0
        hess = hess + excess
    # Jacobi scaling: near the boundary the box terms span ~20 decades.  A
    # nearly active LMI adds a rank-one term that can swamp the rest in
    # floating point and leave the system singular.
    scale = 1.0 / np.sqrt(hess.diagonal())
    try:
        step = -scale * np.linalg.solve(hess * scale * scale[:, None], grad * scale)
    except np.linalg.LinAlgError:
        return phi, None, 0.0
    return phi, step, -float(grad @ step)


def _barrier(prog, x, record=None, stop=None):
    """Barrier method from the strictly feasible x until m/t <= GAP.

    ``record(x)`` sees every Newton iterate; ``stop(x)`` ends the run early
    when true.  A centering ends when the Newton decrement is small, or
    when the line search finds no decrease or the Newton system is
    singular, both of which mean centred to working precision.  Returns
    (x, converged): converged is false when a centering ran out of Newton
    steps.
    """
    if not (math.isfinite(prog(x)) and math.isfinite(prog.f0(x))):
        raise InfeasibleDesignError("the start point is not strictly feasible")
    t = prog.degree / max(abs(prog.f0(x)), GAP)
    converged = True
    while True:
        for _ in range(_CENTER_STEPS):
            phi, step, decrement = _newton_step(prog, x, t)
            # the decrement d bounds the centering error in f0 by about
            # sqrt(m d) / t: stop once that or d itself is small
            if step is None or not (decrement > 1e-6 and
                                    math.sqrt(prog.degree * decrement) > 0.1 * GAP * t):
                break
            alpha = 1.0
            while alpha >= 1e-12:
                trial = x + alpha * step
                change = t * prog.f0_change(x, trial) + (prog(trial) - phi)
                if change <= -0.25 * alpha * decrement:
                    break
                alpha *= 0.5
            else:
                break
            x = trial
            if record is not None:
                record(x)
            if stop is not None and stop(x):
                return x, True
        else:
            converged = False
        if prog.degree / t <= GAP:
            return x, converged
        t *= _T_GROWTH


def _interior(inst, lmis, budget):
    """A point strictly inside the box, the budget and the LMIs, with its
    margin s = min_k lambda_min(S_k).  The start is the box scaled to half
    the budget; a phase I maximizes s over S_k >= s I when that start is
    not inside, and stops once s > 0.  A margin <= 0 means no point is."""
    ub = inst.ub
    theta = 0.5 if budget is None or budget >= ub.sum() else 0.5 * budget / ub.sum()
    p = theta * ub
    lam = inst.lam_min(p)
    margin = min(lam - float(c @ p) - const for c, const, _ in lmis)
    if margin > 0.0 or theta == 0.0 or not ub.any():
        return p, margin
    phase = _Barrier(inst, [(c, const, 1.0) for c, const, _ in lmis],
                     objective=np.append(np.zeros(inst.n), -1.0), budget=budget,
                     epigraph=True)
    x, _ = _barrier(phase, np.append(p, margin - 1.0), stop=lambda x: x[-1] > 0.0)
    return x[:inst.n], float(x[-1])


def _run(prog, start, entry):
    """One barrier run from ``start``, recording the start, every Newton
    step and the final design with (objective, residual, msd) = entry(p)."""
    trace = SolverTrace()

    def record(p):
        trace.record(*entry(p))

    record(start)
    x, trace.converged = _barrier(prog, start, record)
    final = _truncate(x)
    record(final)
    return SamplingProbabilities(probs=final, bounds=prog.inst.ub), trace


# ---------------------------------------------------------------------------
# rate-constrained minimal sampling

def _min_rate_setup(spec, name):
    """The instance, the rate LMI and a point strictly inside the rate and
    MSD-bound LMIs, or the infeasibility error with the ceiling's lambda_min."""
    if spec.mu is None or spec.rate_target is None or spec.msd_target is None:
        raise ValueError(f"{name} needs mu, rate_target and msd_target")
    inst = _Instance(spec.bandlimit, spec.noise, spec.bounds)
    lam_t = spec.lambda_target()
    lam_ceiling = inst.lam_min(inst.ub)
    if lam_ceiling <= lam_t:
        raise InfeasibleDesignError(
            f"rate target unreachable: lambda_min at the box ceiling is "
            f"{lam_ceiling:.6g} < required {lam_t:.6g}",
            max_achievable_lambda=lam_ceiling,
        )
    rate = (np.zeros(inst.n), lam_t, 0.0)
    # (mu/2) Tr G(p) <= gamma lambda_min(H(p)), divided by gamma
    bound = (0.5 * spec.mu / spec.msd_target * inst.g_lin, 0.0, 0.0)
    center, margin = _interior(inst, [rate, bound], None)
    if margin <= 0.0:
        raise InfeasibleDesignError(
            "MSD bound target unreachable anywhere in the box "
            f"(best margin {margin:.3e}); maximal achievable lambda_min is "
            f"{lam_ceiling:.6g}",
            max_achievable_lambda=lam_ceiling,
        )
    return inst, lam_t, rate, bound, center


def solve_min_rate_convex(spec: DesignSpec):
    """Minimize sum(p) subject to a convergence-rate floor and the convex
    MSD upper-bound constraint (mu/2) Tr(G(p)) <= gamma * lambda_min(H(p)).

    Returns the designed probabilities and the solver trace.  Raises
    :class:`InfeasibleDesignError` when even the box ceiling cannot meet the
    constraints; the error carries the maximal achievable lambda_min.
    """
    inst, lam_t, rate, bound, center = _min_rate_setup(spec, "solve_min_rate_convex")
    mu, gamma = spec.mu, spec.msd_target
    msd = _msd(inst, mu)

    def entry(p):
        lam = inst.lam_min(p)
        residual = max(lam_t - lam, 0.5 * mu * inst.tr_g(p) - gamma * lam, 0.0)
        return p.sum(), residual, msd(p)

    return _run(_Barrier(inst, [rate, bound], objective=np.ones(inst.n)), center, entry)


def sca_min_rate(spec: DesignSpec):
    """Minimize sum(p) subject to the convergence-rate floor and the exact
    MSD constraint MSD(p) <= gamma.

    One barrier run on the exact MSD, whose Newton steps fall back on the
    PSD curvature mu K o L where the exact Hessian leaves the Newton matrix
    indefinite.  It starts inside the convex bound's feasible set, which
    lies inside the exact one.
    """
    inst, lam_t, rate, _, center = _min_rate_setup(spec, "sca_min_rate")
    mu, gamma = spec.mu, spec.msd_target
    msd = _msd(inst, mu)

    def entry(p):
        value = msd(p)
        return p.sum(), max(lam_t - inst.lam_min(p), value - gamma, 0.0), value

    prog = _Barrier(inst, [rate], objective=np.ones(inst.n), constraints=[(msd, gamma)])
    return _run(prog, center, entry)


# ---------------------------------------------------------------------------
# MSD-minimal sampling under rate and budget constraints

def _min_msd_setup(spec, name):
    """The instance, the rate LMI and a point strictly inside the rate LMI,
    the box and the budget, or the infeasibility error with the largest
    lambda_min the budget allows."""
    if spec.mu is None or spec.rate_target is None:
        raise ValueError(f"{name} needs mu and rate_target")
    inst = _Instance(spec.bandlimit, spec.noise, spec.bounds)
    lam_t = spec.lambda_target()
    rate = (np.zeros(inst.n), lam_t, 0.0)
    center, margin = _interior(inst, [rate], spec.budget)
    if margin <= 0.0:
        best = lam_t + margin
        raise InfeasibleDesignError(
            f"rate target unreachable under the budget: best achievable "
            f"lambda_min is {best:.6g} < required {lam_t:.6g}",
            max_achievable_lambda=best,
        )
    return inst, lam_t, rate, center


def dinkelbach_min_msd(spec: DesignSpec):
    """Minimize the MSD upper bound Tr(G(p)) / lambda_min(H(p)) over the
    rate-and-budget feasible set by Dinkelbach's parametric method.

    Each round minimizes Tr(G(p)) - w s over H(p) >= s I, one barrier run
    from the interior start, and updates w to the new ratio.  A round is
    kept only if it lowers the ratio, and the method stops once the round's
    value is within GAP of 0.
    The recorded objective is the bound value (mu/2) * ratio.
    """
    inst, lam_t, rate, center = _min_msd_setup(spec, "dinkelbach_min_msd")
    mu = spec.mu
    msd = _msd(inst, mu)
    epigraph = (np.zeros(inst.n), 0.0, 1.0)
    trace = SolverTrace()

    def record(q):
        lam = inst.lam_min(q)
        trace.record(0.5 * mu * inst.tr_g(q) / lam, max(lam_t - lam, 0.0), msd(q))

    p = center
    record(p)
    omega = inst.tr_g(p) / inst.lam_min(p)
    converged = True
    while True:
        prog = _Barrier(inst, [rate, epigraph], objective=np.append(inst.g_lin, -omega),
                        budget=spec.budget, epigraph=True)
        x, converged = _barrier(prog, np.append(center, lam_t))
        q = x[:inst.n]
        lam = inst.lam_min(q)
        h = inst.tr_g(q) - omega * lam
        if not h < 0.0:
            break
        p, omega = q, inst.tr_g(q) / lam
        record(p)
        if h > -GAP:
            break
    final = _truncate(p)
    record(final)
    trace.converged = converged
    return SamplingProbabilities(probs=final, bounds=inst.ub), trace


def sca_min_msd(spec: DesignSpec):
    """Minimize the exact MSD over the rate-and-budget feasible set: one
    barrier run whose Newton steps fall back on the PSD curvature mu K o L
    where the exact Hessian leaves the Newton matrix indefinite."""
    inst, lam_t, rate, center = _min_msd_setup(spec, "sca_min_msd")
    msd = _msd(inst, spec.mu)

    def entry(p):
        value = msd(p)
        return value, max(lam_t - inst.lam_min(p), 0.0), value

    return _run(_Barrier(inst, [rate], objective=msd, budget=spec.budget), center, entry)


# ---------------------------------------------------------------------------
# RLS sampling design (convex)

def solve_rls_design(spec: DesignSpec):
    """Minimize sum(p) subject to the RLS steady-state MSD target:
    Tr[(U_F^T diag(p) C_v^{-1} U_F)^{-1}] <= gamma (1+beta)/(1-beta).

    Raises :class:`InfeasibleDesignError` when the target is unreachable
    even at the box ceiling; the error carries the minimum achievable MSD.
    """
    if spec.beta is None or spec.msd_target is None:
        raise ValueError("solve_rls_design needs beta and msd_target")
    inst = _Instance(spec.bandlimit, spec.noise, spec.bounds)
    scale = (1.0 - spec.beta) / (1.0 + spec.beta)
    t_target = spec.msd_target / scale
    trace_inv = _trace_inverse(inst)
    t_ceiling = trace_inv(inst.ub)
    if not t_ceiling < t_target:
        raise InfeasibleDesignError(
            f"MSD target unreachable: minimum achievable MSD is "
            f"{scale * t_ceiling:.6g} > requested {spec.msd_target:.6g}",
            min_achievable_msd=scale * t_ceiling,
        )

    def entry(p):
        t = trace_inv(p)
        return p.sum(), max(t - t_target, 0.0), scale * t

    prog = _Barrier(inst, objective=np.ones(inst.n), constraints=[(trace_inv, t_target)])
    # the trace inverse scales as 1/theta along theta * p_max, so this start
    # lies strictly inside
    return _run(prog, 0.5 * (1.0 + t_ceiling / t_target) * inst.ub, entry)
