"""Sampling-probability design solvers.

Five programs over the box of per-vertex sampling probabilities:

* rate-constrained minimal sampling via a convex upper bound on the MSD
  (``solve_min_rate_convex``) and on the exact MSD (``sca_min_rate``);
* MSD-minimal sampling under a rate constraint and a budget, solved either
  on the MSD bound Tr G(p) / lambda_min(H(p)), a ratio unchanged by scaling
  p and so minimized on the rate floor (``dinkelbach_min_msd``), or on the
  exact MSD (``sca_min_msd``);
* the recursive-least-squares analogue (``solve_rls_design``), which is
  convex outright.

All of them run one damped-Newton log-barrier method (Boyd & Vandenberghe,
*Convex Optimization*, ch. 11; Joshi & Boyd, "Sensor selection via convex
optimization", IEEE TSP 2009).  Each constraint is either a linear matrix
inequality H(p) - l(p) I >= 0 with H(p) = U_F^T diag(p) U_F and l affine
(phase I adds its margin s to l), whose -log det barrier has a closed-form
gradient and Hessian in the eigenbasis of H(p), or a smooth function of p
(the exact MSD, the RLS trace inverse), all read from one evaluator of p,
``sampling._Instance``, which decomposes H(p) and
M(p) = U_F^T diag(p / sigma^2) U_F once per point.  The box and the budget
are barrier terms too, and a vertex whose bound is 0 stays at 0.  A run centres by
Newton steps, each accepted by a backtracking line search on the exact
barrier value, and multiplies t by 20 until the duality-gap bound m/t
reaches ``GAP``, m being the degree of the barrier.  On the convex
programs that bounds the distance to the optimum.  The exact MSD is not
convex.  Its Newton steps solve with the exact Hessian wherever the Newton
matrix is positive definite, and otherwise take the modified Newton step
(Nocedal & Wright, *Numerical Optimization*, sec. 3.4), which replaces each
eigenvalue by its floored magnitude so that the step still descends.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .filters import _lms_msd, _msd_bound, _rls_trace_inverse
from .graphs import Bandlimit
from .sampling import NoiseModel, SamplingProbabilities, _Instance

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
        if self.mu is not None and not 0.0 < self.mu < math.inf:
            raise ValueError("step size mu must be positive and finite")
        if self.beta is not None and not 0.0 < self.beta < 1.0:
            raise ValueError("forgetting factor beta must lie in (0, 1)")
        if self.rate_target is not None and not 0.0 < self.rate_target < 1.0:
            raise ValueError("rate target must lie in (0, 1)")
        if self.msd_target is not None and not 0.0 < self.msd_target < math.inf:
            raise ValueError("MSD target must be positive and finite")
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

    Entry k of ``objectives``, ``residuals`` and ``msd_values`` belongs to
    the k-th recorded probability vector.  The residual is the solved
    program's own largest constraint violation, :meth:`_Barrier.violation`
    (0 = feasible; an LMI's in eigenvalue units).  Every solver records its
    start, every Newton step and the final design.
    """

    objectives: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    msd_values: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.objectives) - 1

    def record(self, objective, residual, msd):
        self.objectives.append(float(objective))
        self.residuals.append(float(residual))
        self.msd_values.append(float(msd))


# ---------------------------------------------------------------------------
# shared evaluation plumbing

def _msd(inst, mu):
    """The exact MSD of :func:`filters._lms_msd`, each point's value kept; not convex."""
    def msd(p, derivs=False):
        return (_lms_msd(inst, p, mu, True) if derivs
                else inst.cached(p, ("msd", mu), lambda: _lms_msd(inst, p, mu)))
    msd.convex = False
    return msd


def _instance_of(spec, problem):
    """The _Instance of ``spec``, or a ValueError naming the fields
    ``PROBLEMS[problem]`` needs that ``spec`` leaves out."""
    solve, needs, _ = PROBLEMS[problem]
    missing = [name for name in needs if getattr(spec, name) is None]
    if missing:
        raise ValueError(f"{solve.__name__} needs {', '.join(missing)}")
    return _Instance(spec.bandlimit, spec.noise, spec.bounds)


def _truncate(p):
    out = np.array(p, dtype=float)
    out[out < TRUNCATE_TOL] = 0.0
    return out


# ---------------------------------------------------------------------------
# log-barrier Newton core

class _Barrier:
    """The log barrier of one program over x = (p, s).

    ``lmis`` holds pairs (c, const), each the LMI
    H(p) - (c @ p + const) I >= 0.  ``objective`` is a vector over (p, s)
    (a linear objective) or a smooth function of p; ``constraints`` holds
    pairs (fn, bound), each a smooth function of p held strictly below its
    bound by the barrier term -log(bound - fn(p)).  A smooth function
    ``fn(p, derivs)`` returns its value, inf outside its domain, or with
    ``derivs`` the triple (value, gradient, Hessian) over all n vertices; one
    that is not convex says so with ``fn.convex = False``, and ``convex``
    tells whether the whole program is.
    The scalar s exists only with ``epigraph``, phase I's margin, which
    every LMI then subtracts as H(p) - (c @ p + const + s) I >= 0 and no
    program pairs with a smooth function.  A vertex with bound 0 has no box
    term and is pinned at p_i = 0 by :func:`_newton_step`.
    """

    def __init__(self, inst, lmis=(), objective=None, constraints=(), budget=None,
                 epigraph=False):
        self.inst, self.objective = inst, objective
        self.constraints, self.budget = constraints, budget
        self.pinned = np.flatnonzero(inst.ub == 0.0)
        self.convex = all(getattr(fn, "convex", True)
                          for fn in (objective, *(fn for fn, _ in constraints)))
        extra = int(epigraph)
        self.u = np.vstack([inst.u, np.zeros((extra, inst.f))])
        self.lmis = [(np.append(c, [1.0] * extra), const) for c, const in lmis]
        self.degree = (inst.f * len(self.lmis) + 2 * (inst.n - self.pinned.size)
                       + (budget is not None) + len(constraints))

    def f0(self, x, derivs=False):
        """The objective at x, inf outside its domain; with ``derivs`` the
        triple (value, gradient, Hessian) over x."""
        if callable(self.objective):
            return self.objective(x, derivs)
        value = float(self.objective @ x)
        return (value, self.objective, 0.0) if derivs else value

    def f0_change(self, x, y, fx):
        # a linear objective's change is taken from y - x, which is exact for
        # nearby points, not from two large nearly equal values; fx is f0(x)
        if callable(self.objective):
            return self.f0(y) - fx
        return float(self.objective @ (y - x))

    @np.errstate(over="ignore", divide="ignore")     # _newton_step rejects inf derivatives
    def __call__(self, x, derivs=False):
        """The barrier at x, inf outside the domain; with ``derivs`` the
        triple (value, gradient, Hessian)."""
        n = self.inst.n
        p = x[:n]
        low, room = p, self.inst.ub - p
        if self.pinned.size:
            low = p.copy()
            low[self.pinned] = room[self.pinned] = 1.0     # no box term
        if low.min() <= 0.0 or room.min() <= 0.0:
            return math.inf
        value = -float(np.log(low).sum() + np.log(room).sum())
        if derivs:
            grad, hess = np.zeros(x.size), np.zeros((x.size, x.size))
            grad[:n] = 1.0 / room - 1.0 / low
            diag = hess.reshape(-1)[::x.size + 1]      # a view of the diagonal
            diag[:n] = 1.0 / low ** 2 + 1.0 / room ** 2
        if self.budget is not None:
            slack = self.budget - float(p.sum())
            if slack <= 0.0:
                return math.inf
            value -= math.log(slack)
            if derivs:
                grad[:n] += 1.0 / slack
                hess[:n, :n] += 1.0 / slack ** 2
        if self.lmis:
            lam, vecs = self.inst.spectrum(p)
            if derivs:
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
                    b = (r[:, :, None] * r[:, None, :]).reshape(len(c), -1)
                    b[:, ::w.size + 1] -= c[:, None] * w    # the diagonal of each B_i
                    grad += c * w.sum() - (r * r).sum(axis=1)
                    hess += b @ b.T
        for fn, bound in self.constraints:
            out = fn(p, derivs)
            slack = bound - (out[0] if derivs else out)
            if not slack > 0.0:
                return math.inf
            value -= math.log(slack)
            if derivs:
                _, gx, hx = out
                grad += gx / slack
                try:    # a slack past 1e154, from a bound near the float limit, overflows
                    hess += np.outer(gx, gx) / slack ** 2 + hx / slack
                except OverflowError:   # squared: the term it divides is then below it
                    hess += hx / slack
        return (value, grad, hess) if derivs else value

    def violation(self, p):
        """The largest constraint violation at p, 0 where p is feasible: an
        LMI's c @ p + const - lambda_min(H(p)), a smooth constraint's
        fn(p) - bound and sum(p) - budget.  The box has no term: truncation
        only lowers p."""
        terms = [0.0, *(fn(p) - bound for fn, bound in self.constraints)]
        if self.lmis:
            lam = self.inst.lam_min(p)
            terms += [float(c @ p) + const - lam for c, const in self.lmis]
        if self.budget is not None:
            terms.append(float(p.sum()) - self.budget)
        return max(terms)


def _positive_definite(scaled):
    """Whether ``scaled``, a matrix Jacobi-scaled by the magnitudes of its
    diagonal, is positive definite, by one Cholesky factorization."""
    try:
        np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        return False
    return True


def _newton_step(prog, derivs, t):
    """(barrier value, Newton step, Newton decrement) of t f0 + barrier at
    the point x of ``derivs``, the pair (prog(x, True), prog.f0(x, True));
    the step is None when the Newton system is singular or a derivative overflowed.

    Where the program is not convex and the Newton matrix not positive
    definite, the step is the modified Newton step: each eigenvalue lambda of
    the Jacobi-scaled matrix becomes max(|lambda|, 1e-8 max |lambda|), so the
    step is a descent direction (Nocedal & Wright, sec. 3.4).
    A pinned vertex gets a zero gradient entry and the identity's row and
    column in the Newton matrix, so its step entry is exactly 0.
    """
    (phi, grad, hess), (_, obj_grad, obj_hess) = derivs
    with np.errstate(over="ignore"):     # a non-finite result is rejected just below
        grad, hess = grad + t * obj_grad, hess + t * obj_hess
    if not (np.isfinite(grad).all() and np.isfinite(hess).all()):
        return phi, None, 0.0
    pin = prog.pinned
    if pin.size:
        grad[pin] = hess[pin] = hess[:, pin] = 0.0
        hess[pin, pin] = 1.0
    # Jacobi scaling: near the boundary the box terms span ~20 decades.  A
    # nearly active LMI adds a rank-one term that can swamp the rest in
    # floating point and leave the system singular.
    scale = 1.0 / np.sqrt(np.abs(hess.diagonal()))
    scaled, rhs = hess * scale * scale[:, None], grad * scale
    try:
        if prog.convex or _positive_definite(scaled):
            step = -scale * np.linalg.solve(scaled, rhs)
        else:
            lam, vecs = np.linalg.eigh(scaled)
            lam = np.maximum(np.abs(lam), 1e-8 * np.abs(lam).max())
            step = -scale * (vecs @ ((rhs @ vecs) / lam))
            step[pin] = 0.0     # eigh leaves rounding in the decoupled rows
    except np.linalg.LinAlgError:
        return phi, None, 0.0
    return phi, step, -float(grad @ step)


def _barrier(prog, x, record=None, stop=None):
    """Barrier method from the strictly feasible x until m/t <= GAP.

    ``record(x)`` sees every Newton iterate; ``stop(x)`` ends the run early
    when true.  A centering ends when the Newton decrement is small, or
    when the line search finds no decrease or the Newton system is
    singular, both of which mean centred to working precision.  The
    derivatives at x are kept until x moves: the line search reads f0(x) from
    them, and a new centering at the same x evaluates nothing again.  Returns
    (x, converged): converged is false when a centering ran out of Newton steps.
    """
    if not math.isfinite(prog(x)):
        raise InfeasibleDesignError("the start point is not strictly feasible")
    if not math.isfinite(prog.f0(x)):
        raise InfeasibleDesignError("the objective is not finite at the start point")
    t = prog.degree / max(abs(prog.f0(x)), GAP)
    converged, derivs = True, None
    while True:
        for _ in range(_CENTER_STEPS):
            if derivs is None:
                derivs = prog(x, True), prog.f0(x, True)
            phi, step, decrement = _newton_step(prog, derivs, t)
            # the decrement d bounds the centering error in f0 by about
            # sqrt(m d) / t: stop once that or d itself is small
            if step is None or not (decrement > 1e-6 and
                                    math.sqrt(prog.degree * decrement) > 0.1 * GAP * t):
                break
            alpha = 1.0
            while alpha >= 1e-12:
                trial = x + alpha * step
                change = t * prog.f0_change(x, trial, derivs[1][0]) + (prog(trial) - phi)
                if change <= -0.25 * alpha * decrement:
                    break
                alpha *= 0.5
            else:
                break
            x, derivs = trial, None
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
    not inside, and stops once s > 0.  A margin <= 0 means no point is.
    A phase I that takes no step raises: its start margin is no best one."""
    ub = inst.ub
    theta = 0.5 if budget is None or budget >= ub.sum() else 0.5 * budget / ub.sum()
    p = theta * ub
    lam = inst.lam_min(p)
    margin = min(lam - float(c @ p) - const for c, const in lmis)
    if margin > 0.0:
        return p, margin
    phase = _Barrier(inst, lmis, objective=np.append(np.zeros(inst.n), -1.0),
                     budget=budget, epigraph=True)
    start = np.append(p, margin - 1.0)
    x, _ = _barrier(phase, start, stop=lambda x: x[-1] > 0.0)
    if np.array_equal(x, start):
        finite = all(np.isfinite(d).all() for d in phase(start, True)[1:])
        raise InfeasibleDesignError(
            f"phase I took no step from the start point (margin {margin:.3e} there)"
            + ("" if finite else ": its Newton system is not finite"))
    return x[:inst.n], float(x[-1])


def _run(prog, start, objective, msd):
    """One barrier run from ``start``, recording the start, every Newton
    step and the final design p with (objective(p), prog.violation(p), msd(p))."""
    trace = SolverTrace()

    def record(p):
        trace.record(objective(p), prog.violation(p), msd(p))

    record(start)
    x, trace.converged = _barrier(prog, start, record)
    final = _truncate(x)
    record(final)
    if not math.isfinite(trace.residuals[-1]):
        # a target so loose that the design's entries fall below TRUNCATE_TOL
        raise InfeasibleDesignError(f"the design, its entries below {TRUNCATE_TOL:g} set to 0, "
                                    f"violates its program (violation {trace.residuals[-1]:g})")
    return SamplingProbabilities(probs=final, bounds=prog.inst.ub), trace


# ---------------------------------------------------------------------------
# rate-constrained minimal sampling

def _min_rate_setup(spec, problem):
    """The instance, the rate LMI and a point strictly inside the rate and
    MSD-bound LMIs, or the infeasibility error with the ceiling's lambda_min."""
    inst = _instance_of(spec, problem)
    lam_t = spec.lambda_target()
    lam_ceiling = inst.lam_min(inst.ub)
    if lam_ceiling <= lam_t:
        raise InfeasibleDesignError(
            f"rate target unreachable: lambda_min at the box ceiling is "
            f"{lam_ceiling:.6g} < required {lam_t:.6g}",
            max_achievable_lambda=lam_ceiling,
        )
    rate = (np.zeros(inst.n), lam_t)
    # (mu/2) Tr G(p) <= gamma lambda_min(H(p)), divided by gamma
    bound = (0.5 * spec.mu / spec.msd_target * inst.g_lin, 0.0)
    center, margin = _interior(inst, [rate, bound], None)
    if margin <= 0.0:
        raise InfeasibleDesignError(
            "MSD bound target unreachable anywhere in the box "
            f"(best margin {margin:.3e}); maximal achievable lambda_min is "
            f"{lam_ceiling:.6g}",
            max_achievable_lambda=lam_ceiling,
        )
    return inst, rate, bound, center


def solve_min_rate_convex(spec: DesignSpec):
    """Minimize sum(p) subject to a convergence-rate floor and the convex
    MSD upper-bound constraint (mu/2) Tr(G(p)) <= gamma * lambda_min(H(p)).

    Returns the designed probabilities and the solver trace.  Raises
    :class:`InfeasibleDesignError` when even the box ceiling cannot meet the
    constraints; the error carries the maximal achievable lambda_min.
    """
    inst, rate, bound, center = _min_rate_setup(spec, "min_rate_convex")
    prog = _Barrier(inst, [rate, bound], objective=np.ones(inst.n))
    return _run(prog, center, np.sum, _msd(inst, spec.mu))


def sca_min_rate(spec: DesignSpec):
    """Minimize sum(p) subject to the convergence-rate floor and the exact
    MSD constraint MSD(p) <= gamma.

    One barrier run on the exact MSD, whose Newton steps are modified
    Newton steps where the exact Hessian leaves the Newton matrix
    indefinite.  It starts inside the convex bound's feasible set, which
    lies inside the exact one.
    """
    inst, rate, _, center = _min_rate_setup(spec, "sca_min_rate")
    msd = _msd(inst, spec.mu)
    prog = _Barrier(inst, [rate], objective=np.ones(inst.n),
                    constraints=[(msd, spec.msd_target)])
    return _run(prog, center, np.sum, msd)


# ---------------------------------------------------------------------------
# MSD-minimal sampling under rate and budget constraints

def _min_msd_setup(spec, problem):
    """The instance, the rate LMI and a point strictly inside the rate LMI,
    the box and the budget, or the infeasibility error with the largest
    lambda_min the budget allows, or a bound on it."""
    inst = _instance_of(spec, problem)
    lam_t = spec.lambda_target()
    rate = (np.zeros(inst.n), lam_t)
    # lambda_min(H(p)) <= e_k^T H(p) e_k <= sum(p) max_i U_ik^2 for each k: a cap below
    # the floor fails here, before phase I meets a tiny budget's underflowing squares
    total = inst.ub.sum() if spec.budget is None else min(spec.budget, inst.ub.sum())
    cap = total * np.square(inst.u).max(0).min()
    best, qualifier = cap, "at most "
    if cap > lam_t:
        center, margin = _interior(inst, [rate], spec.budget)
        if margin > 0.0:
            return inst, rate, center
        best, qualifier = lam_t + margin, ""
    raise InfeasibleDesignError(f"rate target unreachable under the budget: best achievable "
                                f"lambda_min is {qualifier}{best:.6g} < required {lam_t:.6g}",
                                max_achievable_lambda=best)


def dinkelbach_min_msd(spec: DesignSpec):
    """Minimize the MSD upper bound (mu/2) Tr(G(p)) / lambda_min(H(p)) over
    the rate-and-budget feasible set.

    The ratio is unchanged when p is scaled, and scaling a feasible p by
    lambda_t / lambda_min(H(p)) <= 1 keeps it inside the box and the budget
    and puts it on the rate floor.  So the minimum is that of
    Tr(G(p)) / lambda_t over H(p) >= lambda_t I (Charnes & Cooper 1962):
    one barrier run with the linear objective Tr(G(p)).
    The recorded objective is the bound value.
    """
    inst, rate, center = _min_msd_setup(spec, "dinkelbach")
    prog = _Barrier(inst, [rate], objective=inst.g_lin, budget=spec.budget)
    return _run(prog, center, lambda p: _msd_bound(inst, p, spec.mu), _msd(inst, spec.mu))


def sca_min_msd(spec: DesignSpec):
    """Minimize the exact MSD over the rate-and-budget feasible set: one
    barrier run whose Newton steps are modified Newton steps where the exact
    Hessian leaves the Newton matrix indefinite."""
    inst, rate, center = _min_msd_setup(spec, "sca_min_msd")
    msd = _msd(inst, spec.mu)
    return _run(_Barrier(inst, [rate], objective=msd, budget=spec.budget), center, msd, msd)


# ---------------------------------------------------------------------------
# RLS sampling design (convex)

def solve_rls_design(spec: DesignSpec):
    """Minimize sum(p) subject to the RLS steady-state MSD target:
    Tr[(U_F^T diag(p) C_v^{-1} U_F)^{-1}] <= gamma (1+beta)/(1-beta).

    Raises :class:`InfeasibleDesignError` when the target is unreachable
    even at the box ceiling; the error carries the minimum achievable MSD.
    """
    inst = _instance_of(spec, "rls")
    scale = (1.0 - spec.beta) / (1.0 + spec.beta)
    t_target = spec.msd_target / scale
    trace_inv = functools.partial(_rls_trace_inverse, inst)
    t_ceiling = trace_inv(inst.ub)
    if not t_ceiling < t_target:
        raise InfeasibleDesignError(
            f"MSD target unreachable: minimum achievable MSD is "
            f"{scale * t_ceiling:.6g} > requested {spec.msd_target:.6g}",
            min_achievable_msd=scale * t_ceiling,
        )

    prog = _Barrier(inst, objective=np.ones(inst.n), constraints=[(trace_inv, t_target)])
    # the trace inverse scales as 1/theta along theta * p_max, so this start
    # lies strictly inside
    return _run(prog, 0.5 * (1.0 + t_ceiling / t_target) * inst.ub, np.sum,
                lambda p: scale * trace_inv(p))


# problem -> (solver, the DesignSpec fields it needs, those it reads if given)
PROBLEMS = {
    "min_rate_convex": (solve_min_rate_convex, ("mu", "rate_target", "msd_target"), ()),
    "sca_min_rate": (sca_min_rate, ("mu", "rate_target", "msd_target"), ()),
    "dinkelbach": (dinkelbach_min_msd, ("mu", "rate_target"), ("budget",)),
    "sca_min_msd": (sca_min_msd, ("mu", "rate_target"), ("budget",)),
    "rls": (solve_rls_design, ("beta", "msd_target"), ()),
}
