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
the curvature of the SCA surrogate of :func:`sca_msd_surrogate` anchored at
the current point, which is positive semidefinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import Bandlimit
from .sampling import NoiseModel, SamplingProbabilities, ReconstructabilityError

TRUNCATE_TOL = 1e-9
GAP = 1e-9              # duality-gap bound m/t at which a barrier run stops
_T_GROWTH = 20.0        # factor on t between centerings
_CENTER_STEPS = 1000    # Newton steps per centering at most
_PULL = 1e-3            # share of the interior start mixed into a given initial point


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
    and ``msd_values``; ``iterations`` equals ``len(points) - 1``.  The
    barrier solvers record their start, every Newton step and the final
    design; Dinkelbach's method records its start, every round and the
    final design.
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

class _Instance:
    def __init__(self, b: Bandlimit, noise: NoiseModel, ub: np.ndarray):
        self.u = b.basis_slice
        self.n, self.f = self.u.shape
        self.ub = ub
        self.sig2 = noise.variances
        self.row2 = (self.u ** 2).sum(axis=1)
        self.g_lin = self.sig2 * self.row2     # gradient of Tr G(p)

    def gram(self, w):
        m = self.u.T @ (w[:, None] * self.u)
        return (m + m.T) / 2.0

    def h_eig(self, p):
        return np.linalg.eigh(self.gram(p))

    def lam_min(self, p):
        return float(np.linalg.eigvalsh(self.gram(p))[0])

    def tr_g(self, p):
        return float(self.g_lin @ p)

    def exact_msd(self, p, mu, derivs=False):
        """The MSD (mu/2) Tr[H(p)^-1 G(p)], inf where H(p) is singular.

        With ``derivs`` it returns (value, gradient, Hessian, excess), all from
        one eigendecomposition of H(p).  With K = U H^-1 U^T and
        L = U H^-1 G H^-1 U^T the gradient is (mu/2)(sigma^2 o diag K - diag L)
        and the Hessian mu K o L - E, E_ij = (mu/2)(sigma_i^2 + sigma_j^2) K_ij^2.
        The Hessian is indefinite in general; the excess E lifts it to the
        PSD curvature mu K o L of the surrogate of :func:`sca_msd_surrogate`
        anchored at p.
        """
        vals, vecs = self.h_eig(p)
        if vals[0] <= 1e-12 * max(vals[-1], 1.0):
            return math.inf
        core = vecs.T @ self.gram(p * self.sig2) @ vecs
        value = 0.5 * mu * float((np.diag(core) / vals).sum())
        if not derivs:
            return value
        q = self.u @ vecs
        r = q / vals                            # U H^-1 in the eigenbasis
        k = r @ q.T
        l = r @ core @ r.T
        grad = 0.5 * mu * (self.sig2 * k.diagonal() - l.diagonal())
        excess = 0.5 * mu * (self.sig2[:, None] + self.sig2) * k * k
        return value, grad, mu * k * l - excess, excess


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
    out = _Instance(b, noise, np.ones(b.n)).exact_msd(_as_probs(p, b.n), mu, derivs=True)
    if out == math.inf:
        raise ReconstructabilityError("msd_gradient: Gram matrix is singular")
    return out[1]


def lambda_min_subgradient(p, b: Bandlimit) -> np.ndarray:
    """Supergradient of lambda_min(U_F^T diag(p) U_F): component i is
    (v^T u_i)^2 for a unit eigenvector v of the smallest eigenvalue."""
    probs = _as_probs(p, b.n)
    inst = _Instance(b, NoiseModel.uniform(b.n, 1.0), np.ones(b.n))
    _, vecs = inst.h_eig(probs)
    return (inst.u @ vecs[:, 0]) ** 2


def sca_msd_surrogate(p, anchor, mu, noise: NoiseModel, b: Bandlimit, tau: float = 1e-6):
    """Partially linearized MSD surrogate of the SCA method.

    Returns (value, gradient) at ``p`` for the anchor point ``z``:
    (tau/2)||p-z||^2 + (mu/2) Tr[H(z)^{-1} G(p)] + (mu/2) Tr[H(p)^{-1} G(z)].
    At p = z the value is exactly twice the MSD and the gradient coincides
    with :func:`msd_gradient`.  Its Hessian there, mu K o L, is the PSD
    curvature the exact-MSD solvers fall back on where the exact Hessian
    leaves the Newton matrix indefinite (see :meth:`_Instance.exact_msd`).
    """
    inst = _Instance(b, noise, np.ones(b.n))
    p, z = _as_probs(p, b.n), _as_probs(anchor, b.n)
    vals_z, vecs_z = inst.h_eig(z)
    if vals_z[0] <= 1e-12 * max(vals_z[-1], 1.0):
        raise ReconstructabilityError("sca_msd_surrogate: singular Gram at the anchor")
    kz = vecs_z @ ((vecs_z.T @ inst.u.T) / vals_z[:, None])
    lin = 0.5 * mu * inst.sig2 * np.einsum("nf,fn->n", inst.u, kz)
    g_z = inst.gram(z * inst.sig2)

    vals, vecs = inst.h_eig(p)
    vals_f = np.maximum(vals, 1e-12 * max(vals[-1], 1.0))
    core = vecs.T @ g_z @ vecs
    val2 = 0.5 * mu * float((np.diag(core) / vals_f).sum())
    k = vecs @ ((vecs.T @ inst.u.T) / vals_f[:, None])     # H(p)^{-1} U_F^T
    grad2 = -0.5 * mu * np.einsum("fn,fn->n", k, g_z @ k)

    d = p - z
    value = 0.5 * tau * float(d @ d) + float(lin @ p) + val2
    return value, tau * d + lin + grad2


def _msd(inst, mu, offset=0.0):
    """The exact MSD less ``offset`` as a smooth barrier function; with
    ``derivs`` the quadruple of :meth:`_Instance.exact_msd`."""
    def fn(p, derivs=False):
        out = inst.exact_msd(p, mu, derivs)
        return (out[0] - offset, *out[1:]) if derivs else out - offset
    return fn


def _trace_inverse(inst, offset):
    """Tr[(U_F^T diag(p / sigma^2) U_F)^{-1}] less ``offset``, inf where singular."""
    def fn(p, derivs=False):
        vals, vecs = np.linalg.eigh(inst.gram(p / inst.sig2))
        if vals[0] <= 1e-14 * max(vals[-1], 1.0):
            return math.inf
        value = float((1.0 / vals).sum()) - offset
        if not derivs:
            return value
        q = (inst.u @ vecs) / np.sqrt(inst.sig2)[:, None]
        k1 = (q / vals) @ q.T                   # u_i^T M^{-1} u_j / (sigma_i sigma_j)
        k2 = (q / vals ** 2) @ q.T
        return value, -k2.diagonal().copy(), 2.0 * k1 * k2, 0.0
    return fn


def _truncate(p):
    out = np.array(p, dtype=float)
    out[out < TRUNCATE_TOL] = 0.0
    return out


# ---------------------------------------------------------------------------
# log-barrier Newton core

class _Barrier:
    """The log barrier of one program over x = (p[free], s).

    ``lmis`` holds triples (c, const, e), each the LMI
    H(p) - (c @ p + const + e s) I >= 0.  ``objective`` is a vector over
    (p, s) (a linear objective) or a smooth function of p; ``constraints`` are
    smooth functions of p that must stay negative.  A smooth function
    ``fn(p, derivs)`` returns its value, inf outside its domain, or with
    ``derivs`` the quadruple (value, gradient, Hessian, excess) over all n
    vertices: the excess is 0.0 for a convex function, else the matrix that
    lifts an indefinite Hessian to a PSD curvature.
    The scalar s exists only with ``epigraph``; vertices with bound 0 are
    not variables and stay at 0.
    """

    def __init__(self, inst, lmis=(), objective=None, constraints=(), budget=None,
                 epigraph=False):
        self.inst, self.constraints, self.budget = inst, constraints, budget
        self.free = np.flatnonzero(inst.ub > 0)
        self.objective = objective
        if objective is not None and not callable(objective):
            self.objective = np.append(objective[self.free], objective[inst.n:])
        self.k = self.free.size
        self.ub = inst.ub[self.free]
        extra = int(epigraph)
        self.u = np.vstack([inst.u[self.free], np.zeros((extra, inst.f))])
        self.lmis = [(np.append(c[self.free], [e] * extra), const) for c, const, e in lmis]
        self.degree = (inst.f * len(self.lmis) + 2 * self.k + (budget is not None)
                       + len(constraints))

    def point(self, x):
        p = np.zeros(self.inst.n)
        p[self.free] = x[:self.k]
        return p

    def _lift(self, grad, *mats):
        """A gradient and matrices over all n vertices as ones over x; a
        scalar 0.0 stays as it is."""
        nv, k = self.u.shape[0], self.k
        gx = np.zeros(nv)
        gx[:k] = grad[self.free]
        lifted = [gx]
        for mat in mats:
            if np.isscalar(mat):
                lifted.append(mat)
                continue
            hx = np.zeros((nv, nv))
            hx[:k, :k] = mat[np.ix_(self.free, self.free)]
            lifted.append(hx)
        return lifted

    def f0(self, x, derivs=False):
        """The objective at x, inf outside its domain; with ``derivs`` the
        quadruple (value, gradient, Hessian, excess) over x."""
        if callable(self.objective):
            out = self.objective(self.point(x), derivs)
            return (out[0], *self._lift(*out[1:])) if derivs else out
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
        xp, k = x[:self.k], self.k
        room = self.ub - xp
        if xp.min(initial=1.0) <= 0.0 or room.min(initial=1.0) <= 0.0:
            return math.inf
        value = -float(np.log(xp).sum() + np.log(room).sum())
        if derivs:
            nv = self.u.shape[0]
            grad, hess, excess = np.zeros(nv), np.zeros((nv, nv)), 0.0
            grad[:k] = 1.0 / room - 1.0 / xp
            hess[range(k), range(k)] = 1.0 / xp ** 2 + 1.0 / room ** 2
        if self.budget is not None:
            slack = self.budget - float(xp.sum())
            if slack <= 0.0:
                return math.inf
            value -= math.log(slack)
            if derivs:
                grad[:k] += 1.0 / slack
                hess[:k, :k] += 1.0 / slack ** 2
        p = self.point(x)
        if self.lmis:
            lam, vecs = np.linalg.eigh(self.inst.gram(p))
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
        for fn in self.constraints:
            out = fn(p, derivs)
            g = out[0] if derivs else out
            if not g < 0.0:
                return math.inf
            value -= math.log(-g)
            if derivs:
                gx, hx, ex = self._lift(*out[1:])
                grad += gx / -g
                hess += np.outer(gx, gx) / g ** 2 + hx / -g
                excess = excess + ex / -g
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
    """
    phi, grad, hess, excess = prog(x, True)
    _, obj_grad, obj_hess, obj_excess = prog.f0(x, True)
    grad, hess = grad + t * obj_grad, hess + t * obj_hess
    excess = excess + t * obj_excess
    if not np.isscalar(excess) and not _positive_definite(hess):
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

    ``record(p)`` sees every Newton iterate; ``stop(x)`` ends the run early
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
                record(prog.point(x))
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
    x, _ = _barrier(phase, np.append(p[phase.free], margin - 1.0), stop=lambda x: x[-1] > 0.0)
    return phase.point(x), float(x[-1])


def _start(prog, center, initial):
    """``center``, or ``initial`` clipped to the box and pulled strictly
    inside ``prog``'s domain by mixing in a little of ``center``."""
    if initial is None:
        return center
    q = np.clip(_as_probs(initial, prog.inst.n), 0.0, prog.inst.ub)
    p = (1.0 - _PULL) * q + _PULL * center
    if not math.isfinite(prog(p[prog.free])):
        raise InfeasibleDesignError("the initial point is infeasible")
    return p


def _run(prog, start, entry):
    """One barrier run from ``start``, recording the start, every Newton
    step and the final design with (objective, residual, msd) = entry(p)."""
    trace = SolverTrace()

    def record(p):
        trace.record(p, *entry(p))

    record(start)
    x, trace.converged = _barrier(prog, start[prog.free], record)
    final = _truncate(prog.point(x))
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

    def entry(p):
        lam = inst.lam_min(p)
        residual = max(lam_t - lam, 0.5 * mu * inst.tr_g(p) - gamma * lam, 0.0)
        return p.sum(), residual, inst.exact_msd(p, mu)

    return _run(_Barrier(inst, [rate, bound], objective=np.ones(inst.n)), center, entry)


def sca_min_rate(spec: DesignSpec, initial=None):
    """Minimize sum(p) subject to the convergence-rate floor and the exact
    MSD constraint MSD(p) <= gamma.

    One barrier run on the exact MSD, whose Newton steps fall back on the
    SCA surrogate's curvature where the exact Hessian leaves the Newton
    matrix indefinite.  It starts inside the convex bound's feasible set,
    which lies inside the exact one, or at ``initial`` pulled strictly
    inside.
    """
    inst, lam_t, rate, _, center = _min_rate_setup(spec, "sca_min_rate")
    mu, gamma = spec.mu, spec.msd_target
    msd = _msd(inst, mu)

    def entry(p):
        value = msd(p)
        return p.sum(), max(lam_t - inst.lam_min(p), value - gamma, 0.0), value

    prog = _Barrier(inst, [rate], objective=np.ones(inst.n), constraints=(_msd(inst, mu, gamma),))
    return _run(prog, _start(prog, center, initial), entry)


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


def dinkelbach_min_msd(spec: DesignSpec, initial=None):
    """Minimize the MSD upper bound Tr(G(p)) / lambda_min(H(p)) over the
    rate-and-budget feasible set by Dinkelbach's parametric method.

    Each round minimizes Tr(G(p)) - w s over H(p) >= s I, one barrier run
    from the interior start (or ``initial``, pulled strictly inside), and
    updates w to the new ratio.  A round is kept only if it lowers the
    ratio, and the method stops once the round's value is within GAP of 0.
    The recorded objective is the bound value (mu/2) * ratio.
    """
    inst, lam_t, rate, center = _min_msd_setup(spec, "dinkelbach_min_msd")
    mu = spec.mu
    epigraph = (np.zeros(inst.n), 0.0, 1.0)
    trace = SolverTrace()

    def record(q):
        lam = inst.lam_min(q)
        trace.record(q, 0.5 * mu * inst.tr_g(q) / lam, max(lam_t - lam, 0.0),
                     inst.exact_msd(q, mu))

    p = start = _start(_Barrier(inst, [rate], budget=spec.budget), center, initial)
    record(p)
    omega = inst.tr_g(p) / inst.lam_min(p)
    converged = True
    while True:
        prog = _Barrier(inst, [rate, epigraph], objective=np.append(inst.g_lin, -omega),
                        budget=spec.budget, epigraph=True)
        x, converged = _barrier(prog, np.append(start[prog.free], lam_t))
        q = prog.point(x)
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


def sca_min_msd(spec: DesignSpec, initial=None):
    """Minimize the exact MSD over the rate-and-budget feasible set: one
    barrier run whose Newton steps fall back on the curvature of the SCA
    surrogate of :func:`sca_msd_surrogate` where the exact Hessian leaves
    the Newton matrix indefinite."""
    inst, lam_t, rate, center = _min_msd_setup(spec, "sca_min_msd")
    msd = _msd(inst, spec.mu)

    def entry(p):
        value = msd(p)
        return value, max(lam_t - inst.lam_min(p), 0.0), value

    prog = _Barrier(inst, [rate], objective=msd, budget=spec.budget)
    return _run(prog, _start(prog, center, initial), entry)


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
    trace_inv = _trace_inverse(inst, 0.0)
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

    prog = _Barrier(inst, objective=np.ones(inst.n),
                    constraints=(_trace_inverse(inst, t_target),))
    # the trace inverse scales as 1/theta along theta * p_max, so this start
    # lies strictly inside
    return _run(prog, 0.5 * (1.0 + t_ceiling / t_target) * inst.ub, entry)
