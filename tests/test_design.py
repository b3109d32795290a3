"""Sampling-design solvers checked against independent oracles.

The 3-node path admits closed-form 2x2 spectral algebra, so the small
programs are cross-checked against an exhaustive grid over the probability
box evaluated with hand-derived eigenvalue formulas; the gradients and
Hessians the barrier core runs (the exact MSD, the RLS trace inverse and
the LMI log-det terms) are checked against central finite differences, and
the convex min-rate program against a cutting-plane lower bound.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from graphadapt import design
from graphadapt.design import (
    DesignSpec,
    InfeasibleDesignError,
    dinkelbach_min_msd,
    sca_min_msd,
    sca_min_rate,
    solve_min_rate_convex,
    solve_rls_design,
)
from graphadapt.filters import _lms_msd, _rls_trace_inverse, lms_msd_theory, rls_msd_theory
from graphadapt.graphs import Bandlimit, build_laplacian, eigendecompose, random_geometric_graph
from graphadapt.harness import build_setup, load_config, resolve_sampling
from graphadapt.sampling import NoiseModel, SamplingProbabilities, weighted_gram

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MU = 0.1
# lambda floor implied by rate target 0.98 at mu = 0.1
LAM_T = 0.1


def random_instance(n=8, f=3, seed=5, noise_seed=3):
    g = random_geometric_graph(n, radius=0.8, seed=seed)
    b = Bandlimit.lowest(eigendecompose(build_laplacian(g)), f)
    rng = np.random.default_rng(noise_seed)
    noise = NoiseModel(rng.uniform(0.005, 0.05, size=n))
    return b, noise


def path3_grid(step=0.01):
    """All probability vectors on a regular grid over [0,1]^3 together with
    closed-form lambda_min of the expected Gram for the 2-frequency path."""
    axis = np.linspace(0.0, 1.0, round(1.0 / step) + 1)
    p0, p1, p2 = np.meshgrid(axis, axis, axis, indexing="ij")
    p0, p1, p2 = p0.ravel(), p1.ravel(), p2.ravel()
    h11 = (p0 + p1 + p2) / 3.0
    h22 = (p0 + p2) / 2.0
    h12 = (p0 - p2) / math.sqrt(6.0)
    mid = (h11 + h22) / 2.0
    gap = (h11 - h22) / 2.0
    lam = mid - np.sqrt(gap ** 2 + h12 ** 2)
    return p0, p1, p2, lam


# ------------------------------------------------------------- derivatives


def msd_gradient(p, noise, b):
    """The gradient of the exact MSD that the design solvers run."""
    return _lms_msd(b, noise.variances, p, MU, derivs=True)[1]


def central_differences(fn, p, h=1e-6):
    """Column j holds (fn(p + h e_j) - fn(p - h e_j)) / 2h."""
    cols = []
    for j in range(p.size):
        lo, hi = p.copy(), p.copy()
        lo[j] -= h
        hi[j] += h
        cols.append((np.asarray(fn(hi)) - np.asarray(fn(lo))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def test_msd_gradient_matches_finite_differences():
    b, noise = random_instance()
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(5):
        p = rng.uniform(0.3, 0.9, size=b.n)
        grad = msd_gradient(p, noise, b)
        for i in range(b.n):
            lo, hi = p.copy(), p.copy()
            lo[i] -= h
            hi[i] += h
            fd = (
                lms_msd_theory(SamplingProbabilities(hi), MU, noise, b)
                - lms_msd_theory(SamplingProbabilities(lo), MU, noise, b)
            ) / (2.0 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def msd_hessian_parts(spec, p):
    """The exact MSD Hessian and excess of the engine at p, and K = U H^-1 U^T,
    L = U H^-1 G H^-1 U^T formed with an explicit inverse."""
    u = spec.bandlimit.basis_slice
    _, _, hess, excess = _lms_msd(spec.bandlimit, spec.noise.variances, p, MU, derivs=True)
    h_inv = np.linalg.inv(weighted_gram(spec.bandlimit, p))
    g = weighted_gram(spec.bandlimit, p * spec.noise.variances)
    return hess, excess, u @ h_inv @ u.T, u @ h_inv @ g @ h_inv @ u.T


def test_msd_hessian_matches_finite_differences():
    spec = golden_instance()[1]
    b, noise = spec.bandlimit, spec.noise
    p = 0.5 * spec.bounds
    hess, _, _, _ = msd_hessian_parts(spec, p)
    fd = central_differences(lambda q: msd_gradient(q, noise, b), p)
    np.testing.assert_allclose(hess, fd, rtol=1e-5, atol=1e-8 * np.abs(hess).max())
    # the MSD is not convex: its Hessian here has a negative eigenvalue
    assert np.linalg.eigvalsh(hess)[0] < 0.0


def test_psd_curvature_less_exact_hessian_is_the_excess():
    spec = golden_instance()[1]
    b, sig2 = spec.bandlimit, spec.noise.variances
    u = b.basis_slice
    rng = np.random.default_rng(71)
    for _ in range(5):
        p = rng.uniform(0.2, 1.0, size=b.n) * spec.bounds
        hess, excess, k, l = msd_hessian_parts(spec, p)
        psd = MU * k * l
        np.testing.assert_allclose(excess, 0.5 * MU * (sig2[:, None] + sig2) * k * k,
                                   rtol=1e-9, atol=1e-14)
        np.testing.assert_allclose(psd - hess, excess, rtol=1e-9, atol=1e-14)
        # the PSD curvature is the Hessian at q = p of the convex part
        # (mu/2) Tr[H(q)^-1 G(p)] of the MSD, whose gradient is
        # -(mu/2) diag(U H(q)^-1 G(p) H(q)^-1 U^T)
        g_p = weighted_gram(b, p * sig2)

        def convex_part_gradient(q):
            r = u @ np.linalg.inv(weighted_gram(b, q))
            return -0.5 * MU * np.einsum("ij,jk,ik->i", r, g_p, r)

        np.testing.assert_allclose(central_differences(convex_part_gradient, p), psd,
                                   rtol=1e-5, atol=1e-8 * np.abs(psd).max())
        assert np.linalg.eigvalsh(psd)[0] >= -1e-12 * np.abs(psd).max()


def test_rls_trace_inverse_derivatives_match_finite_differences():
    spec = golden_instance()[2]
    b, sig2 = spec.bandlimit, spec.noise.variances
    rng = np.random.default_rng(83)
    for _ in range(5):
        p = rng.uniform(0.2, 1.0, size=b.n) * spec.bounds
        value, grad, hess, excess = _rls_trace_inverse(b, sig2, p, derivs=True)
        assert value == pytest.approx(_rls_trace_inverse(b, sig2, p), rel=1e-12)
        assert excess == 0.0
        fd_grad = central_differences(lambda q: _rls_trace_inverse(b, sig2, q), p)
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-5, atol=1e-8 * np.abs(grad).max())
        fd_hess = central_differences(lambda q: _rls_trace_inverse(b, sig2, q, True)[1], p)
        np.testing.assert_allclose(hess, fd_hess, rtol=1e-5, atol=1e-8 * np.abs(hess).max())


def lmi_terms(prog, box):
    """The LMI terms of barrier ``prog``: its value, gradient and Hessian
    less those of ``box``, the same program without LMIs."""
    def fn(x, derivs=False):
        if not derivs:
            return prog(x) - box(x)
        full, only_box = prog(x, True), box(x, True)
        return tuple(a - c for a, c in zip(full[:3], only_box[:3]))
    return fn


@pytest.mark.parametrize("epigraph", [False, True])
def test_lmi_barrier_derivatives_match_finite_differences(epigraph):
    # -log det(H(p) - (c @ p + const + e s) I), with a rank-one term in c and,
    # for the epigraph program, a margin variable s
    spec = golden_instance()[0]
    inst = design._Instance(spec.bandlimit, spec.noise, spec.bounds)
    lam_t = spec.lambda_target()
    c = 0.5 * spec.mu / spec.msd_target * inst.g_lin
    lmis = [(np.zeros(inst.n), lam_t, float(epigraph)), (c, 0.0, 0.0)]
    prog = design._Barrier(inst, lmis, epigraph=epigraph)
    box = design._Barrier(inst, epigraph=epigraph)
    fn = lmi_terms(prog, box)
    x = 0.9 * spec.bounds
    if epigraph:
        x = np.append(x, -0.01)
    assert math.isfinite(prog(x))
    _, grad, hess = fn(x, True)
    fd_grad = central_differences(fn, x)
    np.testing.assert_allclose(grad, fd_grad, rtol=1e-5, atol=1e-8 * np.abs(grad).max())
    fd_hess = central_differences(lambda y: fn(y, True)[1], x)
    np.testing.assert_allclose(hess, fd_hess, rtol=1e-5, atol=1e-8 * np.abs(hess).max())


def test_lmi_barrier_first_order_inequality():
    # -log det(H(p) - l I) is convex in p, so its first-order expansion at
    # any interior point stays below it
    b, noise = random_instance()
    inst = design._Instance(b, noise, np.ones(b.n))
    box = design._Barrier(inst)
    rng = np.random.default_rng(41)
    for _ in range(20):
        p = rng.uniform(0.2, 1.0, size=b.n)
        q = rng.uniform(0.2, 1.0, size=b.n)
        floor = 0.5 * min(inst.lam_min(p), inst.lam_min(q))
        fn = lmi_terms(design._Barrier(inst, [(np.zeros(b.n), floor, 0.0)]), box)
        value, grad, _ = fn(p, True)
        assert fn(q) >= value + float(grad @ (q - p)) - 1e-10


# ------------------------------------------------ budget-minimal rate design


class TestMinRateConvex:
    def spec(self, path3_band, white_noise3, **kw):
        args = dict(bandlimit=path3_band, noise=white_noise3, mu=MU,
                    rate_target=0.98, msd_target=1e-2)
        args.update(kw)
        return DesignSpec(**args)

    def test_grid_oracle(self, path3_band, white_noise3):
        probs, trace = solve_min_rate_convex(self.spec(path3_band, white_noise3))
        lam = float(np.linalg.eigvalsh(weighted_gram(path3_band, probs.probs))[0])
        assert lam >= LAM_T - 1e-9

        p0, p1, p2, lam_grid = path3_grid(step=0.01)
        feas = lam_grid >= LAM_T - 1e-12
        grid_min = float((p0 + p1 + p2)[feas].min())
        total = float(probs.probs.sum())
        # continuous optimum can only undercut the grid by its resolution
        assert total <= grid_min + 1e-6
        assert total >= grid_min - 0.03
        assert trace.converged

    def test_rate_constraint_is_tight(self, path3_band, white_noise3):
        # scaling the solution onto the active constraint is exact because
        # the Gram matrix is linear in p
        probs, _ = solve_min_rate_convex(self.spec(path3_band, white_noise3))
        lam = float(np.linalg.eigvalsh(weighted_gram(path3_band, probs.probs))[0])
        assert lam == pytest.approx(LAM_T, rel=1e-6)

    def test_msd_bound_constraint_holds(self, path3_band, white_noise3):
        gamma = 5e-3
        probs, _ = solve_min_rate_convex(
            self.spec(path3_band, white_noise3, msd_target=gamma))
        lam = float(np.linalg.eigvalsh(weighted_gram(path3_band, probs.probs))[0])
        tr_g = float(np.trace(weighted_gram(path3_band, probs.probs * white_noise3.variances)))
        assert 0.5 * MU * tr_g <= gamma * lam + 1e-9

    def test_respects_per_vertex_bounds(self, path3_band, white_noise3):
        bounds = np.array([1.0, 0.0, 1.0])
        probs, _ = solve_min_rate_convex(
            self.spec(path3_band, white_noise3, bounds=bounds))
        assert probs.probs[1] == 0.0
        lam = float(np.linalg.eigvalsh(weighted_gram(path3_band, probs.probs))[0])
        assert lam >= LAM_T - 1e-9

    def test_infeasible_rate_reports_ceiling(self, path3_band, white_noise3):
        # rate 0.9 at mu = 0.1 needs lambda_min >= 0.5, but the box tops out at 1/2
        # only for the full vector; cap the bounds to make it unreachable
        with pytest.raises(InfeasibleDesignError) as err:
            solve_min_rate_convex(
                self.spec(path3_band, white_noise3, rate_target=0.9, bounds=0.3))
        ceiling = float(np.linalg.eigvalsh(weighted_gram(path3_band, np.full(3, 0.3)))[0])
        assert err.value.max_achievable_lambda == pytest.approx(ceiling, rel=1e-12)

    def test_missing_fields_rejected(self, path3_band, white_noise3):
        with pytest.raises(ValueError):
            solve_min_rate_convex(DesignSpec(
                bandlimit=path3_band, noise=white_noise3, mu=MU, rate_target=0.98))

    def test_deterministic(self, path3_band, white_noise3):
        a, _ = solve_min_rate_convex(self.spec(path3_band, white_noise3))
        b, _ = solve_min_rate_convex(self.spec(path3_band, white_noise3))
        assert np.array_equal(a.probs, b.probs)

    def test_no_subtruncation_dust(self, path3_band, white_noise3):
        probs, _ = solve_min_rate_convex(self.spec(path3_band, white_noise3))
        tiny = (probs.probs > 0) & (probs.probs < 1e-9)
        assert not tiny.any()


def test_sca_min_rate_refines_convex_solution():
    b, noise = random_instance()
    spec = DesignSpec(bandlimit=b, noise=noise, mu=MU, rate_target=0.98,
                      msd_target=1e-2)
    convex, _ = solve_min_rate_convex(spec)
    refined, trace = sca_min_rate(spec)
    lam = float(np.linalg.eigvalsh(weighted_gram(b, refined.probs))[0])
    assert lam >= LAM_T - 1e-9
    assert float(refined.probs.sum()) <= float(convex.probs.sum()) + 1e-6
    assert trace.iterations >= 1


# ----------------------------------------------------- MSD-optimal sampling


@pytest.fixture(scope="module")
def hetero_noise3():
    return NoiseModel(np.array([0.005, 0.02, 0.01]))


def path3_bound_values(p0, p1, p2, lam, variances):
    row2 = np.array([5.0 / 6.0, 1.0 / 3.0, 5.0 / 6.0])
    tr_g = (variances[0] * row2[0] * p0
            + variances[1] * row2[1] * p1
            + variances[2] * row2[2] * p2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lam > 0, 0.5 * MU * tr_g / lam, np.inf)


class TestDinkelbach:
    def spec(self, path3_band, noise, **kw):
        args = dict(bandlimit=path3_band, noise=noise, mu=MU, rate_target=0.98)
        args.update(kw)
        return DesignSpec(**args)

    def test_grid_oracle(self, path3_band, hetero_noise3):
        probs, trace = dinkelbach_min_msd(self.spec(path3_band, hetero_noise3))
        lam = float(np.linalg.eigvalsh(weighted_gram(path3_band, probs.probs))[0])
        assert lam >= LAM_T - 1e-9

        p0, p1, p2, lam_grid = path3_grid(step=0.01)
        bound = path3_bound_values(p0, p1, p2, lam_grid, hetero_noise3.variances)
        feas = lam_grid >= LAM_T - 1e-12
        grid_min = float(bound[feas].min())
        assert trace.objectives[-1] <= grid_min + 1e-4
        assert trace.objectives[-1] >= grid_min - 5e-3
        assert trace.converged

    def test_objective_nonincreasing(self, path3_band, hetero_noise3):
        _, trace = dinkelbach_min_msd(self.spec(path3_band, hetero_noise3))
        objs = trace.objectives
        assert all(objs[k + 1] <= objs[k] + 1e-10 for k in range(len(objs) - 1))

    def test_budget_respected(self, path3_band, hetero_noise3):
        budget = 1.2
        probs, _ = dinkelbach_min_msd(
            self.spec(path3_band, hetero_noise3, budget=budget))
        assert float(probs.probs.sum()) <= budget + 1e-9
        lam = float(np.linalg.eigvalsh(weighted_gram(path3_band, probs.probs))[0])
        assert lam >= LAM_T - 1e-9

    def test_missing_fields_rejected(self, path3_band, hetero_noise3):
        with pytest.raises(ValueError):
            dinkelbach_min_msd(DesignSpec(
                bandlimit=path3_band, noise=hetero_noise3, mu=MU))


class TestScaMinMsd:
    def test_beats_random_feasible_points(self, path3_band, hetero_noise3):
        spec = DesignSpec(bandlimit=path3_band, noise=hetero_noise3, mu=MU,
                          rate_target=0.98)
        probs, trace = sca_min_msd(spec)
        lam = float(np.linalg.eigvalsh(weighted_gram(path3_band, probs.probs))[0])
        assert lam >= LAM_T - 1e-9
        final = lms_msd_theory(probs, MU, hetero_noise3, path3_band)
        assert final == pytest.approx(trace.msd_values[-1], rel=1e-9)

        rng = np.random.default_rng(67)
        checked = 0
        while checked < 2000:
            q = rng.uniform(0.0, 1.0, size=3)
            if np.linalg.eigvalsh(weighted_gram(path3_band, q))[0] < LAM_T:
                continue
            checked += 1
            assert final <= lms_msd_theory(
                SamplingProbabilities(q), MU, hetero_noise3, path3_band) + 1e-9

    def test_at_most_the_parametric_bound(self, path3_band, hetero_noise3):
        # the exact-MSD minimum can never exceed the optimized upper bound
        spec = DesignSpec(bandlimit=path3_band, noise=hetero_noise3, mu=MU,
                          rate_target=0.98)
        _, bound_trace = dinkelbach_min_msd(spec)
        probs, _ = sca_min_msd(spec)
        exact = lms_msd_theory(probs, MU, hetero_noise3, path3_band)
        assert exact <= bound_trace.objectives[-1] + 1e-9

    def test_msd_trace_improves(self, path3_band, hetero_noise3):
        spec = DesignSpec(bandlimit=path3_band, noise=hetero_noise3, mu=MU,
                          rate_target=0.98)
        _, trace = sca_min_msd(spec)
        assert trace.msd_values[-1] <= trace.msd_values[0] + 1e-12


@pytest.mark.parametrize("solver", [dinkelbach_min_msd, sca_min_msd])
@pytest.mark.parametrize("budget", [0.5, 1.0, 2.0])
def test_min_msd_unreachable_rate_reports_budget_ceiling(solver, budget):
    """With the constant eigenvector u_1 = 1/sqrt(n) in the band,
    lambda_min(H(p)) <= u_1^T H(p) u_1 = sum(p) / n <= B / n, and p = (B/n) 1
    attains it with H = (B/n) I: the largest achievable lambda_min is B / n,
    below lambda_t = 0.5 for every budget here."""
    n = 10
    g = random_geometric_graph(n, radius=0.6, seed=3)
    b = Bandlimit.lowest(eigendecompose(build_laplacian(g)), 3)
    np.testing.assert_allclose(np.abs(b.basis_slice[:, 0]), 1.0 / math.sqrt(n))
    spec = DesignSpec(bandlimit=b, noise=NoiseModel.uniform(n, 0.01), mu=MU,
                      rate_target=0.9, budget=budget)
    with pytest.raises(InfeasibleDesignError, match="unreachable under the budget") as err:
        solver(spec)
    assert err.value.max_achievable_lambda == pytest.approx(budget / n, rel=1e-8)


# -------------------------------------------------------------- RLS design


class TestRlsDesign:
    def spec(self, path3_band, white_noise3, **kw):
        args = dict(bandlimit=path3_band, noise=white_noise3, beta=0.95,
                    msd_target=1e-3)
        args.update(kw)
        return DesignSpec(**args)

    def test_grid_oracle(self, path3_band, white_noise3):
        probs, trace = solve_rls_design(self.spec(path3_band, white_noise3))
        msd = rls_msd_theory(probs, 0.95, white_noise3, path3_band)
        assert msd <= 1e-3 + 1e-9

        # information matrix is 100x the Gram, so Tr inverse comes from the
        # same closed-form 2x2 algebra
        p0, p1, p2, lam_grid = path3_grid(step=0.01)
        h11 = (p0 + p1 + p2) / 3.0
        h22 = (p0 + p2) / 2.0
        det = lam_grid * (h11 + h22 - lam_grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            tr_inv = np.where(det > 0, (h11 + h22) / det / 100.0, np.inf)
        t_target = 1e-3 * 1.95 / 0.05
        feas = tr_inv <= t_target + 1e-12
        grid_min = float((p0 + p1 + p2)[feas].min())
        total = float(probs.probs.sum())
        assert total <= grid_min + 1e-6
        assert total >= grid_min - 0.03
        assert trace.converged

    def test_target_is_tight(self, path3_band, white_noise3):
        probs, _ = solve_rls_design(self.spec(path3_band, white_noise3))
        msd = rls_msd_theory(probs, 0.95, white_noise3, path3_band)
        assert msd == pytest.approx(1e-3, rel=1e-6)

    def test_infeasible_target_reports_floor(self, path3_band, white_noise3):
        with pytest.raises(InfeasibleDesignError) as err:
            solve_rls_design(self.spec(path3_band, white_noise3, msd_target=1e-5))
        floor = rls_msd_theory(
            SamplingProbabilities.full(3), 0.95, white_noise3, path3_band)
        assert err.value.min_achievable_msd == pytest.approx(floor, rel=1e-9)

    def test_missing_fields_rejected(self, path3_band, white_noise3):
        with pytest.raises(ValueError):
            solve_rls_design(DesignSpec(
                bandlimit=path3_band, noise=white_noise3, beta=0.95))


# -------------------------------------------------------------- spec checks


class TestDesignSpecValidation:
    def test_parameter_ranges(self, path3_band, white_noise3):
        base = dict(bandlimit=path3_band, noise=white_noise3)
        with pytest.raises(ValueError):
            DesignSpec(mu=0.0, **base)
        with pytest.raises(ValueError):
            DesignSpec(beta=1.0, **base)
        with pytest.raises(ValueError):
            DesignSpec(rate_target=1.0, mu=MU, **base)
        with pytest.raises(ValueError):
            DesignSpec(msd_target=0.0, **base)

    def test_bounds_validation(self, path3_band, white_noise3):
        base = dict(bandlimit=path3_band, noise=white_noise3, mu=MU)
        with pytest.raises(ValueError):
            DesignSpec(bounds=np.ones(4), **base)
        with pytest.raises(ValueError):
            DesignSpec(bounds=1.5, **base)
        spec = DesignSpec(bounds=0.5, **base)
        np.testing.assert_allclose(spec.bounds, np.full(3, 0.5))

    @pytest.mark.parametrize("kw, message", [
        (dict(mu=math.nan), "step size mu"),
        (dict(mu=MU, msd_target=math.nan), "MSD target"),
        (dict(mu=MU, bounds=[1.0, math.nan, 1.0]), "bounds must lie in"),
    ], ids=["mu", "msd_target", "bounds"])
    def test_rejects_nan(self, path3_band, white_noise3, kw, message):
        with pytest.raises(ValueError, match=message):
            DesignSpec(bandlimit=path3_band, noise=white_noise3, **kw)

    def test_barrier_needs_a_strictly_feasible_start(self, path3_band, white_noise3):
        inst = design._Instance(path3_band, white_noise3, np.ones(3))
        with pytest.raises(InfeasibleDesignError, match="not strictly feasible"):
            design._barrier(design._Barrier(inst, objective=np.ones(3)), np.ones(3))

    def test_budget_validation(self, path3_band, white_noise3):
        base = dict(bandlimit=path3_band, noise=white_noise3, mu=MU)
        with pytest.raises(ValueError):
            DesignSpec(budget=3.5, **base)
        with pytest.raises(ValueError):
            DesignSpec(budget=-0.1, **base)

    def test_noise_size_mismatch(self, path3_band):
        with pytest.raises(ValueError):
            DesignSpec(bandlimit=path3_band, noise=NoiseModel.uniform(4, 0.01))

    def test_lambda_target(self, path3_band, white_noise3):
        spec = DesignSpec(bandlimit=path3_band, noise=white_noise3, mu=MU,
                          rate_target=0.98)
        assert spec.lambda_target() == pytest.approx(LAM_T, rel=1e-12)
        bare = DesignSpec(bandlimit=path3_band, noise=white_noise3)
        with pytest.raises(ValueError):
            bare.lambda_target()


# ---------------------------------------------------- closed-form oracle


@pytest.mark.parametrize("n, seed", [(8, 5), (11, 8)])
def test_min_rate_uniform_optimum_on_lowest_band(n, seed):
    # Bandlimit.lowest holds the constant eigenvector 1/sqrt(n), so
    # lambda_min(H(p)) <= sum(p)/n and no feasible p has sum(p) < n lambda_t;
    # p = lambda_t 1 reaches it whenever it passes the box and the MSD bound
    b, noise = random_instance(n=n, seed=seed)
    spec = DesignSpec(bandlimit=b, noise=noise, mu=MU, rate_target=0.98, msd_target=1e-2)
    lam_t = spec.lambda_target()
    uniform = np.full(n, lam_t)
    tr_g = float(np.trace(weighted_gram(b, uniform * noise.variances)))
    assert 0.5 * MU * tr_g <= spec.msd_target * lam_t
    probs, _ = solve_min_rate_convex(spec)
    # the barrier ends within its duality-gap bound 1e-9 of the optimum
    assert n * lam_t * (1 - 1e-12) <= probs.probs.sum() <= n * lam_t * (1 + 1e-6)


# ------------------------------------------------------ optimality oracle


def kelley_min_rate_bound(spec, tol=1e-7, rounds=200):
    """Lower bound on the optimum of solve_min_rate_convex's program by
    Kelley's cutting planes.  For every unit v both constraints imply one
    inequality linear in p: v^T H(p) v >= lambda_t and
    (mu/2) Tr G(p) <= gamma v^T H(p) v.  The LP over any set of such cuts
    relaxes the program; cuts at the bottom eigenvector of each LP solution
    are added until it violates the constraints by at most ``tol``, about
    where the LP solver's feasibility tolerance stalls the method."""
    u = spec.bandlimit.basis_slice
    n, f = u.shape
    lam_t, gamma = spec.lambda_target(), spec.msd_target
    half_g = 0.5 * spec.mu * spec.noise.variances * (u ** 2).sum(axis=1)
    rows, rhs = [], []

    def cut(v):
        w = (u @ v) ** 2
        rows.extend([-w, half_g - gamma * w])
        rhs.extend([-lam_t, 0.0])

    for v in np.eye(f):
        cut(v)
    for _ in range(rounds):
        res = linprog(np.ones(n), A_ub=np.array(rows), b_ub=np.array(rhs),
                      bounds=np.column_stack([np.zeros(n), spec.bounds]))
        vals, vecs = np.linalg.eigh(weighted_gram(spec.bandlimit, res.x))
        if max(lam_t - vals[0], half_g @ res.x - gamma * vals[0]) <= tol:
            return res.fun
        cut(vecs[:, 0])
    raise AssertionError("the cutting planes did not converge")


@pytest.mark.parametrize("zero_caps", [(), (3,)], ids=["no_zero_cap", "vertex3_capped_at_0"])
def test_min_rate_convex_reaches_the_cutting_plane_bound(zero_caps):
    # a non-degenerate instance: the band leaves out the constant vector
    # and some per-vertex bounds bind
    spec = golden_instance(zero_caps)[0]
    lower = kelley_min_rate_bound(spec)
    total = float(solve_min_rate_convex(spec)[0].probs.sum())
    assert lower <= total <= lower * (1.0 + 1e-6)


# ---------------------------------------------------------- golden designs

# SHA-256 of probs.tobytes() followed by the trace objectives (float64) of
# each solver on golden_instance(), as computed by the log-barrier engine;
# a change to the engine that moves a design or its trace shows here.
GOLDEN_DESIGNS = {
    "min_rate_convex":
        "64f69ae3438f33e65c383932045d34662e71875c61fc75d657d8490779d2838c",
    "sca_min_rate":
        "91999ed7f71e9db7543625e56824012aa4a8564681bee163b85d4d13b26de268",
    "dinkelbach":
        "5b79291a96c5856c31d0c00f800d11dd13686f8a1e0872d9a94bc161052343d7",
    "sca_min_msd":
        "fb7a59582c58244d4d690ad3da791218fd3a9318a4ecf446e1aa402cbd373490",
    "rls":
        "f9753b7de0875c301cb0020698be499c1b44fde09ea30e4eefef720070d86a79",
}


def golden_instance(zero_caps=()):
    """n=10 with the constant eigenvector left out of the band, per-vertex
    bounds that cap some entries, and a budget that binds the MSD designs;
    the vertices in ``zero_caps`` are capped at 0."""
    n = 10
    g = random_geometric_graph(n, radius=0.6, seed=3)
    b = Bandlimit.from_indices(eigendecompose(build_laplacian(g)), (1, 2, 4))
    rng = np.random.default_rng(3)
    noise = NoiseModel(rng.uniform(0.005, 0.03, n))
    bounds = np.round(rng.uniform(0.3, 1.0, n), 2)
    bounds[list(zero_caps)] = 0.0
    common = dict(bandlimit=b, noise=noise, bounds=bounds)
    return (DesignSpec(**common, mu=MU, rate_target=0.9, msd_target=1e-2),
            DesignSpec(**common, mu=MU, rate_target=0.9, budget=3.6),
            DesignSpec(**common, beta=0.95, msd_target=1e-2))


def golden_problems(zero_caps=()):
    """Each solver of GOLDEN_DESIGNS with its spec from golden_instance()."""
    rate, budget, rls = golden_instance(zero_caps)
    return {
        "min_rate_convex": (solve_min_rate_convex, rate),
        "sca_min_rate": (sca_min_rate, rate),
        "dinkelbach": (dinkelbach_min_msd, budget),
        "sca_min_msd": (sca_min_msd, budget),
        "rls": (solve_rls_design, rls),
    }


@pytest.fixture(scope="module")
def golden_designs():
    return {name: solver(spec) for name, (solver, spec) in golden_problems().items()}


@pytest.mark.parametrize("problem", sorted(GOLDEN_DESIGNS))
def test_design_matches_golden_digest(golden_designs, problem):
    probs, trace = golden_designs[problem]
    digest = hashlib.sha256(probs.probs.tobytes()
                            + np.asarray(trace.objectives).tobytes()).hexdigest()
    assert digest == GOLDEN_DESIGNS[problem]


# sum(p) of each solver on golden_instance() with vertex 3 capped at 0, as
# computed when a capped vertex was left out of the barrier's variables; the
# barrier now keeps it and pins its Newton row
ZERO_CAP_TOTALS = {
    "min_rate_convex": 3.049968889943,
    "sca_min_rate": 3.049968889945,
    "dinkelbach": 3.554839460978,
    "sca_min_msd": 3.599998213252,
    "rls": 0.304173582965,
}


@pytest.mark.parametrize("problem", sorted(ZERO_CAP_TOTALS))
def test_zero_cap_keeps_the_vertex_at_zero(problem):
    solver, spec = golden_problems(zero_caps=(3,))[problem]
    probs, trace = solver(spec)
    p, b, noise = probs.probs, spec.bandlimit, spec.noise
    assert p[3] == 0.0
    assert trace.converged
    assert ((0.0 <= p) & (p <= spec.bounds)).all()
    if problem == "rls":
        assert rls_msd_theory(probs, spec.beta, noise, b) <= spec.msd_target * (1 + 1e-9)
    else:
        lam = float(np.linalg.eigvalsh(weighted_gram(b, p))[0])
        assert lam >= spec.lambda_target() - 1e-9
    if problem == "min_rate_convex":
        tr_g = float(np.trace(weighted_gram(b, p * noise.variances)))
        assert 0.5 * spec.mu * tr_g <= spec.msd_target * lam + 1e-9
    elif problem == "sca_min_rate":
        assert lms_msd_theory(probs, spec.mu, noise, b) <= spec.msd_target * (1 + 1e-9)
    elif spec.budget is not None:
        assert p.sum() <= spec.budget + 1e-9
    assert p.sum() == pytest.approx(ZERO_CAP_TOTALS[problem], rel=1e-9, abs=0.0)


# ------------------------------------------------------- exact-MSD solvers

# Final objectives of the exact-MSD solvers when their Newton model used the
# surrogate's PSD curvature at every step.  The exact Hessian changes the path,
# not the optimum; the barrier stops within its gap bound m/t <= 1e-9 of it,
# and on the golden budget instance both engines stop about 1.1e-7 (relative)
# above the optimum and 1.15e-8 apart, so that pin allows 2e-8.
@pytest.mark.parametrize("case, before, rel", [
    ("sca_min_rate", 3.049968889933388, 1e-8),
    ("sca_min_msd", 0.0014107098719623908, 2e-8),
    ("design_min_msd.yaml", 0.0030825819759142756, 1e-8),
])
def test_sca_objective_matches_the_surrogate_curvature_engine(golden_designs, case,
                                                              before, rel):
    if case in golden_designs:
        _, trace = golden_designs[case]
    else:
        _, trace = design_config(case)
    assert trace.objectives[-1] == pytest.approx(before, rel=rel, abs=0.0)


def test_sca_min_msd_ends_within_the_gap_bound(golden_designs, monkeypatch):
    _, trace = golden_designs["sca_min_msd"]
    bound = design.GAP
    monkeypatch.setattr(design, "GAP", 1e-13)
    _, tight = sca_min_msd(golden_instance()[1])
    assert 0.0 <= trace.objectives[-1] - tight.objectives[-1] <= bound


def design_config(name, **edits):
    config = load_config(CONFIG_DIR / name)
    config["sampling"].update(edits)
    return resolve_sampling(build_setup(config))


@pytest.mark.parametrize("edits, ceiling", [({}, 150), ({"budget": 6}, 200)])
def test_sca_min_msd_newton_steps(edits, ceiling):
    # with the PSD curvature alone these took 389 and 1,848 steps
    _, trace = design_config("design_min_msd.yaml", **edits)
    assert trace.converged
    assert trace.iterations <= ceiling
