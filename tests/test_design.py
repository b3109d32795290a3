"""Sampling-design solvers checked against independent oracles.

The 3-node path admits closed-form 2x2 spectral algebra, so the small
programs are cross-checked against an exhaustive grid over the probability
box evaluated with hand-derived eigenvalue formulas; the gradients and
Hessians the barrier core runs (the exact MSD, the RLS trace inverse and
the LMI log-det terms) are checked against central finite differences, and
the convex min-rate program against a cutting-plane lower bound.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from graphadapt import design, sampling
from graphadapt.design import (
    DesignSpec,
    InfeasibleDesignError,
    dinkelbach_min_msd,
    sca_min_msd,
    sca_min_rate,
    solve_min_rate_convex,
    solve_rls_design,
)
from graphadapt.filters import (
    _lms_msd,
    _rls_trace_inverse,
    lms_msd_theory,
    lms_msd_upper_bound,
    rls_msd_theory,
)
from graphadapt.graphs import (
    Bandlimit,
    build_laplacian,
    connected_components,
    eigendecompose,
    random_geometric_graph,
)
from graphadapt.harness import build_setup, load_config, resolve_sampling
from graphadapt.sampling import NoiseModel, SamplingProbabilities, _Instance, weighted_gram

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BENCH_CONFIG_DIR = CONFIG_DIR.parent / "benchmarks" / "configs"
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
    return _lms_msd(_Instance(b, noise), p, MU, derivs=True)[1]


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
    """The exact MSD Hessian of the engine at p, and K = U H^-1 U^T,
    L = U H^-1 G H^-1 U^T formed with an explicit inverse."""
    u = spec.bandlimit.basis_slice
    _, _, hess = _lms_msd(_Instance(spec.bandlimit, spec.noise), p, MU, derivs=True)
    h_inv = np.linalg.inv(weighted_gram(spec.bandlimit, p))
    g = weighted_gram(spec.bandlimit, p * spec.noise.variances)
    return hess, u @ h_inv @ u.T, u @ h_inv @ g @ h_inv @ u.T


def test_msd_hessian_matches_finite_differences():
    spec = golden_instance()[1]
    b, noise = spec.bandlimit, spec.noise
    sig2 = noise.variances
    rng = np.random.default_rng(71)
    points = [0.5 * spec.bounds] + [rng.uniform(0.2, 1.0, size=b.n) * spec.bounds
                                    for _ in range(5)]
    for p in points:
        hess, k, l = msd_hessian_parts(spec, p)
        fd = central_differences(lambda q: msd_gradient(q, noise, b), p)
        np.testing.assert_allclose(hess, fd, rtol=1e-5, atol=1e-8 * np.abs(hess).max())
        # the closed form mu K o L - (mu/2)(sigma_i^2 + sigma_j^2) K_ij^2
        np.testing.assert_allclose(hess, MU * k * l - 0.5 * MU * (sig2[:, None] + sig2) * k * k,
                                   rtol=1e-9, atol=1e-14)
    # the MSD is not convex: its Hessian at p_max / 2 has a negative eigenvalue
    assert np.linalg.eigvalsh(msd_hessian_parts(spec, points[0])[0])[0] < 0.0


def test_rls_trace_inverse_derivatives_match_finite_differences():
    spec = golden_instance()[2]
    inst = _Instance(spec.bandlimit, spec.noise)
    rng = np.random.default_rng(83)
    for _ in range(5):
        p = rng.uniform(0.2, 1.0, size=inst.n) * spec.bounds
        value, grad, hess = _rls_trace_inverse(inst, p, derivs=True)
        assert value == pytest.approx(_rls_trace_inverse(inst, p), rel=1e-12)
        fd_grad = central_differences(lambda q: _rls_trace_inverse(inst, q), p)
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-5, atol=1e-8 * np.abs(grad).max())
        fd_hess = central_differences(lambda q: _rls_trace_inverse(inst, q, True)[1], p)
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
    # -log det(H(p) - (c @ p + const) I), with a rank-one term in c and, for
    # the epigraph program, a margin variable s in every LMI
    spec = golden_instance()[0]
    inst = design._Instance(spec.bandlimit, spec.noise, spec.bounds)
    lam_t = spec.lambda_target()
    c = 0.5 * spec.mu / spec.msd_target * inst.g_lin
    lmis = [(np.zeros(inst.n), lam_t), (c, 0.0)]
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
        fn = lmi_terms(design._Barrier(inst, [(np.zeros(b.n), floor)]), box)
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

    def test_bound_is_scale_free_and_met_on_the_rate_floor(self, path3_band, hetero_noise3):
        # the bound does not change when p is scaled, so scaling any feasible
        # point down onto the rate floor loses nothing, and the design is there
        probs, _ = dinkelbach_min_msd(self.spec(path3_band, hetero_noise3))

        def bound(theta):
            return lms_msd_upper_bound(SamplingProbabilities(theta * probs.probs), MU,
                                       hetero_noise3, path3_band)

        for theta in (0.5, 0.9):
            assert bound(theta) == pytest.approx(bound(1.0), rel=1e-12, abs=0.0)
        lam = float(np.linalg.eigvalsh(weighted_gram(path3_band, probs.probs))[0])
        assert abs(lam / LAM_T - 1.0) <= 1e-8

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


def design_min_msd_spec(**edits):
    """The DesignSpec of configs/design_min_msd.yaml, its sampling section
    updated with ``edits``."""
    config = load_config(CONFIG_DIR / "design_min_msd.yaml")
    scfg = dict(config["sampling"], **edits)
    setup = build_setup(config)
    return DesignSpec(bandlimit=setup.bandlimit, noise=setup.noise, mu=scfg["mu"],
                      rate_target=scfg["rate_target"], budget=scfg["budget"],
                      bounds=scfg["p_max"])


@pytest.mark.parametrize("solver", [dinkelbach_min_msd, sca_min_msd])
def test_min_msd_unreachable_rate_reports_phase_one_best(solver):
    """At rate target 0.9, lambda_t = 0.5 lies below the budget's cap 0.706
    on lambda_min, so phase I runs, and the largest lambda_min it finds,
    0.32303, is the reported best: a floor just below it solves."""
    spec = design_min_msd_spec(rate_target=0.9)
    message = "best achievable lambda_min is 0.323029 < required 0.5"
    with pytest.raises(InfeasibleDesignError, match=f"{re.escape(message)}$") as err:
        solver(spec)
    best = err.value.max_achievable_lambda
    assert best == pytest.approx(0.32303, abs=5e-6)

    def floor(lam):
        return dataclasses.replace(spec, rate_target=1.0 - 2.0 * spec.mu * lam)

    probs, _ = solver(floor(0.99 * best))
    assert float(np.linalg.eigvalsh(weighted_gram(spec.bandlimit, probs.probs))[0]) >= \
        0.99 * best * (1 - 1e-9)
    with pytest.raises(InfeasibleDesignError, match="unreachable under the budget"):
        solver(floor(1.01 * best))


def phase_one_overflow_spec(solver):
    """configs/design_min_rate.yaml with noise.high 1e300, whose bound-LMI
    coefficients near 1e298 overflow the first phase-I Hessian, or
    configs/design_min_msd.yaml with p_max 1e-300 at vertex 0, whose box
    slack squared does."""
    if solver in (dinkelbach_min_msd, sca_min_msd):
        p_max = load_config(CONFIG_DIR / "design_min_msd.yaml")["sampling"]["p_max"]
        return design_min_msd_spec(p_max=[1e-300, *p_max[1:]])
    config = load_config(CONFIG_DIR / "design_min_rate.yaml")
    config["noise"]["high"] = 1e300
    setup, scfg = build_setup(config), config["sampling"]
    return DesignSpec(bandlimit=setup.bandlimit, noise=setup.noise, mu=scfg["mu"],
                      rate_target=scfg["rate_target"],
                      msd_target=10.0 ** (scfg["msd_target_db"] / 10.0))


@pytest.mark.parametrize("solver, margin", [
    (solve_min_rate_convex, "-6.187e+270"), (sca_min_rate, "-6.187e+270"),
    (dinkelbach_min_msd, "-1.194e-02"), (sca_min_msd, "-1.194e-02")])
def test_phase_one_without_a_step_says_so(solver, margin):
    # the start point's margin is no best margin when phase I never moved
    message = (f"phase I took no step from the start point (margin {margin} there): "
               "its Newton system is not finite")
    with pytest.raises(InfeasibleDesignError, match=f"^{re.escape(message)}$"):
        solver(phase_one_overflow_spec(solver))


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
        with pytest.raises(ValueError, match="step size mu must be positive and finite"):
            DesignSpec(mu=math.inf, **base)
        with pytest.raises(ValueError, match="MSD target must be positive and finite"):
            DesignSpec(mu=MU, msd_target=math.inf, **base)

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

    def test_barrier_names_an_objective_that_is_not_finite_at_the_start(self):
        # phase I finds a point inside this tiny budget, where the barrier is
        # finite (about 1.8e4) but the exact MSD at mu = 1e300 overflows
        spec = design_min_msd_spec(mu=1e300, budget=1e-300)
        with pytest.raises(InfeasibleDesignError,
                           match="^the objective is not finite at the start point$"):
            sca_min_msd(spec)

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
        "e797b40247a10c68e9e7cdfcbb79e9bacb3293c8d659961dbdde1ce954149348",
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


def violation(problem, spec, p):
    """The largest constraint violation of ``problem`` at p, 0 where p is
    feasible, from the spec alone: LMIs in eigenvalue units."""
    b, sig2 = spec.bandlimit, spec.noise.variances
    if problem == "rls":
        trace = float(np.trace(np.linalg.inv(weighted_gram(b, p / sig2))))
        return max(0.0, trace - spec.msd_target * (1 + spec.beta) / (1 - spec.beta))
    lam = float(np.linalg.eigvalsh(weighted_gram(b, p))[0])
    terms = [0.0, spec.lambda_target() - lam]
    if problem == "min_rate_convex":
        tr_g = float(np.trace(weighted_gram(b, p * sig2)))
        terms.append(0.5 * spec.mu * tr_g / spec.msd_target - lam)
    elif problem == "sca_min_rate":
        terms.append(lms_msd_theory(SamplingProbabilities(probs=p), spec.mu, spec.noise, b)
                     - spec.msd_target)
    else:
        terms.append(p.sum() - spec.budget)
    return max(terms)


@pytest.mark.parametrize("scale", [1.0, 0.9, 1.1])
@pytest.mark.parametrize("problem, zero_caps, msd_target", [
    *((problem, zero_caps, None) for problem in sorted(GOLDEN_DESIGNS)
      for zero_caps in ((), (3,))),
    # 2.6 % above the least MSD bound on the rate floor: the bound LMI binds too
    ("min_rate_convex", (), 1.5e-3),
])
def test_trace_residual_is_the_programs_violation(monkeypatch, problem, zero_caps,
                                                   msd_target, scale):
    # the truncated final design is also scaled within the box, by 0.9 off the
    # rate floor or the RLS target and by 1.1 past the budget or the MSD bound,
    # so that the last record reads each kind of constraint broken
    solver, spec = golden_problems(zero_caps)[problem]
    if msd_target is not None:
        spec = dataclasses.replace(spec, msd_target=msd_target)
    truncate = design._truncate
    monkeypatch.setattr(design, "_truncate",
                        lambda x: np.minimum(scale * truncate(x), spec.bounds))
    probs, trace = solver(spec)
    # the barrier keeps every iterate strictly inside
    assert all(r == 0.0 for r in trace.residuals[:-1])
    assert trace.residuals[-1] == pytest.approx(violation(problem, spec, probs.probs),
                                                rel=0.0, abs=1e-12)


@pytest.mark.parametrize("problem", sorted(GOLDEN_DESIGNS))
def test_no_point_is_evaluated_twice_in_one_barrier_run(monkeypatch, problem):
    # within one barrier run, the evaluator (sampling._Instance) decomposes
    # H(p) (or the RLS information matrix M(p)) once per point, whichever eigen
    # routine asks, and the exact MSD is evaluated once per point and mode;
    # phase I and the solve are two runs that meet at one point, so the count
    # is kept per run
    runs, finished, repeats = [], [], []

    def count(key, name):
        if runs:
            runs[-1][key] += 1
            if runs[-1][key] == 2:
                repeats.append(name)

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            count(np.asarray(a).tobytes(), name)
            return fn(a, *args, **kwargs)
        return wrapper

    def counted_msd(inst, p, mu, derivs=False):
        count(("msd", p.tobytes(), mu, derivs), "msd")
        return lms_msd(inst, p, mu, derivs)

    def counted_barrier(*args, **kwargs):
        runs.append(Counter())
        try:
            return barrier(*args, **kwargs)
        finally:
            finished.append(runs.pop())

    lms_msd, barrier = design._lms_msd, design._barrier
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(sampling.np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(design, "_lms_msd", counted_msd)
    monkeypatch.setattr(design, "_barrier", counted_barrier)
    solver, spec = golden_problems()[problem]
    solver(spec)
    assert sum(sum(run.values()) for run in finished) > 0
    assert repeats == []


# Designs p and final bounds of dinkelbach_min_msd when it ran Dinkelbach's
# parametric method: rounds of min Tr G(p) - w s over H(p) >= s I, w set to
# the last round's ratio, until a round no longer lowered it.
PARAMETRIC_DESIGNS = json.loads(
    (Path(__file__).parent / "data" / "dinkelbach_parametric_designs.json").read_text())


def rgg40_instance():
    """n = 40 random geometric graph of radius 0.35 (the first connected
    draw from seed 1), its 6 lowest frequencies, noise log-uniform on
    [0.005, 0.03] from default_rng(1), mu = 0.1, rate target 0.99, p_max 0.9
    and budget n/3: an instance where the parametric method stopped off the
    rate floor."""
    n = 40
    graph = next(g for g in (random_geometric_graph(n, 0.35, seed) for seed in itertools.count(1))
                 if connected_components(g) == 1)
    b = Bandlimit.lowest(eigendecompose(build_laplacian(graph)), 6)
    rng = np.random.default_rng(1)
    noise = NoiseModel(np.exp(rng.uniform(np.log(0.005), np.log(0.03), n)))
    return DesignSpec(bandlimit=b, noise=noise, mu=MU, rate_target=0.99, bounds=0.9,
                      budget=n / 3)


@pytest.mark.parametrize("case", ["golden_budget", "design_dinkelbach.yaml"])
def test_dinkelbach_matches_the_parametric_method_on_the_floor(golden_designs, case):
    # where the parametric method ended on the rate floor, the one program
    # returns its design and bound
    if case == "golden_budget":
        probs, trace = golden_designs["dinkelbach"]
    else:
        probs, trace = resolve_sampling(build_setup(load_config(BENCH_CONFIG_DIR / case)))
    before = PARAMETRIC_DESIGNS[case]
    assert np.abs(probs.probs - before["p"]).max() <= 1e-6
    assert trace.objectives[-1] == pytest.approx(before["bound"], rel=1e-8, abs=0.0)


def test_msd_upper_bound_reads_the_recorded_dinkelbach_objective():
    # lms_msd_upper_bound is the barrier's own formula, (mu/2)(g @ p) /
    # lambda_min(H(p)) from one evaluator of p, so at the returned design it
    # equals the run's last recorded objective to the bit
    setup = build_setup(load_config(BENCH_CONFIG_DIR / "design_dinkelbach.yaml"))
    probs, trace = resolve_sampling(setup)
    mu = setup.config["sampling"]["mu"]
    assert lms_msd_upper_bound(probs, mu, setup.noise, setup.bandlimit) == trace.objectives[-1]


def test_dinkelbach_scales_an_off_floor_design_onto_the_rate_floor():
    # the parametric method stopped at lambda_min = 1.31 lambda_t; the one
    # program returns that design scaled onto the floor, with the same bound
    # and exact MSD at a lower rate
    spec = rgg40_instance()
    probs, trace = dinkelbach_min_msd(spec)
    before = PARAMETRIC_DESIGNS["rgg40"]
    p_before = np.asarray(before["p"])
    lam_before = float(np.linalg.eigvalsh(weighted_gram(spec.bandlimit, p_before))[0])
    theta = spec.lambda_target() / lam_before
    assert theta < 0.8
    assert np.abs(probs.probs - theta * p_before).max() <= 1e-6
    assert probs.probs.sum() <= 2.0063      # 2.6239 for the parametric design
    assert trace.objectives[-1] == pytest.approx(before["bound"], rel=1e-8, abs=0.0)
    exact = lms_msd_theory(probs, MU, spec.noise, spec.bandlimit)
    assert exact == pytest.approx(before["msd"], rel=1e-7, abs=0.0)
    assert trace.converged


@pytest.mark.parametrize("problem", sorted(design.PROBLEMS))
def test_solver_names_each_missing_field(problem):
    solver, spec = golden_problems()[problem]
    for name in design.PROBLEMS[problem][1]:
        with pytest.raises(ValueError, match=rf"^{solver.__name__} needs {name}$"):
            solver(dataclasses.replace(spec, **{name: None}))


# sum(p) of each solver on golden_instance() with vertex 3 capped at 0, as
# computed when a capped vertex was left out of the barrier's variables; the
# barrier now keeps it and pins its Newton row; the dinkelbach row is that
# of its one program over the rate floor
ZERO_CAP_TOTALS = {
    "min_rate_convex": 3.049968889943,
    "sca_min_rate": 3.049968889945,
    "dinkelbach": 3.554839465459,
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


# ------------------------------------------------- modified Newton steps

def rgg40_program(zero_caps=()):
    """The barrier of sca_min_msd on rgg40_instance(), the vertices in
    ``zero_caps`` capped at 0, and its interior start."""
    spec = rgg40_instance()
    bounds = spec.bounds.copy()
    bounds[list(zero_caps)] = 0.0
    inst = design._Instance(spec.bandlimit, spec.noise, bounds)
    rate = (np.zeros(inst.n), spec.lambda_target())
    prog = design._Barrier(inst, [rate], objective=design._msd(inst, MU), budget=spec.budget)
    return prog, design._interior(inst, [rate], spec.budget)[0]


@pytest.mark.parametrize("t, definite", [(1e3, True), (1e5, False)])
def test_newton_step_descends_and_solves_where_definite(t, definite):
    # at the interior start the Newton matrix of t MSD + barrier is positive
    # definite at t = 1e3 and indefinite at t = 1e5
    prog, x = rgg40_program()
    derivs = prog(x, True), prog.f0(x, True)
    grad = derivs[0][1] + t * derivs[1][1]
    hess = derivs[0][2] + t * derivs[1][2]
    assert (np.linalg.eigvalsh(hess)[0] > 0.0) == definite
    _, step, decrement = design._newton_step(prog, derivs, t)
    assert decrement > 0.0
    assert decrement == pytest.approx(-float(grad @ step), rel=1e-12)
    if definite:
        np.testing.assert_allclose(step, np.linalg.solve(hess, -grad), rtol=1e-9,
                                   atol=1e-12 * np.abs(step).max())


def test_modified_newton_step_keeps_a_pinned_vertex_at_zero():
    prog, x = rgg40_program(zero_caps=(3, 17, 30))
    derivs = prog(x, True), prog.f0(x, True)
    assert np.linalg.eigvalsh(derivs[0][2] + 1e5 * derivs[1][2])[0] < 0.0
    _, step, decrement = design._newton_step(prog, derivs, 1e5)
    assert decrement > 0.0
    assert (step[[3, 17, 30]] == 0.0).all()


def test_newton_step_overflow_is_rejected_without_a_warning():
    # at mu = 1e300, t times the exact MSD's Hessian overflows: the step is
    # rejected as not finite, and no warning escapes (the suite makes one an error)
    probs, trace = design_config("design_min_msd.yaml", mu=1e300)
    assert trace.converged
    assert trace.residuals[-1] == 0.0
    assert probs.probs.sum() <= 5.0


def test_sca_min_msd_converges_on_rgg40():
    # with the PSD curvature fallback this ran 2,167 steps to -26.8924 dB
    # and did not converge
    _, trace = sca_min_msd(rgg40_instance())
    assert trace.converged
    assert trace.iterations <= 200
    assert 10.0 * math.log10(trace.objectives[-1]) <= -26.892351365857813 + 1e-6


def sweep_instance(k):
    """Instance k of a seeded sweep of sca_min_msd problems at n = 12-40."""
    rng = np.random.default_rng([7, k])
    n = int(rng.integers(12, 41))
    f = int(rng.integers(3, 7))
    radius = rng.uniform(0.35, 0.6)
    first = int(rng.integers(1000))
    graph = next(g for g in (random_geometric_graph(n, radius, seed)
                             for seed in itertools.count(first))
                 if connected_components(g) == 1)
    b = Bandlimit.lowest(eigendecompose(build_laplacian(graph)), f)
    noise = NoiseModel(np.exp(rng.uniform(np.log(0.005), np.log(0.03), n)))
    p_max = rng.uniform(0.3, 1.0, n)
    budget = rng.uniform(0.3, 0.6) * p_max.sum()
    return DesignSpec(bandlimit=b, noise=noise, mu=MU, rate_target=rng.uniform(0.98, 0.995),
                      bounds=p_max, budget=budget)


# Final MSD (dB) of sca_min_msd on sweep_instance(k) when an indefinite
# Newton matrix fell back on the PSD curvature mu K o L; that engine ran
# out of Newton steps on k = 1, 3, 11, 17 and 18, which have no entry
SWEEP_FALLBACK_DB = {
    0: -27.464969410343663,
    2: -29.388870920279295,
    4: -28.80135471844553,
    5: -28.483258520383426,
    6: -29.061348574101274,
    7: -29.811778043225246,
    8: -27.17130813607784,
    9: -24.798050168478248,
    10: -25.862770110105075,
    12: -30.35396573784975,
    13: -27.696880020779528,
    14: -27.015708443272082,
    15: -28.359194041441462,
    16: -27.441341137840055,
    19: -25.036081625884204,
}


@pytest.mark.parametrize("k", range(20))
def test_sca_min_msd_converges_on_the_seeded_sweep(k):
    _, trace = sca_min_msd(sweep_instance(k))
    assert trace.converged
    if k in SWEEP_FALLBACK_DB:
        db = 10.0 * math.log10(trace.objectives[-1])
        assert db == pytest.approx(SWEEP_FALLBACK_DB[k], rel=0.0, abs=1e-6)


# Designs p and final objectives of the exact-MSD solvers on three configs
# when an indefinite Newton matrix fell back on the PSD curvature mu K o L
FALLBACK_DESIGNS = json.loads(
    (Path(__file__).parent / "data" / "exact_msd_fallback_designs.json").read_text())


@pytest.mark.parametrize("name", sorted(FALLBACK_DESIGNS))
def test_modified_newton_keeps_the_fallback_designs(name):
    path = CONFIG_DIR / name if (CONFIG_DIR / name).exists() else BENCH_CONFIG_DIR / name
    probs, trace = resolve_sampling(build_setup(load_config(path)))
    before = FALLBACK_DESIGNS[name]
    assert np.abs(probs.probs - before["p"]).max() <= 1e-6
    assert trace.objectives[-1] == pytest.approx(before["objective"], rel=1e-8, abs=0.0)
