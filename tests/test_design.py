"""Sampling-design solvers checked against independent oracles.

The 3-node path admits closed-form 2x2 spectral algebra, so the small
programs are cross-checked against an exhaustive grid over the probability
box evaluated with hand-derived eigenvalue formulas; gradients are checked
against central finite differences.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphadapt import (
    DesignSpec,
    InfeasibleDesignError,
    NoiseModel,
    SamplingProbabilities,
    dinkelbach_min_msd,
    lambda_min_subgradient,
    lms_msd_theory,
    msd_gradient,
    rls_msd_theory,
    sca_min_msd,
    sca_min_rate,
    sca_msd_surrogate,
    solve_min_rate_convex,
    solve_rls_design,
    weighted_gram,
)
from graphadapt.design import FEAS_TOL, _eigh, _project
from graphadapt.graphs import Bandlimit, build_laplacian, eigendecompose, random_geometric_graph

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


def test_msd_gradient_matches_finite_differences():
    b, noise = random_instance()
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(5):
        p = rng.uniform(0.3, 0.9, size=b.n)
        grad = msd_gradient(p, MU, noise, b)
        for i in range(b.n):
            lo, hi = p.copy(), p.copy()
            lo[i] -= h
            hi[i] += h
            fd = (
                lms_msd_theory(SamplingProbabilities(hi), MU, noise, b)
                - lms_msd_theory(SamplingProbabilities(lo), MU, noise, b)
            ) / (2.0 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_lambda_subgradient_matches_finite_differences():
    b, noise = random_instance()
    rng = np.random.default_rng(29)
    h = 1e-6
    for _ in range(5):
        p = rng.uniform(0.3, 0.9, size=b.n)
        eigs = np.linalg.eigvalsh(weighted_gram(b, p))
        if eigs[1] - eigs[0] < 1e-3:
            continue  # needs a simple eigenvalue to be differentiable
        grad = lambda_min_subgradient(p, b)
        for i in range(b.n):
            lo, hi = p.copy(), p.copy()
            lo[i] -= h
            hi[i] += h
            fd = (
                np.linalg.eigvalsh(weighted_gram(b, hi))[0]
                - np.linalg.eigvalsh(weighted_gram(b, lo))[0]
            ) / (2.0 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-10)


def test_lambda_subgradient_supergradient_inequality():
    # lambda_min is concave in p, so the first-order expansion dominates it
    b, _ = random_instance()
    rng = np.random.default_rng(41)
    for _ in range(20):
        p = rng.uniform(0.2, 1.0, size=b.n)
        q = rng.uniform(0.0, 1.0, size=b.n)
        lam_p = float(np.linalg.eigvalsh(weighted_gram(b, p))[0])
        lam_q = float(np.linalg.eigvalsh(weighted_gram(b, q))[0])
        g = lambda_min_subgradient(p, b)
        assert lam_q <= lam_p + float(g @ (q - p)) + 1e-10


def test_surrogate_identities_at_anchor():
    b, noise = random_instance()
    rng = np.random.default_rng(53)
    for _ in range(5):
        z = rng.uniform(0.3, 0.9, size=b.n)
        value, gradient = sca_msd_surrogate(z, z, MU, noise, b, tau=1e-6)
        exact = lms_msd_theory(SamplingProbabilities(z), MU, noise, b)
        assert value == pytest.approx(2.0 * exact, rel=1e-10)
        np.testing.assert_allclose(gradient, msd_gradient(z, MU, noise, b), rtol=1e-9, atol=1e-12)


def test_surrogate_upper_bounds_twice_the_msd():
    # convexity of Tr[H(p)^{-1} G(z)] and linearity of G(p) make the
    # surrogate dominate MSD(p) + MSD(z) everywhere
    b, noise = random_instance()
    rng = np.random.default_rng(61)
    for _ in range(20):
        z = rng.uniform(0.4, 1.0, size=b.n)
        p = rng.uniform(0.4, 1.0, size=b.n)
        value, _ = sca_msd_surrogate(p, z, MU, noise, b, tau=0.0)
        exact_p = lms_msd_theory(SamplingProbabilities(p), MU, noise, b)
        exact_z = lms_msd_theory(SamplingProbabilities(z), MU, noise, b)
        assert value >= exact_p + exact_z - 1e-12


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


# ------------------------------------------------------ projection oracle


def bisection_project(p, ub, budget):
    """The fixed 80-step budget bisection the engine's projection must match."""
    q = np.clip(p, 0.0, ub)
    if budget is None or q.sum() <= budget + 1e-12:
        return q
    lo, hi = 0.0, float(p.max(initial=0.0))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.clip(p - mid, 0.0, ub).sum() > budget:
            lo = mid
        else:
            hi = mid
    return np.clip(p - hi, 0.0, ub)


@st.composite
def projection_inputs(draw):
    """Entries below 0, inside the box and above it; bounds with zeros; no
    budget, a share of the clipped sum (slack from 1 on), or the clipped sum
    less a tiny gap, which puts the shift near 0 and the bisection at its cap."""
    n = draw(st.integers(1, 30))
    p = np.array(draw(st.lists(st.one_of(st.floats(-1.0, 2.0), st.floats(-1e-20, 1e-20),
                                         st.sampled_from([0.0, 1.0])),
                               min_size=n, max_size=n)))
    ub = np.array(draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.just(0.0)),
                                min_size=n, max_size=n)))
    total = float(np.clip(p, 0.0, ub).sum())
    budget = draw(st.one_of(st.none(),
                            st.floats(0.0, 1.2).map(lambda share: share * total),
                            st.floats(2e-12, 1e-8).map(lambda gap: max(total - gap, 0.0))))
    return p, ub, budget


@settings(deadline=None, derandomize=True, max_examples=150)
@given(inputs=projection_inputs())
@example(inputs=(np.array([0.5, 0.3, 0.2]), np.ones(3), 1.0 - 1e-10))  # 80-step cap
def test_project_matches_fixed_bisection(inputs):
    p, ub, budget = inputs
    expected = bisection_project(p, ub, budget)
    got = _project(p, ub, budget)
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()  # signed zeros too


@pytest.mark.parametrize("f", [1, 3, 6, 8])
def test_eigh_matches_numpy_bit_for_bit(f):
    rng = np.random.default_rng(f)
    for _ in range(50):
        a = rng.normal(size=(f, f))
        m = a + a.T
        vals, vecs = _eigh(m)
        ref_vals, ref_vecs = np.linalg.eigh(m)
        assert vals.tobytes() == ref_vals.tobytes()
        assert vecs.tobytes() == ref_vecs.tobytes()


def test_eigh_raises_on_nonconvergence():
    with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
        _eigh(np.full((3, 3), np.nan))


def test_eigh_falls_back_to_the_wrapper(monkeypatch):
    monkeypatch.setattr("graphadapt.design._eigh_lo", None)
    m = np.array([[2.0, 1.0], [1.0, 3.0]])
    vals, vecs = _eigh(m)
    ref_vals, ref_vecs = np.linalg.eigh(m)
    assert vals.tobytes() == ref_vals.tobytes()
    assert vecs.tobytes() == ref_vecs.tobytes()


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
    # the rate polish scales onto lambda_min = lambda_t, exact up to rounding
    assert n * lam_t * (1 - 1e-12) <= probs.probs.sum() <= n * lam_t * (1 + FEAS_TOL)


# ---------------------------------------------------------- golden designs

# SHA-256 of probs.tobytes() followed by the trace objectives (float64) of
# each solver on golden_instance(), as computed by the engine before its
# per-evaluation overhead was trimmed; the engine must reproduce the bytes.
GOLDEN_DESIGNS = {
    "min_rate_convex":
        "eeba628173ce6eb912ab8e33c44482c214f40f17a6c36ba6befeeefebc643e5a",
    "sca_min_rate":
        "bfb526c136c79026f4ee30fb736a4da446042192d37dd392b4f399fd6e124192",
    "dinkelbach":
        "26141518faad47d80c76b4b80f09d143410325d6648695ac55dea2cfb391703f",
    "sca_min_msd":
        "f0f1122f5544ea1eb3d58121e0720165055874dedb59f238ee518ecc7b57708a",
    "rls":
        "45d8e3f837ea2d18b28ce811f25b9f80d4a8774c4e52962a9caa88f29ee7d575",
}


def golden_instance():
    """n=10 with the constant eigenvector left out of the band, per-vertex
    bounds that cap some entries, and a budget that binds the MSD designs."""
    n = 10
    g = random_geometric_graph(n, radius=0.6, seed=3)
    b = Bandlimit.from_indices(eigendecompose(build_laplacian(g)), (1, 2, 4))
    rng = np.random.default_rng(3)
    noise = NoiseModel(rng.uniform(0.005, 0.03, n))
    bounds = np.round(rng.uniform(0.3, 1.0, n), 2)
    common = dict(bandlimit=b, noise=noise, bounds=bounds)
    return (DesignSpec(**common, mu=MU, rate_target=0.9, msd_target=1e-2),
            DesignSpec(**common, mu=MU, rate_target=0.9, budget=3.6),
            DesignSpec(**common, beta=0.95, msd_target=1e-2))


@pytest.fixture(scope="module")
def golden_designs():
    rate, budget, rls = golden_instance()
    convex = solve_min_rate_convex(rate, iters=1500)
    return {
        "min_rate_convex": convex,
        "sca_min_rate": sca_min_rate(rate, initial=convex[0], max_outer=4),
        "dinkelbach": dinkelbach_min_msd(budget, max_outer=3, inner_iters=600),
        "sca_min_msd": sca_min_msd(budget, max_outer=4, inner_iters=400),
        "rls": solve_rls_design(rls, iters=1500),
    }


@pytest.mark.parametrize("problem", sorted(GOLDEN_DESIGNS))
def test_design_matches_golden_digest(golden_designs, problem):
    probs, trace = golden_designs[problem]
    digest = hashlib.sha256(probs.probs.tobytes()
                            + np.asarray(trace.objectives).tobytes()).hexdigest()
    assert digest == GOLDEN_DESIGNS[problem]
