"""Estimator kernels and closed-form mean-square predictions.

Frozen numbers come from the 3-node path with the two lowest frequencies
kept: the expected Gram at p = (1, 1, 0) is [[2/3, 1/sqrt(6)], [1/sqrt(6),
1/2]] with eigenvalues {1/6, 1}, worked out by hand from the eigenvectors
(1,1,1)/sqrt(3) and (1,0,-1)/sqrt(2).
"""

import math

import numpy as np
import pytest

from graphadapt.filters import (
    lms_msd_theory,
    lms_msd_upper_bound,
    lms_rate_theory,
    lms_step_bound,
    lms_theory_report,
    lms_update,
    rls_msd_theory,
    rls_outer_table,
    rls_theory_report,
    rls_update,
)
from graphadapt.graphs import Bandlimit, build_laplacian, eigendecompose, random_geometric_graph
from graphadapt.sampling import (
    NoiseModel,
    ReconstructabilityError,
    SamplingProbabilities,
    weighted_gram,
)

FULL = np.ones(3, dtype=np.int8)


def rls_steps(b, noise, beta, delta, masks, ys):
    """The information pair after one rls_update per (mask, y) row, from
    Psi = delta I, psi = 0."""
    u = b.basis_slice
    outer = rls_outer_table(u)
    psi, psiv = delta * np.eye(b.size), np.zeros(b.size)
    for mask, y in zip(masks, ys):
        psi, psiv = rls_update(psi, psiv, mask / noise.variances, y, u, outer, beta)
    return psi, psiv


@pytest.fixture(scope="module")
def two_of_three():
    # sample vertices {0, 1} deterministically
    return SamplingProbabilities(np.array([1.0, 1.0, 0.0]))


@pytest.fixture(scope="module")
def three_for_four():
    """(bandlimit, noise, p): three sampled vertices for a 4-dimensional band,
    so H(p) is singular, yet eigvalsh puts its lambda_min at +1.8e-18."""
    g = random_geometric_graph(12, 0.6, seed=1)
    b = Bandlimit.lowest(eigendecompose(build_laplacian(g)), 4)
    p = SamplingProbabilities((np.arange(12) < 3).astype(float))
    return b, NoiseModel.uniform(12, 0.01), p


# ---------------------------------------------------------------- LMS kernel


def test_lms_step_matches_dense_projector_formula(path3_band):
    rng = np.random.default_rng(7)
    u = path3_band.basis_slice
    proj = u @ u.T
    s_hat = u.T @ rng.standard_normal(3)
    for _ in range(5):
        y = rng.standard_normal(3)
        mask = (rng.random(3) < 0.6).astype(np.int8)
        x = u @ s_hat
        dense = x + 0.3 * proj @ (mask * (y - x))
        s_hat = lms_update(s_hat, mask, y, u, 0.3)
        np.testing.assert_allclose(u @ s_hat, dense, atol=1e-12)


def test_lms_step_unit_step_full_sampling_projects(path3_band):
    # from zero with mu = 1 and everything observed, one step lands on B_F y
    y = np.array([2.0, -1.0, 0.5])
    u = path3_band.basis_slice
    s_hat = lms_update(np.zeros(2), FULL, y, u, 1.0)
    np.testing.assert_allclose(u @ s_hat, u @ (u.T @ y), atol=1e-12)


def test_lms_noiseless_convergence(path3_band):
    u = path3_band.basis_slice
    x_true = u @ np.array([1.0, -2.0])
    s_hat = np.zeros(2)
    for _ in range(100):
        s_hat = lms_update(s_hat, FULL, x_true, u, 0.5)
    assert np.linalg.norm(u @ s_hat - x_true) < 1e-12


# -------------------------------------------------------------- LMS theory


def test_step_bound_frozen(path3_band, two_of_three):
    # 2 * (1/6) / 1^2
    assert lms_step_bound(two_of_three, path3_band) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_step_bound_full_sampling(path3_band):
    p = SamplingProbabilities.full(3)
    assert lms_step_bound(p, path3_band) == pytest.approx(2.0, abs=1e-12)


def test_step_bound_rank_deficient_is_zero(path3_band, three_for_four):
    p = SamplingProbabilities(np.array([0.0, 0.0, 1.0]))
    assert lms_step_bound(p, path3_band) == pytest.approx(0.0, abs=1e-12)
    b, _, p = three_for_four
    assert lms_step_bound(p, b) == 0.0


def test_rate_frozen(path3_band, two_of_three):
    # 1 - 2 * 0.1 * (1/6)
    rate = lms_rate_theory(two_of_three, 0.1, path3_band)
    assert rate == pytest.approx(29.0 / 30.0, abs=1e-12)


def test_rate_is_one_when_unidentifiable(path3_band):
    p = SamplingProbabilities(np.array([0.0, 0.0, 1.0]))
    assert lms_rate_theory(p, 0.1, path3_band) == pytest.approx(1.0, abs=1e-10)


def test_msd_white_noise_closed_form(path3_band, white_noise3):
    # white noise makes G = sigma^2 H, so the trace collapses to |F| sigma^2
    # for every full-rank probability vector, not just p = 1
    expected = 0.5 * 0.1 * 2 * 0.01
    full = SamplingProbabilities.full(3)
    assert lms_msd_theory(full, 0.1, white_noise3, path3_band) == pytest.approx(expected, rel=1e-12)
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = SamplingProbabilities(rng.uniform(0.2, 1.0, size=3))
        msd = lms_msd_theory(p, 0.1, white_noise3, path3_band)
        assert msd == pytest.approx(expected, rel=1e-9)


def test_msd_scale_invariant_in_probabilities():
    # H and G are both linear in p, so t*p leaves the exact MSD unchanged
    g = random_geometric_graph(8, radius=0.8, seed=5)
    b = Bandlimit.lowest(eigendecompose(build_laplacian(g)), 3)
    rng = np.random.default_rng(3)
    noise = NoiseModel(rng.uniform(0.005, 0.05, size=8))
    p_raw = rng.uniform(0.3, 0.9, size=8)
    base = lms_msd_theory(SamplingProbabilities(p_raw), 0.1, noise, b)
    for t in (0.5, 0.8, 1.1):
        scaled = lms_msd_theory(SamplingProbabilities(np.minimum(t * p_raw, 1.0)), 0.1, noise, b)
        assert scaled == pytest.approx(base, rel=1e-9)


def test_msd_rank_deficient_raises(path3_band, white_noise3):
    p = SamplingProbabilities(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ReconstructabilityError):
        lms_msd_theory(p, 0.1, white_noise3, path3_band)


def test_upper_bound_frozen(path3_band, two_of_three, white_noise3):
    # (mu/2) Tr(G) / lambda_min = 0.05 * 0.01 * (7/6) / (1/6)
    bound = lms_msd_upper_bound(two_of_three, 0.1, white_noise3, path3_band)
    assert bound == pytest.approx(0.05 * 0.07, rel=1e-12)


def test_upper_bound_dominates_exact_msd():
    g = random_geometric_graph(8, radius=0.8, seed=5)
    b = Bandlimit.lowest(eigendecompose(build_laplacian(g)), 3)
    rng = np.random.default_rng(19)
    for _ in range(100):
        p = SamplingProbabilities(rng.uniform(0.25, 1.0, size=8))
        noise = NoiseModel(rng.uniform(0.002, 0.08, size=8))
        exact = lms_msd_theory(p, 0.05, noise, b)
        bound = lms_msd_upper_bound(p, 0.05, noise, b)
        assert bound >= exact - 1e-15


def test_upper_bound_tight_at_full_white(path3_band, white_noise3):
    # H = I makes the bound exact
    p = SamplingProbabilities.full(3)
    exact = lms_msd_theory(p, 0.1, white_noise3, path3_band)
    bound = lms_msd_upper_bound(p, 0.1, white_noise3, path3_band)
    assert bound == pytest.approx(exact, rel=1e-12)


def test_upper_bound_infinite_when_rank_deficient(path3_band, white_noise3, three_for_four):
    p = SamplingProbabilities(np.array([0.0, 0.0, 1.0]))
    assert lms_msd_upper_bound(p, 0.1, white_noise3, path3_band) == math.inf
    # the same rank test as lms_msd_theory, whatever the sign of rounding
    b, noise, p = three_for_four
    assert np.linalg.eigvalsh(weighted_gram(b, p.probs))[0] > 0.0
    with pytest.raises(ReconstructabilityError):
        lms_msd_theory(p, 0.1, noise, b)
    assert lms_msd_upper_bound(p, 0.1, noise, b) == math.inf


def test_lms_theory_report(path3_band, two_of_three, white_noise3):
    report = lms_theory_report(two_of_three, 0.1, white_noise3, path3_band)
    assert list(report) == ["msd_linear", "msd_db", "convergence_rate", "step_bound"]
    assert report["msd_linear"] == pytest.approx(1e-3, rel=1e-12)
    assert report["convergence_rate"] == pytest.approx(29.0 / 30.0, abs=1e-12)
    assert report["step_bound"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report["msd_db"] == pytest.approx(-30.0, abs=1e-9)


# -------------------------------------------------------------------- RLS


def test_rls_step_frozen(path3_band, white_noise3):
    y = np.array([1.0, 2.0, 3.0])
    psi, psiv = rls_steps(path3_band, white_noise3, 0.95, 1e-3, [FULL], [y])
    # Psi = 0.95 * 1e-3 I + (1/0.01) U_F^T U_F and U_F has orthonormal columns
    np.testing.assert_allclose(psi, (0.95e-3 + 100.0) * np.eye(2), atol=1e-9)
    # psi = 100 * U_F^T y with U_F^T y = (6/sqrt(3), -2/sqrt(2))
    expected = 100.0 * np.array([6.0 / math.sqrt(3.0), -2.0 / math.sqrt(2.0)])
    np.testing.assert_allclose(psiv, expected, atol=1e-9)


def test_rls_matches_batch_solution():
    """The recursion must reproduce the exponentially weighted batch
    least-squares estimate it is derived from, for arbitrary mask and
    noise patterns."""
    g = random_geometric_graph(10, radius=0.7, seed=2)
    b = Bandlimit.lowest(eigendecompose(build_laplacian(g)), 4)
    rng = np.random.default_rng(23)
    variances = rng.uniform(0.005, 0.04, size=10)
    noise = NoiseModel(variances)
    beta, delta, steps = 0.9, 1e-3, 25

    history = []
    for _ in range(steps):
        mask = (rng.random(10) < 0.7).astype(np.int8)
        history.append((mask, rng.standard_normal(10) * mask))
    state_mat, state_vec = rls_steps(b, noise, beta, delta, *zip(*history))

    u = b.basis_slice
    inv_c = np.diag(1.0 / variances)
    psi_mat = beta ** steps * delta * np.eye(4)
    psi_vec = np.zeros(4)
    for t, (mask, y) in enumerate(history):
        d = np.diag(mask.astype(float))
        psi_mat = psi_mat + beta ** (steps - 1 - t) * u.T @ d @ inv_c @ u
        psi_vec = psi_vec + beta ** (steps - 1 - t) * u.T @ d @ inv_c @ y
    np.testing.assert_allclose(state_mat, psi_mat, atol=1e-10)
    np.testing.assert_allclose(state_vec, psi_vec, atol=1e-10)
    batch = u @ np.linalg.solve(psi_mat, psi_vec)
    np.testing.assert_allclose(u @ np.linalg.solve(state_mat, state_vec), batch, atol=1e-8)


def test_rls_beta_one_accumulates(path3_band, white_noise3):
    # with no forgetting and white noise, Psi = delta I + m I / sigma^2
    y = np.array([0.5, -1.0, 2.0])
    m = 7
    psi, psiv = rls_steps(path3_band, white_noise3, 1.0, 1e-3, [FULL] * m, [y] * m)
    np.testing.assert_allclose(psi, (1e-3 + m * 100.0) * np.eye(2), atol=1e-9)
    u = path3_band.basis_slice
    shrink = m * 100.0 / (1e-3 + m * 100.0)
    np.testing.assert_allclose(
        u @ np.linalg.solve(psi, psiv), shrink * (u @ (u.T @ y)), atol=1e-10
    )


# ------------------------------------------------------------- RLS theory


def test_rls_msd_frozen_full(path3_band, white_noise3):
    # ((1-beta)/(1+beta)) |F| sigma^2 = (0.05/1.95) * 0.02
    msd = rls_msd_theory(SamplingProbabilities.full(3), 0.95, white_noise3, path3_band)
    assert msd == pytest.approx(0.02 / 39.0, rel=1e-12)


def test_rls_msd_frozen_partial(path3_band, two_of_three, white_noise3):
    # info matrix = 100 * Gram with eigenvalues {100/6, 100}
    msd = rls_msd_theory(two_of_three, 0.95, white_noise3, path3_band)
    assert msd == pytest.approx(0.07 / 39.0, rel=1e-12)


def test_rls_msd_inverse_scaling_in_probabilities():
    # the information matrix is linear in p, so t*p divides the MSD by t
    g = random_geometric_graph(8, radius=0.8, seed=5)
    b = Bandlimit.lowest(eigendecompose(build_laplacian(g)), 3)
    rng = np.random.default_rng(31)
    noise = NoiseModel(rng.uniform(0.005, 0.05, size=8))
    p_raw = rng.uniform(0.3, 0.8, size=8)
    base = rls_msd_theory(SamplingProbabilities(p_raw), 0.95, noise, b)
    for t in (0.5, 0.75, 1.2):
        scaled = rls_msd_theory(SamplingProbabilities(np.minimum(t * p_raw, 1.0)), 0.95, noise, b)
        assert scaled == pytest.approx(base / t, rel=1e-9)


def test_rls_msd_rank_deficient_raises(path3_band, white_noise3):
    p = SamplingProbabilities(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ReconstructabilityError):
        rls_msd_theory(p, 0.95, white_noise3, path3_band)


def test_rls_msd_validation(path3_band, white_noise3):
    p = SamplingProbabilities.full(3)
    with pytest.raises(ValueError):
        rls_msd_theory(p, 0.0, white_noise3, path3_band)
    with pytest.raises(ValueError):
        rls_msd_theory(p, 1.2, white_noise3, path3_band)


@pytest.mark.parametrize("mu", [0.0, math.nan])
@pytest.mark.parametrize("theory", [
    lambda p, mu, noise, b: lms_msd_theory(p, mu, noise, b),
    lambda p, mu, noise, b: lms_msd_upper_bound(p, mu, noise, b),
    lambda p, mu, noise, b: lms_rate_theory(p, mu, b),
], ids=["msd", "upper_bound", "rate"])
def test_lms_theory_rejects_step_size(path3_band, white_noise3, theory, mu):
    with pytest.raises(ValueError, match="step size must be positive"):
        theory(SamplingProbabilities.full(3), mu, white_noise3, path3_band)


def test_theory_rejects_size_mismatch(path3_band, white_noise3):
    with pytest.raises(ValueError, match="must match the graph size"):
        lms_msd_theory(SamplingProbabilities.full(4), 0.1, white_noise3, path3_band)


def test_rls_theory_report(path3_band, white_noise3):
    report = rls_theory_report(SamplingProbabilities.full(3), 0.95, white_noise3, path3_band)
    assert list(report) == ["msd_linear", "msd_db"]
    assert report["msd_linear"] == pytest.approx(0.02 / 39.0, rel=1e-12)
