"""Sampling probabilities, reconstructability, and selection strategies.

Closed forms on the 3-node path (F = {0, 1}):
the weighted Gram for sample set {0, 1} is [[2/3, 1/sqrt(6)], [1/sqrt(6), 1/2]]
with eigenvalues {1/6, 1}; the complement localization norm is sqrt(5/6);
leverage scores are (5/6, 1/3, 5/6); greedy determinant selection of two
vertices gives {0, 2} with determinant 2/3 (brute force over the three
pairs: 1/6, 2/3, 1/6).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphadapt as ga
import reference


def indicator(subset, n):
    p = np.zeros(n)
    p[list(subset)] = 1.0
    return ga.SamplingProbabilities(probs=p)


class TestSamplingProbabilities:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            ga.SamplingProbabilities(probs=np.array([0.5, 1.2]))
        with pytest.raises(ValueError):
            ga.SamplingProbabilities(probs=np.array([-0.1, 0.5]))

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            ga.SamplingProbabilities(probs=np.array([0.8]), bounds=np.array([0.5]))

    def test_default_bounds_are_one(self):
        p = ga.SamplingProbabilities(probs=np.array([0.3, 0.7]))
        assert np.allclose(p.bounds, 1.0, atol=0)

    def test_support(self):
        p = ga.SamplingProbabilities(probs=np.array([0.0, 0.4, 0.0, 1.0]))
        assert list(p.support()) == [1, 3]

    def test_full_and_from_support(self):
        assert np.allclose(ga.SamplingProbabilities.full(3).probs, 1.0, atol=0)
        p = ga.SamplingProbabilities.from_support([2, 0], 4)
        assert np.allclose(p.probs, [1.0, 0.0, 1.0, 0.0], atol=0)


class TestNoiseModel:
    def test_requires_positive_variances(self):
        with pytest.raises(ValueError):
            ga.NoiseModel(variances=np.array([0.01, 0.0]))

    def test_uniform_and_std(self):
        nm = ga.NoiseModel.uniform(4, 0.04)
        assert np.allclose(nm.variances, 0.04, atol=0)
        assert np.allclose(nm.std, 0.2, atol=1e-15)


class TestWeightedGram:
    def test_path3_frozen_matrix(self, path3_band):
        h = ga.weighted_gram(path3_band, np.array([1.0, 1.0, 0.0]))
        expected = np.array([
            [2.0 / 3.0, 1.0 / np.sqrt(6.0)],
            [1.0 / np.sqrt(6.0), 0.5],
        ])
        assert np.allclose(h, expected, atol=1e-12)

    def test_full_weights_give_identity(self, path3_band):
        h = ga.weighted_gram(path3_band, np.ones(3))
        assert np.allclose(h, np.eye(2), atol=1e-12)

    def test_symmetric_output(self, path3_band):
        h = ga.weighted_gram(path3_band, np.array([0.2, 0.9, 0.4]))
        assert np.array_equal(h, h.T)


class TestReconstructability:
    def test_path3_frozen_value(self, path3_band):
        p = indicator([0, 1], 3)
        assert np.isclose(ga.reconstructability_lambda(p, path3_band),
                          1.0 / 6.0, atol=1e-12)

    def test_full_sampling_gives_one(self, path3_band):
        p = ga.SamplingProbabilities.full(3)
        assert np.isclose(ga.reconstructability_lambda(p, path3_band), 1.0,
                          atol=1e-12)

    def test_localization_norm_frozen_value(self, path3_band):
        assert np.isclose(reference.localization_norm([0, 1], path3_band.basis_slice),
                          np.sqrt(5.0 / 6.0), atol=1e-12)

    def test_lambda_plus_localization_identity(self, path3_band):
        # for indicator sampling: lambda_min(H_S) = 1 - ||D_complement U_F||^2
        for subset in itertools.combinations(range(3), 2):
            lam = ga.reconstructability_lambda(indicator(subset, 3), path3_band)
            norm = reference.localization_norm(subset, path3_band.basis_slice)
            assert np.isclose(lam, 1.0 - norm ** 2, atol=1e-10)

    def test_equivalence_on_exhaustive_subsets(self):
        # lambda_min > 0 iff the complement localization norm < 1, every
        # subset of every size, n up to 6
        for n in (4, 5, 6):
            g = ga.random_geometric_graph(n, 0.8, seed=n)
            basis = ga.eigendecompose(ga.build_laplacian(g))
            bl = ga.Bandlimit.lowest(basis, 2)
            for size in range(n + 1):
                for subset in itertools.combinations(range(n), size):
                    lam = ga.reconstructability_lambda(indicator(subset, n), bl)
                    norm = reference.localization_norm(subset, bl.basis_slice)
                    assert (lam > 1e-10) == (norm < 1.0 - 1e-10), (n, subset)


class TestDrawsAndObservations:
    def test_draw_matches_probabilities(self):
        # binomial check: at p=0.3 over 20000 draws the count stays within
        # 3 sigma of the mean
        probs, std = np.full(3, 0.3), np.full(3, 0.1)
        masks, _ = next(ga.draw_blocks(0, range(1), 20000, probs, std, 60000))
        count = int(masks.sum())
        mean, sigma = 0.3 * 60000, np.sqrt(60000 * 0.3 * 0.7)
        assert abs(count - mean) < 3 * sigma

    def test_observe_noise_variance(self, white_noise3):
        _, noise = next(ga.draw_blocks(2, range(1), 4000, np.ones(3), white_noise3.std,
                                       12000))
        assert np.allclose(noise[0].var(axis=0), 0.01, rtol=0.15)


class TestLeverageScores:
    def test_path3_frozen_scores(self, path3_band):
        assert np.allclose(ga.leverage_scores(path3_band),
                           [5.0 / 6.0, 1.0 / 3.0, 5.0 / 6.0], atol=1e-12)

    def test_scores_sum_to_bandwidth(self, path3_band):
        assert np.isclose(ga.leverage_scores(path3_band).sum(), 2.0, atol=1e-12)

    def test_probability_conversion_caps_at_one(self, path3_band):
        p = ga.leverage_score_probabilities(path3_band, m=3)
        expected = np.minimum(1.0, 3.0 * np.array([5.0, 2.0, 5.0]) / 12.0)
        assert np.allclose(p.probs, expected, atol=1e-12)


class TestMaxDetGreedy:
    def test_path3_selection_and_brute_force(self, path3_band):
        chosen = ga.max_det_greedy(path3_band, 2)
        assert set(chosen.tolist()) == {0, 2}
        h = ga.weighted_gram(path3_band, np.array([1.0, 0.0, 1.0]))
        assert np.isclose(np.linalg.det(h), 2.0 / 3.0, atol=1e-12)

    def test_ties_break_to_lowest_index(self, path3_band):
        # vertices 0 and 2 tie exactly at the first pick
        assert ga.max_det_greedy(path3_band, 2)[0] == 0

    def test_all_vertices_give_unit_determinant(self, path3_band):
        chosen = ga.max_det_greedy(path3_band, 3)
        assert sorted(chosen.tolist()) == [0, 1, 2]
        h = ga.weighted_gram(path3_band, np.ones(3))
        assert np.isclose(np.linalg.det(h), 1.0, atol=1e-12)

    def test_prefix_property(self):
        g = ga.random_geometric_graph(12, 0.6, seed=2)
        bl = ga.Bandlimit.lowest(ga.eigendecompose(ga.build_laplacian(g)), 4)
        full = ga.max_det_greedy(bl, 12)
        for m in (4, 6, 8):
            assert np.array_equal(ga.max_det_greedy(bl, m), full[:m])

    def test_matches_brute_force_slogdet_greedy(self):
        # each pick maximizes the determinant of the smaller Gram of the
        # chosen rows (|S| x |S| below |F|, |F| x |F| from |F| on), scored
        # by slogdet; log-determinants within 1e-9 of the best are ties and
        # go to the lowest index
        g = ga.random_geometric_graph(60, 0.3, seed=1)
        bl = ga.Bandlimit.lowest(ga.eigendecompose(ga.build_laplacian(g)), 10)
        u = bl.basis_slice
        chosen = []
        for _ in range(30):
            scores = np.full(60, -np.inf)
            for i in set(range(60)) - set(chosen):
                rows = u[chosen + [i]]
                gram = rows @ rows.T if len(rows) <= 10 else rows.T @ rows
                sign, logdet = np.linalg.slogdet(gram)
                if sign > 0:
                    scores[i] = logdet
            chosen.append(int(np.flatnonzero(scores >= scores.max() - 1e-9)[0]))
        assert ga.max_det_greedy(bl, 30).tolist() == chosen

    def test_beats_random_sets_usually(self):
        # greedy determinant should dominate random same-size sets in at
        # least 95% of comparisons
        g = ga.random_geometric_graph(20, 0.5, seed=3)
        bl = ga.Bandlimit.lowest(ga.eigendecompose(ga.build_laplacian(g)), 5)
        m = 8
        greedy = ga.max_det_greedy(bl, m)
        w = np.zeros(20)
        w[greedy] = 1.0
        det_greedy = np.linalg.det(ga.weighted_gram(bl, w))
        rng = np.random.default_rng(4)
        wins = 0
        trials = 200
        for _ in range(trials):
            sel = ga.uniform_random_set(20, m, rng)
            wr = np.zeros(20)
            wr[sel] = 1.0
            if det_greedy >= np.linalg.det(ga.weighted_gram(bl, wr)):
                wins += 1
        assert wins >= 0.95 * trials


class TestUniformRandomSet:
    def test_sorted_distinct_in_range(self):
        sel = ga.uniform_random_set(10, 4, np.random.default_rng(0))
        assert len(set(sel.tolist())) == 4
        assert np.array_equal(sel, np.sort(sel))
        assert sel.min() >= 0 and sel.max() < 10

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ga.uniform_random_set(3, 4, np.random.default_rng(0))


@settings(deadline=None, derandomize=True, max_examples=30)
@given(seed=st.integers(0, 10_000))
def test_reconstructability_monotone_in_probabilities(seed):
    # raising any sampling probability can only help: H(p + d) - H(p) is PSD
    rng = np.random.default_rng(seed)
    g = ga.random_geometric_graph(8, 0.7, seed=1)
    bl = ga.Bandlimit.lowest(ga.eigendecompose(ga.build_laplacian(g)), 3)
    p_lo = rng.uniform(0.0, 0.5, 8)
    p_hi = np.minimum(1.0, p_lo + rng.uniform(0.0, 0.5, 8))
    lam_lo = ga.reconstructability_lambda(ga.SamplingProbabilities(probs=p_lo), bl)
    lam_hi = ga.reconstructability_lambda(ga.SamplingProbabilities(probs=p_hi), bl)
    assert lam_hi >= lam_lo - 1e-10
