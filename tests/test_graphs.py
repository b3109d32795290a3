"""Graph construction, spectral decomposition, projectors, edge-list IO.

The 3-node path is small enough that every spectral quantity has a closed
form: eigenvalues {0, 1, 3} with eigenvectors (1,1,1)/sqrt(3),
(1,0,-1)/sqrt(2), (1,-2,1)/sqrt(6).  Those constants anchor the frozen
expectations; randomized structure is covered by hypothesis properties
checked against independent oracles (characteristic polynomial roots,
scipy null spaces).
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import null_space
from scipy.sparse import csgraph

from graphadapt.graphs import (
    Bandlimit,
    Graph,
    GraphFormatError,
    build_laplacian,
    connected_components,
    eigendecompose,
    load_edge_list,
    random_geometric_graph,
    save_edge_list,
)

RNG = np.random.default_rng(20260817)


def random_graph(n, rng, density=0.6):
    w = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < density), 1)
    return Graph(weights=w + w.T)


class TestGraphValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            Graph(weights=np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        w = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            Graph(weights=w)

    def test_rejects_negative_weight(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            Graph(weights=w)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_weight(self, value):
        w = np.array([[0.0, value], [value, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            Graph(weights=w)

    def test_rejects_self_loop(self):
        w = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            Graph(weights=w)

    def test_symmetrizes_rounding_noise_exactly(self):
        w = np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]])
        g = Graph(weights=w)
        assert np.array_equal(g.weights, g.weights.T)

    def test_weights_are_read_only(self, path3):
        with pytest.raises(ValueError):
            path3.weights[0, 1] = 5.0


class TestLaplacian:
    def test_path3_matrix(self, path3):
        expected = np.array([
            [1.0, -1.0, 0.0],
            [-1.0, 2.0, -1.0],
            [0.0, -1.0, 1.0],
        ])
        assert np.allclose(build_laplacian(path3), expected, atol=0)

    def test_rows_sum_to_zero(self):
        g = random_graph(12, np.random.default_rng(3))
        lap = build_laplacian(g)
        assert np.abs(lap.sum(axis=1)).max() < 1e-12

    def test_positive_semidefinite(self):
        g = random_graph(15, np.random.default_rng(4))
        eigs = np.linalg.eigvalsh(build_laplacian(g))
        assert eigs.min() > -1e-10


class TestEigendecompose:
    def test_path3_eigenvalues(self, path3_basis):
        assert np.allclose(path3_basis.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)

    def test_path3_eigenvectors_with_sign_convention(self, path3_basis):
        expected = np.column_stack([
            np.ones(3) / np.sqrt(3.0),
            np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0),
            np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0),
        ])
        assert np.allclose(path3_basis.vectors, expected, atol=1e-12)

    def test_eigenvalues_match_characteristic_polynomial(self, path3):
        # independent oracle: roots of det(L - x I) via companion matrix
        lap = build_laplacian(path3)
        coeffs = np.poly(lap)
        roots = np.sort(np.real(np.roots(coeffs)))
        basis = eigendecompose(lap)
        assert np.allclose(basis.eigenvalues, roots, atol=1e-8)

    def test_null_space_is_constant_vector(self, path3):
        # connected graph: kernel of L is exactly span(1)
        ns = null_space(build_laplacian(path3))
        assert ns.shape == (3, 1)
        assert np.allclose(np.abs(ns[:, 0]), 1.0 / np.sqrt(3.0), atol=1e-10)

    def test_reconstructs_input(self):
        g = random_graph(10, np.random.default_rng(5))
        lap = build_laplacian(g)
        b = eigendecompose(lap)
        recon = b.vectors @ np.diag(b.eigenvalues) @ b.vectors.T
        assert np.abs(recon - lap).max() < 1e-10

    def test_orthonormal_columns(self):
        g = random_graph(10, np.random.default_rng(6))
        b = eigendecompose(build_laplacian(g))
        assert np.abs(b.vectors.T @ b.vectors - np.eye(10)).max() < 1e-10

    def test_rejects_asymmetric_matrix(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            eigendecompose(m)

    def test_deterministic_sign_convention(self):
        g = random_graph(8, np.random.default_rng(7))
        lap = build_laplacian(g)
        b1 = eigendecompose(lap)
        b2 = eigendecompose(lap.copy())
        assert np.array_equal(b1.vectors, b2.vectors)

    @pytest.mark.parametrize("n", [10, 40, 300])
    def test_first_nonnegligible_entry_of_each_column_is_positive(self, n):
        g = random_graph(n, np.random.default_rng(n))
        vecs = eigendecompose(build_laplacian(g)).vectors
        mag = np.abs(vecs)
        for col, big in zip(vecs.T, (mag > 1e-8 * mag.max(axis=0)).T):
            assert col[np.flatnonzero(big)[0]] > 0

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="spectrum must be nonnegative"):
            eigendecompose(np.array([[0.0, 2.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_matrix(self, value):
        with pytest.raises(ValueError, match="finite"):
            eigendecompose(np.array([[value, -1.0], [-1.0, 1.0]]))

    def test_returns_read_only_arrays(self, path3_basis):
        for arr in (path3_basis.eigenvalues, path3_basis.vectors):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestBandlimit:
    def test_lowest_picks_ascending_prefix(self, path3_basis):
        bl = Bandlimit.lowest(path3_basis, 2)
        assert bl.freq_set == (0, 1)
        assert bl.size == 2 and bl.n == 3

    def test_from_indices_sorts(self, path3_basis):
        bl = Bandlimit.from_indices(path3_basis, [2, 0])
        assert bl.freq_set == (0, 2)

    def test_rejects_duplicates(self, path3_basis):
        with pytest.raises(ValueError):
            Bandlimit.from_indices(path3_basis, [0, 0])

    def test_rejects_out_of_range(self, path3_basis):
        with pytest.raises(ValueError):
            Bandlimit.from_indices(path3_basis, [0, 3])

    def test_rejects_non_orthonormal_slice(self):
        with pytest.raises(ValueError):
            Bandlimit(freq_set=(0, 1), basis_slice=np.ones((3, 2)))


def _with_nan(a):
    out = np.array(a)
    out[0, 0] = np.nan
    return out


# each row reaches its own check: ``call`` takes the 3-node path's basis
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda basis: Graph(weights=np.zeros((0, 0))), "at least one node",
                 id="graph-empty"),
    pytest.param(lambda basis: Bandlimit(freq_set=(0,), basis_slice=np.ones(3)), "2-d",
                 id="bandlimit-1d"),
    pytest.param(lambda basis: Bandlimit(freq_set=(0,), basis_slice=basis.vectors[:, :2]),
                 "match basis slice width", id="bandlimit-width"),
    pytest.param(lambda basis: Bandlimit(freq_set=(0, 1, 2), basis_slice=np.zeros((2, 3))),
                 "between 1 and n", id="bandlimit-wider-than-n"),
    pytest.param(lambda basis: Bandlimit(freq_set=(0, 3), basis_slice=basis.vectors[:, :2]),
                 "out of range", id="bandlimit-index-range"),
    pytest.param(lambda basis: Bandlimit(freq_set=(1, 0), basis_slice=basis.vectors[:, :2]),
                 "strictly increasing", id="bandlimit-decreasing"),
    pytest.param(lambda basis: Bandlimit(freq_set=(0, 1),
                                         basis_slice=_with_nan(basis.vectors[:, :2])),
                 "orthonormal", id="bandlimit-nan-slice"),
    pytest.param(lambda basis: Bandlimit(freq_set=(0, 1.5), basis_slice=basis.vectors[:, :2]),
                 "integers", id="bandlimit-float-index"),
    pytest.param(lambda basis: Bandlimit.from_indices(basis, [0, 1.5]), "integers",
                 id="from-indices-float"),
    pytest.param(lambda basis: eigendecompose(np.zeros((2, 3))), "square",
                 id="eigendecompose-nonsquare"),
    pytest.param(lambda basis: random_geometric_graph(1, 0.5, seed=0), "two nodes", id="rgg-n1"),
    *(pytest.param(lambda basis, r=radius: random_geometric_graph(5, r, seed=0), "radius",
                   id=f"rgg-radius-{radius}") for radius in (0.0, 1.5, np.nan)),
])
def test_invalid_arguments_raise(path3_basis, call, message):
    with pytest.raises(ValueError, match=message):
        call(path3_basis)


def projector(b):
    """The orthogonal projector U_F U_F^T onto the bandlimited subspace."""
    return b.basis_slice @ b.basis_slice.T


class TestTransforms:
    def test_round_trip(self, path3_basis, path3_band):
        s = np.array([0.7, -1.2])
        x = path3_band.basis_slice @ s
        coeffs = path3_basis.vectors.T @ x
        assert np.allclose(coeffs[:2], s, atol=1e-12)
        assert abs(coeffs[2]) < 1e-12


class TestProjectors:
    def test_bandlimit_projector_idempotent_symmetric(self, path3_band):
        proj = projector(path3_band)
        assert np.abs(proj @ proj - proj).max() < 1e-12
        assert np.abs(proj - proj.T).max() < 1e-12
        assert np.isclose(np.trace(proj), path3_band.size)

    def test_projector_fixes_bandlimited_signals(self, path3_band):
        x = path3_band.basis_slice @ np.array([1.0, 2.0])
        assert np.allclose(projector(path3_band) @ x, x, atol=1e-12)


class TestComponents:
    def test_path_connected(self, path3):
        assert connected_components(path3) == 1

    def test_two_components(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        assert connected_components(Graph(weights=w)) == 2

    def test_isolated_vertices(self):
        assert connected_components(Graph(weights=np.zeros((3, 3)))) == 3

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scipy_on_sparse_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        g = random_graph(n, rng, density=rng.uniform(0.0, 4.0 / n))
        assert connected_components(g) == csgraph.connected_components(g.weights)[0]


class TestRandomGeometric:
    def test_deterministic_per_seed(self):
        g1 = random_geometric_graph(15, 0.5, seed=9)
        g2 = random_geometric_graph(15, 0.5, seed=9)
        assert np.array_equal(g1.weights, g2.weights)

    def test_different_seeds_differ(self):
        g1 = random_geometric_graph(15, 0.5, seed=9)
        g2 = random_geometric_graph(15, 0.5, seed=10)
        assert not np.array_equal(g1.weights, g2.weights)

    def test_edges_match_the_pairwise_distance_reference(self):
        n, radius, seed = 40, 0.3, 5
        pts = np.random.default_rng(seed).random((n, 2))
        dist2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        expected = (dist2 <= radius * radius) & ~np.eye(n, dtype=bool)
        assert np.array_equal(random_geometric_graph(n, radius, seed).weights, expected)

    def test_returns_a_disconnected_draw_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = random_geometric_graph(30, 0.01, seed=0)
        assert connected_components(g) > 1


class TestEdgeListIO:
    def test_round_trip_exact(self, tmp_path):
        g = random_graph(9, np.random.default_rng(11))
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert np.array_equal(loaded.weights, g.weights)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n3\n\n0 1 1.0\n# another\n1 2 2.5\n")
        g = load_edge_list(path)
        assert g.n == 3
        assert g.weights[1, 2] == 2.5

    @pytest.mark.parametrize("content", [
        "not_a_count\n0 1 1.0\n",
        "3\n0 5 1.0\n",
        "3\n1 1 1.0\n",
        "3\n0 1 1.0\n0 1 2.0\n",
        "3\n0 1\n",
        "3\n0 1 spam\n",
        "",
        "0\n",
        "-2\n0 1 1.0\n",
    ])
    def test_malformed_inputs_raise(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "-1.0"])
    def test_rejects_negative_or_non_finite_weight_naming_the_line(self, tmp_path, weight):
        path = tmp_path / "bad.txt"
        path.write_text(f"3\n1 2 1.0\n0 1 {weight}\n")
        with pytest.raises(GraphFormatError, match=re.escape(f"{path}:3: ")):
            load_edge_list(path)

    def test_duplicate_edge_with_same_weight_allowed(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("2\n0 1 1.5\n1 0 1.5\n")
        g = load_edge_list(path)
        assert g.weights[0, 1] == 1.5


@settings(deadline=None, derandomize=True, max_examples=25)
@given(n=st.integers(min_value=2, max_value=12), seed=st.integers(0, 1000))
def test_laplacian_spectral_properties(n, seed):
    g = random_graph(n, np.random.default_rng(seed))
    lap = build_laplacian(g)
    basis = eigendecompose(lap)
    # ascending, PSD, orthonormal, exact reconstruction
    assert np.all(np.diff(basis.eigenvalues) >= -1e-12)
    assert basis.eigenvalues[0] > -1e-10
    assert np.abs(basis.vectors.T @ basis.vectors - np.eye(n)).max() < 1e-10
    recon = basis.vectors @ np.diag(basis.eigenvalues) @ basis.vectors.T
    assert np.abs(recon - lap).max() < 1e-9


@settings(deadline=None, derandomize=True, max_examples=25)
@given(seed=st.integers(0, 1000))
def test_projector_contracts_arbitrary_signals(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(8, rng)
    basis = eigendecompose(build_laplacian(g))
    bl = Bandlimit.lowest(basis, 3)
    proj = projector(bl)
    x = rng.normal(size=8)
    # orthogonal projection never increases the norm
    assert np.linalg.norm(proj @ x) <= np.linalg.norm(x) + 1e-12
