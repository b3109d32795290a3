"""Undirected weighted graphs, Laplacian spectra, and bandlimited signal models.

The Laplacian of a graph with weight matrix A is L = diag(A 1) - A.  Its
orthonormal eigenbasis defines the graph Fourier transform; a signal is
bandlimited when its transform is supported on a fixed frequency index set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-10


class GraphFormatError(ValueError):
    """Raised when an edge-list file violates the format contract."""


def _freeze(a):
    out = np.ascontiguousarray(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph.

    Parameters
    ----------
    weights : ndarray, shape (n, n)
        Symmetric nonnegative weight matrix with zero diagonal.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        if w.shape[0] < 1:
            raise ValueError("graph needs at least one node")
        if np.abs(w - w.T).max(initial=0.0) > 1e-12:
            raise ValueError("weight matrix must be symmetric")
        if w.min(initial=0.0) < 0:
            raise ValueError("edge weights must be nonnegative")
        if np.abs(np.diag(w)).max(initial=0.0) > 0:
            raise ValueError("self loops are not allowed")
        # symmetrize exactly so downstream arithmetic sees a_ij == a_ji
        object.__setattr__(self, "weights", _freeze((w + w.T) / 2.0))

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class SpectralBasis:
    """Full Laplacian eigendecomposition: ascending eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.vectors, dtype=float)
        if vecs.ndim != 2 or vecs.shape[0] != vecs.shape[1]:
            raise ValueError("eigenvector matrix must be square")
        n = vecs.shape[0]
        if vals.shape != (n,):
            raise ValueError("eigenvalue count must match basis dimension")
        if n > 1 and np.diff(vals).min() < -1e-10:
            raise ValueError("eigenvalues must be in ascending order")
        if vals[0] < -1e-10:
            raise ValueError("Laplacian eigenvalues must be nonnegative")
        gram = vecs.T @ vecs
        if np.abs(gram - np.eye(n)).max() > ORTHO_TOL:
            raise ValueError("eigenvectors must be orthonormal")
        object.__setattr__(self, "eigenvalues", _freeze(vals))
        object.__setattr__(self, "vectors", _freeze(vecs))

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class Bandlimit:
    """Frequency support set F together with the basis columns spanning it.

    ``basis_slice`` holds the columns of the eigenvector matrix indexed by
    ``freq_set``; its rows u_i are the per-vertex frequency signatures used
    throughout sampling design.
    """

    freq_set: tuple
    basis_slice: np.ndarray

    def __post_init__(self):
        fs = tuple(int(i) for i in self.freq_set)
        sl = np.asarray(self.basis_slice, dtype=float)
        if sl.ndim != 2:
            raise ValueError("basis slice must be a 2-d array")
        n, f = sl.shape
        if len(fs) != f:
            raise ValueError("frequency set size must match basis slice width")
        if not 1 <= f <= n:
            raise ValueError("frequency set size must be between 1 and n")
        if any(not 0 <= i < n for i in fs):
            raise ValueError("frequency indices out of range")
        if len(set(fs)) != f:
            raise ValueError("frequency indices must be distinct")
        if any(b <= a for a, b in zip(fs, fs[1:])):
            raise ValueError("frequency indices must be strictly increasing")
        gram = sl.T @ sl
        if np.abs(gram - np.eye(f)).max() > ORTHO_TOL:
            raise ValueError("basis slice columns must be orthonormal")
        object.__setattr__(self, "freq_set", fs)
        object.__setattr__(self, "basis_slice", _freeze(sl))

    @property
    def n(self) -> int:
        return self.basis_slice.shape[0]

    @property
    def size(self) -> int:
        return self.basis_slice.shape[1]

    @classmethod
    def from_indices(cls, basis: SpectralBasis, indices) -> "Bandlimit":
        idx = tuple(sorted(int(i) for i in indices))
        if any(not 0 <= i < basis.n for i in idx):
            raise ValueError(f"frequency indices out of range for n={basis.n}")
        return cls(freq_set=idx, basis_slice=basis.vectors[:, list(idx)])

    @classmethod
    def lowest(cls, basis: SpectralBasis, size: int) -> "Bandlimit":
        """Bandlimit on the ``size`` smallest-eigenvalue frequencies."""
        return cls.from_indices(basis, range(size))


def build_laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = diag(A 1) - A."""
    w = g.weights
    return np.diag(w.sum(axis=1)) - w


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    # sign convention: first entry of nonnegligible magnitude is positive
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        big = np.abs(col) > 1e-8 * np.abs(col).max()
        nz = np.nonzero(big)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def eigendecompose(laplacian: np.ndarray) -> SpectralBasis:
    """Eigendecomposition of a symmetric Laplacian, eigenvalues ascending.

    Eigenvector signs are normalized so the first nonzero entry of each
    column is positive, making the decomposition deterministic up to
    degenerate (repeated-eigenvalue) subspaces.
    """
    lap = np.asarray(laplacian, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError("Laplacian must be a square matrix")
    asym = np.abs(lap - lap.T).max(initial=0.0)
    if asym > 1e-10:
        raise ValueError(f"Laplacian must be symmetric; max |L - L^T| = {asym:.3e}")
    vals, vecs = np.linalg.eigh((lap + lap.T) / 2.0)
    return SpectralBasis(eigenvalues=vals, vectors=_fix_signs(vecs))


def connected_components(g: Graph) -> int:
    """Number of connected components (breadth-first search)."""
    n = g.n
    seen = np.zeros(n, dtype=bool)
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            for j in np.nonzero(g.weights[i])[0]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(int(j))
    return count


def random_geometric_graph(n: int, radius: float, seed: int) -> Graph:
    """Random geometric graph: n nodes uniform on the unit square, unit-weight
    edges between pairs at Euclidean distance <= radius.  The draw may be
    disconnected; the caller decides whether to resample with another seed.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 0.0 < radius <= np.sqrt(2.0):
        raise ValueError("radius must be in (0, sqrt(2)]")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = (diff ** 2).sum(axis=2)
    w = (dist2 <= radius * radius).astype(float)
    np.fill_diagonal(w, 0.0)
    return Graph(w)


def save_edge_list(g: Graph, path) -> None:
    """Write a graph as an edge-list text file.

    Format: the first data line is the node count; every following line is
    ``i j w`` (0-based endpoints, weight) for one undirected edge.  Weights
    are written with full precision so a save/load round trip is exact.
    """
    lines = [f"{g.n}\n"]
    rows, cols = np.nonzero(np.triu(g.weights))
    for i, j in zip(rows, cols):
        lines.append(f"{int(i)} {int(j)} {float(g.weights[i, j])!r}\n")
    with open(path, "w") as fh:
        fh.writelines(lines)


def load_edge_list(path) -> Graph:
    """Read a graph written by :func:`save_edge_list`.

    Blank lines and lines starting with ``#`` are ignored.  A file that is
    not UTF-8 text, malformed lines, out-of-range indices, self loops, and
    conflicting duplicate edges are rejected with :class:`GraphFormatError`.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None
    n = None
    entries = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise GraphFormatError(
                    f"{path}:{lineno}: first data line must be the node count"
                )
            try:
                n = int(fields[0])
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{lineno}: node count {fields[0]!r} is not an integer"
                ) from None
            if n < 1:
                raise GraphFormatError(f"{path}:{lineno}: node count must be positive")
            continue
        if len(fields) != 3:
            raise GraphFormatError(
                f"{path}:{lineno}: expected 'i j w', got {line!r}"
            )
        try:
            i, j = int(fields[0]), int(fields[1])
            w = float(fields[2])
        except ValueError:
            raise GraphFormatError(
                f"{path}:{lineno}: could not parse edge {line!r}"
            ) from None
        if not (0 <= i < n and 0 <= j < n):
            raise GraphFormatError(
                f"{path}:{lineno}: edge ({i}, {j}) out of range for n={n}"
            )
        if i == j:
            raise GraphFormatError(f"{path}:{lineno}: self loop on node {i}")
        if w < 0:
            raise GraphFormatError(f"{path}:{lineno}: negative weight {w}")
        key = (min(i, j), max(i, j))
        if key in entries and entries[key] != w:
            raise GraphFormatError(
                f"{path}:{lineno}: conflicting weights for edge {key}: "
                f"{entries[key]} vs {w}"
            )
        entries[key] = w
    if n is None:
        raise GraphFormatError(f"{path}: missing node count line")
    weights = np.zeros((n, n))
    for (i, j), w in entries.items():
        weights[i, j] = w
        weights[j, i] = w
    return Graph(weights)
