"""Undirected weighted graphs, Laplacian spectra, and bandlimited signal models.

The Laplacian of a graph with weight matrix A is L = diag(A 1) - A.  Its
orthonormal eigenbasis defines the graph Fourier transform; a signal is
bandlimited when its transform is supported on a fixed frequency index set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ORTHO_TOL = 1e-10


class GraphFormatError(ValueError):
    """Raised when an edge-list file violates the format contract."""


def _freeze(a):
    out = np.ascontiguousarray(a, dtype=float)
    out.setflags(write=False)
    return out


def _integers(values, what: str) -> tuple:
    """``values`` as Python ints; a float (1.5, NaN) is an error, not truncated."""
    values = tuple(values)
    if not all(isinstance(i, (int, np.integer)) for i in values):
        raise ValueError(f"{what} must be integers, got {list(values)}")
    return tuple(int(i) for i in values)


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
        if not np.isfinite(w).all():
            raise ValueError("edge weights must be finite")
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


class SpectralBasis(NamedTuple):
    """Full Laplacian eigendecomposition: ascending eigenvalues, orthonormal
    columns, both read-only (built by :func:`eigendecompose`)."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    n: int


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
        fs = _integers(self.freq_set, "frequency indices")
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
        if not np.abs(gram - np.eye(f)).max() <= ORTHO_TOL:
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
        idx = tuple(sorted(_integers(indices, "frequency indices")))
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
    mag = np.abs(vecs)
    first = (mag > 1e-8 * mag.max(axis=0)).argmax(axis=0)
    return np.where(vecs[first, np.arange(vecs.shape[1])] < 0, -vecs, vecs)


def eigendecompose(laplacian: np.ndarray) -> SpectralBasis:
    """Eigendecomposition of a symmetric Laplacian, eigenvalues ascending.

    Eigenvector signs are normalized so the first nonzero entry of each
    column is positive, making the decomposition deterministic up to
    degenerate (repeated-eigenvalue) subspaces.
    """
    lap = np.asarray(laplacian, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError("Laplacian must be a square matrix")
    if not np.isfinite(lap).all():
        raise ValueError("Laplacian must be finite")
    asym = np.abs(lap - lap.T).max(initial=0.0)
    if asym > 1e-10:
        raise ValueError(f"Laplacian must be symmetric; max |L - L^T| = {asym:.3e}")
    vals, vecs = np.linalg.eigh((lap + lap.T) / 2.0)
    if vals[0] < -1e-10:
        raise ValueError(f"Laplacian spectrum must be nonnegative; smallest eigenvalue "
                         f"{vals[0]:.3e}")
    return SpectralBasis(_freeze(vals), _freeze(_fix_signs(vecs)), lap.shape[0])


def connected_components(g: Graph) -> int:
    """Number of connected components: square the reachability matrix until
    it stops growing, then count each component at its smallest vertex."""
    reach = ((g.weights > 0) | np.eye(g.n, dtype=bool)).astype(float)
    while True:
        grown = (reach @ reach > 0).astype(float)
        if np.array_equal(grown, reach):
            return int((reach.argmax(axis=1) == np.arange(g.n)).sum())
        reach = grown


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
    x, y = rng.random((n, 2)).T
    dist2 = np.subtract.outer(x, x) ** 2 + np.subtract.outer(y, y) ** 2
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
    not UTF-8 text, malformed lines, out-of-range indices, self loops,
    negative or non-finite weights, and conflicting duplicate edges are
    rejected with :class:`GraphFormatError`.
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
        if not 0 <= w < np.inf:
            raise GraphFormatError(f"{path}:{lineno}: weight {w} must be finite and nonnegative")
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
