"""Probabilistic vertex sampling, noisy observation, and reconstructability.

Each vertex i is observed independently across time with probability p_i;
observations are corrupted by zero-mean Gaussian noise with per-vertex
variance.  Whether a probability vector can support reconstruction of a
bandlimited signal is governed by the smallest eigenvalue of the weighted
Gram matrix U_F^T diag(p) U_F.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Bandlimit, _freeze


class ReconstructabilityError(ValueError):
    """The sampling probabilities cannot support the requested bandlimit."""


@dataclass(frozen=True)
class SamplingProbabilities:
    """Per-vertex sampling probabilities with optional per-vertex caps."""

    probs: np.ndarray
    bounds: np.ndarray = None

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1:
            raise ValueError("probabilities must be a vector")
        ub = self.bounds
        ub = np.ones_like(p) if ub is None else np.asarray(ub, dtype=float)
        if ub.shape != p.shape:
            raise ValueError("bounds must match probability vector length")
        if (ub < 0).any() or (ub > 1).any():
            raise ValueError("bounds must lie in [0, 1]")
        if (p < 0).any() or (p > ub + 1e-12).any():
            raise ValueError("probabilities must satisfy 0 <= p <= bounds")
        object.__setattr__(self, "probs", _freeze(np.minimum(p, ub)))
        object.__setattr__(self, "bounds", _freeze(ub))

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    def support(self, tol: float = 0.0) -> np.ndarray:
        """Indices of vertices sampled with positive probability."""
        return np.nonzero(self.probs > tol)[0]

    @classmethod
    def full(cls, n: int) -> "SamplingProbabilities":
        return cls(probs=np.ones(n))

    @classmethod
    def from_support(cls, support, n: int) -> "SamplingProbabilities":
        p = np.zeros(n)
        for i in support:
            if not 0 <= int(i) < n:
                raise ValueError(f"vertex index {i} out of range for n={n}")
            p[int(i)] = 1.0
        return cls(probs=p)


@dataclass(frozen=True)
class SamplingDraw:
    """One realization of the random sampling set, as a 0/1 mask."""

    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask)
        if m.ndim != 1:
            raise ValueError("mask must be a vector")
        if not np.isin(m, (0, 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        frozen = np.ascontiguousarray(m, dtype=np.int8)
        frozen.setflags(write=False)
        object.__setattr__(self, "mask", frozen)

    @property
    def n(self) -> int:
        return self.mask.shape[0]

    def indices(self) -> np.ndarray:
        return np.nonzero(self.mask)[0]


@dataclass(frozen=True)
class NoiseModel:
    """Independent zero-mean Gaussian observation noise, diagonal covariance."""

    variances: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.variances, dtype=float)
        if v.ndim != 1:
            raise ValueError("variances must be a vector")
        if (v <= 0).any():
            raise ValueError("variances must be strictly positive")
        object.__setattr__(self, "variances", _freeze(v))

    @property
    def n(self) -> int:
        return self.variances.shape[0]

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variances)

    @classmethod
    def uniform(cls, n: int, sigma_sq: float) -> "NoiseModel":
        return cls(variances=np.full(n, float(sigma_sq)))


def weighted_gram(b: Bandlimit, weights) -> np.ndarray:
    """Gram matrix U_F^T diag(w) U_F for nonnegative vertex weights w."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (b.n,):
        raise ValueError(f"expected {b.n} weights, got shape {w.shape}")
    u = b.basis_slice
    gram = u.T @ (w[:, None] * u)
    return (gram + gram.T) / 2.0


def draw_sampling_set(p: SamplingProbabilities, rng: np.random.Generator) -> SamplingDraw:
    """Independent Bernoulli(p_i) draw of the sampling mask."""
    mask = (rng.random(p.n) < p.probs).astype(np.int8)
    return SamplingDraw(mask=mask)


def observe(x_true, draw: SamplingDraw, noise: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """Noisy masked observation y = D_S (x + v), v ~ N(0, diag(variances))."""
    x = np.asarray(x_true, dtype=float)
    if x.shape != (draw.n,):
        raise ValueError("signal length must match mask length")
    if noise.n != draw.n:
        raise ValueError("noise model length must match mask length")
    v = rng.normal(0.0, noise.std)
    return draw.mask * (x + v)


def reconstructability_lambda(p: SamplingProbabilities, b: Bandlimit) -> float:
    """Smallest eigenvalue of U_F^T diag(p) U_F; positive iff the expected
    sampling pattern supports reconstruction of the bandlimit."""
    if p.n != b.n:
        raise ValueError("probability vector length must match basis size")
    gram = weighted_gram(b, p.probs)
    return float(np.linalg.eigvalsh(gram)[0])


def localization_norm(expected_set, b: Bandlimit) -> float:
    """Spectral norm of the bandlimited basis restricted to the complement
    of the expected sampling set.

    Strictly below one exactly when sampling the given set can see every
    bandlimited signal; equals one when some signal is perfectly localized
    off the sampled vertices.
    """
    w = np.ones(b.n)
    for i in expected_set:
        ii = int(i)
        if not 0 <= ii < b.n:
            raise ValueError(f"vertex index {ii} out of range for n={b.n}")
        w[ii] = 0.0
    # ||D_c U_F||^2 = lambda_max(U_F^T D_c U_F), computed on the small Gram
    lam_max = float(np.linalg.eigvalsh(weighted_gram(b, w))[-1])
    return float(np.sqrt(min(max(lam_max, 0.0), 1.0)))


def leverage_scores(b: Bandlimit) -> np.ndarray:
    """Squared row norms ||u_i||^2 of the bandlimited basis (sum = |F|)."""
    return (b.basis_slice ** 2).sum(axis=1)


def leverage_score_probabilities(b: Bandlimit, m: int) -> SamplingProbabilities:
    """Probabilities proportional to leverage scores, scaled so a Bernoulli
    draw samples m vertices on average (before saturation at 1)."""
    if not 0 <= m <= b.n:
        raise ValueError(f"target size m={m} out of range for n={b.n}")
    scores = leverage_scores(b)
    p = np.minimum(1.0, m * scores / b.size)
    return SamplingProbabilities(probs=p)


# greedy scores within this fraction of the best are ties; lowest index wins
_TIE_RTOL = 1e-9


def _pick(score: np.ndarray) -> int:
    best = score.max()
    return int(np.flatnonzero(score >= best - _TIE_RTOL * abs(best))[0])


def max_det_greedy(b: Bandlimit, m: int, noise: NoiseModel = None) -> np.ndarray:
    """Greedy vertex selection maximizing det(U_F^T D_S U_F), in O(m n |F|).

    Each pick multiplies the determinant (by the determinant lemma) by the
    candidate's score, and the best score wins; scores within a relative
    1e-9 of the best are ties and go to the lowest vertex index.  While the
    selection is smaller than |F| the determinant is identically zero, so the
    score is the pseudo-determinant factor: the squared residual of u_i off
    the span of the chosen rows, kept by Gram-Schmidt (orthogonalizing twice).
    A candidate already in that span scores 0.  From |F| rows on, the score
    is 1 + u_i^T G^{-1} u_i, with G^{-1} kept by Sherman-Morrison updates.
    Returned in selection order, so prefixes of the result are the greedy
    sets of every smaller size.  The noise model does not enter the score;
    the parameter is accepted for interface uniformity with the other
    strategies.
    """
    if not 0 <= m <= b.n:
        raise ValueError(f"target size m={m} out of range for n={b.n}")
    u = b.basis_slice
    f = b.size
    chosen = []
    # rank-building phase: rows of `resid` are the u_i off span(chosen)
    resid = u.copy()
    basis = np.zeros((0, f))
    for _ in range(min(m, f)):
        score = np.einsum("ij,ij->i", resid, resid)
        score[chosen] = -np.inf
        j = _pick(score)
        chosen.append(j)
        q = resid[j]
        for _ in range(2):
            q = q - basis.T @ (basis @ q)
        q = q / np.linalg.norm(q)
        basis = np.vstack([basis, q])
        resid -= np.outer(resid @ q, q)
    if m > f:
        # full-rank phase: lev_i = u_i^T G^{-1} u_i, G = sum of chosen u_i u_i^T
        rows = u[chosen]
        g_inv = np.linalg.inv(rows.T @ rows)
        lev = np.einsum("ij,jk,ik->i", u, g_inv, u)
        for _ in range(m - f):
            score = 1.0 + lev
            score[chosen] = -np.inf
            j = _pick(score)
            chosen.append(j)
            v = g_inv @ u[j]
            denom = 1.0 + lev[j]
            g_inv -= np.outer(v, v) / denom
            lev -= (u @ v) ** 2 / denom
    return np.array(chosen, dtype=int)


def uniform_random_set(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m distinct vertices drawn uniformly without replacement, sorted."""
    if not 0 <= m <= n:
        raise ValueError(f"target size m={m} out of range for n={n}")
    return np.sort(rng.choice(n, size=m, replace=False))
