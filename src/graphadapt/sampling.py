"""Probabilistic vertex sampling, noisy observation, and reconstructability.

Each vertex i is observed independently across time with probability p_i;
observations are corrupted by zero-mean Gaussian noise with per-vertex
variance.  :func:`draw_blocks` is the one stream of these draws, for any
number of trials at once; one thread pool per stream, one thread per other
usable CPU, fills the next block while the consumer works on this one, and
the values do not depend on how many.  Whether a probability vector can
support reconstruction of a bandlimited signal is governed by the smallest
eigenvalue of the weighted Gram matrix U_F^T diag(p) U_F.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .graphs import Bandlimit, _freeze, _integers


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
        if not ((ub >= 0) & (ub <= 1)).all():
            raise ValueError("bounds must lie in [0, 1]")
        if not ((p >= 0) & (p <= ub + 1e-12)).all():
            raise ValueError("probabilities must satisfy 0 <= p <= bounds")
        object.__setattr__(self, "probs", _freeze(np.minimum(p, ub)))
        object.__setattr__(self, "bounds", _freeze(ub))

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    def support(self) -> np.ndarray:
        """Indices of vertices sampled with positive probability."""
        return np.nonzero(self.probs > 0)[0]

    @classmethod
    def full(cls, n: int) -> "SamplingProbabilities":
        return cls(probs=np.ones(n))

    @classmethod
    def from_support(cls, support, n: int) -> "SamplingProbabilities":
        p = np.zeros(n)
        for i in _integers(support, "vertex indices"):
            if not 0 <= i < n:
                raise ValueError(f"vertex index {i} out of range for n={n}")
            p[i] = 1.0
        return cls(probs=p)


@dataclass(frozen=True)
class NoiseModel:
    """Independent zero-mean Gaussian observation noise, diagonal covariance."""

    variances: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.variances, dtype=float)
        if v.ndim != 1:
            raise ValueError("variances must be a vector")
        if not (np.isfinite(v) & (v > 0)).all():
            raise ValueError("variances must be finite and strictly positive")
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


# threads that fill draw blocks, the consumer's included: every usable CPU
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def draw_blocks(seed: int, trials, horizon: int, probs: np.ndarray, std: np.ndarray,
                max_elements: int):
    """Per-trial sampling masks and noise, streamed in time blocks.

    Trial ``t`` owns the stream of ``default_rng(seed + t)``: ``horizon``
    rows of uniforms, thresholded against ``probs`` into 0/1 masks, then
    ``horizon`` rows of Gaussian noise with per-vertex ``std``.  The masks
    are read from that generator; the noise from a second copy advanced
    past the uniforms, so each block is drawn without materializing the
    rest of the horizon.  Yields ``(masks, noise)`` of shape
    ``(len(trials), steps, n)`` covering the horizon in order, with
    ``steps`` chosen so that a block holds at most ``max_elements`` entries,
    but at least one step.

    Two blocks are in flight: while the consumer works on one, the next is
    filled into a second buffer, so the two hold up to twice ``max_elements``
    entries (one buffer when a single block covers the horizon).  One thread
    pool, one helper per other usable CPU, serves the whole stream: each
    block's fill submits one claim loop per helper, and the calling thread,
    asking for that block, fills the trials nobody has started and raises
    here any exception a helper raised; closing the stream stops the fill
    and joins the helpers.  Trials are claimed one at a time, only one thread
    touches a trial's generators within a block, and blocks are filled
    strictly in order, so the values do not depend on the number of threads.
    With one usable CPU no thread is started.

    A yielded block is a view of a buffer that is filled again two blocks
    later, so it stays valid only until the next one is requested: copy it
    to keep it.  The consumer may overwrite the noise, never the masks.
    When every probability is 0 or 1 the masks are the same at every
    instant: they are set once and no uniforms are drawn, which leaves the
    noise as it was (it comes from its own advanced generator).
    """
    # imported here, where a pool starts, so that loading the package does
    # not load concurrent.futures and the logging it imports
    from concurrent.futures import ThreadPoolExecutor

    n = probs.shape[0]
    trials = list(trials)
    steps = min(horizon, max(1, max_elements // (len(trials) * n)))
    starts = range(0, horizon, steps)
    buffers = [(np.empty((len(trials), steps, n), dtype=np.int8),
                np.empty((len(trials), steps, n))) for _ in range(min(2, len(starts)))]
    fixed = bool(np.all((probs == 0.0) | (probs == 1.0)))
    if fixed:
        for masks, _ in buffers:
            masks[...] = probs == 1.0
    else:
        mask_rngs = [np.random.default_rng(seed + t) for t in trials]
    noise_rngs = []
    for t in trials:
        bits = np.random.PCG64(seed + t)
        bits.advance(horizon * n)  # one 64-bit draw per uniform
        noise_rngs.append(np.random.Generator(bits))
    helpers = min(_WORKERS - 1, len(trials))
    lock = threading.Lock()

    def block(i):
        masks, noise = buffers[i % 2]
        k = min(steps, horizon - starts[i])
        return masks[:, :k], noise[:, :k]

    def claim(fill_trial, claims):
        # fill the trials taken one at a time from the shared iterator
        while True:
            with lock:
                c = next(claims, None)
            if c is None:
                return
            fill_trial(c)

    def start(i):
        masks, noise = block(i)

        def fill_trial(c):
            rows = noise[c]
            if not fixed:
                # the uniforms pass through the noise rows the normals overwrite
                mask_rngs[c].random(out=rows)
                np.less(rows, probs, out=masks[c])
            noise_rngs[c].standard_normal(out=rows)
            # the same values as normal(0.0, std), which computes 0.0 + std * z
            rows *= std

        claims = iter(range(len(trials)))
        return fill_trial, claims, [pool.submit(claim, fill_trial, claims)
                                    for _ in range(helpers)]

    def finish(fill_trial, claims, futures):
        # fill what nobody has claimed, then raise what a helper raised
        claim(fill_trial, claims)
        for future in futures:
            future.result()

    # the pool starts a thread per submitted task up to its size, so none
    # when there are no helpers
    with ThreadPoolExecutor(max(helpers, 1)) as pool:
        pending = start(0)
        try:
            for i in range(len(starts)):
                current, pending = pending, None
                finish(*current)
                if i + 1 < len(starts):
                    pending = start(i + 1)
                yield block(i)
        finally:
            if pending is not None:
                with lock:  # leave no trial to claim
                    for _ in pending[1]:
                        pass
                finish(*pending)


def reconstructability_lambda(p: SamplingProbabilities, b: Bandlimit) -> float:
    """Smallest eigenvalue of U_F^T diag(p) U_F; positive iff the expected
    sampling pattern supports reconstruction of the bandlimit."""
    return float(np.linalg.eigvalsh(weighted_gram(b, p.probs))[0])


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


def max_det_greedy(b: Bandlimit, m: int) -> np.ndarray:
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
    sets of every smaller size.
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
