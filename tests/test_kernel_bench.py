"""Per-step timings of the batched Monte Carlo kernels (pytest-benchmark).

One call is one step of a 64-trial chunk at the scaled instance (n=300,
|F|=20); divide by 64 for the per-trial-step figures the repository
benchmark reports as ``harness.lms_step_ns`` / ``harness.rls_step_ns``.
Run only these with ``pytest --benchmark-only``.  The round count is fixed
and small so the suite pays well under a second for them.
"""

import numpy as np
import pytest

from graphadapt.harness import TRIAL_CHUNK, lms_update, rls_outer_table, rls_update

N, F = 300, 20
ROUNDS = 40


@pytest.fixture(scope="module")
def chunk_step():
    rng = np.random.default_rng(0)
    u = np.linalg.qr(rng.normal(size=(N, F)))[0]
    masks = (rng.random((TRIAL_CHUNK, N)) < 0.4).astype(np.int8)
    y = rng.normal(size=(TRIAL_CHUNK, N))
    inv_var = 1.0 / rng.uniform(0.005, 0.03, N)
    return u, masks, y, inv_var


def test_lms_step(benchmark, chunk_step):
    u, masks, y, _ = chunk_step
    s_true = np.ones(F)
    s_hat = np.zeros((TRIAL_CHUNK, F))

    def step():
        err = s_hat - s_true
        float((err * err).sum())
        return lms_update(s_hat, masks, y, u, 0.1)

    out = benchmark.pedantic(step, rounds=ROUNDS, iterations=1, warmup_rounds=1)
    assert out.shape == (TRIAL_CHUNK, F)


def test_rls_step(benchmark, chunk_step):
    u, masks, y, inv_var = chunk_step
    s_true = np.ones(F)
    outer = rls_outer_table(u)
    psi = np.tile(np.eye(F), (TRIAL_CHUNK, 1, 1))
    psiv = np.zeros((TRIAL_CHUNK, F))

    def step():
        s_hat = np.linalg.solve(psi, psiv[:, :, None])[:, :, 0]
        err = s_hat - s_true
        float((err * err).sum())
        return rls_update(psi, psiv, masks * inv_var, y, u, outer, 0.95)

    new_psi, new_psiv = benchmark.pedantic(step, rounds=ROUNDS, iterations=1,
                                           warmup_rounds=1)
    assert new_psi is psi and new_psiv.shape == (TRIAL_CHUNK, F)
