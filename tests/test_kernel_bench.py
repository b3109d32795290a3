"""Per-call timings of the inner kernels (pytest-benchmark).

Monte Carlo: one call is one step of a 64-trial chunk at the scaled instance
(n=300, |F|=20); divide by 64 for the per-trial-step figures the repository
benchmark reports as ``harness.lms_step_ns`` / ``harness.rls_step_ns``.

Design: one call is one Newton step of the log-barrier engine at the size
of the benchmark's design instance (n=40, |F|=6) on the min-rate program:
the barrier's gradient and Hessian (one eigendecomposition, two LMIs, the
box) and the Jacobi-scaled dense solve.

Run only these with ``pytest --benchmark-only``.  The round counts are fixed
and small so the suite pays well under a second for them.
"""

import numpy as np
import pytest

from graphadapt.design import _Barrier, _Instance, _newton_step
from graphadapt.graphs import Bandlimit
from graphadapt.harness import TRIAL_CHUNK, lms_update, rls_outer_table, rls_update
from graphadapt.sampling import NoiseModel

N, F = 300, 20
ROUNDS = 40
DESIGN_N, DESIGN_F = 40, 6
DESIGN_ROUNDS = 200


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


@pytest.fixture(scope="module")
def design_instance():
    rng = np.random.default_rng(1)
    u = np.linalg.qr(rng.normal(size=(DESIGN_N, DESIGN_F)))[0]
    band = Bandlimit(freq_set=tuple(range(DESIGN_F)), basis_slice=u)
    noise = NoiseModel(rng.uniform(0.005, 0.03, DESIGN_N))
    ub = rng.uniform(0.3, 1.0, DESIGN_N)
    return _Instance(band, noise, ub)


def test_barrier_newton_step(benchmark, design_instance):
    inst = design_instance
    rate = (np.zeros(DESIGN_N), 0.1, 0.0)
    bound = (0.5 * 0.1 / 10 ** -2.0 * inst.g_lin, 0.0, 0.0)     # -20 dB
    prog = _Barrier(inst, [rate, bound], objective=np.ones(DESIGN_N))
    x = 0.5 * inst.ub
    assert np.isfinite(prog(x))
    _, step, decrement = benchmark.pedantic(_newton_step, args=(prog, x, 10.0),
                                            rounds=DESIGN_ROUNDS, iterations=1,
                                            warmup_rounds=1)
    assert step.shape == (DESIGN_N,) and decrement > 0
