"""Per-call timings of the inner kernels (pytest-benchmark).

Monte Carlo: one call is one step of a ``TRIAL_CHUNK``-trial pass at the
scaled instance (n=300, |F|=20); divide by ``TRIAL_CHUNK`` for the
per-trial-step figures the repository benchmark reports as
``harness.lms_step_ns`` / ``harness.rls_step_ns``.  Filling one draw block
of such a pass (``DRAW_BLOCK // 2`` entries of masks and noise, the block the
harness streams; two are in flight, ``DRAW_BLOCK`` entries in all) is timed
on its own.  In a run the next block fills on the other usable CPUs while
the kernel consumes this one; here each round asks for the next block as
soon as the last is handed on, so nearly all of the fill is timed, on every
usable CPU, and its time depends on the core count while the kernels' does
not.

Distributed: one call is one sensing instant of the consensus network,
all trials of a pass together, at the size of ``configs/drls.yaml`` (n=20,
|F|=5, three inner iterations, 50 trials).  Each inner iteration is the
closed-form Sherman-Morrison local update, with no factorization: medians
of 0.32-0.53 ms per call over three runs on a 2-core Xeon VM (Python 3.11,
numpy 2.4), against 1.4-2.2 ms when each iteration was one batched LU solve
of the (50, 20, 5, 5) information matrices.

Design: one call is one Newton step of the log-barrier engine at the size
of the benchmark's design instances (n=40, |F|=6).  On the min-rate program
that is the barrier's gradient and Hessian (one eigendecomposition, two
LMIs, the box) and the Jacobi-scaled dense solve.  On the exact-MSD program
of ``sca_min_msd`` it is the rate LMI, the box and the budget, the MSD's
value, gradient and Hessian from the same eigendecomposition and the
Cholesky test of the Newton matrix; then the solve where that matrix is
positive definite (at t = 1e4), or the modified Newton step, one n x n
``eigh``, where it is not (at t = 1e5).  Each round builds its instance and
barrier afresh, untimed, so the step starts with nothing evaluated at its
point.

Run only these with ``pytest --benchmark-only``.  The round counts are fixed
and small so the suite pays well under a second for them.
"""

import numpy as np
import pytest

from graphadapt.design import _Barrier, _Instance, _msd, _newton_step
from graphadapt.distributed import CommGraph, DrlsConfig, drls_network_init, drls_round
from graphadapt.filters import lms_update, rls_outer_table, rls_update
from graphadapt.graphs import Bandlimit
from graphadapt.harness import DRAW_BLOCK, TRIAL_CHUNK
from graphadapt.sampling import NoiseModel, draw_blocks

N, F = 300, 20
ROUNDS = 40
DRAW_ROUNDS = 8
DRLS_N, DRLS_F, DRLS_TRIALS = 20, 5, 50
DRLS_ROUNDS = 200
DESIGN_N, DESIGN_F = 40, 6
DESIGN_ROUNDS = 200
MODIFIED_ROUNDS = 50


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


def test_draw_block(benchmark):
    rng = np.random.default_rng(2)
    probs = rng.uniform(0.2, 0.9, N)
    std = np.sqrt(rng.uniform(0.005, 0.03, N))
    steps = DRAW_BLOCK // 2 // (TRIAL_CHUNK * N)
    # one block per round, the warm-up round included
    blocks = draw_blocks(0, range(TRIAL_CHUNK), (DRAW_ROUNDS + 1) * steps, probs, std,
                         DRAW_BLOCK // 2)
    masks, noise = benchmark.pedantic(next, args=(blocks,), rounds=DRAW_ROUNDS,
                                      iterations=1, warmup_rounds=1)
    assert masks.shape == noise.shape == (TRIAL_CHUNK, steps, N)


def test_drls_round(benchmark):
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.normal(size=(DRLS_N, DRLS_F)))[0]
    band = Bandlimit(freq_set=tuple(range(DRLS_F)), basis_slice=u)
    noise = NoiseModel.uniform(DRLS_N, 0.01)
    cfg = DrlsConfig(rho=20.0, inner_iters=3, beta=0.95)
    net = drls_network_init(CommGraph.ring(DRLS_N), band, noise, cfg, batch=(DRLS_TRIALS,))
    draws = (rng.random((DRLS_TRIALS, DRLS_N)) < 0.7).astype(np.int8)
    obs = draws * rng.normal(size=(DRLS_TRIALS, DRLS_N))
    out = benchmark.pedantic(drls_round, args=(net, draws, obs, cfg), rounds=DRLS_ROUNDS,
                             iterations=1, warmup_rounds=1)
    assert out.estimates.shape == (DRLS_TRIALS, DRLS_N, DRLS_F)
    assert np.isfinite(out.estimates).all()


@pytest.fixture(scope="module")
def design_data():
    rng = np.random.default_rng(1)
    u = np.linalg.qr(rng.normal(size=(DESIGN_N, DESIGN_F)))[0]
    band = Bandlimit(freq_set=tuple(range(DESIGN_F)), basis_slice=u)
    noise = NoiseModel(rng.uniform(0.005, 0.03, DESIGN_N))
    ub = rng.uniform(0.3, 1.0, DESIGN_N)
    return band, noise, ub


def cold_newton_step(benchmark, design_data, program, t, definite=True,
                     rounds=DESIGN_ROUNDS):
    """Time one Newton step at x = p_max / 2 of ``program(inst)``, with a
    fresh instance and barrier per round; ``definite`` tells whether the
    Newton matrix there is positive definite."""
    inst = _Instance(*design_data)
    prog, x = program(inst), 0.5 * inst.ub
    assert np.isfinite(prog(x))
    newton_matrix = prog(x, True)[2] + t * prog.f0(x, True)[2]
    assert (np.linalg.eigvalsh(newton_matrix)[0] > 0.0) == definite

    def setup():
        inst = _Instance(*design_data)
        return (program(inst), 0.5 * inst.ub), {}

    def newton(prog, x):
        return _newton_step(prog, (prog(x, True), prog.f0(x, True)), t)

    _, step, decrement = benchmark.pedantic(newton, setup=setup, rounds=rounds,
                                            iterations=1, warmup_rounds=1)
    assert step.shape == (DESIGN_N,) and decrement > 0


def test_barrier_newton_step(benchmark, design_data):
    def program(inst):
        rate = (np.zeros(DESIGN_N), 0.1)
        bound = (0.5 * 0.1 / 10 ** -2.0 * inst.g_lin, 0.0)     # -20 dB
        return _Barrier(inst, [rate, bound], objective=np.ones(DESIGN_N))

    cold_newton_step(benchmark, design_data, program, 10.0)


def sca_min_msd_program(inst):
    rate = (np.zeros(DESIGN_N), 0.1)
    return _Barrier(inst, [rate], objective=_msd(inst, 0.1), budget=0.6 * inst.ub.sum())


def test_sca_min_msd_newton_step(benchmark, design_data):
    cold_newton_step(benchmark, design_data, sca_min_msd_program, 1e4)


def test_sca_min_msd_modified_newton_step(benchmark, design_data):
    cold_newton_step(benchmark, design_data, sca_min_msd_program, 1e5, definite=False,
                     rounds=MODIFIED_ROUNDS)
