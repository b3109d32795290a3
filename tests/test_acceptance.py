"""End-to-end acceptance runs, one scenario per shipped claim.

Each test exercises a full pipeline (design, Monte Carlo, theory) at the
advertised tolerance and prints a single PASS/FAIL line; run with ``-s`` to
see the lines for passing criteria too.  These are slower than the unit
suites (a few minutes total) but deterministic.
"""

import copy
import itertools
import math
from pathlib import Path

import numpy as np

from graphadapt import design
from graphadapt.design import DesignSpec, dinkelbach_min_msd, sca_min_msd
from graphadapt.distributed import (
    CommGraph,
    DrlsConfig,
    drls_network_init,
    drls_round,
    drls_simulate,
)
from graphadapt.filters import (
    _lms_msd,
    lms_msd_theory,
    lms_msd_upper_bound,
    rls_outer_table,
    rls_update,
)
from graphadapt.graphs import (
    Bandlimit,
    build_laplacian,
    connected_components,
    eigendecompose,
    random_geometric_graph,
)
from graphadapt.harness import build_setup, compare_sampling, fit_rate, load_config, run_experiment
from graphadapt.sampling import (
    NoiseModel,
    SamplingProbabilities,
    reconstructability_lambda,
    weighted_gram,
)
import reference

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"\n{tag} {'PASS' if ok else 'FAIL'}: {detail}")


def exact_msd(p, mu, noise, bl):
    return lms_msd_theory(SamplingProbabilities(probs=p), mu, noise, bl)


def msd_bound(p, mu, noise, bl):
    return lms_msd_upper_bound(SamplingProbabilities(probs=p), mu, noise, bl)


def test_ac1_lms_steady_state_matches_theory():
    curve = run_experiment(load_config(CONFIG_DIR / "lms_full.yaml"))
    theory_db = curve.metadata["theory_msd_db"]
    steady_db = curve.steady_state_db()
    gap = abs(steady_db - theory_db)
    # white noise collapses the prediction to (mu/2) |F| sigma^2
    closed_form = 0.5 * 0.1 * 5 * 0.01
    ok = gap <= 1.0 and math.isclose(
        curve.metadata["theory_msd_linear"], closed_form, rel_tol=1e-12
    )
    report("AC-1", ok,
           f"LMS steady state {steady_db:.2f} dB vs theory {theory_db:.2f} dB "
           f"(gap {gap:.2f} dB, tolerance 1 dB)")
    assert ok


def test_ac2_rls_steady_state_matches_theory():
    base = load_config(CONFIG_DIR / "rls_designed.yaml")
    parts, oks = [], []
    for gamma_db in (-24.0, -21.0, -18.0):
        config = copy.deepcopy(base)
        config["sampling"]["msd_target_db"] = gamma_db
        curve = run_experiment(config)
        gap = abs(curve.steady_state_db() - curve.metadata["theory_msd_db"])
        oks.append(gap <= 1.0)
        parts.append(f"target {gamma_db:g} dB gap {gap:.2f} dB")
    report("AC-2", all(oks),
           "RLS steady state vs theory at designed p: "
           + ", ".join(parts) + " (tolerance 1 dB each)")
    assert all(oks)


def test_ac3_designed_rate_control():
    base = {
        "seed": 1,
        "trials": 100,
        "horizon": 2500,
        "graph": {"kind": "random_geometric", "n": 20, "radius": 0.5},
        "bandlimit": {"size": 5},
        "noise": {"kind": "loguniform", "low": 0.005, "high": 0.03},
        "sampling": {"kind": "design", "problem": "min_rate_convex",
                     "rate_target": None, "msd_target": 1e-2},
        "algorithm": {"kind": "lms", "mu": 0.1},
    }
    target_db = 10.0 * math.log10(1e-2)
    parts, oks = [], []
    for alpha in (0.99, 0.98, 0.95):
        config = copy.deepcopy(base)
        config["sampling"]["rate_target"] = alpha
        curve = run_experiment(config)
        rate = fit_rate(curve)
        steady_db = curve.steady_state_db()
        oks.append(rate <= alpha + 0.01 and steady_db <= target_db + 1.0)
        parts.append(f"rate target {alpha:g}: fitted {rate:.4f}, "
                     f"steady {steady_db:.1f} dB")
    report("AC-3", all(oks),
           ", ".join(parts)
           + f" (rate tolerance +0.01, deviation target {target_db:.0f} dB "
           "+1 dB)")
    assert all(oks)


def _feasible_cloud(bl, lam_t, count, rng):
    """Random points of the rate-feasible set, exact by construction.

    Half are uniform on the sub-box [lam_t, 1]^n, feasible because the Gram
    matrix there dominates lam_t times the full-sampling Gram; half live on
    random supports S, where lambda_min at the indicator of S exceeding
    lam_t admits any point above lam_t/lambda_S on S.
    """
    n = bl.n
    points = [rng.uniform(lam_t, 1.0, size=(count // 2, n))]
    need = count - count // 2
    while need > 0:
        sizes = rng.integers(bl.size + 4, n + 1, size=4 * need)
        masks = rng.uniform(0.0, 1.0, size=(4 * need, n)).argsort(axis=1) < sizes[:, None]
        lam_s = np.array([np.linalg.eigvalsh(weighted_gram(bl, m))[0]
                          for m in masks.astype(float)])
        keep = lam_s > lam_t * (1.0 + 1e-7)
        masks, lam_s = masks[keep], lam_s[keep]
        if not len(masks):
            continue
        low = lam_t / lam_s
        vals = rng.uniform(low[:, None], 1.0, size=(len(masks), n))
        batch = np.where(masks, vals, 0.0)[:need]
        points.append(batch)
        need -= len(batch)
    cloud = np.vstack(points)
    lams = np.array([np.linalg.eigvalsh(weighted_gram(bl, q))[0] for q in cloud])
    assert (lams >= lam_t - 1e-9).all()
    return cloud, lams


def test_ac4_fractional_and_exact_solvers_agree():
    config = {
        "seed": 2,
        "graph": {"kind": "random_geometric", "n": 30, "radius": 0.45},
        "bandlimit": {"size": 8},
        "noise": {"kind": "loguniform", "low": 0.005, "high": 0.03},
    }
    setup = build_setup(config)
    mu, alpha = 0.1, 0.90
    spec = DesignSpec(bandlimit=setup.bandlimit, noise=setup.noise,
                         mu=mu, rate_target=alpha)
    dink, dink_trace = dinkelbach_min_msd(spec)
    sca, _ = sca_min_msd(spec)
    dink_msd = exact_msd(dink.probs, mu, setup.noise, setup.bandlimit)
    sca_msd = exact_msd(sca.probs, mu, setup.noise, setup.bandlimit)
    rel_gap = abs(dink_msd - sca_msd) / min(dink_msd, sca_msd)

    lam_t = spec.lambda_target()
    cloud, _ = _feasible_cloud(setup.bandlimit, lam_t, 10_000,
                               np.random.default_rng(11))
    dink_bound = msd_bound(dink.probs, mu, setup.noise, setup.bandlimit)
    best_random = min(msd_bound(q, mu, setup.noise, setup.bandlimit)
                      for q in cloud)
    dominates = dink_bound <= best_random + 1e-12

    ok = rel_gap <= 0.05 and dominates and dink_trace.converged
    report("AC-4", ok,
           f"final deviations {dink_msd:.3e} (fractional) vs {sca_msd:.3e} "
           f"(exact surrogate), relative gap {rel_gap:.3f} (tolerance 0.05); "
           f"bound {dink_bound:.3e} vs best of 10^4 random feasible points "
           f"{best_random:.3e}")
    assert ok


def test_ac5_designed_rate_beats_baselines():
    rows = compare_sampling(load_config(CONFIG_DIR / "compare_sampling.yaml"))
    by_target = {}
    for row in rows:
        by_target.setdefault(row["rate_target"], {})[row["strategy"]] = row[
            "sampling_rate"]
    parts, oks = [], []
    for alpha in sorted(by_target):
        got = by_target[alpha]
        designed = got["designed"]
        rivals = [got["max_det"], got["leverage"], got["uniform"]]
        oks.append(math.isfinite(designed)
                   and all(designed <= r + 1e-9 for r in rivals))
        parts.append(f"{alpha:g}: {designed:.1f} vs "
                     f"{'/'.join(f'{r:.1f}' for r in rivals)}")
    ok = all(oks) and len(by_target) == 5
    report("AC-5", ok,
           "designed expected rate vs max-det/leverage/uniform counts at "
           "each rate target: " + "; ".join(parts))
    assert ok


def test_ac6_distributed_tracks_centralized():
    # dense consensus on identical draws lands on the centralized estimate
    g = None
    for offset in range(20):
        cand = random_geometric_graph(5, 0.9, seed=1 + offset)
        if connected_components(cand) == 1:
            g = cand
            break
    bl = Bandlimit.lowest(eigendecompose(build_laplacian(g)), 3)
    noise = NoiseModel.uniform(5, 0.01)
    rng = np.random.default_rng(42)
    coeffs = rng.normal(size=3)
    x_true = bl.basis_slice @ coeffs
    horizon = 200
    draws = (rng.random((horizon, 5)) < 0.7).astype(np.int8)
    observations = draws * (x_true + rng.normal(0.0, noise.std, size=(horizon, 5)))
    dcfg = DrlsConfig(rho=300.0, inner_iters=50, beta=0.95, delta=1e-3)
    _, network = drls_simulate(CommGraph.complete(5), bl, noise, dcfg,
                                  [(draws[None], observations[None])], coeffs)
    u = bl.basis_slice
    outer = rls_outer_table(u)
    psi, psiv = 1e-3 * np.eye(3), np.zeros(3)
    for t in range(horizon):
        psi, psiv = rls_update(psi, psiv, draws[t] / noise.variances, observations[t],
                                  u, outer, 0.95)
    central = u @ np.linalg.solve(psi, psiv)
    deviation = float(np.abs(network.estimates[0] @ bl.basis_slice.T - central).max())
    ok_match = deviation <= 1e-4

    # more consensus iterations close the steady-state gap to centralized
    base = load_config(CONFIG_DIR / "drls.yaml")
    base["trials"], base["horizon"] = 12, 300
    central_cfg = copy.deepcopy(base)
    central_cfg["algorithm"] = {"kind": "rls", "beta": 0.95, "delta": 1e-3}
    central_steady = run_experiment(central_cfg).steady_state_linear()
    gaps = {}
    for k in (1, 3):
        config = copy.deepcopy(base)
        config["algorithm"]["inner_iters"] = k
        gaps[k] = abs(run_experiment(config).steady_state_linear() - central_steady)
    ok_order = gaps[3] < gaps[1]

    ok = ok_match and ok_order
    report("AC-6", ok,
           f"dense 50-iteration consensus within {deviation:.1e} per "
           "coordinate of centralized (tolerance 1e-4); steady-state gap "
           f"{gaps[3]:.2e} at 3 inner iterations vs {gaps[1]:.2e} at 1")
    assert ok


def _ac7_projector():
    g = random_geometric_graph(12, 0.6, seed=9)
    basis = eigendecompose(build_laplacian(g))
    bl = Bandlimit.lowest(basis, 4)
    u = bl.basis_slice
    proj = u @ u.T
    return (np.abs(proj @ proj - proj).max() <= 1e-12
            and np.abs(u.T @ u - np.eye(4)).max() <= 1e-12)


def _ac7_reconstructability():
    for n in (4, 5, 6):
        g = random_geometric_graph(n, 0.8, seed=n)
        bl = Bandlimit.lowest(eigendecompose(build_laplacian(g)), 2)
        for size in range(n + 1):
            for subset in itertools.combinations(range(n), size):
                w = np.zeros(n)
                w[list(subset)] = 1.0
                lam = reconstructability_lambda(
                    SamplingProbabilities(probs=w), bl)
                norm = reference.localization_norm(subset, bl.basis_slice)
                if (lam > 1e-10) != (norm < 1.0 - 1e-10):
                    return False
    return True


def _ac7_gradients():
    # the exact-MSD gradient and the gradient of the LMI barrier term
    # -log det(H(p) - l I) that the design solvers run, against central
    # differences, at l = lambda_min(H(p)) / 2
    g = random_geometric_graph(10, 0.6, seed=7)
    bl = Bandlimit.lowest(eigendecompose(build_laplacian(g)), 4)
    noise = NoiseModel(
        variances=np.random.default_rng(70).uniform(0.005, 0.03, 10))
    inst = design._Instance(bl, noise, np.ones(10))
    box = design._Barrier(inst)
    rng = np.random.default_rng(71)
    step = 1e-6
    for _ in range(100):
        p = rng.uniform(0.05, 1.0, 10)
        prog = design._Barrier(inst, [(np.zeros(10), 0.5 * inst.lam_min(p))])

        def lmi(x):
            return prog(x) - box(x)

        got_msd = _lms_msd(inst, p, 0.1, derivs=True)[1]
        got_lam = prog(p, True)[1] - box(p, True)[1]
        fd_msd, fd_lam = np.empty(10), np.empty(10)
        for i in range(10):
            hi, lo = p.copy(), p.copy()
            hi[i] += step
            lo[i] -= step
            fd_msd[i] = (exact_msd(np.clip(hi, 0, 1), 0.1, noise, bl)
                         - exact_msd(lo, 0.1, noise, bl)) / (hi[i] - lo[i])
            fd_lam[i] = (lmi(hi) - lmi(lo)) / (hi[i] - lo[i])
        # written so that a NaN fails
        if not (np.abs(got_msd - fd_msd).max() <= 1e-5 * np.abs(fd_msd).max()
                and np.abs(got_lam - fd_lam).max() <= 1e-5 * np.abs(fd_lam).max()):
            return False
    return True


def _ac7_scale_free_bound():
    # the MSD bound is unchanged when p is scaled, which is what lets one
    # program over the rate floor minimize it; the design sits on that floor
    g = random_geometric_graph(12, 0.6, seed=13)
    bl = Bandlimit.lowest(eigendecompose(build_laplacian(g)), 4)
    noise = NoiseModel(
        variances=np.random.default_rng(130).uniform(0.005, 0.03, 12))
    spec = DesignSpec(bandlimit=bl, noise=noise, mu=0.1, rate_target=0.95)
    p = dinkelbach_min_msd(spec)[0].probs
    bound = msd_bound(p, 0.1, noise, bl)
    scaled = [msd_bound(theta * p, 0.1, noise, bl) for theta in (0.5, 0.9)]
    lam = float(np.linalg.eigvalsh(weighted_gram(bl, p))[0])
    return (all(abs(b / bound - 1.0) <= 1e-12 for b in scaled)
            and abs(lam / spec.lambda_target() - 1.0) <= 1e-8)


def _ac7_batch_recursive():
    g = random_geometric_graph(8, 0.7, seed=21)
    bl = Bandlimit.lowest(eigendecompose(build_laplacian(g)), 3)
    noise = NoiseModel(
        variances=np.random.default_rng(210).uniform(0.005, 0.03, 8))
    rng = np.random.default_rng(211)
    beta, delta, steps = 0.9, 1e-3, 25
    masks = (rng.random((steps, 8)) < 0.6).astype(np.int8)
    obs = rng.normal(size=(steps, 8)) * masks
    u, inv_var = bl.basis_slice, 1.0 / noise.variances
    outer = rls_outer_table(u)
    psi, psiv = delta * np.eye(3), np.zeros(3)
    for t in range(steps):
        psi, psiv = rls_update(psi, psiv, masks[t] * inv_var, obs[t], u, outer, beta)
    psi_mat = beta ** steps * delta * np.eye(3)
    psi_vec = np.zeros(3)
    for t in range(steps):
        w = beta ** (steps - 1 - t) * masks[t] * inv_var
        psi_mat += u.T @ (w[:, None] * u)
        psi_vec += u.T @ (w * obs[t])
    return (np.abs(psi - psi_mat).max() <= 1e-8
            and np.abs(psiv - psi_vec).max() <= 1e-8)


def _ac7_information_split():
    g = random_geometric_graph(6, 0.8, seed=31)
    bl = Bandlimit.lowest(eigendecompose(build_laplacian(g)), 3)
    noise = NoiseModel(
        variances=np.random.default_rng(310).uniform(0.005, 0.03, 6))
    rng = np.random.default_rng(311)
    beta, delta, steps = 0.95, 1e-3, 8
    dcfg = DrlsConfig(rho=2.0, inner_iters=2, beta=beta, delta=delta)
    network = drls_network_init(CommGraph.ring(6), bl, noise, dcfg)
    central = delta * np.eye(3)
    u, inv_var = bl.basis_slice, 1.0 / noise.variances
    for _ in range(steps):
        masks = (rng.random(6) < 0.7).astype(np.int8)
        obs = rng.normal(size=6) * masks
        drls_round(network, masks, obs, dcfg)
        w = masks * inv_var
        central = beta * central + u.T @ (w[:, None] * u)
    total = reference.drls_information(network.scale, network.weights, u).sum(axis=0)
    return np.abs(total - central).max() <= 1e-10


def test_ac7_property_suites():
    results = {
        "projector": _ac7_projector(),
        "reconstructability": _ac7_reconstructability(),
        "gradients": _ac7_gradients(),
        "scale-free-bound": _ac7_scale_free_bound(),
        "batch-recursive": _ac7_batch_recursive(),
        "information-split": _ac7_information_split(),
    }
    ok = all(results.values())
    report("AC-7", ok,
           ", ".join(f"{name} {'ok' if good else 'FAILED'}"
                     for name, good in results.items()))
    assert ok
