"""Seed-independent checks of each job's outputs.

Every check recomputes what it can from the config with graphadapt's public
functions instead of trusting the program's own report.  A check returns
``(problem, quantities)``: ``problem`` is ``None`` when the outputs are
correct, otherwise a one-line reason; ``quantities`` carries the numbers the
benchmark reports (theory gap, design rate and MSD).
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from graphadapt.distributed import CommGraph
from graphadapt.filters import lms_msd_theory, lms_msd_upper_bound, rls_msd_theory
from graphadapt.graphs import connected_components, load_edge_list
from graphadapt.harness import build_setup
from graphadapt.sampling import SamplingProbabilities, weighted_gram

# Relative slack on design constraints: the solvers accept 1e-6 violation.
DESIGN_TOL = 1e-5
# A designed p within this relative distance of lambda_t * 1 is degenerate.
DEGENERATE_RTOL = 1e-3


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _msd_target(section):
    if "msd_target_db" in section:
        return 10.0 ** (float(section["msd_target_db"]) / 10.0)
    return float(section["msd_target"])


def check_run(job, out, config, messages):
    rows = _rows(os.path.join(out, "curve.csv"))
    if rows[0] != ["iteration", "msd_linear", "msd_db", "theory_msd_db", "theory_rate"]:
        return f"curve.csv header {rows[0]}", {}
    curve = np.array([float(r[1]) for r in rows[1:]])
    if curve.shape[0] != int(config["horizon"]):
        return f"curve.csv has {curve.shape[0]} rows, horizon is {config['horizon']}", {}
    if not np.isfinite(curve).all() or (curve <= 0).any():
        return "curve.csv has a non-finite or non-positive deviation", {}
    with open(os.path.join(out, "meta.json")) as fh:
        meta = json.load(fh)["metadata"]
    gap = abs(meta["steady_state_db"] - meta["theory_msd_db"])
    quantities = {"theory_gap_db": gap}
    if not math.isfinite(gap):
        return "meta.json steady state or theory is not finite", quantities
    if job.gap_tol_db is not None and gap > job.gap_tol_db:
        return f"theory gap {gap:.3f} dB exceeds {job.gap_tol_db} dB", quantities
    if job.command == "run-drls":
        acfg = config["algorithm"]
        if acfg.get("comm", "processing") != "processing":
            return "the message check knows only comm: processing", quantities
        setup = build_setup(config)
        edges = CommGraph.from_graph(setup.graph).num_edges
        expected = 2 * edges * int(acfg.get("inner_iters", 1)) * setup.horizon * setup.trials
        quantities["messages"] = sum(messages)
        if sum(messages) != expected:
            return f"{sum(messages)} messages, 2|E|*K*horizon*trials is {expected}", quantities
    return None, quantities


def check_design(job, out, config):
    rows = _rows(os.path.join(out, "design_p.csv"))
    if rows[0] != ["node", "p_i", "sigma_sq_i", "p_max_i"]:
        return f"design_p.csv header {rows[0]}", {}
    table = np.array([[float(v) for v in r] for r in rows[1:]])
    setup = build_setup(config)
    bl, noise = setup.bandlimit, setup.noise
    if table.shape != (bl.n, 4) or not np.isfinite(table).all():
        return "design_p.csv is not one finite row per node", {}
    p, p_max = table[:, 1], table[:, 3]
    scfg = config["sampling"]
    problem = scfg["problem"]
    configured = np.broadcast_to(np.asarray(scfg.get("p_max", 1.0), dtype=float), (bl.n,))
    if not np.allclose(p_max, configured):
        return "design_p.csv p_max column differs from sampling.p_max", {}
    if (p < 0).any() or (p > p_max + 1e-9).any():
        return "designed p leaves [0, p_max]", {}
    if not np.allclose(table[:, 2], noise.variances):
        return "design_p.csv noise column differs from the configured noise", {}

    probs = SamplingProbabilities(probs=np.minimum(p, 1.0))
    quantities = {"design_sum": float(p.sum()), "problem": problem}
    slack = 1.0 + DESIGN_TOL
    if problem == "rls":
        msd = rls_msd_theory(probs, float(scfg["beta"]), noise, bl)
        if msd > _msd_target(scfg) * slack:
            return f"RLS MSD {msd:.6g} above the target", quantities
        return None, quantities

    mu = float(scfg["mu"])
    lam_t = (1.0 - float(scfg["rate_target"])) / (2.0 * mu)
    lam = float(np.linalg.eigvalsh(weighted_gram(bl, p))[0])
    if lam < lam_t * (1.0 - DESIGN_TOL):
        return f"lambda_min {lam:.6g} below the floor {lam_t:.6g}", quantities
    if problem == "min_rate_convex":
        bound = lms_msd_upper_bound(probs, mu, noise, bl)
        if bound > _msd_target(scfg) * slack:
            return f"MSD bound {bound:.6g} above the target", quantities
    elif problem == "sca_min_rate":
        msd = lms_msd_theory(probs, mu, noise, bl)
        if msd > _msd_target(scfg) * slack:
            return f"MSD {msd:.6g} above the target", quantities
    else:
        quantities["design_msd_db"] = 10.0 * math.log10(lms_msd_theory(probs, mu, noise, bl))
        if "budget" in scfg and p.sum() > float(scfg["budget"]) * slack:
            return f"sum(p) {p.sum():.6g} over the budget", quantities
    if job.nondegenerate and np.allclose(p, lam_t, rtol=DEGENERATE_RTOL, atol=0.0):
        return "degenerate instance: designed p is lambda_t * 1", quantities
    return None, quantities


def check_theory(job, out, config):
    rows = _rows(os.path.join(out, "theory.csv"))
    values = {r[0]: float(r[1]) for r in rows[1:]}
    if rows[0] != ["quantity", "value"] or not values:
        return "theory.csv is malformed", {}
    if not all(math.isfinite(v) for v in values.values()) or values.get("msd_linear", 0) <= 0:
        return "theory.csv has a non-finite or missing MSD", {}
    return None, {}


def check_compare(job, out, config):
    rows = _rows(os.path.join(out, "comparison.csv"))
    if rows[0] != ["strategy", "rate_target", "sampling_rate", "sampling_rate_std"]:
        return f"comparison.csv header {rows[0]}", {}
    targets = [float(t) for t in config["compare"]["rate_targets"]]
    expected = [(s, t) for t in targets for s in ("designed", "max_det", "leverage", "uniform")]
    got = [(r[0], float(r[1])) for r in rows[1:]]
    if got != expected:
        return "comparison.csv rows do not cover every strategy and rate target", {}
    for r in rows[1:]:
        rate, std = float(r[2]), float(r[3])
        if math.isfinite(rate) and rate < 0 or not std >= 0:
            return f"comparison.csv row {r} has a negative rate or spread", {}
    return None, {}


def check_graph(job, out, config):
    graph = load_edge_list(os.path.join(out, "graph.txt"))
    if graph.n != int(config["graph"]["n"]):
        return f"graph.txt has {graph.n} nodes, config asks {config['graph']['n']}", {}
    if connected_components(graph) != 1:
        return "graph.txt is not connected", {}
    return None, {}


def check(job, out, config, messages):
    """Dispatch on the job's command; any exception is a failed check."""
    try:
        if job.command in ("run-lms", "run-rls", "run-drls"):
            return check_run(job, out, config, messages)
        return {
            "design": check_design,
            "theory": check_theory,
            "compare-sampling": check_compare,
            "gen-graph": check_graph,
        }[job.command](job, out, config)
    except Exception as exc:  # a malformed output file must not stop the run
        return f"{type(exc).__name__}: {exc}", {}
