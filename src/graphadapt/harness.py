"""Experiment harness: config parsing, Monte Carlo runs, CSV reporting.

A single YAML document (version 1) describes one experiment: the graph, the
bandlimit, the noise, how sampling probabilities are obtained (fixed,
designed, or a baseline strategy), the estimator, and the Monte Carlo
budget.  Runs aggregate per-iteration squared deviation over independent
trials, each with its own keyed streams (:func:`sampling.stream`), so results
are reproducible and trial order is irrelevant.  Every run goes through the
one loop over passes, ``_monte_carlo``, fed by :func:`sampling.draw_blocks`:
LMS and RLS as (init, step, estimate) triples in :func:`filters.track`, the
one per-instant loop, and DRLS in :func:`distributed.drls_simulate`, which
runs the same loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import design as design_mod
from .config import ConfigError, _field, _kind, _read, _reads, _section
from .config import load_config  # noqa: F401 (harness.load_config stays importable)
from .distributed import CommGraph, DrlsConfig, drls_simulate
from .filters import (
    lms_msd_theory,  # noqa: F401 (benchmarks/worker.py wraps it here)
    lms_rate_theory,  # noqa: F401 (benchmarks/worker.py wraps it here)
    lms_step_bound,  # noqa: F401 (benchmarks/worker.py wraps it here)
    lms_theory_report,
    lms_update,
    rls_msd_theory,  # noqa: F401 (benchmarks/worker.py wraps it here)
    rls_outer_table,
    rls_theory_report,
    rls_update,
    track,
)
from .graphs import (
    Bandlimit,
    Graph,
    GraphFormatError,
    build_laplacian,
    connected_components,
    eigendecompose,
    load_edge_list,
    random_geometric_graph,
)
from .sampling import (
    NoiseModel,
    ReconstructabilityError,
    SamplingProbabilities,
    draw_blocks,
    leverage_score_probabilities,
    leverage_scores,
    max_det_greedy,
    stream,
    uniform_random_set,
    weighted_gram,  # noqa: F401 (harness.weighted_gram stays importable)
)

# The most trials one Monte Carlo pass advances together; every shipped
# config runs in a single pass.
TRIAL_CHUNK = 256
# Monte Carlo draws in flight hold at most this many entries (masks plus
# noise for the trials of a pass over a run of steps): two blocks of half
# as many, the next filled on the other CPUs while the kernel runs on this one.
DRAW_BLOCK = 1 << 20


def to_db(x) -> float:
    return 10.0 * math.log10(x)


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# what the library raises on a bad input value, besides a plain ValueError
_INPUT_ERRORS = (OSError, design_mod.InfeasibleDesignError, ReconstructabilityError,
                 GraphFormatError)


@contextlib.contextmanager
def config_field(name: str):
    """Report an OSError, a plain ValueError or a library input error raised
    on a config value as a ConfigError of the field ``name``; every other
    exception passes through, np.linalg.LinAlgError (a ValueError) too."""
    try:
        yield
    except (OSError, ValueError) as exc:
        if type(exc) is not ValueError and not isinstance(exc, _INPUT_ERRORS):
            raise
        detail = f"{exc.filename}: {exc.strerror}" if isinstance(exc, OSError) else exc
        raise ConfigError(f"{name}: {detail}") from exc


# ---------------------------------------------------------------------------
# experiment setup

@dataclass
class Setup:
    """Everything a run needs, resolved from one config document."""

    config: dict
    graph: Graph
    bandlimit: Bandlimit
    noise: NoiseModel
    signal_coeffs: np.ndarray
    x_true: np.ndarray
    seed: int
    trials: int
    horizon: int


def build_graph(config: dict) -> Graph:
    if _kind(config, "graph") == "edge_list":
        path = _read(config, "graph.path")
        with config_field("graph.path"):
            return load_edge_list(path)
    # the top-level seed is checked also where graph.seed overrides it
    n, radius, _, seed = (_read(config, key)
                          for key in ("graph.n", "graph.radius", "seed", "graph.seed"))
    for offset in range(200):
        with config_field("graph.n"):      # numpy rejects an n past its shape limit
            g = random_geometric_graph(n, radius, seed + offset)
        if connected_components(g) == 1:
            return g
    raise ConfigError(
        f"graph: no connected draw in 200 attempts (n={n}, radius={radius}); "
        "increase the radius"
    )


def build_setup(config: dict) -> Setup:
    seed, trials, horizon = (_read(config, key) for key in ("seed", "trials", "horizon"))

    graph = build_graph(config)
    basis = eigendecompose(build_laplacian(graph))

    if "indices" in _section(config, "bandlimit"):
        if "size" in config["bandlimit"]:
            raise ConfigError("bandlimit.size: give size or indices, not both")
        indices = _read(config, "bandlimit.indices")
        with config_field("bandlimit.indices"):
            bl = Bandlimit.from_indices(basis, indices)
    else:
        size = _read(config, "bandlimit.size")
        if size > graph.n:
            raise ConfigError(f"bandlimit.size: {size} out of range for n={graph.n}")
        bl = Bandlimit.lowest(basis, size)

    nkind = _kind(config, "noise")
    if nkind == "uniform":
        noise = NoiseModel.uniform(graph.n, _read(config, "noise.sigma_sq"))
    elif nkind == "values":
        vals = _read(config, "noise.values")
        if len(vals) != graph.n:
            raise ConfigError(f"noise.values: expected {graph.n} entries, got {len(vals)}")
        with config_field("noise.values"):
            noise = NoiseModel(variances=np.asarray(vals, dtype=float))
    else:  # loguniform
        low, high = _read(config, "noise.low"), _read(config, "noise.high")
        if high < low:
            raise ConfigError(f"noise.high: must be at least noise.low = {low:g}, got {high:g}")
        rng = stream(seed, "noise_levels")
        noise = NoiseModel(variances=np.exp(rng.uniform(np.log(low), np.log(high), graph.n)))

    _section(config, "signal", optional=True)
    scale = _read(config, "signal.scale")
    coeffs = scale * stream(seed, "signal").normal(size=bl.size)
    # the learning curve starts at |s|^2; past overflow every run would read
    # as diverged
    with np.errstate(over="ignore"):
        energy = float(np.square(coeffs).sum())
    if not math.isfinite(energy):
        raise ConfigError(f"signal.scale: the initial deviation |s|^2 overflows; "
                          f"scale = {scale:g}")
    return Setup(config=config, graph=graph, bandlimit=bl, noise=noise, signal_coeffs=coeffs,
                 x_true=bl.basis_slice @ coeffs, seed=seed, trials=trials, horizon=horizon)


def _design_spec(setup: Setup, section: str, needs, optional=()):
    """The DesignSpec of a config section (``sampling`` for a designed
    sampling, ``compare`` for compare-sampling), the only code that turns
    config into one.  It reads the per-vertex cap ``p_max``, each field in
    ``needs`` (required) and in ``optional``, and no other field; ``mu`` and
    ``beta`` default to the algorithm section's values, and the MSD target is
    given linear as ``msd_target`` or in dB as ``msd_target_db``.  An
    algorithm section may be left out; one that is given is checked against
    its kind.  A rejected value names its field."""
    config = setup.config
    if config.get("algorithm") is not None:
        _kind(config, "algorithm")
    kwargs = {}
    # bounds come before the budget, which the spec checks against them
    for key in ("p_max", "mu", "beta", "rate_target", "msd_target", "budget"):
        if key != "p_max" and key not in needs + optional:
            continue
        if key == "msd_target" and "msd_target_db" in config[section]:
            if key in config[section]:
                raise ConfigError(f"{section}.{key}: give msd_target or msd_target_db, not both")
            name = f"{section}.msd_target_db"
            value = 10.0 ** (_read(config, name) / 10.0)
        else:
            name, value = _field(config, f"{section}.{key}")
        if value is None and key in needs:
            raise ConfigError(f"{name}: required field is missing")
        kwargs["bounds" if key == "p_max" else key] = value
        # the spec checks its fields together, so add them one at a time
        with config_field(name):
            spec = design_mod.DesignSpec(bandlimit=setup.bandlimit, noise=setup.noise, **kwargs)
    return spec


def resolve_sampling(setup: Setup):
    """Turn the sampling section into a probability vector.

    Returns (probabilities, trace_or_None); designed sampling also yields
    the solver trace for reporting.
    """
    kind = _kind(setup.config, "sampling")
    n = setup.graph.n
    if kind == "full":
        return SamplingProbabilities.full(n), None
    if kind == "explicit":
        p = _read(setup.config, "sampling.p")
        if len(p) != n:
            raise ConfigError(f"sampling.p: expected {n} entries, got {len(p)}")
        with config_field("sampling.p"):
            return SamplingProbabilities(probs=np.asarray(p, dtype=float)), None
    if kind == "design":
        problem = _read(setup.config, "sampling.problem")
        if problem not in design_mod.PROBLEMS:
            raise ConfigError(
                f"sampling.problem: unknown problem {problem!r}; "
                f"choose from {sorted(design_mod.PROBLEMS)}"
            )
        solve, needs, optional = design_mod.PROBLEMS[problem]
        spec = _design_spec(setup, "sampling", needs, optional)
        keys = {"problem", "p_max", *needs, *optional}
        keys |= {"msd_target_db"} if "msd_target" in keys else set()    # the target in dB
        _reads(setup.config["sampling"], "sampling", keys, f"problem {problem!r}")
        with config_field("sampling"):
            return solve(spec)
    # a strategy
    name, m = _read(setup.config, "sampling.strategy"), _read(setup.config, "sampling.m")
    if m > n:
        raise ConfigError(f"sampling.m: {m} out of range for n={n}")
    if name == "leverage":
        return leverage_score_probabilities(setup.bandlimit, m), None
    if name == "max_det":
        chosen = max_det_greedy(setup.bandlimit, m)
    else:
        chosen = uniform_random_set(n, m, stream(setup.seed, "uniform_set"))
    return SamplingProbabilities.from_support(chosen, n), None


# ---------------------------------------------------------------------------
# Monte Carlo engine

def _steady_state(curve: np.ndarray) -> float:
    """A learning curve's steady state: its final quarter's mean (or last point's)."""
    return float(curve[-max(1, curve.shape[0] // 4):].mean())


@dataclass
class LearningCurve:
    """Trial-averaged squared-deviation trajectory plus theory annotations.

    ``msd_linear[t]`` is the mean of ||estimate - x_true||^2 before the
    observation at instant t is consumed, so index 0 carries the
    initialization error and the tail carries the steady state.
    """

    msd_linear: np.ndarray
    metadata: dict = field(default_factory=dict)
    per_node: np.ndarray = None

    @property
    def msd_db(self) -> np.ndarray:
        return 10.0 * np.log10(np.maximum(self.msd_linear, 1e-300))

    def steady_state_linear(self) -> float:
        return _steady_state(self.msd_linear)

    def steady_state_db(self) -> float:
        return to_db(max(self.steady_state_linear(), 1e-300))


# The kernels do not warn about overflow: run_experiment reports a non-finite
# learning curve as an error naming the step size or penalty.
@np.errstate(over="ignore", invalid="ignore")
def _monte_carlo(setup: Setup, probs: SamplingProbabilities, simulate) -> np.ndarray:
    """The one loop over passes: ``simulate(blocks)`` runs a pass of at most
    ``TRIAL_CHUNK`` trials over its ``(masks, y = x_true + noise)`` draw blocks
    and returns (trial-summed curve, final state).  The curves' sum over the
    passes is divided by the number of trials."""
    total = 0.0
    for start in range(0, setup.trials, TRIAL_CHUNK):
        blocks = draw_blocks(setup.seed, range(start, min(start + TRIAL_CHUNK, setup.trials)),
                             setup.horizon, probs.probs, setup.noise.std, DRAW_BLOCK // 2)
        # closing joins the next block's fill should the kernel raise
        with contextlib.closing(blocks):
            total = total + simulate((m, np.add(y, setup.x_true, out=y)) for m, y in blocks)[0]
    return total / setup.trials


def _run_filter_mc(setup: Setup, probs: SamplingProbabilities, init, step,
                   estimate) -> tuple:
    """A centralized filter's run, from ``track``'s ``init`` and ``step`` and its
    (trials, f) coefficients ``estimate(state)``: its curve, no per-node curves or metadata."""
    return _monte_carlo(setup, probs, lambda blocks: track(
        blocks, init, step, estimate, setup.signal_coeffs)), None, {}


def _run_lms(setup: Setup, probs: SamplingProbabilities, mu: float, _) -> tuple:
    u = setup.bandlimit.basis_slice
    return _run_filter_mc(setup, probs,
                          init=lambda trials: np.zeros((trials, u.shape[1])),
                          step=lambda s_hat, masks, y: lms_update(s_hat, masks, y, u, mu),
                          estimate=lambda s_hat: s_hat)


def _run_rls(setup: Setup, probs: SamplingProbabilities, beta: float, delta: float) -> tuple:
    # the state is the information pair (Psi, psi), the estimate Psi^-1 psi
    u = setup.bandlimit.basis_slice
    f = u.shape[1]
    inv_var = 1.0 / setup.noise.variances
    outer = rls_outer_table(u)

    def estimate(state):
        try:
            return np.linalg.solve(state[0], state[1][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # a small beta forgets delta I and the past within a few instants,
            # and an instant that samples too few vertices then leaves Psi singular
            raise ConfigError(f"algorithm.beta: the information matrix became singular; "
                              f"beta = {beta:g}") from None

    return _run_filter_mc(
        setup, probs,
        init=lambda trials: (np.tile(delta * np.eye(f), (trials, 1, 1)), np.zeros((trials, f))),
        step=lambda state, masks, y: rls_update(*state, masks * inv_var, y, u, outer, beta),
        estimate=estimate)


def _drls_params(config: dict) -> tuple:
    """beta, and the run's ADMM parameters, its communication topology's name
    and, for an edge-list file, the CommGraph loaded from it (else None)."""
    cfg = DrlsConfig(**{key: _read(config, f"algorithm.{key}")
                        for key in ("beta", "rho", "inner_iters", "delta")})
    # a topology's name or an edge-list path
    if not isinstance(config["algorithm"].get("comm", ""), str):
        raise ConfigError(f"algorithm.comm: unknown topology {config['algorithm']['comm']!r}")
    comm, edges = _read(config, "algorithm.comm"), None
    if comm not in ("processing", "complete", "ring"):
        with config_field("algorithm.comm"):
            edges = CommGraph.from_graph(load_edge_list(comm))
    return cfg.beta, (cfg, comm, edges)


def _run_drls(setup: Setup, probs: SamplingProbabilities, beta: float, params: tuple) -> tuple:
    (cfg, comm, graph), n = params, setup.graph.n
    if graph is None:
        with config_field("algorithm.comm"):     # a ring needs three nodes
            graph = (CommGraph.from_graph(setup.graph) if comm == "processing"
                     else CommGraph.complete(n) if comm == "complete" else CommGraph.ring(n))
    elif graph.n != n:
        raise ConfigError(f"algorithm.comm: {comm} has {graph.n} nodes, the graph has {n}")
    # drls_simulate is looked up per call
    per_node = _monte_carlo(setup, probs, lambda blocks: drls_simulate(
        graph, setup.bandlimit, setup.noise, cfg, blocks, setup.signal_coeffs))
    return per_node.mean(axis=1), per_node, {"inner_iters": cfg.inner_iters}


class Estimator(NamedTuple):
    """One algorithm kind, all that defines it besides its fields' rows in the config table:
    its run command's help, the reader of its fields (returning the closed form's parameter
    and the run's parameters), that closed form (theory.csv's rows and meta.json's theory
    fields), its Monte Carlo runner (curve, per-node curves or None, extra metadata) and a
    diverged curve's message, None where run_experiment lets no parameter diverge it."""

    help: str
    parameter: Callable
    closed_form: Callable
    run: Callable
    diverged: Callable = None

    def theory(self, param: float, setup: Setup, probs: SamplingProbabilities) -> dict:
        """The closed form's rows at ``param``; only a rank-deficient sampling fails them."""
        with config_field("sampling"):
            return self.closed_form(probs, param, setup.noise, setup.bandlimit)


# every algorithm kind, each also a choice of the config table's algorithm.kind; a new
# kind is one entry here and its fields' rows there
ESTIMATORS = {
    "lms": Estimator("Monte Carlo learning curve for the LMS estimator",
                     lambda config: (_read(config, "algorithm.mu"), None), lms_theory_report,
                     _run_lms),
    "rls": Estimator("Monte Carlo learning curve for the recursive estimator",
                     lambda config: (_read(config, "algorithm.beta"),
                                     _read(config, "algorithm.delta")),
                     rls_theory_report, _run_rls),
    "drls": Estimator("Monte Carlo learning curves for the distributed estimator",
                      _drls_params, rls_theory_report, _run_drls, lambda beta, params: (
                          f"algorithm.rho: the learning curve diverged; rho = {params[0].rho:g}")),
}

# meta.json's name of each closed-form row
_THEORY_META = {"msd_linear": "theory_msd_linear", "msd_db": "theory_msd_db",
                "convergence_rate": "theory_rate", "step_bound": "step_bound"}


def theory_parameter(config: dict) -> tuple:
    """The configured algorithm kind, the parameter its closed form takes and
    its run's parameters: every field of the kind, read and checked once."""
    kind = _kind(config, "algorithm")
    return (kind, *ESTIMATORS[kind].parameter(config))


def run_experiment(config: dict) -> LearningCurve:
    """Monte Carlo learning curve for the configured estimator, with its
    closed-form theory in the metadata."""
    kind, param, params = theory_parameter(config)
    setup = build_setup(config)
    probs, trace = resolve_sampling(setup)
    estimator = ESTIMATORS[kind]
    theory = estimator.theory(param, setup, probs)
    if param >= theory.get("step_bound", math.inf):
        raise ConfigError(f"algorithm.mu: at or above the mean-square stability bound "
                          f"{theory['step_bound']:g}; mu = {param:g}")
    curve, per_node, extra = estimator.run(setup, probs, param, params)
    meta = {"config_hash": config_hash(config), "algorithm": kind, "seed": setup.seed,
            "trials": setup.trials, "horizon": setup.horizon,
            "sampling_rate": float(probs.probs.sum()), **extra,
            **{_THEORY_META[name]: value for name, value in theory.items()}}
    result = LearningCurve(msd_linear=curve, metadata=meta, per_node=per_node)
    # a stable run settles near its noise floor and below its initial error, so a
    # finite steady state above both that error and 1e3 times the closed-form floor
    # diverged too (neither bound alone holds at every signal-to-noise ratio); a kind
    # with no message for that has no parameter left that can make it unstable
    if not np.isfinite(curve).all() or (
            estimator.diverged
            and result.steady_state_linear() > max(curve[0], 1e3 * theory["msd_linear"])):
        raise ConfigError(estimator.diverged(param, params) if estimator.diverged
                          else "algorithm: the learning curve diverged")
    if trace is not None:
        meta["design_iterations"] = trace.iterations
        meta["design_converged"] = trace.converged
    meta["steady_state_db"] = result.steady_state_db()
    return result


# ---------------------------------------------------------------------------
# rate fitting and strategy comparison

def fit_rate(curve) -> float:
    """Per-iteration geometric decay factor of a learning curve.

    Fits a log-linear regression over the transient window, which runs from
    the first iteration until the curve first comes within 3 dB of its
    steady-state mean (the mean over the final quarter of the iterations).
    A flat curve yields 1.0; an exact geometric curve is recovered to
    machine precision.
    """
    y = np.asarray(curve.msd_linear if hasattr(curve, "msd_linear") else curve,
                   dtype=float)
    if y.ndim != 1 or y.shape[0] < 2:
        raise ValueError("need a 1-d curve with at least two points")
    steady = _steady_state(y)
    inside = y <= steady * 10.0 ** 0.3
    cut = int(np.argmax(inside)) if inside.any() else y.shape[0]
    window = y[:max(cut, 2)]
    logs = np.log(np.maximum(window, 1e-300))
    slope = float(np.polyfit(np.arange(window.shape[0]), logs, 1)[0])
    return float(np.exp(slope))


def _prefix_stats(bl: Bandlimit, noise: NoiseModel, order) -> tuple:
    """lambda_min(U_F^T D_S U_F) and Tr G = sum_S sigma_i^2 ||u_i||^2 for every
    prefix S of ``order``, one ordering (n,) or a stack of them (..., n):
    cumulative sums of the rows' outer products, one batched eigvalsh."""
    n, f = bl.basis_slice.shape
    grams = np.cumsum(rls_outer_table(bl.basis_slice).reshape(n, f, f)[order], axis=-3)
    tr_g = np.cumsum(noise.variances[order] * leverage_scores(bl)[order], axis=-1)
    return np.linalg.eigvalsh(grams)[..., 0], tr_g


def _min_prefix(stats, mu, lam_t, gamma) -> np.ndarray:
    """Length of the shortest prefix meeting the rate and MSD-bound checks,
    per ordering; NaN where no prefix does."""
    lam, tr_g = stats
    ok = (lam >= lam_t - 1e-12) & (0.5 * mu * tr_g <= gamma * lam + 1e-12)
    return np.where(ok.any(axis=-1), np.argmax(ok, axis=-1) + 1.0, math.nan)


def compare_sampling(config: dict) -> list:
    """Minimal sampling rate per strategy over a grid of rate targets.

    The compare section's design inputs (``mu``, which defaults to
    ``algorithm.mu``, the MSD target and the optional ``p_max``) are read
    once, by the same reader as a designed sampling section's, and each
    target in ``compare.rate_targets`` is set on that one spec.  The
    designed strategy reports sum(p) from the convex program; the greedy
    determinant, leverage-ordered, and uniform-random baselines report the
    smallest number of deterministically sampled vertices whose set meets
    the same rate and MSD-bound constraints.  The random baseline averages
    over ``compare.random_seeds`` permutations (mean and standard deviation).
    """
    setup = build_setup(config)
    _section(config, "compare")
    targets = _read(config, "compare.rate_targets")
    if not targets:
        raise ConfigError("compare.rate_targets: give at least one target")
    base = _design_spec(setup, "compare", ("mu", "msd_target"))
    mu, gamma = base.mu, base.msd_target
    seeds = _read(config, "compare.random_seeds")

    bl, noise = setup.bandlimit, setup.noise
    n = setup.graph.n
    ordered = {"max_det": _prefix_stats(bl, noise, max_det_greedy(bl, n)),
               "leverage": _prefix_stats(bl, noise,
                                         np.argsort(-leverage_scores(bl), kind="stable"))}
    rng = stream(setup.seed, "permutations")
    perms = np.array([rng.permutation(n) for _ in range(seeds)])
    # (seeds, n, f, f) Gram stacks grow fast with n and f: bound each group
    # to DRAW_BLOCK entries
    group = max(1, DRAW_BLOCK // (n * bl.size ** 2))
    stats = [_prefix_stats(bl, noise, perms[i:i + group]) for i in range(0, seeds, group)]
    random_stats = tuple(np.concatenate(parts) for parts in zip(*stats))

    rows = []
    for alpha in targets:
        alpha = float(alpha)
        spec = replace(base, rate_target=alpha)
        lam_t = spec.lambda_target()
        try:
            designed, _ = design_mod.solve_min_rate_convex(spec)
            designed_rate = float(designed.probs.sum())
        except design_mod.InfeasibleDesignError:
            designed_rate = math.nan
        rows.append({"strategy": "designed", "rate_target": alpha,
                     "sampling_rate": designed_rate, "sampling_rate_std": 0.0})
        for name, order_stats in ordered.items():
            rows.append({"strategy": name, "rate_target": alpha,
                         "sampling_rate": float(_min_prefix(order_stats, mu, lam_t, gamma)),
                         "sampling_rate_std": 0.0})
        counts = _min_prefix(random_stats, mu, lam_t, gamma)
        # NaN where no permutation meets the target, without the warnings
        # of nanmean and nanstd over an all-NaN slice
        mean = std = math.nan
        if not np.isnan(counts).all():
            mean, std = float(np.nanmean(counts)), float(np.nanstd(counts))
        rows.append({"strategy": "uniform", "rate_target": alpha,
                     "sampling_rate": mean, "sampling_rate_std": std})
    return rows


# ---------------------------------------------------------------------------
# file outputs

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_curve_csv(curve: LearningCurve, path) -> None:
    theory_db = curve.metadata.get("theory_msd_db", math.nan)
    rate = curve.metadata.get("theory_rate", math.nan)
    msd_db = curve.msd_db
    rows = [
        (t, curve.msd_linear[t], msd_db[t], theory_db, rate)
        for t in range(curve.msd_linear.shape[0])
    ]
    _write_csv(path, ["iteration", "msd_linear", "msd_db", "theory_msd_db", "theory_rate"], rows)


def write_per_node_csv(curve: LearningCurve, path) -> None:
    if curve.per_node is None:
        raise ValueError("curve has no per-node trajectories")
    horizon, n = curve.per_node.shape
    header = ["iteration"] + [f"node_{i}" for i in range(n)]
    rows = [(t, *curve.per_node[t]) for t in range(horizon)]
    _write_csv(path, header, rows)


def write_design_csv(probs: SamplingProbabilities, noise: NoiseModel, path) -> None:
    rows = [
        (i, probs.probs[i], noise.variances[i], probs.bounds[i])
        for i in range(probs.n)
    ]
    _write_csv(path, ["node", "p_i", "sigma_sq_i", "p_max_i"], rows)


def write_trace_csv(trace, path) -> None:
    rows = [
        (k, trace.objectives[k], trace.msd_values[k])
        for k in range(len(trace.objectives))
    ]
    _write_csv(path, ["iteration", "objective", "msd"], rows)


def write_compare_csv(rows, path) -> None:
    data = [
        (r["strategy"], r["rate_target"], r["sampling_rate"], r["sampling_rate_std"])
        for r in rows
    ]
    _write_csv(path, ["strategy", "rate_target", "sampling_rate", "sampling_rate_std"], data)


def write_metadata(curve: LearningCurve, config: dict, path) -> None:
    payload = {"config": config, "metadata": curve.metadata}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str, allow_nan=False)
        fh.write("\n")

