"""Experiment harness: config parsing, Monte Carlo runs, CSV reporting.

A single YAML document (version 1) describes one experiment: the graph, the
bandlimit, the noise, how sampling probabilities are obtained (fixed,
designed, or a baseline strategy), the estimator, and the Monte Carlo
budget.  Runs aggregate per-iteration squared deviation over independent
trials whose generators are seeded ``seed + trial_index``, so results are
reproducible and trial order is irrelevant.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import design as design_mod
from .distributed import CommGraph, DrlsConfig, drls_simulate
from .filters import (
    lms_msd_theory,
    lms_rate_theory,
    lms_step_bound,
    rls_msd_theory,
)
from .graphs import (
    Bandlimit,
    Graph,
    build_laplacian,
    connected_components,
    eigendecompose,
    load_edge_list,
    random_geometric_graph,
    save_edge_list,
)
from .sampling import (
    NoiseModel,
    SamplingProbabilities,
    leverage_score_probabilities,
    leverage_scores,
    max_det_greedy,
    weighted_gram,  # noqa: F401 (harness.weighted_gram stays importable)
)

TRIAL_CHUNK = 64
# Monte Carlo draws are generated in blocks of at most this many entries
# (masks plus noise for a chunk of trials over a run of steps).
DRAW_BLOCK = 1 << 20


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def to_db(x) -> float:
    return 10.0 * math.log10(x)


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config(path) -> dict:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    version = raw.get("version", 1)
    if version != 1:
        raise ConfigError(f"version: unsupported config version {version!r}")
    return raw


def _name(section: str, key: str) -> str:
    return f"{section}.{key}" if section else key


def _typed(name: str, val, kind):
    # bool is a subclass of int, but true/false is never a count or a number
    if not isinstance(val, kind) or isinstance(val, bool):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise ConfigError(f"{name}: expected {' or '.join(k.__name__ for k in kinds)}, "
                          f"got {val!r}")
    return val


def _need(cfg: dict, section: str, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"{_name(section, key)}: required field is missing")
    return cfg[key] if kind is None else _typed(_name(section, key), cfg[key], kind)


def _count(cfg: dict, section: str, key: str, default=None, low: int = 1) -> int:
    """An integer field of at least ``low``; required unless ``default`` is given."""
    if default is None or key in cfg:
        val = _need(cfg, section, key, int)
    else:
        val = default
    if val < low:
        raise ConfigError(f"{_name(section, key)}: must be at least {low}, got {val}")
    return val


def _real(cfg: dict, section: str, key: str, default=None, high: float = math.inf) -> float:
    """A number in (0, high]; required unless ``default`` is given."""
    if default is None or key in cfg:
        val = float(_need(cfg, section, key, (int, float)))
    else:
        val = float(default)
    if not 0.0 < val <= high:
        bound = "be positive" if high == math.inf else f"lie in (0, {high:g}]"
        raise ConfigError(f"{_name(section, key)}: must {bound}, got {val:g}")
    return val


@contextlib.contextmanager
def _domain(name: str):
    """Report a plain ValueError raised on a config value as an error of the
    field ``name``; its subclasses (ConfigError, infeasibility) pass through."""
    try:
        yield
    except ValueError as exc:
        if type(exc) is not ValueError:
            raise
        raise ConfigError(f"{name}: {exc}") from exc


def _get(cfg: dict, key: str, default=None):
    return cfg.get(key, default) if isinstance(cfg, dict) else default


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
    gcfg = config.get("graph")
    if not isinstance(gcfg, dict):
        raise ConfigError("graph: section is missing")
    kind = _need(gcfg, "graph", "kind", str)
    if kind == "edge_list":
        return load_edge_list(_need(gcfg, "graph", "path", str))
    if kind != "random_geometric":
        raise ConfigError(f"graph.kind: unknown kind {kind!r}")
    n = _count(gcfg, "graph", "n", low=2)
    radius = _real(gcfg, "graph", "radius", high=math.sqrt(2.0))
    seed = _count(gcfg, "graph", "seed", config.get("seed", 0), low=0)
    if not gcfg.get("ensure_connected", True):
        return random_geometric_graph(n, radius, seed)
    import warnings

    for offset in range(200):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = random_geometric_graph(n, radius, seed + offset)
        if connected_components(g) == 1:
            return g
    raise ConfigError(
        f"graph: no connected draw in 200 attempts (n={n}, radius={radius}); "
        "increase the radius"
    )


def build_setup(config: dict) -> Setup:
    seed = _count(config, "", "seed", 0, low=0)
    trials = _count(config, "", "trials", 200)
    horizon = _count(config, "", "horizon", 1000)

    graph = build_graph(config)
    basis = eigendecompose(build_laplacian(graph))

    bcfg = config.get("bandlimit")
    if not isinstance(bcfg, dict):
        raise ConfigError("bandlimit: section is missing")
    if "indices" in bcfg:
        with _domain("bandlimit.indices"):
            bl = Bandlimit.from_indices(basis, bcfg["indices"])
    else:
        size = _count(bcfg, "bandlimit", "size")
        if not 1 <= size <= graph.n:
            raise ConfigError(f"bandlimit.size: {size} out of range for n={graph.n}")
        bl = Bandlimit.lowest(basis, size)

    ncfg = config.get("noise")
    if not isinstance(ncfg, dict):
        raise ConfigError("noise: section is missing")
    nkind = ncfg.get("kind", "uniform")
    if nkind == "uniform":
        noise = NoiseModel.uniform(graph.n, _real(ncfg, "noise", "sigma_sq"))
    elif nkind == "values":
        vals = _need(ncfg, "noise", "values", list)
        if len(vals) != graph.n:
            raise ConfigError(f"noise.values: expected {graph.n} entries, got {len(vals)}")
        with _domain("noise.values"):
            noise = NoiseModel(variances=np.asarray(vals, dtype=float))
    elif nkind == "loguniform":
        low = float(_need(ncfg, "noise", "low", (int, float)))
        high = float(_need(ncfg, "noise", "high", (int, float)))
        if not 0 < low <= high:
            raise ConfigError("noise.low/high: need 0 < low <= high")
        rng = np.random.default_rng([seed, 202])
        noise = NoiseModel(variances=np.exp(rng.uniform(np.log(low), np.log(high), graph.n)))
    else:
        raise ConfigError(f"noise.kind: unknown kind {nkind!r}")

    scale = float(_typed("signal.scale", _get(config.get("signal"), "scale", 1.0), (int, float)))
    coeffs = scale * np.random.default_rng([seed, 101]).normal(size=bl.size)
    return Setup(
        config=config,
        graph=graph,
        bandlimit=bl,
        noise=noise,
        signal_coeffs=coeffs,
        x_true=bl.basis_slice @ coeffs,
        seed=seed,
        trials=trials,
        horizon=horizon,
    )


def _design_spec(setup: Setup, scfg: dict, needs) -> design_mod.DesignSpec:
    """The design problem of the sampling section.  Every field in
    ``needs`` must be given, and a rejected value names its field."""
    def number(key, fallback=None):
        return float(_need(scfg, "sampling", key, (int, float))) if key in scfg else fallback

    acfg = setup.config.get("algorithm")
    # (DesignSpec argument, config field, value); bounds come before the budget
    fields = [("bounds", "sampling.p_max", scfg.get("p_max"))]
    for key in ("mu", "beta"):
        fallback = _get(acfg, key)
        name = f"sampling.{key}" if key in scfg or fallback is None else f"algorithm.{key}"
        fields.append((key, name, number(key, fallback)))
    fields.append(("rate_target", "sampling.rate_target", number("rate_target")))
    if "msd_target_db" in scfg:
        fields.append(("msd_target", "sampling.msd_target_db",
                       10.0 ** (number("msd_target_db") / 10.0)))
    else:
        fields.append(("msd_target", "sampling.msd_target", number("msd_target")))
    fields.append(("budget", "sampling.budget", number("budget")))
    kwargs = {}
    for key, name, value in fields:
        if value is None and key in needs:
            raise ConfigError(f"{name}: required field is missing")
        kwargs[key] = value
        # the spec checks its fields together, so add them one at a time
        with _domain(name):
            spec = design_mod.DesignSpec(bandlimit=setup.bandlimit, noise=setup.noise, **kwargs)
    return spec


# each design problem and the DesignSpec fields it needs
_DESIGN_PROBLEMS = {
    "min_rate_convex": (design_mod.solve_min_rate_convex, ("mu", "rate_target", "msd_target")),
    "sca_min_rate": (design_mod.sca_min_rate, ("mu", "rate_target", "msd_target")),
    "dinkelbach": (design_mod.dinkelbach_min_msd, ("mu", "rate_target")),
    "sca_min_msd": (design_mod.sca_min_msd, ("mu", "rate_target")),
    "rls": (design_mod.solve_rls_design, ("beta", "msd_target")),
}


def resolve_sampling(setup: Setup):
    """Turn the sampling section into a probability vector.

    Returns (probabilities, trace_or_None); designed sampling also yields
    the solver trace for reporting.
    """
    scfg = setup.config.get("sampling")
    if not isinstance(scfg, dict):
        raise ConfigError("sampling: section is missing")
    kind = _need(scfg, "sampling", "kind", str)
    n = setup.graph.n
    if kind == "full":
        return SamplingProbabilities.full(n), None
    if kind == "explicit":
        p = _need(scfg, "sampling", "p", list)
        if len(p) != n:
            raise ConfigError(f"sampling.p: expected {n} entries, got {len(p)}")
        with _domain("sampling.p"):
            return SamplingProbabilities(probs=np.asarray(p, dtype=float)), None
    if kind == "design":
        problem = _need(scfg, "sampling", "problem", str)
        if problem not in _DESIGN_PROBLEMS:
            raise ConfigError(
                f"sampling.problem: unknown problem {problem!r}; "
                f"choose from {sorted(_DESIGN_PROBLEMS)}"
            )
        solve, needs = _DESIGN_PROBLEMS[problem]
        spec = _design_spec(setup, scfg, needs)
        with _domain("sampling"):
            return solve(spec)
    if kind == "strategy":
        name = _need(scfg, "sampling", "strategy", str)
        m = _count(scfg, "sampling", "m")
        if m > n:
            raise ConfigError(f"sampling.m: {m} out of range for n={n}")
        if name == "leverage":
            return leverage_score_probabilities(setup.bandlimit, m), None
        if name == "max_det":
            chosen = max_det_greedy(setup.bandlimit, m, setup.noise)
            return SamplingProbabilities.from_support(chosen, n), None
        if name == "uniform":
            rng = np.random.default_rng([setup.seed, 303])
            chosen = np.sort(rng.choice(n, size=m, replace=False))
            return SamplingProbabilities.from_support(chosen, n), None
        raise ConfigError(f"sampling.strategy: unknown strategy {name!r}")
    raise ConfigError(f"sampling.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Monte Carlo engine

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
        tail = self.msd_linear[-max(1, self.msd_linear.shape[0] // 4):]
        return float(tail.mean())

    def steady_state_db(self) -> float:
        return to_db(self.steady_state_linear())


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
    """
    n = probs.shape[0]
    trials = list(trials)
    mask_rngs = [np.random.default_rng(seed + t) for t in trials]
    noise_rngs = []
    for t in trials:
        bits = np.random.PCG64(seed + t)
        bits.advance(horizon * n)  # one 64-bit draw per uniform
        noise_rngs.append(np.random.Generator(bits))
    steps = max(1, max_elements // (len(trials) * n))
    for start in range(0, horizon, steps):
        k = min(steps, horizon - start)
        masks = np.empty((len(trials), k, n), dtype=np.int8)
        noise = np.empty((len(trials), k, n))
        for c in range(len(trials)):
            masks[c] = mask_rngs[c].random((k, n)) < probs
            noise_rngs[c].standard_normal(out=noise[c])
        # the same values as normal(0.0, std), which computes 0.0 + std * z
        noise *= std
        yield masks, noise


def _trial_steps(setup: Setup, probs: SamplingProbabilities, chunk):
    """``(step, masks, y)`` for every instant of one chunk of trials, where
    ``y = x_true + noise``; draws are streamed block by block."""
    t = 0
    for masks, noise in draw_blocks(setup.seed, chunk, setup.horizon, probs.probs,
                                    setup.noise.std, DRAW_BLOCK):
        for j in range(masks.shape[1]):
            yield t, masks[:, j, :], setup.x_true + noise[:, j, :]
            t += 1


def lms_update(s_hat: np.ndarray, masks: np.ndarray, y: np.ndarray, u: np.ndarray,
               mu: float) -> np.ndarray:
    """One LMS step for a chunk of trials, in bandlimited coordinates:
    s <- s + mu U_F^T D_S (y - U_F s)."""
    return s_hat + mu * ((masks * (y - s_hat @ u.T)) @ u)


def rls_outer_table(u: np.ndarray) -> np.ndarray:
    """Row i holds vec(u_i u_i^T), so ``w @ table`` is sum_i w_i u_i u_i^T."""
    n, f = u.shape
    return (u[:, :, None] * u[:, None, :]).reshape(n, f * f)


def rls_update(psi: np.ndarray, psiv: np.ndarray, w: np.ndarray, y: np.ndarray,
               u: np.ndarray, outer: np.ndarray, beta: float):
    """One RLS step for a chunk of trials, with weights w = D_S C_v^{-1}:
    Psi <- beta Psi + U_F^T W U_F (one GEMM against ``outer``, in place),
    psi <- beta psi + U_F^T W y."""
    psi *= beta
    psi += (w @ outer).reshape(psi.shape)
    return psi, beta * psiv + (w * y) @ u


# The kernels do not warn about overflow: run_experiment reports a non-finite
# learning curve as an error naming the step size or penalty.
@np.errstate(over="ignore", invalid="ignore")
def _run_lms_mc(setup: Setup, probs: SamplingProbabilities, mu: float) -> np.ndarray:
    u = setup.bandlimit.basis_slice
    s_true = setup.signal_coeffs
    trials = setup.trials
    acc = np.zeros(setup.horizon)
    for start in range(0, trials, TRIAL_CHUNK):
        chunk = range(start, min(start + TRIAL_CHUNK, trials))
        s_hat = np.zeros((len(chunk), setup.bandlimit.size))
        for t, masks, y in _trial_steps(setup, probs, chunk):
            err = s_hat - s_true
            acc[t] += float((err * err).sum())
            s_hat = lms_update(s_hat, masks, y, u, mu)
    return acc / trials


@np.errstate(over="ignore", invalid="ignore")
def _run_rls_mc(setup: Setup, probs: SamplingProbabilities, beta: float,
                delta: float) -> np.ndarray:
    u = setup.bandlimit.basis_slice
    s_true = setup.signal_coeffs
    trials = setup.trials
    f = setup.bandlimit.size
    inv_var = 1.0 / setup.noise.variances
    outer = rls_outer_table(u)
    acc = np.zeros(setup.horizon)
    for start in range(0, trials, TRIAL_CHUNK):
        chunk = range(start, min(start + TRIAL_CHUNK, trials))
        psi = np.tile(delta * np.eye(f), (len(chunk), 1, 1))
        psiv = np.zeros((len(chunk), f))
        for t, masks, y in _trial_steps(setup, probs, chunk):
            s_hat = np.linalg.solve(psi, psiv[:, :, None])[:, :, 0]
            err = s_hat - s_true
            acc[t] += float((err * err).sum())
            psi, psiv = rls_update(psi, psiv, masks * inv_var, y, u, outer, beta)
    return acc / trials


def _comm_from_config(setup: Setup, acfg: dict) -> CommGraph:
    comm = acfg.get("comm", "processing")
    if comm == "processing":
        return CommGraph.from_graph(setup.graph)
    if comm == "complete":
        return CommGraph.complete(setup.graph.n)
    if comm == "ring":
        return CommGraph.ring(setup.graph.n)
    if isinstance(comm, str):
        return CommGraph.load(comm)
    raise ConfigError(f"algorithm.comm: unknown topology {comm!r}")


@np.errstate(over="ignore", invalid="ignore")
def _run_drls_mc(setup: Setup, probs: SamplingProbabilities, cfg: DrlsConfig,
                 comm: CommGraph):
    horizon, trials = setup.horizon, setup.trials
    x_true = setup.x_true
    acc = np.zeros((horizon, setup.graph.n))
    for t in range(trials):
        # drls_simulate consumes the whole horizon at once: a single block
        masks, vs = next(draw_blocks(setup.seed, [t], horizon, probs.probs,
                                     setup.noise.std, max_elements=horizon * setup.graph.n))
        masks, vs = masks[0], vs[0]
        observations = masks * (x_true + vs)
        curves, _ = drls_simulate(comm, setup.bandlimit, setup.noise, cfg,
                                  masks, observations, x_true)
        acc += curves
    per_node = acc / trials
    return per_node.mean(axis=1), per_node


def theory_parameter(config: dict) -> tuple:
    """The configured algorithm kind and the parameter its closed-form theory
    needs: the step size mu for LMS, the forgetting factor beta for RLS and
    DRLS."""
    acfg = config.get("algorithm")
    if not isinstance(acfg, dict):
        raise ConfigError("algorithm: section is missing")
    kind = _need(acfg, "algorithm", "kind", str)
    if kind == "lms":
        return kind, _real(acfg, "algorithm", "mu")
    if kind in ("rls", "drls"):
        return kind, _real(acfg, "algorithm", "beta", high=1.0)
    raise ConfigError(f"algorithm.kind: unknown kind {kind!r}")


def run_experiment(config: dict) -> LearningCurve:
    """Monte Carlo learning curve for the configured estimator, with theory
    predictions embedded in the metadata."""
    setup = build_setup(config)
    probs, trace = resolve_sampling(setup)
    kind, param = theory_parameter(setup.config)
    acfg = setup.config["algorithm"]

    meta = {
        "config_hash": config_hash(config),
        "algorithm": kind,
        "seed": setup.seed,
        "trials": setup.trials,
        "horizon": setup.horizon,
        "sampling_rate": float(probs.probs.sum()),
    }
    per_node = None
    if kind == "lms":
        mu = param
        theory = lms_msd_theory(probs, mu, setup.noise, setup.bandlimit)
        meta["theory_rate"] = lms_rate_theory(probs, mu, setup.bandlimit)
        meta["step_bound"] = lms_step_bound(probs, setup.bandlimit)
        diverged = (f"algorithm.mu: the learning curve diverged; mu = {mu:g}, "
                    f"step_bound = {meta['step_bound']:.6g}")
        curve = _run_lms_mc(setup, probs, mu)
    elif kind == "rls":
        beta = param
        delta = _real(acfg, "algorithm", "delta", 1e-3)
        theory = rls_msd_theory(probs, beta, setup.noise, setup.bandlimit)
        diverged = "algorithm: the learning curve diverged"
        curve = _run_rls_mc(setup, probs, beta, delta)
    else:  # drls
        beta = param
        cfg = DrlsConfig(
            rho=_real(acfg, "algorithm", "rho", 1.0),
            inner_iters=_count(acfg, "algorithm", "inner_iters", 1),
            beta=beta,
            delta=_real(acfg, "algorithm", "delta", 1e-3),
        )
        comm = _comm_from_config(setup, acfg)
        theory = rls_msd_theory(probs, beta, setup.noise, setup.bandlimit)
        diverged = (f"algorithm.rho: the learning curve diverged; rho = {cfg.rho:g}, "
                    "lower it or raise inner_iters")
        curve, per_node = _run_drls_mc(setup, probs, cfg, comm)
        meta["inner_iters"] = cfg.inner_iters
    result = LearningCurve(msd_linear=curve, metadata=meta, per_node=per_node)
    # a stable LMS or DRLS run settles near its noise floor and below its
    # initial error, so a finite steady state above both that error and 1e3
    # times the closed-form floor diverged too (neither bound alone holds at
    # every signal-to-noise ratio); RLS (beta in (0, 1)) has no step size or
    # penalty that can make it unstable
    if not np.isfinite(curve).all() or (
            kind != "rls"
            and result.steady_state_linear() > max(curve[0], 1e3 * theory)):
        raise ConfigError(diverged)

    meta["theory_msd_linear"] = float(theory)
    meta["theory_msd_db"] = to_db(theory)
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
    steady = float(y[-max(1, y.shape[0] // 4):].mean())
    inside = y <= steady * 10.0 ** 0.3
    cut = int(np.argmax(inside)) if inside.any() else y.shape[0]
    window = y[:max(cut, 2)]
    logs = np.log(np.maximum(window, 1e-300))
    slope = float(np.polyfit(np.arange(window.shape[0]), logs, 1)[0])
    return float(np.exp(slope))


def _prefix_stats(bl: Bandlimit, noise: NoiseModel, order) -> tuple:
    """lambda_min(U_F^T D_S U_F) and Tr G = sum_S sigma_i^2 ||u_i||^2 for every
    prefix S of ``order``: cumulative sums of the rows' outer products, one
    batched eigvalsh."""
    u = bl.basis_slice[order]
    grams = np.cumsum(u[:, :, None] * u[:, None, :], axis=0)
    tr_g = np.cumsum(noise.variances[order] * leverage_scores(bl)[order])
    return np.linalg.eigvalsh(grams)[:, 0], tr_g


def _min_prefix(stats, mu, lam_t, gamma):
    """Length of the shortest prefix meeting the rate and MSD-bound checks."""
    lam, tr_g = stats
    ok = (lam >= lam_t - 1e-12) & (0.5 * mu * tr_g <= gamma * lam + 1e-12)
    return int(np.argmax(ok)) + 1 if ok.any() else math.nan


def compare_sampling(config: dict) -> list:
    """Minimal sampling rate per strategy over a grid of rate targets.

    The designed strategy reports sum(p) from the convex program; the greedy
    determinant, leverage-ordered, and uniform-random baselines report the
    smallest number of deterministically sampled vertices whose set meets
    the same rate and MSD-bound constraints.  The random baseline averages
    over ``compare.random_seeds`` permutations (mean and standard deviation).
    """
    setup = build_setup(config)
    ccfg = setup.config.get("compare")
    if not isinstance(ccfg, dict):
        raise ConfigError("compare: section is missing")
    targets = _need(ccfg, "compare", "rate_targets", list)
    for alpha in targets:
        if not 0.0 < _typed("compare.rate_targets", alpha, (int, float)) < 1.0:
            raise ConfigError(f"compare.rate_targets: each must lie in (0, 1), got {alpha:g}")
    mu = _real(ccfg, "compare", "mu")
    if "msd_target_db" in ccfg:
        gamma = 10.0 ** (_need(ccfg, "compare", "msd_target_db", (int, float)) / 10.0)
    else:
        gamma = _real(ccfg, "compare", "msd_target")
    seeds = _count(ccfg, "compare", "random_seeds", 200)

    bl, noise = setup.bandlimit, setup.noise
    n = setup.graph.n
    ordered = {"max_det": _prefix_stats(bl, noise, max_det_greedy(bl, n, noise)),
               "leverage": _prefix_stats(bl, noise,
                                         np.argsort(-leverage_scores(bl), kind="stable"))}
    rng = np.random.default_rng(setup.seed)
    perms = [_prefix_stats(bl, noise, rng.permutation(n)) for _ in range(seeds)]

    rows = []
    for alpha in targets:
        alpha = float(alpha)
        lam_t = (1.0 - alpha) / (2.0 * mu)
        with _domain("compare.p_max"):
            spec = design_mod.DesignSpec(
                bandlimit=bl, noise=noise, mu=mu,
                rate_target=alpha, msd_target=gamma,
                bounds=ccfg.get("p_max"),
            )
        try:
            designed, _ = design_mod.solve_min_rate_convex(spec)
            designed_rate = float(designed.probs.sum())
        except design_mod.InfeasibleDesignError:
            designed_rate = math.nan
        rows.append({"strategy": "designed", "rate_target": alpha,
                     "sampling_rate": designed_rate, "sampling_rate_std": 0.0})
        for name, stats in ordered.items():
            rows.append({"strategy": name, "rate_target": alpha,
                         "sampling_rate": _min_prefix(stats, mu, lam_t, gamma),
                         "sampling_rate_std": 0.0})
        counts = np.array([_min_prefix(stats, mu, lam_t, gamma) for stats in perms],
                          dtype=float)
        rows.append({"strategy": "uniform", "rate_target": alpha,
                     "sampling_rate": float(np.nanmean(counts)),
                     "sampling_rate_std": float(np.nanstd(counts))})
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
    rows = [
        (t, curve.msd_linear[t], curve.msd_db[t], theory_db, rate)
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
        for k in range(len(trace.points))
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


__all__ = [
    "ConfigError",
    "LearningCurve",
    "Setup",
    "build_graph",
    "build_setup",
    "compare_sampling",
    "config_hash",
    "draw_blocks",
    "fit_rate",
    "lms_update",
    "load_config",
    "resolve_sampling",
    "rls_outer_table",
    "rls_update",
    "run_experiment",
    "to_db",
    "write_compare_csv",
    "write_curve_csv",
    "write_design_csv",
    "write_metadata",
    "write_per_node_csv",
    "write_trace_csv",
]
