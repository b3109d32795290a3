"""Experiment harness: config parsing, Monte Carlo runs, CSV reporting.

A single YAML document (version 1) describes one experiment: the graph, the
bandlimit, the noise, how sampling probabilities are obtained (fixed,
designed, or a baseline strategy), the estimator, and the Monte Carlo
budget.  Runs aggregate per-iteration squared deviation over independent
trials whose generators are seeded ``seed + trial_index``, so results are
reproducible and trial order is irrelevant.  Every run goes through the
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
import yaml

from . import design as design_mod
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
    save_edge_list,
)
from .sampling import (
    NoiseModel,
    ReconstructabilityError,
    SamplingProbabilities,
    draw_blocks,
    leverage_score_probabilities,
    leverage_scores,
    max_det_greedy,
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

# libyaml's parser where PyYAML was built with it: the same documents, parsed
# several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def to_db(x) -> float:
    return 10.0 * math.log10(x)


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    version = _typed("version", raw.get("version", 1), int)
    if version != 1:
        raise ConfigError(f"version: unsupported config version {version!r}")
    return _known(raw, "")


def _name(section: str, key: str) -> str:
    return f"{section}.{key}" if section else key


def _typed(name: str, val, kind):
    # bool is a subclass of int, but true/false is never a count or a number
    if not isinstance(val, kind) or isinstance(val, bool):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise ConfigError(f"{name}: expected {' or '.join(k.__name__ for k in kinds)}, "
                          f"got {val!r}")
    # YAML reads .nan and .inf as floats, which no field accepts
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{name}: must be finite, got {val!r}")
    return val


def _list_of(name: str, val, kind) -> list:
    """``val``, checked to be a list whose every entry is of ``kind``."""
    for entry in _typed(name, val, list):
        _typed(name, entry, kind)
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


def _real(cfg: dict, section: str, key: str, default=None, high: float = math.inf,
          open_high: bool = False) -> float:
    """A number in (0, high], or in (0, high) with ``open_high``; required
    unless ``default`` is given."""
    if default is None or key in cfg:
        val = float(_need(cfg, section, key, (int, float)))
    else:
        val = float(default)
    if not 0.0 < val <= high or (open_high and val == high):
        bound = ("be positive" if high == math.inf
                 else f"lie in (0, {high:g}{')' if open_high else ']'}")
        raise ConfigError(f"{_name(section, key)}: must {bound}, got {val:g}")
    return val


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


# each design problem: its solver, the DesignSpec fields it needs and those
# it reads when given
_DESIGN_PROBLEMS = {
    "min_rate_convex": (design_mod.solve_min_rate_convex, ("mu", "rate_target", "msd_target"),
                        ()),
    "sca_min_rate": (design_mod.sca_min_rate, ("mu", "rate_target", "msd_target"), ()),
    "dinkelbach": (design_mod.dinkelbach_min_msd, ("mu", "rate_target"), ("budget",)),
    "sca_min_msd": (design_mod.sca_min_msd, ("mu", "rate_target"), ("budget",)),
    "rls": (design_mod.solve_rls_design, ("beta", "msd_target"), ()),
}


def _spec_keys(fields) -> set:
    """The config keys of the DesignSpec ``fields``: the MSD target also as
    ``msd_target_db``, and the cap ``p_max``, which every design reads."""
    keys = {"p_max", *fields}
    return keys | {"msd_target_db"} if "msd_target" in keys else keys


def _known(cfg: dict, section: str) -> dict:
    """``cfg``, checked to hold only keys of ``_KEYS[section]``."""
    for key in cfg:
        if key not in _KEYS[section]:
            raise ConfigError(f"{_name(section, key)}: unknown field")
    return cfg


def _reads(cfg: dict, section: str, keys, reader: str) -> None:
    """Reject a key of ``cfg`` besides "kind" that is not in ``keys``, the
    keys that ``reader`` reads."""
    for key in cfg:
        if key != "kind" and key not in keys:
            raise ConfigError(f"{_name(section, key)}: not read by {reader}")


def _section(config: dict, name: str, optional: bool = False) -> dict:
    """The mapping ``config[name]``; an optional section may be left out."""
    cfg = config.get(name)
    if cfg is None and not optional:
        raise ConfigError(f"{name}: section is missing")
    return {} if cfg is None else _known(_typed(name, cfg, dict), name)


def _kind(cfg: dict, section: str, default: str = None) -> str:
    """The section's kind, one of ``_KIND_KEYS[section]``, checked to be given
    only the keys it reads; required unless ``default`` is given."""
    kind = _need(cfg, section, "kind", str) if default is None or "kind" in cfg else default
    if kind not in _KIND_KEYS[section]:
        raise ConfigError(f"{section}.kind: unknown kind {kind!r}")
    _reads(cfg, section, _KIND_KEYS[section][kind], f"kind {kind!r}")
    return kind


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
    gcfg = _section(config, "graph")
    if _kind(gcfg, "graph") == "edge_list":
        path = _need(gcfg, "graph", "path", str)
        with config_field("graph.path"):
            return load_edge_list(path)
    n = _count(gcfg, "graph", "n", low=2)
    radius = _real(gcfg, "graph", "radius", high=math.sqrt(2.0))
    seed = _count(gcfg, "graph", "seed", _count(config, "", "seed", 0, low=0), low=0)
    for offset in range(200):
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

    bcfg = _section(config, "bandlimit")
    if "indices" in bcfg:
        if "size" in bcfg:
            raise ConfigError("bandlimit.size: give size or indices, not both")
        indices = _list_of("bandlimit.indices", bcfg["indices"], int)
        with config_field("bandlimit.indices"):
            bl = Bandlimit.from_indices(basis, indices)
    else:
        size = _count(bcfg, "bandlimit", "size")
        if not 1 <= size <= graph.n:
            raise ConfigError(f"bandlimit.size: {size} out of range for n={graph.n}")
        bl = Bandlimit.lowest(basis, size)

    ncfg = _section(config, "noise")
    nkind = _kind(ncfg, "noise", "uniform")
    if nkind == "uniform":
        noise = NoiseModel.uniform(graph.n, _real(ncfg, "noise", "sigma_sq"))
    elif nkind == "values":
        vals = _list_of("noise.values", _need(ncfg, "noise", "values"), (int, float))
        if len(vals) != graph.n:
            raise ConfigError(f"noise.values: expected {graph.n} entries, got {len(vals)}")
        with config_field("noise.values"):
            noise = NoiseModel(variances=np.asarray(vals, dtype=float))
    else:  # loguniform
        low = float(_need(ncfg, "noise", "low", (int, float)))
        high = float(_need(ncfg, "noise", "high", (int, float)))
        if not 0 < low <= high:
            raise ConfigError("noise.low/high: need 0 < low <= high")
        rng = np.random.default_rng([seed, 202])
        noise = NoiseModel(variances=np.exp(rng.uniform(np.log(low), np.log(high), graph.n)))

    scfg = _section(config, "signal", optional=True)
    scale = float(_typed("signal.scale", scfg.get("scale", 1.0), (int, float)))
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


def _design_field(cfg: dict, section: str, key: str) -> tuple:
    """One DesignSpec field of a section: (config field, value or None if
    unset).  The MSD target is given in dB as ``msd_target_db`` or linear as
    ``msd_target``, the cap ``p_max`` as one number or a list of them."""
    if key == "msd_target" and "msd_target_db" in cfg:
        if key in cfg:
            raise ConfigError(f"{_name(section, key)}: give msd_target or msd_target_db, "
                              "not both")
        db = _need(cfg, section, "msd_target_db", (int, float))
        return _name(section, "msd_target_db"), 10.0 ** (db / 10.0)
    name = _name(section, key)
    if key not in cfg:
        return name, None
    val = _need(cfg, section, key, (int, float, list) if key == "p_max" else (int, float))
    return name, _list_of(name, val, (int, float)) if isinstance(val, list) else float(val)


def _design_spec(setup: Setup, cfg: dict, section: str, needs, optional=()):
    """The DesignSpec of a config section (``sampling`` for a designed
    sampling, ``compare`` for compare-sampling), the only code that turns
    config into one.  It reads the per-vertex cap ``p_max``, each field in
    ``needs`` (required) and in ``optional``, and no other field; ``mu`` and
    ``beta`` default to the algorithm section's values.  An algorithm
    section may be left out; one that is given is checked against its kind.
    A rejected value names its field."""
    acfg = _section(setup.config, "algorithm", optional=True)
    if setup.config.get("algorithm") is not None:
        _kind(acfg, "algorithm")
    kwargs = {}
    # bounds come before the budget, which the spec checks against them
    for key in ("p_max", "mu", "beta", "rate_target", "msd_target", "budget"):
        if key != "p_max" and key not in needs + optional:
            continue
        # mu and beta (the only keys the algorithm section shares with a
        # design) come from there when the section leaves them out
        name, value = _design_field(*((acfg, "algorithm") if key in acfg and key not in cfg
                                      else (cfg, section)), key)
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
    scfg = _section(setup.config, "sampling")
    kind = _kind(scfg, "sampling")
    n = setup.graph.n
    if kind == "full":
        return SamplingProbabilities.full(n), None
    if kind == "explicit":
        p = _list_of("sampling.p", _need(scfg, "sampling", "p"), (int, float))
        if len(p) != n:
            raise ConfigError(f"sampling.p: expected {n} entries, got {len(p)}")
        with config_field("sampling.p"):
            return SamplingProbabilities(probs=np.asarray(p, dtype=float)), None
    if kind == "design":
        problem = _need(scfg, "sampling", "problem", str)
        if problem not in _DESIGN_PROBLEMS:
            raise ConfigError(
                f"sampling.problem: unknown problem {problem!r}; "
                f"choose from {sorted(_DESIGN_PROBLEMS)}"
            )
        solve, needs, optional = _DESIGN_PROBLEMS[problem]
        spec = _design_spec(setup, scfg, "sampling", needs, optional)
        _reads(scfg, "sampling", {"problem", *_spec_keys(needs + optional)},
               f"problem {problem!r}")
        with config_field("sampling"):
            return solve(spec)
    # a strategy
    name = _need(scfg, "sampling", "strategy", str)
    m = _count(scfg, "sampling", "m")
    if m > n:
        raise ConfigError(f"sampling.m: {m} out of range for n={n}")
    if name == "leverage":
        return leverage_score_probabilities(setup.bandlimit, m), None
    if name == "max_det":
        chosen = max_det_greedy(setup.bandlimit, m)
        return SamplingProbabilities.from_support(chosen, n), None
    if name == "uniform":
        chosen = uniform_random_set(n, m, np.random.default_rng([setup.seed, 303]))
        return SamplingProbabilities.from_support(chosen, n), None
    raise ConfigError(f"sampling.strategy: unknown strategy {name!r}")


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
def _monte_carlo(setup: Setup, probs: SamplingProbabilities, pass_size: int,
                 simulate) -> np.ndarray:
    """The one loop over passes: ``simulate(blocks)`` runs a pass of at most
    ``pass_size`` trials over its ``(masks, y = x_true + noise)`` draw blocks
    and returns (trial-summed curve, final state).  The curves' sum over the
    passes is divided by the number of trials."""
    total = 0.0
    for start in range(0, setup.trials, pass_size):
        blocks = draw_blocks(setup.seed, range(start, min(start + pass_size, setup.trials)),
                             setup.horizon, probs.probs, setup.noise.std, DRAW_BLOCK // 2)
        # closing joins the next block's fill should the kernel raise
        with contextlib.closing(blocks):
            total = total + simulate((m, np.add(y, setup.x_true, out=y)) for m, y in blocks)[0]
    return total / setup.trials


def _run_filter_mc(setup: Setup, probs: SamplingProbabilities, init, step,
                   estimate) -> tuple:
    """A centralized filter's run, from ``track``'s ``init`` and ``step`` and its
    (trials, f) coefficients ``estimate(state)``: its curve, no per-node curves or metadata."""
    def deviation(state):
        return np.square(estimate(state) - setup.signal_coeffs).sum()

    return _monte_carlo(setup, probs, TRIAL_CHUNK,
                        lambda blocks: track(blocks, init, step, deviation)), None, {}


def _run_lms(setup: Setup, probs: SamplingProbabilities, mu: float, acfg: dict) -> tuple:
    u = setup.bandlimit.basis_slice
    return _run_filter_mc(setup, probs,
                          init=lambda trials: np.zeros((trials, u.shape[1])),
                          step=lambda s_hat, masks, y: lms_update(s_hat, masks, y, u, mu),
                          estimate=lambda s_hat: s_hat)


def _run_rls(setup: Setup, probs: SamplingProbabilities, beta: float, acfg: dict) -> tuple:
    # the state is the information pair (Psi, psi), the estimate Psi^-1 psi
    delta = _real(acfg, "algorithm", "delta", 1e-3)
    u = setup.bandlimit.basis_slice
    f = u.shape[1]
    inv_var = 1.0 / setup.noise.variances
    outer = rls_outer_table(u)
    return _run_filter_mc(
        setup, probs,
        init=lambda trials: (np.tile(delta * np.eye(f), (trials, 1, 1)), np.zeros((trials, f))),
        step=lambda state, masks, y: rls_update(*state, masks * inv_var, y, u, outer, beta),
        estimate=lambda state: np.linalg.solve(state[0], state[1][:, :, None])[:, :, 0])


def _comm_from_config(setup: Setup, acfg: dict) -> CommGraph:
    comm = acfg.get("comm", "processing")
    with config_field("algorithm.comm"):
        if comm == "processing":
            return CommGraph.from_graph(setup.graph)
        if comm == "complete":
            return CommGraph.complete(setup.graph.n)
        if comm == "ring":
            return CommGraph.ring(setup.graph.n)
        if not isinstance(comm, str):
            raise ConfigError(f"algorithm.comm: unknown topology {comm!r}")
        graph = CommGraph.from_graph(load_edge_list(comm))
    if graph.n != setup.graph.n:
        raise ConfigError(f"algorithm.comm: {comm} has {graph.n} nodes, "
                          f"the graph has {setup.graph.n}")
    return graph


def _run_drls(setup: Setup, probs: SamplingProbabilities, beta: float, acfg: dict) -> tuple:
    cfg = DrlsConfig(rho=_real(acfg, "algorithm", "rho", DrlsConfig.rho),
                     inner_iters=_count(acfg, "algorithm", "inner_iters", DrlsConfig.inner_iters),
                     beta=beta, delta=_real(acfg, "algorithm", "delta", DrlsConfig.delta))
    comm = _comm_from_config(setup, acfg)
    n, f = setup.graph.n, setup.bandlimit.size
    # a pass's (trials, n, f, f) information matrices hold at most DRAW_BLOCK
    # entries (but at least one trial); drls_simulate is looked up per call
    size = min(TRIAL_CHUNK, max(1, DRAW_BLOCK // (n * f * f)))
    per_node = _monte_carlo(setup, probs, size, lambda blocks: drls_simulate(
        comm, setup.bandlimit, setup.noise, cfg, blocks, setup.x_true))
    return per_node.mean(axis=1), per_node, {"inner_iters": cfg.inner_iters}


class Estimator(NamedTuple):
    """One algorithm kind, all that defines it: its run command's help, the keys it reads
    besides "kind" (each holds mu and beta, on which a design falls back), its closed form's
    parameter reader, that closed form (theory.csv's rows, also meta.json's theory fields),
    its Monte Carlo runner (curve, per-node curves or None, extra metadata) and a diverged
    curve's message, None where no step size or penalty can make the kind unstable."""

    help: str
    keys: set
    parameter: Callable
    closed_form: Callable
    run: Callable
    diverged: Callable = None

    def theory(self, param: float, setup: Setup, probs: SamplingProbabilities) -> dict:
        """The closed form's rows at ``param``; only a rank-deficient sampling fails them."""
        with config_field("sampling"):
            return self.closed_form(probs, param, setup.noise, setup.bandlimit)


def _beta(acfg: dict) -> float:
    # beta = 1 forgets nothing, and the RLS closed form is then 0
    return _real(acfg, "algorithm", "beta", high=1.0, open_high=True)


# every algorithm kind; a new kind is one entry
ESTIMATORS = {
    "lms": Estimator("Monte Carlo learning curve for the LMS estimator", {"mu", "beta"},
                     lambda acfg: _real(acfg, "algorithm", "mu"), lms_theory_report, _run_lms,
                     lambda acfg, mu: f"algorithm.mu: the learning curve diverged; mu = {mu:g}"),
    "rls": Estimator("Monte Carlo learning curve for the recursive estimator",
                     {"mu", "beta", "delta"}, _beta, rls_theory_report, _run_rls),
    "drls": Estimator("Monte Carlo learning curves for the distributed estimator",
                      {"mu", "beta", "delta", "rho", "inner_iters", "comm"}, _beta,
                      rls_theory_report, _run_drls, lambda acfg, beta: (
                          "algorithm.rho: the learning curve diverged; "
                          f"rho = {_real(acfg, 'algorithm', 'rho', DrlsConfig.rho):g}")),
}

# the keys each kind of a section reads besides "kind"
_KIND_KEYS = {
    "graph": {"random_geometric": {"n", "radius", "seed"}, "edge_list": {"path"}},
    "noise": {"uniform": {"sigma_sq"}, "values": {"values"}, "loguniform": {"low", "high"}},
    "sampling": {"full": set(), "explicit": {"p"}, "strategy": {"strategy", "m"},
                 "design": {"problem"}.union(*(_spec_keys(entry[1] + entry[2])
                                              for entry in _DESIGN_PROBLEMS.values()))},
    "algorithm": {kind: estimator.keys for kind, estimator in ESTIMATORS.items()},
}

# every key the top level ("") and each section may hold; any other is rejected
_KEYS = {
    "": {"version", "seed", "trials", "horizon", "graph", "bandlimit", "noise", "signal",
         "sampling", "algorithm", "compare"},
    "bandlimit": {"size", "indices"},
    "signal": {"scale"},
    "compare": {"rate_targets", "mu", "msd_target", "msd_target_db", "random_seeds", "p_max"},
    **{section: {"kind"}.union(*kinds.values()) for section, kinds in _KIND_KEYS.items()},
}

# meta.json's name of each closed-form row
_THEORY_META = {"msd_linear": "theory_msd_linear", "msd_db": "theory_msd_db",
                "convergence_rate": "theory_rate", "step_bound": "step_bound"}


def theory_parameter(config: dict) -> tuple:
    """The configured algorithm kind and the parameter its closed form takes."""
    acfg = _section(config, "algorithm")
    kind = _kind(acfg, "algorithm")
    return kind, ESTIMATORS[kind].parameter(acfg)


def run_experiment(config: dict) -> LearningCurve:
    """Monte Carlo learning curve for the configured estimator, with its
    closed-form theory in the metadata."""
    kind, param = theory_parameter(config)
    setup = build_setup(config)
    probs, trace = resolve_sampling(setup)
    estimator = ESTIMATORS[kind]
    theory = estimator.theory(param, setup, probs)
    curve, per_node, extra = estimator.run(setup, probs, param, config["algorithm"])
    meta = {"config_hash": config_hash(config), "algorithm": kind, "seed": setup.seed,
            "trials": setup.trials, "horizon": setup.horizon,
            "sampling_rate": float(probs.probs.sum()), **extra,
            **{_THEORY_META[name]: value for name, value in theory.items()}}
    result = LearningCurve(msd_linear=curve, metadata=meta, per_node=per_node)
    # a stable run settles near its noise floor and below its initial error, so a
    # finite steady state above both that error and 1e3 times the closed-form floor
    # diverged too (neither bound alone holds at every signal-to-noise ratio); a kind
    # with no message for that (RLS) has no step size or penalty to make it unstable
    if not np.isfinite(curve).all() or (
            estimator.diverged
            and result.steady_state_linear() > max(curve[0], 1e3 * theory["msd_linear"])):
        raise ConfigError(estimator.diverged(config["algorithm"], param) if estimator.diverged
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
    ccfg = _section(setup.config, "compare")
    targets = _need(ccfg, "compare", "rate_targets", list)
    if not targets:
        raise ConfigError("compare.rate_targets: give at least one target")
    for alpha in targets:
        if not 0.0 < _typed("compare.rate_targets", alpha, (int, float)) < 1.0:
            raise ConfigError(f"compare.rate_targets: each must lie in (0, 1), got {alpha:g}")
    base = _design_spec(setup, ccfg, "compare", ("mu", "msd_target"))
    mu, gamma = base.mu, base.msd_target
    seeds = _count(ccfg, "compare", "random_seeds", 200)

    bl, noise = setup.bandlimit, setup.noise
    n = setup.graph.n
    ordered = {"max_det": _prefix_stats(bl, noise, max_det_greedy(bl, n)),
               "leverage": _prefix_stats(bl, noise,
                                         np.argsort(-leverage_scores(bl), kind="stable"))}
    rng = np.random.default_rng(setup.seed)
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

