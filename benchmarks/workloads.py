"""The benchmark's workloads: which CLI jobs run, on which configs.

Every workload is closed-loop and single-process: its jobs run one after
another through ``graphadapt.cli.main`` in one fresh interpreter, with BLAS
pinned to one thread.  Config paths are relative to the repository root.
Each job's seed is its config's own seed plus the benchmark seed, so
benchmark seed 0 reproduces the configs exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

DESIGN_PROBLEMS = ("min_rate_convex", "sca_min_rate", "dinkelbach", "sca_min_msd", "rls")
COMMANDS = ("gen-graph", "theory", "design", "run-lms", "run-rls", "run-drls", "compare-sampling")


@dataclass(frozen=True)
class Job:
    command: str
    config: str
    trials: int = None        # passed as --trials when set
    gap_tol_db: float = None  # Monte Carlo jobs: allowed |steady state - theory| in dB
    nondegenerate: bool = False  # design jobs: fail if p comes out as lambda_t * 1


def _bench(name):
    return f"benchmarks/configs/{name}.yaml"


_SHIPPED = (
    Job("gen-graph", "configs/lms_full.yaml"),
    Job("theory", "configs/lms_full.yaml"),
    Job("design", "configs/design_min_rate.yaml"),
    Job("run-lms", "configs/lms_full.yaml", gap_tol_db=1.0),
    Job("run-rls", "configs/rls_designed.yaml", gap_tol_db=1.0),
    Job("compare-sampling", "configs/compare_sampling.yaml"),
    Job("run-drls", "configs/drls.yaml", trials=4, gap_tol_db=3.0),
)

# The shipped design config is degenerate (its optimum is exactly
# n * lambda_t); this n=40 instance is not, so a solver change shows.
_DESIGN = tuple(
    Job("design", _bench(f"design_{p}"), nondegenerate=True) for p in DESIGN_PROBLEMS
) + (Job("theory", _bench("theory_max_det")),)

WORKLOADS = {
    # The ROADMAP's scaled instance (n=300, |F|=20): the Monte Carlo kernel
    # is arithmetic- and memory-bound; design, greedy selection and
    # distributed never run.
    "mc-scaled": (
        Job("run-lms", _bench("mc_scaled_lms"), gap_tol_db=1.0),
        Job("run-rls", _bench("mc_scaled_rls"), gap_tol_db=1.0),
    ),
    # What a user reproducing the paper runs: every command on the shipped
    # configs (n=20-30), where per-call Python overhead dominates, DRLS
    # consensus most of all, and the Monte Carlo kernel runs at small n;
    # then the design solvers on a non-degenerate instance and greedy
    # selection at n=300.
    "paper": _SHIPPED + _DESIGN,
}


def shrink(config: dict) -> dict:
    """Tiny version of a config for the benchmark's smoke test: short
    horizons, few greedy picks and random permutations.  Design instances
    are left as they are."""
    config = dict(config)
    if "horizon" in config:
        config["horizon"] = min(int(config["horizon"]), 60)
    sampling = config.get("sampling")
    if isinstance(sampling, dict) and sampling.get("strategy") == "max_det":
        config["sampling"] = dict(sampling, m=min(int(sampling["m"]), 30))
    compare = config.get("compare")
    if isinstance(compare, dict):
        config["compare"] = dict(compare, random_seeds=5,
                                 rate_targets=compare["rate_targets"][:2])
    return config


SMOKE_TRIALS = 2
