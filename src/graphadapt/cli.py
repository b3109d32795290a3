"""Command line front end.

Every subcommand reads one YAML config and writes CSV (plus a JSON metadata
sidecar for runs) into --out.  Exit status is 0 on success and 2 on any
invalid config value, with ``error: <field>: ...`` on stderr (the config
file itself stands in for the field when it cannot be read).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .filters import lms_theory_report, rls_theory_report  # noqa: F401 (benchmarks/worker.py)
from .graphs import save_edge_list
from .harness import (
    ESTIMATORS,
    ConfigError,
    _kind,
    _section,
    _write_csv,
    build_graph,
    build_setup,
    compare_sampling,
    load_config,
    resolve_sampling,
    run_experiment,
    theory_parameter,
    write_compare_csv,
    write_curve_csv,
    write_design_csv,
    write_metadata,
    write_per_node_csv,
    write_trace_csv,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphadapt",
        description="Adaptive reconstruction of bandlimited graph signals "
                    "from randomly sampled noisy observations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "design": "solve a sampling-probability design problem",
        **{f"run-{kind}": estimator.help for kind, estimator in ESTIMATORS.items()},
        "theory": "closed-form steady-state predictions for the configured run",
        "compare-sampling": "sampling budget needed by designed and baseline strategies",
        "gen-graph": "draw the configured graph and save it as an edge list",
    }
    for name, blurb in commands.items():
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", required=True, help="YAML experiment config")
        cmd.add_argument("--out", default=".", help="output directory (created if absent)")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--trials", type=int, default=None, help="override config trials")
    return parser


def _run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.trials is not None:
        config["trials"] = args.trials
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from None

    if args.command == "gen-graph":
        graph = build_graph(config)
        path = os.path.join(args.out, "graph.txt")
        save_edge_list(graph, path)
        edges = int(np.count_nonzero(np.triu(graph.weights)))
        print(f"wrote {path}: {graph.n} nodes, {edges} edges")
        return 0

    if args.command == "design":
        setup = build_setup(config)
        # checked before any other sampling, a max-det greedy say, is computed
        if _kind(_section(setup.config, "sampling"), "sampling") != "design":
            raise ConfigError("sampling.kind: the design command needs kind 'design'")
        probs, trace = resolve_sampling(setup)
        write_design_csv(probs, setup.noise, os.path.join(args.out, "design_p.csv"))
        write_trace_csv(trace, os.path.join(args.out, "design_trace.csv"))
        status = "converged" if trace.converged else "stopped with a centering at its step cap"
        print(f"design {status} after {trace.iterations} iterations")
        print(f"sampling rate sum(p) = {probs.probs.sum():.6g} over {probs.n} nodes, "
              f"{len(probs.support())} with p_i > 0")
        return 0

    if args.command == "theory":
        # the algorithm is read first, as run-* reads it, so both name the same field
        kind, param = theory_parameter(config)
        setup = build_setup(config)
        probs, _ = resolve_sampling(setup)
        rows = ESTIMATORS[kind].theory(param, setup, probs)
        _write_csv(os.path.join(args.out, "theory.csv"), ["quantity", "value"], rows.items())
        for name, value in rows.items():
            print(f"{name} = {value:.6g}")
        return 0

    if args.command == "compare-sampling":
        rows = compare_sampling(config)
        write_compare_csv(rows, os.path.join(args.out, "comparison.csv"))
        for r in rows:
            print(f"{r['strategy']:>10s}  target={r['rate_target']:.4g}  "
                  f"rate={r['sampling_rate']:.6g} +- {r['sampling_rate_std']:.3g}")
        return 0

    if args.command.startswith("run-"):
        expected = args.command[len("run-"):]
        # named before any other algorithm field is read
        kind = _kind(_section(config, "algorithm"), "algorithm")
        if kind != expected:
            raise ConfigError(f"algorithm.kind: {args.command} needs kind '{expected}', "
                              f"got {kind!r}")
        curve = run_experiment(config)
        write_curve_csv(curve, os.path.join(args.out, "curve.csv"))
        write_metadata(curve, config, os.path.join(args.out, "meta.json"))
        if curve.per_node is not None:
            write_per_node_csv(curve, os.path.join(args.out, "curve_per_node.csv"))
        meta = curve.metadata
        print(f"{expected}: {meta['trials']} trials x {meta['horizon']} iterations")
        print(f"steady-state deviation {meta['steady_state_db']:.3f} dB "
              f"(theory {meta['theory_msd_db']:.3f} dB)")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
