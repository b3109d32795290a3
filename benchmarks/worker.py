"""Benchmark child process; ``run.py`` starts one per measurement.

    python3 benchmarks/worker.py setup --workload NAME --seed N
    python3 benchmarks/worker.py run --workload NAME --seed N --out DIR [--trace] [--smoke]

``setup`` imports graphadapt, reads every config of the workload and builds
its set-up, then exits: its wall time, taken by the parent, is the set-up
cost a user pays before a command does any work.  ``run`` runs the
workload's jobs back to back through ``graphadapt.cli.main`` in this
process, then checks every job's outputs and prints one JSON line.  With
``--trace`` the library's layer functions are wrapped (see ``spans.py``) and
the spans are written to ``DIR/spans.json``.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import yaml  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _import_graphadapt():
    import graphadapt

    if not os.path.abspath(graphadapt.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"graphadapt imported from {graphadapt.__file__}, not from {SRC}")


def _job_config(job, seed, smoke):
    """The job's config with the benchmark seed added to its own seed.

    A drawn graph stays the one of the config's own seed: the benchmark seed
    changes the Monte Carlo draws, the drawn noise levels and the signal,
    not the instance's size (the DRLS cost, for one, scales with |E|).
    """
    with open(os.path.join(ROOT, job.config)) as fh:
        config = yaml.safe_load(fh)
    if smoke:
        config = workloads.shrink(config)
    own = int(config.get("seed", 0))
    graph = config.get("graph")
    if isinstance(graph, dict) and graph.get("kind") == "random_geometric":
        config["graph"] = dict(graph, seed=int(graph.get("seed", own)))
    config["seed"] = own + seed
    trials = workloads.SMOKE_TRIALS if smoke else job.trials
    if trials is not None:
        config["trials"] = trials
    return config, trials


def setup(args):
    _import_graphadapt()
    from graphadapt.harness import build_setup

    jobs = {job.config: job for job in workloads.WORKLOADS[args.workload]}
    for job in jobs.values():
        build_setup(_job_config(job, args.seed, args.smoke)[0])


def instrument(tracer):
    """Wrap each layer's public functions where their callers look them up."""
    from graphadapt import cli, design, distributed, filters, harness, sampling

    def design_attrs(args, result):
        trace = result[1]
        return {"iterations": trace.iterations, "converged": bool(trace.converged),
                "residual": trace.residuals[-1] if trace.residuals else 0.0}

    def resolve_name(setup):
        scfg = setup.config.get("sampling", {})
        if scfg.get("kind") == "design":
            return f"design.{scfg.get('problem')}"
        return "harness.resolve_sampling"

    def resolve_attrs(args, result):
        return design_attrs(args, result) if result[1] is not None else None

    def run_attrs(args, result):
        meta, config = result.metadata, args[0]
        chunk = min(meta["trials"], harness.TRIAL_CHUNK) if meta["algorithm"] != "drls" else 1
        return {"kind": meta["algorithm"], "trial_steps": meta["trials"] * meta["horizon"],
                "draw_bytes": chunk * meta["horizon"] * int(config["graph"]["n"]) * 9}

    for mod in (cli, harness):
        tracer.span(mod, "build_setup", "harness.build_setup")
        tracer.span(mod, "resolve_sampling", resolve_name, resolve_attrs)
        tracer.span(mod, "build_graph", "harness.build_graph")
    tracer.span(cli, "load_config", "harness.load_config")
    tracer.span(cli, "run_experiment", "harness.run_experiment", run_attrs)
    tracer.span(cli, "compare_sampling", "harness.compare_sampling")
    for name in ("write_curve_csv", "write_metadata", "write_per_node_csv",
                 "write_design_csv", "write_trace_csv", "write_compare_csv", "save_edge_list"):
        tracer.span(cli, name, "harness.write")
    for name in ("lms_theory_report", "rls_theory_report"):
        tracer.span(cli, name, "filters.theory")
    for name in ("lms_msd_theory", "rls_msd_theory", "lms_rate_theory", "lms_step_bound"):
        tracer.span(harness, name, "filters.theory")
    tracer.span(harness, "random_geometric_graph", "graphs.random_geometric_graph")
    tracer.span(harness, "eigendecompose", "graphs.eigendecompose")
    tracer.span(harness, "max_det_greedy", "sampling.max_det_greedy")
    for mod in (harness, filters, sampling):
        tracer.count(mod, "weighted_gram", "sampling.weighted_gram")
    for mod in (harness, sampling):
        tracer.count(mod, "leverage_scores", "sampling.leverage_scores")
    # compare_sampling and sca_min_rate reach the convex solver through the module
    tracer.span(design, "solve_min_rate_convex", "design.min_rate_convex", design_attrs)
    tracer.span(harness, "drls_simulate", "distributed.simulate")
    tracer.span(distributed, "drls_round", "distributed.round")
    # about 600k calls per run: counted, not spanned
    tracer.count(distributed, "drls_local_update", "distributed.local_update")
    tracer.count(distributed, "drls_multiplier_update", "distributed.multiplier_update")


def _probe_messages(harness, sink):
    """Keep the message count of every simulated network (the harness drops
    it); always installed, since the DRLS output check needs it."""
    original = harness.drls_simulate

    def probe(*args, **kwargs):
        curves, network = original(*args, **kwargs)
        sink.append(network.message_count)
        return curves, network

    harness.drls_simulate = probe


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run(args):
    _import_graphadapt()
    from graphadapt import cli, harness

    jobs = workloads.WORKLOADS[args.workload]
    if args.smoke:
        jobs = tuple(dataclasses.replace(job, gap_tol_db=None) for job in jobs)
    os.makedirs(args.out, exist_ok=True)
    prepared = []
    for index, job in enumerate(jobs):
        config, trials = _job_config(job, args.seed, args.smoke)
        out = os.path.join(args.out, f"{index:02d}-{job.command}")
        path = out + ".yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(config, fh)
        argv = [job.command, "--config", path, "--out", out, "--seed", str(config["seed"])]
        if trials is not None:
            argv += ["--trials", str(trials)]
        prepared.append((job, config, out, argv))

    messages = []
    _probe_messages(harness, messages)
    tracer = Tracer()
    if args.trace:
        instrument(tracer)

    results = []
    for job, config, out, argv in prepared:
        mark = len(messages)
        error = None
        t0 = time.perf_counter()
        tracer.active = args.trace
        span = tracer.open("cli." + job.command) if args.trace else None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # one broken job must not hide the others' numbers
            code, error = None, traceback.format_exc()
        finally:
            if span is not None:
                tracer.close(span)
            tracer.active = False
        results.append({"command": job.command, "seconds": time.perf_counter() - t0,
                        "code": code, "error": error, "messages": messages[mark:]})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    outputs = {}
    for (job, config, out, _), res in zip(prepared, results):
        if res["code"] != 0:
            res["problem"] = f"exit code {res['code']}"
            res["quantities"] = {}
        else:
            res["problem"], res["quantities"] = checks.check(job, out, config, res["messages"])
        for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
            path = os.path.join(out, name)
            outputs[f"{os.path.basename(out)}/{name}"] = [os.path.getsize(path), _digest(path)]
        if res["problem"] is not None:
            print(f"job {job.command} {job.config}: {res['problem']}", file=sys.stderr)
            if res["error"]:
                print(res["error"], file=sys.stderr)

    spans_file = None
    if args.trace:
        spans_file = os.path.join(args.out, "spans.json")
        tracer.dump(spans_file)

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "peak_rss_mb": peak_rss_mb,
        "jobs": results,
        "outputs": outputs,
        "spans_file": spans_file,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}",
                     "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
