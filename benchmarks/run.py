"""graphadapt benchmark: end-to-end times of the CLI and a traced per-layer split.

    python3 benchmarks/run.py --workload {mc-scaled,paper} --seed N \
        --seconds S --trace {0,1}

Run from any directory; the program is taken from ``src/`` next to this
directory.  Each measurement is one fresh interpreter running ``worker.py``
(BLAS pinned to one thread), so runs are closed-loop and single-process.
First the set-up is timed: one discarded warm-up start, then the median of
``SETUP_STARTS`` fresh starts that import graphadapt and build every config's
set-up.  Then whole workload passes repeat for about S seconds (at least
two).  Every job's outputs are checked; ``failed`` counts the jobs whose exit
code or check failed.

With ``--trace 0`` the last line reports the end-to-end metrics (each job's
median over passes, summed).  With ``--trace 1`` untraced and traced passes
alternate: the untraced ones give the per-command times and the tracing
overhead, the traced ones the per-layer split.  The last line of standard output is always one
JSON object with the keys correct, attempted, failed and metrics.
``--save-reference`` stores the output digests of a seed-0 pass, against
which ``harness.outputs_identical`` counts byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import self_times  # noqa: E402
from workloads import COMMANDS, DESIGN_PROBLEMS, WORKLOADS  # noqa: E402

SETUP_STARTS = 7
MIN_PASSES = 2
CHILD_TIMEOUT_S = 100
REFERENCE = os.path.join(HERE, "reference_outputs.json")
WORK = os.path.join(ROOT, ".bench_work")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    units = {
        "graphs.rgg_draws": "count",
        "graphs.rgg_s": "s",
        "graphs.eigendecompose_s": "s",
        "sampling.max_det_greedy_s": "s",
        "sampling.weighted_gram_calls": "count",
        "sampling.leverage_scores_calls": "count",
        "filters.theory_s": "s",
    }
    for problem in DESIGN_PROBLEMS:
        units[f"design.{problem}_s"] = "s"
        units[f"design.{problem}_iterations"] = "count"
    units.update({
        "design.converged_ratio": "ratio",
        "design.residual_max": "1",
        "design.rate": "vertices",
        "design.msd_db": "dB",
        "distributed.simulate_s": "s",
        "distributed.round_us_p50": "us",
        "distributed.round_us_p99": "us",
        "distributed.local_updates": "count",
        "distributed.multiplier_updates": "count",
        "distributed.messages": "count",
        "harness.build_setup_s": "s",
        "harness.resolve_sampling_s": "s",
        "harness.mc_kernel_s": "s",
        "harness.compare_sampling_s": "s",
        "harness.lms_step_ns": "ns",
        "harness.rls_step_ns": "ns",
        "harness.draw_bytes": "B",
        "harness.write_s": "s",
        "harness.output_bytes": "B",
        "harness.outputs_identical": "count",
        "harness.theory_gap_db": "dB",
        "cli.overhead_s": "s",
    })
    for command in COMMANDS:
        units[f"cli.{command.replace('-', '_')}_s"] = "s"
    units["trace_overhead_ratio"] = "ratio"
    return units


PER_LAYER = per_layer_units()


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    return env


def child(args, env):
    """Run worker.py to completion; returns (stdout, wall seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(args[:3])} did not finish in {exc.timeout} s") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args[:3])} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.stdout, wall


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def layer_metrics(trace_file):
    """Per-layer numbers of one traced pass: every ``_s`` time is the summed
    self time of the layer's spans, so the layers partition the traced time."""
    with open(trace_file) as fh:
        data = json.load(fh)
    spans, counts = data["spans"], data["counts"]
    own = self_times(spans)
    by_name, n_spans = {}, {}
    for (name, *_), t in zip(spans, own):
        by_name[name] = by_name.get(name, 0.0) + t
        n_spans[name] = n_spans.get(name, 0) + 1
    m = {
        "graphs.rgg_draws": n_spans.get("graphs.random_geometric_graph", 0),
        "graphs.rgg_s": by_name.get("graphs.random_geometric_graph", 0.0),
        "graphs.eigendecompose_s": by_name.get("graphs.eigendecompose", 0.0),
        "sampling.max_det_greedy_s": by_name.get("sampling.max_det_greedy", 0.0),
        "sampling.weighted_gram_calls": counts.get("sampling.weighted_gram", 0),
        "sampling.leverage_scores_calls": counts.get("sampling.leverage_scores", 0),
        "filters.theory_s": by_name.get("filters.theory", 0.0),
        "distributed.simulate_s": by_name.get("distributed.simulate", 0.0)
        + by_name.get("distributed.round", 0.0),
        "distributed.local_updates": counts.get("distributed.local_update", 0),
        "distributed.multiplier_updates": counts.get("distributed.multiplier_update", 0),
        "harness.build_setup_s": sum(by_name.get(k, 0.0) for k in (
            "harness.load_config", "harness.build_setup", "harness.build_graph")),
        "harness.resolve_sampling_s": by_name.get("harness.resolve_sampling", 0.0),
        "harness.mc_kernel_s": by_name.get("harness.run_experiment", 0.0),
        "harness.compare_sampling_s": by_name.get("harness.compare_sampling", 0.0),
        "harness.write_s": by_name.get("harness.write", 0.0),
        "cli.overhead_s": sum(t for (name, *_), t in zip(spans, own) if name.startswith("cli.")),
    }
    rounds = [(end - start) * 1e6 for name, start, end, _, _ in spans
              if name == "distributed.round"]
    m["distributed.round_us_p50"] = percentile(rounds, 0.5)
    m["distributed.round_us_p99"] = percentile(rounds, 0.99)

    design = [(name, attrs) for name, _, _, _, attrs in spans if name.startswith("design.")]
    for problem in DESIGN_PROBLEMS:
        m[f"design.{problem}_s"] = by_name.get(f"design.{problem}", 0.0)
        m[f"design.{problem}_iterations"] = sum(
            a["iterations"] for name, a in design if name == f"design.{problem}")
    m["design.converged_ratio"] = (
        sum(a["converged"] for _, a in design) / len(design) if design else 0.0)
    m["design.residual_max"] = max((a["residual"] for _, a in design), default=0.0)

    steps = {"lms": [0.0, 0], "rls": [0.0, 0]}
    draw_bytes = 0
    for (name, _, _, _, attrs), t in zip(spans, own):
        if name == "harness.run_experiment":
            draw_bytes = max(draw_bytes, attrs["draw_bytes"])
            if attrs["kind"] in steps:
                steps[attrs["kind"]][0] += t
                steps[attrs["kind"]][1] += attrs["trial_steps"]
    for kind, (seconds, n) in steps.items():
        m[f"harness.{kind}_step_ns"] = seconds / n * 1e9 if n else 0.0
    m["harness.draw_bytes"] = draw_bytes
    return m


def job_quantities(passes):
    """Output-derived numbers of one pass; identical for every pass of a run."""
    jobs = passes[0]["jobs"]
    q = [job["quantities"] for job in jobs]
    gaps = [x["theory_gap_db"] for x in q if "theory_gap_db" in x]
    msds = [x["design_msd_db"] for x in q if "design_msd_db" in x]
    return {
        "harness.theory_gap_db": max(gaps, default=0.0),
        "design.rate": sum(x["design_sum"] for x in q
                           if x.get("problem") in ("min_rate_convex", "sca_min_rate", "rls")),
        "design.msd_db": statistics.fmean(msds) if msds else 0.0,
        "distributed.messages": sum(x.get("messages", 0) for x in q),
        "harness.output_bytes": sum(size for size, _ in passes[0]["outputs"].values()),
    }


def identical_outputs(outputs, workload, seed):
    if seed != 0 or not os.path.exists(REFERENCE):
        return 0
    with open(REFERENCE) as fh:
        reference = json.load(fh).get(workload, {})
    return sum(1 for name, (_, digest) in outputs.items() if reference.get(name) == digest)


def save_reference(outputs, workload):
    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    reference[workload] = {name: digest for name, (_, digest) in sorted(outputs.items())}
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def measure(args, work):
    env = child_env()
    base = ["--workload", args.workload, "--seed", str(args.seed)] + ["--smoke"] * args.smoke
    starts, min_passes = (2, 1) if args.smoke else (SETUP_STARTS + 1, MIN_PASSES)
    setup = [child(["setup"] + base, env)[1] for _ in range(starts)][1:]

    passes, traced = [], []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        trace = args.trace and len(passes) + len(traced) > 0 and len(traced) < len(passes)
        out = os.path.join(work, f"pass{len(passes) + len(traced)}")
        stdout, _ = child(["run"] + base + ["--out", out] + ["--trace"] * trace, env)
        result = json.loads(stdout.strip().splitlines()[-1])
        (traced if trace else passes).append(result)
        done = len(passes) + len(traced) >= min_passes and (not args.trace or traced)
        # stop when another pass would end more than half a pass past the deadline
        now = time.perf_counter()
        if done and now - t_start + 0.5 * (now - t_pass) >= args.seconds:
            break
    return setup, passes, traced


def job_medians(passes):
    """Each job's median time over passes.  The host's speed drifts in
    bursts of a few seconds: a burst that slows one pass of a job does not
    move that job's median, where it would move the median of pass totals
    whenever it hits a different job in each pass."""
    return [statistics.median(p["jobs"][i]["seconds"] for p in passes)
            for i in range(len(passes[0]["jobs"]))]


def summarize(args, setup, passes, traced):
    everything = passes + traced
    attempted = sum(len(p["jobs"]) for p in everything)
    failed = sum(1 for p in everything for job in p["jobs"] if job["problem"] is not None)
    jobs = job_medians(passes)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(jobs),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    correct = failed == 0
    metrics = dict(end_to_end)
    if args.trace:
        layers = [layer_metrics(p["spans_file"]) for p in traced]
        exact = [name for name, unit in PER_LAYER.items() if unit in ("count", "B")]
        if any(layer[k] != layers[0][k] for layer in layers for k in exact if k in layer):
            print("per-layer counts differ between traced passes", file=sys.stderr)
            correct = False
        metrics = {k: layers[0][k] if k in exact else statistics.median(x[k] for x in layers)
                   for k in layers[0]}
        for command in COMMANDS:
            metrics[f"cli.{command.replace('-', '_')}_s"] = sum(
                t for job, t in zip(passes[0]["jobs"], jobs) if job["command"] == command)
        metrics["trace_overhead_ratio"] = sum(job_medians(traced)) / end_to_end["wall_s"] - 1.0
    quantities = job_quantities(everything)
    quantities["harness.outputs_identical"] = identical_outputs(
        passes[0]["outputs"], args.workload, args.seed)
    if args.trace:
        metrics.update(quantities)
    units = PER_LAYER if args.trace else END_TO_END
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}, quantities


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    parser.add_argument("--save-reference", action="store_true",
                        help="store this run's output digests as the reference (seed 0)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "graphadapt", "cli.py")):
        print(f"error: no graphadapt sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.save_reference and (args.seed != 0 or args.smoke):
        print("error: the reference is taken at seed 0 and full size", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        setup, passes, traced = measure(args, work)
        result, quantities = summarize(args, setup, passes, traced)
        if traced:
            shutil.copy(traced[-1]["spans_file"],
                        os.path.join(WORK, f"spans-{args.workload}.json"))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.save_reference:
        save_reference(passes[0]["outputs"], args.workload)

    versions = passes[0]["versions"]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} untraced"
          f" + {len(traced)} traced  set-up starts {len(setup)}")
    print(f"env nproc={os.cpu_count()} " + " ".join(f"{k}={v}" for k, v in versions.items()))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for name, value in quantities.items():
            print(f"{name} = {value:.6g}")
    print(f"failed_ratio = {result['failed'] / result['attempted']:.6g}"
          f" ({result['failed']} of {result['attempted']} jobs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
