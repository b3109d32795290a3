"""Experiment harness: config handling, Monte Carlo runs, file outputs, CLI."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import graphadapt
from graphadapt import SamplingDraw, cli, harness
from graphadapt.filters import lms_init, lms_step, rls_estimate, rls_init, rls_step
from graphadapt.harness import (
    DRAW_BLOCK,
    ConfigError,
    LearningCurve,
    build_graph,
    build_setup,
    compare_sampling,
    config_hash,
    draw_blocks,
    fit_rate,
    load_config,
    resolve_sampling,
    run_experiment,
    to_db,
    write_compare_csv,
    write_curve_csv,
    write_metadata,
)


def tiny_config():
    return {
        "seed": 3,
        "trials": 6,
        "horizon": 80,
        "graph": {"kind": "random_geometric", "n": 8, "radius": 0.8},
        "bandlimit": {"size": 3},
        "noise": {"kind": "uniform", "sigma_sq": 0.01},
        "sampling": {"kind": "full"},
        "algorithm": {"kind": "lms", "mu": 0.1},
    }


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# a valid compare section for tiny_config()
COMPARE = {"rate_targets": [0.98], "mu": 0.1, "msd_target_db": -20, "random_seeds": 2}

# a valid design sampling section for tiny_config()
DESIGN = {"kind": "design", "problem": "min_rate_convex", "mu": 0.1, "rate_target": 0.98,
          "msd_target_db": -20}


def dump(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


# ------------------------------------------------------------------ basics


def test_to_db():
    assert to_db(0.1) == pytest.approx(-10.0, abs=1e-12)
    assert to_db(1.0) == pytest.approx(0.0, abs=1e-12)


def test_config_hash_order_insensitive():
    a = {"x": 1, "y": {"b": 2, "a": 3}}
    b = {"y": {"a": 3, "b": 2}, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    assert all(c in "0123456789abcdef" for c in config_hash(a))
    assert config_hash({"x": 2, "y": {"b": 2, "a": 3}}) != config_hash(a)


def test_load_config_round_trip(tmp_path):
    cfg = tiny_config()
    loaded = load_config(dump(tmp_path, cfg))
    assert loaded == cfg


def test_load_config_rejects_bad_version(tmp_path):
    cfg = tiny_config()
    cfg["version"] = 2
    with pytest.raises(ConfigError, match="version"):
        load_config(dump(tmp_path, cfg))


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(str(path))


# ------------------------------------------------------------------- setup


class TestBuildGraph:
    def test_random_geometric_deterministic(self):
        cfg = tiny_config()
        g1 = build_graph(cfg)
        g2 = build_graph(cfg)
        np.testing.assert_array_equal(g1.weights, g2.weights)

    def test_edge_list_round_trip(self, tmp_path, path3):
        from graphadapt.graphs import save_edge_list

        path = tmp_path / "graph.txt"
        save_edge_list(path3, str(path))
        cfg = {"graph": {"kind": "edge_list", "path": str(path)}}
        g = build_graph(cfg)
        np.testing.assert_array_equal(g.weights, path3.weights)

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="graph"):
            build_graph({})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="graph.kind"):
            build_graph({"graph": {"kind": "hypercube"}})

    def test_missing_field_named_in_error(self):
        with pytest.raises(ConfigError, match="graph.radius"):
            build_graph({"graph": {"kind": "random_geometric", "n": 8}})


class TestBuildSetup:
    def test_complete_setup(self):
        setup = build_setup(tiny_config())
        assert setup.graph.n == 8
        assert setup.bandlimit.size == 3
        assert setup.x_true.shape == (8,)
        np.testing.assert_allclose(
            setup.x_true, setup.bandlimit.basis_slice @ setup.signal_coeffs)
        assert setup.trials == 6 and setup.horizon == 80

    def test_signal_deterministic_per_seed(self):
        a = build_setup(tiny_config())
        b = build_setup(tiny_config())
        np.testing.assert_array_equal(a.signal_coeffs, b.signal_coeffs)
        other = tiny_config()
        other["seed"] = 4
        c = build_setup(other)
        assert not np.array_equal(a.signal_coeffs, c.signal_coeffs)

    def test_signal_scale(self):
        cfg = tiny_config()
        cfg["signal"] = {"scale": 2.0}
        scaled = build_setup(cfg)
        base = build_setup(tiny_config())
        np.testing.assert_allclose(scaled.signal_coeffs, 2.0 * base.signal_coeffs)

    def test_bandlimit_indices(self):
        cfg = tiny_config()
        cfg["bandlimit"] = {"indices": [0, 2, 5]}
        setup = build_setup(cfg)
        assert setup.bandlimit.freq_set == (0, 2, 5)

    def test_bandlimit_size_out_of_range(self):
        cfg = tiny_config()
        cfg["bandlimit"] = {"size": 9}
        with pytest.raises(ConfigError, match="bandlimit.size"):
            build_setup(cfg)

    def test_noise_values(self):
        cfg = tiny_config()
        cfg["noise"] = {"kind": "values", "values": [0.01] * 8}
        setup = build_setup(cfg)
        np.testing.assert_allclose(setup.noise.variances, np.full(8, 0.01))

    def test_noise_values_wrong_length(self):
        cfg = tiny_config()
        cfg["noise"] = {"kind": "values", "values": [0.01] * 5}
        with pytest.raises(ConfigError, match="noise.values"):
            build_setup(cfg)

    def test_noise_loguniform_in_range(self):
        cfg = tiny_config()
        cfg["noise"] = {"kind": "loguniform", "low": 0.004, "high": 0.02}
        setup = build_setup(cfg)
        assert (setup.noise.variances >= 0.004).all()
        assert (setup.noise.variances <= 0.02).all()
        # distinct per vertex, deterministic per seed
        assert len(set(setup.noise.variances)) == 8
        again = build_setup(cfg)
        np.testing.assert_array_equal(setup.noise.variances, again.noise.variances)

    def test_noise_loguniform_bad_range(self):
        cfg = tiny_config()
        cfg["noise"] = {"kind": "loguniform", "low": 0.02, "high": 0.004}
        with pytest.raises(ConfigError, match="noise.low"):
            build_setup(cfg)

    def test_trials_validation(self):
        cfg = tiny_config()
        cfg["trials"] = 0
        with pytest.raises(ConfigError, match="trials"):
            build_setup(cfg)


class TestResolveSampling:
    def test_full(self):
        setup = build_setup(tiny_config())
        probs, trace = resolve_sampling(setup)
        np.testing.assert_array_equal(probs.probs, np.ones(8))
        assert trace is None

    def test_explicit(self):
        cfg = tiny_config()
        cfg["sampling"] = {"kind": "explicit", "p": [0.5] * 8}
        probs, _ = resolve_sampling(build_setup(cfg))
        np.testing.assert_allclose(probs.probs, np.full(8, 0.5))

    def test_explicit_wrong_length(self):
        cfg = tiny_config()
        cfg["sampling"] = {"kind": "explicit", "p": [0.5] * 7}
        with pytest.raises(ConfigError, match="sampling.p"):
            resolve_sampling(build_setup(cfg))

    def test_design_returns_trace(self):
        cfg = tiny_config()
        cfg["sampling"] = {
            "kind": "design", "problem": "min_rate_convex",
            "mu": 0.1, "rate_target": 0.98, "msd_target_db": -20,
        }
        setup = build_setup(cfg)
        probs, trace = resolve_sampling(setup)
        assert trace is not None and trace.converged
        from graphadapt import weighted_gram

        lam = float(np.linalg.eigvalsh(weighted_gram(setup.bandlimit, probs.probs))[0])
        assert lam >= 0.1 - 1e-9

    def test_unknown_design_problem(self):
        cfg = tiny_config()
        cfg["sampling"] = {"kind": "design", "problem": "magic"}
        with pytest.raises(ConfigError, match="sampling.problem"):
            resolve_sampling(build_setup(cfg))

    def test_strategy_max_det(self):
        cfg = tiny_config()
        cfg["sampling"] = {"kind": "strategy", "strategy": "max_det", "m": 4}
        probs, _ = resolve_sampling(build_setup(cfg))
        assert set(np.unique(probs.probs)) <= {0.0, 1.0}
        assert int(probs.probs.sum()) == 4

    def test_strategy_uniform_deterministic(self):
        cfg = tiny_config()
        cfg["sampling"] = {"kind": "strategy", "strategy": "uniform", "m": 3}
        a, _ = resolve_sampling(build_setup(cfg))
        b, _ = resolve_sampling(build_setup(cfg))
        np.testing.assert_array_equal(a.probs, b.probs)
        assert int(a.probs.sum()) == 3

    def test_strategy_leverage(self):
        cfg = tiny_config()
        cfg["sampling"] = {"kind": "strategy", "strategy": "leverage", "m": 4}
        probs, _ = resolve_sampling(build_setup(cfg))
        assert (probs.probs > 0).any()
        assert probs.probs.max() <= 1.0

    def test_unknown_kind(self):
        cfg = tiny_config()
        cfg["sampling"] = {"kind": "psychic"}
        with pytest.raises(ConfigError, match="sampling.kind"):
            resolve_sampling(build_setup(cfg))


# ------------------------------------------------------------- experiments


class TestRunExperiment:
    def test_lms_curve_and_metadata(self):
        curve = run_experiment(tiny_config())
        assert curve.msd_linear.shape == (80,)
        meta = curve.metadata
        for key in ("config_hash", "algorithm", "seed", "trials", "horizon",
                    "sampling_rate", "theory_rate", "theory_msd_db",
                    "steady_state_db", "step_bound"):
            assert key in meta
        assert meta["algorithm"] == "lms"
        assert meta["sampling_rate"] == pytest.approx(8.0)
        # every trial starts from the zero estimate
        setup = build_setup(tiny_config())
        energy = float(setup.signal_coeffs @ setup.signal_coeffs)
        assert curve.msd_linear[0] == pytest.approx(energy, rel=1e-12)

    def test_lms_deterministic(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        np.testing.assert_array_equal(a.msd_linear, b.msd_linear)

    def test_lms_approaches_theory(self):
        cfg = tiny_config()
        cfg["trials"] = 60
        cfg["horizon"] = 600
        curve = run_experiment(cfg)
        theory = curve.metadata["theory_msd_linear"]
        assert curve.steady_state_linear() == pytest.approx(theory, rel=0.5)

    def test_rls_metadata(self):
        cfg = tiny_config()
        cfg["algorithm"] = {"kind": "rls", "beta": 0.9}
        curve = run_experiment(cfg)
        assert "theory_rate" not in curve.metadata
        assert curve.per_node is None
        assert curve.msd_linear.shape == (80,)

    def test_drls_per_node(self):
        cfg = tiny_config()
        cfg["trials"] = 3
        cfg["horizon"] = 40
        cfg["algorithm"] = {"kind": "drls", "beta": 0.95, "rho": 20.0,
                            "inner_iters": 2, "comm": "complete"}
        curve = run_experiment(cfg)
        assert curve.per_node.shape == (40, 8)
        np.testing.assert_allclose(curve.per_node.mean(axis=1), curve.msd_linear,
                                   atol=1e-12)
        assert curve.metadata["inner_iters"] == 2

    def test_unknown_algorithm(self):
        cfg = tiny_config()
        cfg["algorithm"] = {"kind": "kalman"}
        with pytest.raises(ConfigError, match="algorithm.kind"):
            run_experiment(cfg)

    def test_design_metadata_recorded(self):
        cfg = tiny_config()
        cfg["sampling"] = {
            "kind": "design", "problem": "min_rate_convex",
            "mu": 0.1, "rate_target": 0.98, "msd_target_db": -20,
        }
        curve = run_experiment(cfg)
        assert curve.metadata["design_converged"] is True
        assert curve.metadata["design_iterations"] >= 1


def _dense_trial_stream(seed, trial, horizon, probs, std):
    """The per-trial stream drawn all at once: the oracle for draw_blocks."""
    rng = np.random.default_rng(seed + trial)
    masks = rng.random((horizon, probs.shape[0])) < probs
    noise = rng.normal(0.0, std, (horizon, probs.shape[0]))
    return masks, noise


class TestDrawBlocks:
    @pytest.mark.parametrize("trials, horizon, n, steps", [
        (range(0, 3), 23, 7, 5),       # blocks do not divide the horizon
        (range(0, 3), 23, 7, 1),       # one step per block
        (range(0, 3), 23, 7, 40),      # one block longer than the horizon
        (range(64, 70), 17, 7, 4),     # final chunk of fewer than 64 trials
        (range(0, 64), 60, 300, None),  # default cap at the scaled instance
    ])
    def test_blocks_concatenate_to_dense_stream(self, trials, horizon, n, steps):
        rng = np.random.default_rng(0)
        probs = rng.uniform(0.2, 0.9, n)
        std = np.sqrt(rng.uniform(0.005, 0.03, n))
        cap = DRAW_BLOCK if steps is None else steps * len(trials) * n
        blocks = list(draw_blocks(11, trials, horizon, probs, std, cap))
        for masks, noise in blocks:
            assert masks.dtype == np.int8
            assert masks.shape == noise.shape
            assert masks.shape[0] == len(trials) and masks.shape[2] == n
            assert masks.size <= cap
        masks = np.concatenate([b[0] for b in blocks], axis=1)
        noise = np.concatenate([b[1] for b in blocks], axis=1)
        assert masks.shape == (len(trials), horizon, n)
        for c, t in enumerate(trials):
            ref_masks, ref_noise = _dense_trial_stream(11, t, horizon, probs, std)
            np.testing.assert_array_equal(masks[c], ref_masks)
            np.testing.assert_array_equal(noise[c], ref_noise)

    def test_trials_independent_of_chunking(self):
        probs, std = np.full(5, 0.5), np.full(5, 0.1)
        whole = next(draw_blocks(2, range(0, 4), 9, probs, std, DRAW_BLOCK))
        alone = next(draw_blocks(2, [3], 9, probs, std, DRAW_BLOCK))
        np.testing.assert_array_equal(whole[0][3], alone[0][0])
        np.testing.assert_array_equal(whole[1][3], alone[1][0])


def golden_config(algorithm):
    """70 trials: one full chunk of 64 plus a short one."""
    return {
        "seed": 5,
        "trials": 70,
        "horizon": 60,
        "graph": {"kind": "random_geometric", "n": 10, "radius": 0.7},
        "bandlimit": {"size": 3},
        "noise": {"kind": "loguniform", "low": 0.005, "high": 0.03},
        "sampling": {"kind": "strategy", "strategy": "leverage", "m": 6},
        "algorithm": algorithm,
    }


# SHA-256 of curve.csv as written by the previous Monte Carlo engine (whole-
# horizon draws per trial, einsum information update); the streamed kernels
# must reproduce these bytes.
GOLDEN_CURVES = {
    "lms": ({"kind": "lms", "mu": 0.2},
            "ba71575b2f912ddb4ca9c844e8fb96420342eddeb8b966529812a8300e18f314"),
    "rls": ({"kind": "rls", "beta": 0.9},
            "6d9aa694b0e5de649f30d0fea55b57b3a72bab7bce0a4bc35a779ec309d79a65"),
    "drls": ({"kind": "drls", "beta": 0.9, "rho": 20.0, "inner_iters": 2,
              "comm": "complete"},
             "55fa1e2701a059035fbee0061476dbdb774f34b196d2d57007a0cdb1a84763a3"),
}


@pytest.mark.parametrize("kind, block", [
    ("lms", None),
    ("rls", None),
    ("drls", None),
    # 7-step blocks for the full chunk (not a divisor of the horizon), a
    # single block for the short one
    ("lms", 64 * 10 * 7),
    ("rls", 64 * 10 * 7),
])
def test_curve_csv_matches_golden_digest(tmp_path, monkeypatch, kind, block):
    if block is not None:
        monkeypatch.setattr(harness, "DRAW_BLOCK", block)
    algorithm, digest = GOLDEN_CURVES[kind]
    cfg = golden_config(algorithm)
    if kind == "drls":
        cfg["trials"], cfg["horizon"] = 2, 30
    path = tmp_path / "curve.csv"
    write_curve_csv(run_experiment(cfg), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# SHA-256 of comparison.csv for configs/compare_sampling.yaml: the baseline
# rows as written by the per-prefix eigvalsh loop and the eigvalsh-per-
# candidate determinant greedy, the designed rows by the log-barrier engine.
GOLDEN_COMPARISON = "6cd319a481e22bc8ded3f589870e1ff55a6c864ce3feec2b318292653caf63f1"


def test_comparison_csv_matches_golden_digest(tmp_path):
    config = Path(__file__).resolve().parent.parent / "configs" / "compare_sampling.yaml"
    path = tmp_path / "comparison.csv"
    write_compare_csv(compare_sampling(load_config(config)), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_COMPARISON


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: this test process may already hold scipy
    src = os.path.dirname(os.path.dirname(graphadapt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, graphadapt.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_batched_kernels_match_single_trial_filters():
    cfg = tiny_config()
    cfg.update(seed=9, trials=5, horizon=40)
    cfg["graph"] = {"kind": "random_geometric", "n": 12, "radius": 0.6}
    cfg["noise"] = {"kind": "loguniform", "low": 0.005, "high": 0.03}
    cfg["sampling"] = {"kind": "explicit",
                       "p": np.linspace(0.3, 0.9, 12).round(3).tolist()}
    mu, beta, delta = 0.3, 0.9, 1e-2
    setup = build_setup(cfg)
    probs, _ = resolve_sampling(setup)
    bl, x_true = setup.bandlimit, setup.x_true
    masks, noise = next(draw_blocks(setup.seed, range(5), 40, probs.probs,
                                    setup.noise.std, DRAW_BLOCK))
    ref_lms = np.zeros(40)
    ref_rls = np.zeros(40)
    for c in range(5):
        lms, rls = lms_init(bl, mu), rls_init(bl, beta, delta)
        for t in range(40):
            ref_lms[t] += float(np.sum((lms.estimate - x_true) ** 2))
            ref_rls[t] += float(np.sum((rls_estimate(rls, bl) - x_true) ** 2))
            draw, y = SamplingDraw(masks[c, t]), x_true + noise[c, t]
            lms = lms_step(lms, y, draw, bl)
            rls = rls_step(rls, y, draw, setup.noise, bl)
    cfg["algorithm"] = {"kind": "lms", "mu": mu}
    np.testing.assert_allclose(run_experiment(cfg).msd_linear, ref_lms / 5, rtol=1e-10)
    cfg["algorithm"] = {"kind": "rls", "beta": beta, "delta": delta}
    np.testing.assert_allclose(run_experiment(cfg).msd_linear, ref_rls / 5, rtol=1e-10)


class TestLearningCurve:
    def test_steady_state_window(self):
        y = np.concatenate([np.full(30, 5.0), np.full(10, 1.0)])
        curve = LearningCurve(msd_linear=y)
        # final quarter of 40 samples is exactly the tail of ones
        assert curve.steady_state_linear() == pytest.approx(1.0)
        assert curve.steady_state_db() == pytest.approx(0.0, abs=1e-12)

    def test_msd_db_clips_zeros(self):
        curve = LearningCurve(msd_linear=np.array([1.0, 0.0]))
        assert np.isfinite(curve.msd_db).all()


class TestFitRate:
    def test_exact_geometric(self):
        t = np.arange(300)
        y = 4.0 * 0.93 ** t
        assert fit_rate(y) == pytest.approx(0.93, abs=1e-6)

    def test_constant_curve(self):
        assert fit_rate(np.full(50, 2.5)) == pytest.approx(1.0, abs=1e-12)

    def test_geometric_plus_floor(self):
        # transient window stops at the 3 dB boundary, so a noise floor
        # far below the initial error barely perturbs the fit
        t = np.arange(600)
        y = 100.0 * 0.95 ** t + 1e-6
        assert fit_rate(y) == pytest.approx(0.95, abs=5e-3)

    def test_accepts_learning_curve(self):
        y = 2.0 * 0.9 ** np.arange(200)
        assert fit_rate(LearningCurve(msd_linear=y)) == pytest.approx(0.9, abs=1e-6)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            fit_rate(np.array([1.0]))


def test_compare_sampling_structure():
    cfg = tiny_config()
    cfg["compare"] = {"rate_targets": [0.99, 0.98], "msd_target_db": -17,
                      "mu": 0.1, "random_seeds": 20}
    rows = compare_sampling(cfg)
    assert len(rows) == 8  # 4 strategies x 2 targets
    strategies = {r["strategy"] for r in rows}
    assert strategies == {"designed", "max_det", "leverage", "uniform"}
    for row in rows:
        if row["strategy"] == "designed":
            assert row["sampling_rate_std"] == 0.0
    by_target = {}
    for row in rows:
        by_target.setdefault(row["rate_target"], {})[row["strategy"]] = row
    for target, per in by_target.items():
        designed = per["designed"]["sampling_rate"]
        assert designed <= per["uniform"]["sampling_rate"] + 1e-9
        assert designed <= per["max_det"]["sampling_rate"] + 1e-9
        assert designed <= per["leverage"]["sampling_rate"] + 1e-9


def test_compare_sampling_needs_section():
    with pytest.raises(ConfigError, match="compare"):
        compare_sampling(tiny_config())


# ------------------------------------------------------------ file outputs


def test_curve_csv_schema(tmp_path):
    curve = run_experiment(tiny_config())
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, str(path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 80
    assert set(rows[0]) == {"iteration", "msd_linear", "msd_db",
                            "theory_msd_db", "theory_rate"}
    assert float(rows[0]["msd_linear"]) == pytest.approx(curve.msd_linear[0], rel=1e-10)
    assert rows[-1]["iteration"] == "79"


def _reject_constant(name):
    raise ValueError(f"meta.json holds {name}, which is not JSON")


def test_metadata_json_round_trip(tmp_path):
    # RLS and DRLS have no rate prediction: the key is left out, not NaN
    for algorithm in ({"kind": "lms", "mu": 0.1}, {"kind": "rls", "beta": 0.9},
                      {"kind": "drls", "beta": 0.95, "rho": 20.0, "inner_iters": 2,
                       "comm": "complete"}):
        cfg = dict(tiny_config(), trials=3, horizon=40, algorithm=algorithm)
        curve = run_experiment(cfg)
        path = tmp_path / "meta.json"
        write_metadata(curve, cfg, str(path))
        payload = json.loads(path.read_text(), parse_constant=_reject_constant)
        assert payload["config"]["seed"] == 3
        assert payload["metadata"]["algorithm"] == algorithm["kind"]
        assert payload["metadata"]["config_hash"] == config_hash(cfg)
        assert ("theory_rate" in payload["metadata"]) == (algorithm["kind"] == "lms")


def test_outputs_are_reproducible(tmp_path):
    cfg = tiny_config()
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_curve_csv(run_experiment(cfg), str(first))
    write_curve_csv(run_experiment(cfg), str(second))
    assert first.read_bytes() == second.read_bytes()


# -------------------------------------------------------------------- CLI


class TestCli:
    def test_gen_graph(self, tmp_path, capsys):
        code = cli.main(["gen-graph", "--config", dump(tmp_path, tiny_config()),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "graph.txt").exists()
        assert "nodes" in capsys.readouterr().out

    def test_run_lms_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run-lms", "--config", dump(tmp_path, tiny_config()),
                         "--out", str(out)])
        assert code == 0
        assert (out / "curve.csv").exists()
        assert (out / "meta.json").exists()
        assert "steady-state deviation" in capsys.readouterr().out

    def test_seed_and_trials_overrides(self, tmp_path, capsys):
        out = tmp_path / "out"
        cli.main(["run-lms", "--config", dump(tmp_path, tiny_config()),
                  "--out", str(out), "--seed", "9", "--trials", "2"])
        capsys.readouterr()
        payload = json.loads((out / "meta.json").read_text())
        assert payload["metadata"]["seed"] == 9
        assert payload["metadata"]["trials"] == 2

    def test_kind_mismatch_exits_2(self, tmp_path, capsys):
        code = cli.main(["run-rls", "--config", dump(tmp_path, tiny_config()),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = cli.main(["run-lms", "--config", str(tmp_path / "absent.yaml"),
                         "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_theory_command(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["theory", "--config", dump(tmp_path, tiny_config()),
                         "--out", str(out)])
        assert code == 0
        with open(out / "theory.csv") as fh:
            rows = {r["quantity"]: float(r["value"]) for r in csv.DictReader(fh)}
        assert set(rows) == {"msd_linear", "msd_db", "convergence_rate", "step_bound"}
        # full sampling and white noise: (mu/2) |F| sigma^2
        assert rows["msd_linear"] == pytest.approx(0.05 * 3 * 0.01, rel=1e-9)

    def test_design_command(self, tmp_path, capsys):
        cfg = tiny_config()
        cfg["sampling"] = {
            "kind": "design", "problem": "min_rate_convex",
            "mu": 0.1, "rate_target": 0.98, "msd_target_db": -20,
        }
        out = tmp_path / "out"
        code = cli.main(["design", "--config", dump(tmp_path, cfg), "--out", str(out)])
        assert code == 0
        assert (out / "design_p.csv").exists()
        assert (out / "design_trace.csv").exists()
        assert "sampling rate" in capsys.readouterr().out

    def test_design_command_needs_design_sampling(self, tmp_path, capsys):
        code = cli.main(["design", "--config", dump(tmp_path, tiny_config()),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "design" in capsys.readouterr().err

    @pytest.mark.parametrize("field, command, edits", [
        ("noise.sigma_sq", "run-lms", {"noise": {"kind": "uniform", "sigma_sq": -1}}),
        ("sampling.m", "run-lms",
         {"sampling": {"kind": "strategy", "strategy": "uniform", "m": 13}}),
        ("algorithm.rho", "run-drls", {"algorithm": {"kind": "drls", "beta": 0.95, "rho": -1}}),
        ("trials", "run-lms", {"trials": 2.7}),
        ("horizon", "run-lms", {"horizon": True}),
        # full sampling puts the step bound at 2; |1 - mu| = 4 overflows in 400 steps
        ("algorithm.mu", "run-lms",
         {"trials": 2, "horizon": 400, "algorithm": {"kind": "lms", "mu": 5}}),
        ("algorithm.mu", "theory", {"algorithm": {"kind": "lms"}}),
        ("algorithm.mu", "theory", {"algorithm": {"kind": "lms", "mu": -1}}),
        # the same over 50 steps stays finite (about 4^50) but ends above the
        # initial error and the noise floor, with or without a signal
        ("algorithm.mu", "run-lms",
         {"trials": 2, "horizon": 50, "algorithm": {"kind": "lms", "mu": 5}}),
        ("algorithm.mu", "run-lms",
         {"trials": 2, "horizon": 50, "signal": {"scale": 0.0},
          "algorithm": {"kind": "lms", "mu": 5}}),
        ("algorithm.rho", "run-drls",
         {"trials": 2, "horizon": 40,
          "algorithm": {"kind": "drls", "beta": 0.95, "rho": 5000, "comm": "ring"}}),
        ("algorithm.rho", "run-drls",
         {"trials": 2, "horizon": 40, "signal": {"scale": 0.0},
          "algorithm": {"kind": "drls", "beta": 0.95, "rho": 5000, "comm": "ring"}}),
        ("compare.random_seeds", "compare-sampling",
         {"compare": dict(COMPARE, random_seeds="two")}),
        ("compare.rate_targets", "compare-sampling",
         {"compare": dict(COMPARE, rate_targets=[1.5])}),
        ("compare.mu", "compare-sampling", {"compare": dict(COMPARE, mu=-0.1)}),
        ("compare.msd_target_db", "compare-sampling",
         {"compare": dict(COMPARE, msd_target_db="x")}),
        # zero permutations used to average nothing into NaN uniform rows
        ("compare.random_seeds", "compare-sampling",
         {"compare": dict(COMPARE, random_seeds=0)}),
        ("sampling.p_max", "design", {"sampling": dict(DESIGN, p_max=[0.5, 0.5])}),
        ("sampling.rate_target", "design", {"sampling": dict(DESIGN, rate_target=1.0)}),
        ("sampling.budget", "design",
         {"sampling": dict(DESIGN, problem="sca_min_msd", budget=-1)}),
        ("sampling.msd_target", "design",
         {"sampling": {k: v for k, v in DESIGN.items() if k != "msd_target_db"}}),
        ("sampling.mu", "design", {"sampling": dict(DESIGN, mu=0)}),
    ])
    def test_invalid_config_exits_2_naming_the_field(self, tmp_path, capsys, field,
                                                     command, edits):
        out = tmp_path / "out"
        code = cli.main([command, "--config", dump(tmp_path, dict(tiny_config(), **edits)),
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field}:")
        for name in ("curve.csv", "meta.json", "theory.csv", "comparison.csv"):
            assert not (out / name).exists()

    @pytest.mark.parametrize("name", sorted(
        path.name for path in CONFIG_DIR.glob("*.yaml")
        if load_config(path)["sampling"]["kind"] == "design"))
    def test_shipped_design_configs_meet_their_constraints(self, tmp_path, capsys, name):
        config = load_config(CONFIG_DIR / name)
        out = tmp_path / "out"
        assert cli.main(["design", "--config", str(CONFIG_DIR / name), "--out", str(out)]) == 0
        capsys.readouterr()
        table = np.loadtxt(out / "design_p.csv", delimiter=",", skiprows=1)
        p, p_max = table[:, 1], table[:, 3]
        assert (p >= 0).all() and (p <= p_max).all()
        setup = build_setup(config)
        bl, noise, scfg = setup.bandlimit, setup.noise, config["sampling"]
        probs = graphadapt.SamplingProbabilities(probs=p)
        target = 10.0 ** (scfg.get("msd_target_db", 0.0) / 10.0)
        slack = 1.0 + 1e-9
        if scfg["problem"] == "rls":
            assert graphadapt.rls_msd_theory(probs, scfg["beta"], noise, bl) <= target * slack
            return
        mu = scfg["mu"]
        lam_t = (1.0 - scfg["rate_target"]) / (2.0 * mu)
        assert np.linalg.eigvalsh(graphadapt.weighted_gram(bl, p))[0] >= lam_t / slack
        if scfg["problem"] == "min_rate_convex":
            assert graphadapt.lms_msd_upper_bound(probs, mu, noise, bl) <= target * slack
        if scfg["problem"] == "sca_min_rate":
            assert graphadapt.lms_msd_theory(probs, mu, noise, bl) <= target * slack
        if "budget" in scfg:
            assert p.sum() <= scfg["budget"] * slack

    @pytest.mark.parametrize("scale", [0.01, 0.0])
    @pytest.mark.parametrize("command, algorithm", [
        ("run-lms", {"kind": "lms", "mu": 0.1}),
        ("run-drls", {"kind": "drls", "beta": 0.95, "rho": 20.0, "inner_iters": 3}),
    ])
    def test_low_snr_stable_run_exits_0(self, tmp_path, capsys, scale, command,
                                        algorithm):
        # the initial error is the signal energy, so a stable run at low
        # signal-to-noise ratio settles above it, at its noise floor
        cfg = dict(tiny_config(), signal={"scale": scale}, algorithm=algorithm)
        out = tmp_path / "out"
        code = cli.main([command, "--config", dump(tmp_path, cfg), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        meta = json.loads((out / "meta.json").read_text())["metadata"]
        initial = np.loadtxt(out / "curve.csv", delimiter=",", skiprows=1, max_rows=1)[1]
        assert 10.0 ** (meta["steady_state_db"] / 10.0) > initial

    def test_infeasible_design_exits_2(self, tmp_path, capsys):
        cfg = tiny_config()
        cfg["sampling"] = {
            "kind": "design", "problem": "rls", "beta": 0.95,
            "msd_target_db": -80,
        }
        code = cli.main(["design", "--config", dump(tmp_path, cfg),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
