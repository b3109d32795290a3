"""Experiment harness: config handling, Monte Carlo runs, file outputs, CLI."""

import csv
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

import graphadapt
import reference
from graphadapt import cli, harness, sampling
from graphadapt.filters import lms_msd_theory, lms_msd_upper_bound, rls_msd_theory
from graphadapt.graphs import connected_components, random_geometric_graph
from graphadapt.harness import (
    DRAW_BLOCK,
    ConfigError,
    LearningCurve,
    build_graph,
    build_setup,
    compare_sampling,
    config_hash,
    fit_rate,
    load_config,
    resolve_sampling,
    run_experiment,
    to_db,
    write_compare_csv,
    write_curve_csv,
    write_metadata,
    write_per_node_csv,
)
from graphadapt.sampling import SamplingProbabilities, draw_blocks, weighted_gram


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
DATA_DIR = Path(__file__).resolve().parent / "data"

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


@pytest.mark.parametrize("version", [2, True, 1.0])
def test_load_config_rejects_bad_version(tmp_path, version):
    cfg = dict(tiny_config(), version=version)
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

    @staticmethod
    def _counting_draws(monkeypatch):
        seeds = []

        def draw(n, radius, seed):
            seeds.append(seed)
            return random_geometric_graph(n, radius, seed)

        monkeypatch.setattr(harness, "random_geometric_graph", draw)
        return seeds

    def test_redraws_a_disconnected_graph(self, monkeypatch):
        # draw 0 of this instance is disconnected and draw 1 is connected
        assert connected_components(random_geometric_graph(20, 0.35, 0)) > 1
        seeds = self._counting_draws(monkeypatch)
        g = build_graph({"graph": {"kind": "random_geometric", "n": 20, "radius": 0.35,
                                   "seed": 0}})
        assert seeds == [0, 1]
        np.testing.assert_array_equal(g.weights, random_geometric_graph(20, 0.35, 1).weights)

    def test_gives_up_after_200_disconnected_draws(self, monkeypatch):
        seeds = self._counting_draws(monkeypatch)
        with pytest.raises(ConfigError, match=r"^graph: no connected draw in 200 attempts"):
            build_graph({"graph": {"kind": "random_geometric", "n": 30, "radius": 0.05}})
        assert seeds == list(range(200))


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


def _kept(blocks, overwrite):
    """Copies of every block; with ``overwrite`` the consumer then adds to
    each yielded noise block in place, as the Monte Carlo loop adds the
    signal, while the next block is being filled."""
    kept = []
    for masks, noise in blocks:
        kept.append((masks.copy(), noise.copy()))
        if overwrite:
            noise += np.arange(noise.shape[-1])
    return kept


class _FailsOffTheMainThread(np.ndarray):
    """Noise levels whose every ufunc fails on any thread but the main one,
    once ``after`` calls have gone through; ``failed`` is set on failing."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        with self.lock:
            self.calls += 1
            fail = (self.calls > self.after
                    and threading.current_thread() is not threading.main_thread())
        if fail:
            self.failed.set()
            raise KeyError("filled off the main thread")
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    @classmethod
    def of(cls, values, after):
        std = np.asarray(values, dtype=float).view(cls)
        std.lock, std.calls, std.after = threading.Lock(), 0, after
        std.failed = threading.Event()
        return std


class TestDrawBlocks:
    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("workers", [1, 2, 3])  # 3 exceeds the trials of some rows
    @pytest.mark.parametrize("trials, horizon, n, steps", [
        (range(0, 3), 23, 7, 5),       # blocks do not divide the horizon
        (range(0, 3), 23, 7, 1),       # one step per block
        (range(0, 3), 23, 7, 40),      # one block longer than the horizon
        (range(64, 70), 17, 7, 4),     # final chunk of fewer than 64 trials
        (range(0, 64), 60, 300, None),  # the harness's block at the scaled instance
        ([5], 11, 7, 3),               # a one-trial stream
    ])
    def test_blocks_concatenate_to_dense_stream(self, monkeypatch, workers, overwrite, trials,
                                                horizon, n, steps):
        monkeypatch.setattr(sampling, "_WORKERS", workers)
        rng = np.random.default_rng(0)
        probs = rng.uniform(0.2, 0.9, n)
        std = np.sqrt(rng.uniform(0.005, 0.03, n))
        cap = DRAW_BLOCK // 2 if steps is None else steps * len(trials) * n
        # a block stays valid only until the next one is drawn: keep copies
        blocks = _kept(draw_blocks(11, trials, horizon, probs, std, cap), overwrite)
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

    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_zero_one_probabilities_match_dense_stream(self, monkeypatch, workers, overwrite):
        # no uniforms are drawn for fixed masks; the noise must not move, and
        # both buffers hold the fixed masks
        monkeypatch.setattr(sampling, "_WORKERS", workers)
        n, horizon, trials = 6, 19, range(2, 5)
        probs = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        std = np.sqrt(np.linspace(0.005, 0.03, n))
        blocks = _kept(draw_blocks(7, trials, horizon, probs, std, 4 * len(trials) * n),
                       overwrite)
        assert len(blocks) == 5
        masks = np.concatenate([b[0] for b in blocks], axis=1)
        noise = np.concatenate([b[1] for b in blocks], axis=1)
        for c, t in enumerate(trials):
            ref_masks, ref_noise = _dense_trial_stream(7, t, horizon, probs, std)
            np.testing.assert_array_equal(masks[c], ref_masks)
            np.testing.assert_array_equal(noise[c], ref_noise)

    def test_more_workers_than_cores_match_dense_stream(self, monkeypatch):
        # four threads switching every microsecond still write each trial's
        # bytes, while the consumer overwrites the block it holds
        monkeypatch.setattr(sampling, "_WORKERS", 4)
        n, horizon, trials = 9, 30, range(3, 9)
        probs, std = np.full(n, 0.6), np.full(n, 0.2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            blocks = _kept(draw_blocks(5, trials, horizon, probs, std, 7 * len(trials) * n),
                           True)
        finally:
            sys.setswitchinterval(interval)
        masks = np.concatenate([b[0] for b in blocks], axis=1)
        noise = np.concatenate([b[1] for b in blocks], axis=1)
        for c, t in enumerate(trials):
            ref_masks, ref_noise = _dense_trial_stream(5, t, horizon, probs, std)
            np.testing.assert_array_equal(masks[c], ref_masks)
            np.testing.assert_array_equal(noise[c], ref_noise)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_no_thread_outlives_the_stream(self, monkeypatch, workers):
        # blocks of 16 x 50 x 300 entries take milliseconds to fill, so a
        # background fill is still running when the consumer stops early
        monkeypatch.setattr(sampling, "_WORKERS", workers)
        n, trials, horizon, cap = 300, range(16), 200, 16 * 50 * 300
        probs, std = np.full(n, 0.5), np.full(n, 0.1)
        before = threading.active_count()
        for _ in draw_blocks(1, trials, horizon, probs, std, cap):
            # with one worker no thread ever starts
            assert before <= threading.active_count() <= before + workers - 1
        assert threading.active_count() == before
        blocks = draw_blocks(1, trials, horizon, probs, std, cap)
        next(blocks)
        blocks.close()
        assert threading.active_count() == before
        with pytest.raises(RuntimeError, match="the consumer failed"):
            for _ in draw_blocks(1, trials, horizon, probs, std, cap):
                raise RuntimeError("the consumer failed")
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_pool_of_helpers_fills_every_block(self, monkeypatch, workers):
        # twenty one-step blocks, yet a helper thread starts at most once per
        # stream, not once per block
        monkeypatch.setattr(sampling, "_WORKERS", workers)
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        n, trials, horizon = 7, range(4), 20
        blocks = _kept(draw_blocks(3, trials, horizon, np.full(n, 0.5), np.full(n, 0.1),
                                   len(trials) * n), True)
        assert len(blocks) == horizon
        assert len(started) <= workers - 1

    def test_worker_error_is_raised_in_the_caller(self, monkeypatch):
        # every trial's *= std fails, on the calling thread and the other one
        monkeypatch.setattr(sampling, "_WORKERS", 2)
        before = threading.active_count()
        with pytest.raises(ValueError):
            next(draw_blocks(0, range(4), 9, np.full(5, 0.5), np.full(6, 0.1), DRAW_BLOCK))
        assert threading.active_count() == before
        # the first block's four trials go through; the second block's fill
        # then fails on the background thread, while the consumer holds the
        # first: the error surfaces at the next request, or at close
        for finish in (next, lambda blocks: blocks.close()):
            std = _FailsOffTheMainThread.of(np.full(5, 0.1), after=4)
            blocks = draw_blocks(0, range(4), 9, np.full(5, 0.5), std, 4 * 3 * 5)
            next(blocks)
            assert std.failed.wait(timeout=10)
            with pytest.raises(KeyError):
                finish(blocks)
            assert threading.active_count() == before

    def test_trials_independent_of_chunking(self):
        probs, std = np.full(5, 0.5), np.full(5, 0.1)
        whole = next(draw_blocks(2, range(0, 4), 9, probs, std, DRAW_BLOCK))
        alone = next(draw_blocks(2, [3], 9, probs, std, DRAW_BLOCK))
        np.testing.assert_array_equal(whole[0][3], alone[0][0])
        np.testing.assert_array_equal(whole[1][3], alone[1][0])


def golden_config(algorithm):
    """70 trials: a single pass at the shipped TRIAL_CHUNK, one full pass
    plus a short one at a TRIAL_CHUNK of 64."""
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



# the draw fill's thread count: none besides the consumer, one, two
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("kind, block", [
    ("lms", None),
    ("rls", None),
    ("drls", None),
    # the single pass of 70 trials in ten 6-step blocks, two buffers of them
    ("lms", 2 * 64 * 10 * 7),
    ("rls", 2 * 64 * 10 * 7),
    # DRLS passes bound their (trials, n, f, f) state: one-trial passes in
    # 7-step blocks, then both trials in one pass of 5-step blocks
    ("drls", 2 * 10 * 7),
    ("drls", 2 * 10 * 10),
])
def test_curve_csv_matches_golden_digest(tmp_path, monkeypatch, kind, block, workers):
    monkeypatch.setattr(sampling, "_WORKERS", workers)
    if block is not None:
        monkeypatch.setattr(harness, "DRAW_BLOCK", block)
    algorithm, digest = GOLDEN_CURVES[kind]
    cfg = golden_config(algorithm)
    if kind == "drls":
        cfg["trials"], cfg["horizon"] = 2, 30
    path = tmp_path / "curve.csv"
    write_curve_csv(run_experiment(cfg), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("kind", ["lms", "rls"])
@pytest.mark.parametrize("chunk", [64, 32])
def test_curve_csv_matches_golden_digest_over_passes(tmp_path, monkeypatch, kind, chunk,
                                                     workers):
    # two passes (64 + 6 trials) or three (32 + 32 + 6) sum to the same bytes;
    # the full passes stream 7- or 14-step blocks, the short one a single block
    monkeypatch.setattr(harness, "TRIAL_CHUNK", chunk)
    test_curve_csv_matches_golden_digest(tmp_path, monkeypatch, kind, 2 * 64 * 10 * 7,
                                         workers)


# SHA-256 of meta.json for the GOLDEN_CURVES runs, in one pass: the
# closed-form theory fields (theory_msd_*, and for LMS theory_rate and
# step_bound), the steady state and DRLS's inner_iters, as written while each
# algorithm kind was still dispatched by its own branches.  meta.json keeps
# every bit of a float, and a sum over several passes can move the last one.
GOLDEN_META = {
    "lms": "b185b2ce882b6047d756b324f8848e5a49c188d8439651c7059916fd9737335d",
    "rls": "da32e5b7ad4d571f7578bd978b00aac4b17ce2cfee27a5fee1667f8e79d83c91",
    "drls": "a9021828608d6dd6cc5fdc20230b916d11dc2a7ff36f4de16f85cf65249bf899",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_META))
def test_meta_json_matches_golden_digest(tmp_path, kind):
    cfg = golden_config(GOLDEN_CURVES[kind][0])
    if kind == "drls":
        cfg["trials"], cfg["horizon"] = 2, 30
    path = tmp_path / "meta.json"
    write_metadata(run_experiment(cfg), cfg, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_META[kind]


# SHA-256 of comparison.csv for configs/compare_sampling.yaml: the baseline
# rows as written by the per-prefix eigvalsh loop and the eigvalsh-per-
# candidate determinant greedy, the designed rows by the log-barrier engine.
GOLDEN_COMPARISON = "6cd319a481e22bc8ded3f589870e1ff55a6c864ce3feec2b318292653caf63f1"


def test_comparison_csv_matches_golden_digest(tmp_path):
    config = Path(__file__).resolve().parent.parent / "configs" / "compare_sampling.yaml"
    path = tmp_path / "comparison.csv"
    write_compare_csv(compare_sampling(load_config(config)), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_COMPARISON


# SHA-256 of theory.csv as written by the `theory` command while the design
# evaluators still formed their own Gram matrices: the LMS rows pin the MSD,
# convergence_rate and step_bound, the RLS rows the designed MSD.
GOLDEN_THEORY = {
    "lms_full.yaml": "6fdf188ea7c447a97203d13ca0a552e509c02fd765612c527f8481d06ea45f49",
    "rls_designed.yaml": "da9aad8fdd3ddf9e2693e47fa21cd26f3fe7d569e77129f9675d8b4ed69091c6",
    # the RLS rows of a DRLS run
    "drls.yaml": "a6234ad61b8695fb36e36053932a73babf1c3e671d4949cbb533b17f99292984",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_THEORY))
def test_theory_csv_matches_golden_digest(tmp_path, capsys, name):
    assert cli.main(["theory", "--config", str(CONFIG_DIR / name), "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "theory.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_THEORY[name]


# SHA-256 of design_p.csv and design_trace.csv as written by the `design`
# command on the shipped design configs.
GOLDEN_DESIGN_OUTPUTS = {
    "design_min_msd.yaml":
        ("3abf61dc76d6969438fea516ae0214dc1a03866995040f4d2d0eb8a5d2b2301c",
         "362b571e6bbd7031d2080592fdab2933d6224c7338f058abfd71077e24303383"),
    "design_min_rate.yaml":
        ("83f38f551407b5eaa997514a545ae82663dceb08abe37de4992dedd64ab8872f",
         "670a5a1999521056be9245e1e971b6081d841eb349d19047540f1c332f09bbe7"),
    "rls_designed.yaml":
        ("1c71a632b76d99ce7179ff01684bf68356358372b793a7a311dcfe509fc64302",
         "d403b80375630a1312c4cad3b02cc5c0fdc766253a940c77abcadcde3c25a766"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DESIGN_OUTPUTS))
def test_design_csvs_match_golden_digest(tmp_path, capsys, name):
    assert cli.main(["design", "--config", str(CONFIG_DIR / name), "--out", str(tmp_path)]) == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("design_p.csv", "design_trace.csv"))
    assert digests == GOLDEN_DESIGN_OUTPUTS[name]


def test_design_reads_no_algorithm_field_its_problem_does_not(tmp_path, capsys):
    # min_rate_convex never reads beta, so beta = 1, which no RLS run
    # accepts, cannot fail it: it used to be rejected as a design field
    config = dict(load_config(CONFIG_DIR / "design_min_rate.yaml"),
                  algorithm={"kind": "rls", "beta": 1.0})
    assert cli.main(["design", "--config", dump(tmp_path, config), "--out", str(tmp_path)]) == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("design_p.csv", "design_trace.csv"))
    assert digests == GOLDEN_DESIGN_OUTPUTS["design_min_rate.yaml"]


# the names the package once re-exported, by the module that defines them
MODULE_NAMES = {
    "graphs": ["Bandlimit", "Graph", "GraphFormatError", "build_laplacian",
               "connected_components", "eigendecompose", "load_edge_list",
               "random_geometric_graph", "save_edge_list"],
    "sampling": ["NoiseModel", "ReconstructabilityError", "SamplingProbabilities", "draw_blocks",
                 "leverage_score_probabilities", "leverage_scores", "max_det_greedy",
                 "reconstructability_lambda", "uniform_random_set", "weighted_gram"],
    "filters": ["lms_msd_theory", "lms_msd_upper_bound", "lms_rate_theory", "lms_step_bound",
                "lms_theory_report", "lms_update", "rls_msd_theory", "rls_outer_table",
                "rls_theory_report", "rls_update"],
    "design": ["DesignSpec", "InfeasibleDesignError", "dinkelbach_min_msd", "sca_min_msd",
               "sca_min_rate", "solve_min_rate_convex", "solve_rls_design"],
    "distributed": ["CommGraph", "DrlsConfig", "drls_local_update", "drls_multiplier_update",
                    "drls_network_init", "drls_round", "drls_simulate"],
    "harness": ["build_setup", "compare_sampling"],
}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in MODULE_NAMES.items() for name in names])
def test_public_name_resolves_in_its_module(module, name):
    assert getattr(importlib.import_module(f"graphadapt.{module}"), name).__module__ == \
        f"graphadapt.{module}"


def _loaded_by_import(package, modules="graphadapt, graphadapt.cli"):
    """The modules of ``package`` that ``import <modules>`` loads, in a fresh
    interpreter: this test process may already hold them."""
    src = os.path.dirname(os.path.dirname(graphadapt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = (f"import sys, {modules}; "
             f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_package_import_loads_no_submodule():
    assert _loaded_by_import("graphadapt", "graphadapt") == "['graphadapt']"


def test_cli_import_loads_no_scipy():
    assert _loaded_by_import("scipy") == "[]"


def test_import_loads_no_thread_pool():
    # concurrent.futures (and the logging it imports) loads only when a draw
    # stream starts its pool
    assert _loaded_by_import("concurrent") == "[]"


def test_benchmark_lookup_names_resolve():
    # the benchmark wraps library functions where their callers look them
    # up; a renamed or moved function must fail here, not in a traced run
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "benchmarks"), str(root / "src"), os.environ.get("PYTHONPATH"))
        if p))
    probe = ("import checks, worker\n"
             "from graphadapt import harness\n"
             "worker.instrument(worker.Tracer())\n"
             "worker._probe_messages(harness, [])\n")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("workload", ["mc-scaled", "paper"])
def test_benchmark_traced_run_passes_its_checks(tmp_path, workload):
    # the benchmark's traced path at its smoke size: every wrapped lookup is
    # on a working call path, every job passes its output checks, and the
    # DRLS runner reaches drls_simulate where the message probe replaced it
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "worker.py"), "run", "--workload", workload,
         "--seed", "0", "--smoke", "--trace", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    jobs = json.loads(result.stdout.strip().splitlines()[-1])["jobs"]
    assert jobs
    for job in jobs:
        assert (job["code"], job["problem"]) == (0, None), (job["command"], job["error"])
    drls = [job for job in jobs if job["command"] == "run-drls"]
    assert len(drls) == (workload == "paper")
    for job in drls:
        assert job["messages"] and job["quantities"]["messages"] == sum(job["messages"]) > 0


def _check_against_single_trial_filters(trials):
    """The LMS and RLS curves of a 12-vertex explicit-sampling run must match
    the sequential vertex-domain recursions of ``reference`` fed with each
    trial's dense stream."""
    cfg = tiny_config()
    cfg.update(seed=9, trials=trials, horizon=40)
    cfg["graph"] = {"kind": "random_geometric", "n": 12, "radius": 0.6}
    cfg["noise"] = {"kind": "loguniform", "low": 0.005, "high": 0.03}
    cfg["sampling"] = {"kind": "explicit",
                       "p": np.linspace(0.3, 0.9, 12).round(3).tolist()}
    mu, beta, delta = 0.3, 0.9, 1e-2
    setup = build_setup(cfg)
    probs, _ = resolve_sampling(setup)
    u, x_true = setup.bandlimit.basis_slice, setup.x_true
    inv_var, f = 1.0 / setup.noise.variances, setup.bandlimit.size
    ref_lms = np.zeros(40)
    ref_rls = np.zeros(40)
    for c in range(trials):
        masks, noise = _dense_trial_stream(setup.seed, c, 40, probs.probs, setup.noise.std)
        x, psi, psiv = np.zeros(12), delta * np.eye(f), np.zeros(f)
        for t in range(40):
            ref_lms[t] += float(np.sum((x - x_true) ** 2))
            ref_rls[t] += float(np.sum((reference.rls_estimate(psi, psiv, u) - x_true) ** 2))
            y = x_true + noise[t]
            x = reference.lms_step(x, y, masks[t], u, mu)
            psi, psiv = reference.rls_step(psi, psiv, y, masks[t], u, inv_var, beta)
    cfg["algorithm"] = {"kind": "lms", "mu": mu}
    np.testing.assert_allclose(run_experiment(cfg).msd_linear, ref_lms / trials, rtol=1e-10)
    cfg["algorithm"] = {"kind": "rls", "beta": beta, "delta": delta}
    np.testing.assert_allclose(run_experiment(cfg).msd_linear, ref_rls / trials, rtol=1e-10)


def test_batched_kernels_match_single_trial_filters():
    _check_against_single_trial_filters(5)


@pytest.mark.parametrize("chunk, block", [
    (None, None),         # all 70 trials in one pass and one block
    (32, 32 * 12 * 7),    # three passes, the last short; 7-step blocks
])
def test_many_trials_match_single_trial_filters(monkeypatch, chunk, block):
    # the reference runs one trial at a time in vertex coordinates, so it
    # rounds differently from the batched kernels: hence rtol
    if chunk is not None:
        monkeypatch.setattr(harness, "TRIAL_CHUNK", chunk)
        monkeypatch.setattr(harness, "DRAW_BLOCK", block)
    _check_against_single_trial_filters(70)


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

    def test_per_node_csv_needs_per_node_curves(self, tmp_path):
        with pytest.raises(ValueError, match="no per-node trajectories"):
            write_per_node_csv(LearningCurve(msd_linear=np.ones(3)), tmp_path / "nodes.csv")

    def test_steady_state_db_clips_zero(self):
        # a run with no signal and one instant has an all-zero curve
        curve = LearningCurve(msd_linear=np.zeros(1))
        assert curve.steady_state_db() == curve.msd_db[0] == -3000.0


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


@pytest.mark.filterwarnings("error")
def test_compare_sampling_unreachable_target_gives_nan_rows():
    # rate target 0.001 needs lambda_min 4.995, out of reach of every
    # strategy; the uniform row used to warn of an all-NaN mean and std
    cfg = dict(tiny_config(), graph={"kind": "random_geometric", "n": 12, "radius": 0.6},
               compare={"p_max": 0.3, "rate_targets": [0.99, 0.001], "msd_target_db": -20,
                        "random_seeds": 5})
    rows = compare_sampling(cfg)
    assert [r["strategy"] for r in rows[4:]] == ["designed", "max_det", "leverage", "uniform"]
    assert all(math.isfinite(r["sampling_rate"]) for r in rows[:4])
    assert all(r["rate_target"] == 0.001 and math.isnan(r["sampling_rate"]) for r in rows[4:])
    assert math.isnan(rows[-1]["sampling_rate_std"])


def test_compare_mu_defaults_to_the_algorithm_mu():
    # COMPARE's mu is tiny_config()'s algorithm.mu
    without = {k: v for k, v in COMPARE.items() if k != "mu"}
    fallback = compare_sampling(dict(tiny_config(), compare=without))
    assert fallback == compare_sampling(dict(tiny_config(), compare=COMPARE))
    own = compare_sampling(dict(tiny_config(), compare=dict(COMPARE, mu=0.05)))
    designed = [[r["sampling_rate"] for r in rows if r["strategy"] == "designed"]
                for rows in (own, fallback)]
    assert designed[0] != designed[1]


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

    def test_out_that_cannot_be_created_exits_2(self, tmp_path, capsys):
        # an --out naming a regular file used to end in a FileExistsError traceback
        out = tmp_path / "out"
        out.write_text("a file\n")
        code = cli.main(["run-lms", "--config", dump(tmp_path, tiny_config()),
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --out: ")
        assert out.read_text() == "a file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "out"]

    def test_seed_and_trials_overrides(self, tmp_path, capsys):
        out = tmp_path / "out"
        cli.main(["run-lms", "--config", dump(tmp_path, tiny_config()),
                  "--out", str(out), "--seed", "9", "--trials", "2"])
        capsys.readouterr()
        payload = json.loads((out / "meta.json").read_text())
        assert payload["metadata"]["seed"] == 9
        assert payload["metadata"]["trials"] == 2

    def test_edge_list_comm_matches_processing(self, tmp_path, capsys):
        """``algorithm.comm`` set to the processing graph's edge list, as
        gen-graph writes it, gives the same curves as ``comm: processing``."""
        cfg = dict(load_config(CONFIG_DIR / "drls.yaml"), trials=2, horizon=40)
        assert cli.main(["gen-graph", "--config", dump(tmp_path, cfg),
                         "--out", str(tmp_path)]) == 0
        outs = [tmp_path / "processing", tmp_path / "edge_list"]
        for comm, out in zip(("processing", str(tmp_path / "graph.txt")), outs):
            cfg["algorithm"] = dict(cfg["algorithm"], comm=comm)
            assert cli.main(["run-drls", "--config", dump(tmp_path, cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        for name in ("curve.csv", "curve_per_node.csv"):
            assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()

    # every run command on every other kind, with and without the parameter
    # of the configured kind: the mismatch is named before that parameter
    # is read
    @pytest.mark.parametrize("with_parameter", [True, False])
    @pytest.mark.parametrize("command, kind", [
        (f"run-{command}", kind) for command in ("lms", "rls", "drls")
        for kind in ("lms", "rls", "drls") if command != kind])
    def test_kind_mismatch_exits_2(self, tmp_path, capsys, command, kind, with_parameter):
        algorithm = {"kind": kind}
        if with_parameter:
            algorithm.update({"mu": 0.1} if kind == "lms" else {"beta": 0.9})
        code = cli.main([command, "--config", dump(tmp_path, dict(tiny_config(),
                                                                  algorithm=algorithm)),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (f"error: algorithm.kind: {command} needs kind "
                                           f"'{command[4:]}', got '{kind}'\n")

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = cli.main(["run-lms", "--config", str(tmp_path / "absent.yaml"),
                         "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["malformed", "directory"])
    def test_unreadable_config_exits_2_naming_the_path(self, tmp_path, capsys, kind):
        path = tmp_path / "config.yaml"
        if kind == "malformed":
            path.write_text("graph: {kind: random_geometric\n")
        else:
            path.mkdir()
        code = cli.main(["run-lms", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:")

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

    def test_design_step_cap_is_reported(self, tmp_path, capsys, monkeypatch):
        # two Newton steps per centering leave the shipped designs short of
        # the gap: design says so, and run-rls records it in meta.json
        monkeypatch.setattr(graphadapt.design, "_CENTER_STEPS", 2)
        code = cli.main(["design", "--config", str(CONFIG_DIR / "design_min_rate.yaml"),
                         "--out", str(tmp_path / "design")])
        assert code == 0
        assert capsys.readouterr().out.startswith(
            "design stopped with a centering at its step cap after 19 iterations\n")
        out = tmp_path / "rls"
        code = cli.main(["run-rls", "--config", str(CONFIG_DIR / "rls_designed.yaml"),
                         "--out", str(out), "--trials", "2"])
        assert code == 0
        assert json.loads((out / "meta.json").read_text())["metadata"]["design_converged"] is False

    def test_compare_needs_a_step_size(self, tmp_path, capsys):
        cfg = dict(tiny_config(), algorithm={"kind": "rls", "beta": 0.9},
                   compare={k: v for k, v in COMPARE.items() if k != "mu"})
        code = cli.main(["compare-sampling", "--config", dump(tmp_path, cfg),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: compare.mu: required field is missing\n"

    def test_compare_reads_no_algorithm_field_but_mu(self, tmp_path, capsys):
        # compare-sampling never reads beta, so beta = 1 cannot fail it
        cfg = dict(tiny_config(), algorithm={"kind": "rls", "beta": 1.0}, compare=COMPARE)
        out = tmp_path / "out"
        code = cli.main(["compare-sampling", "--config", dump(tmp_path, cfg), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert (out / "comparison.csv").exists()

    def test_design_command_needs_design_sampling(self, tmp_path, capsys, monkeypatch):
        code = cli.main(["design", "--config", dump(tmp_path, tiny_config()),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "design" in capsys.readouterr().err
        # the kind is checked before any other sampling is computed
        def never(*args):
            raise AssertionError("max_det_greedy ran")

        monkeypatch.setattr(harness, "max_det_greedy", never)
        cfg = dict(tiny_config(), sampling={"kind": "strategy", "strategy": "max_det", "m": 4})
        code = cli.main(["design", "--config", dump(tmp_path, cfg),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: sampling.kind: the design command needs kind 'design'\n")

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
        # communication edge lists: 3 nodes for an 8-node graph, two
        # components, no such file
        *(("algorithm.comm", "run-drls",
           {"algorithm": {"kind": "drls", "beta": 0.95, "comm": str(DATA_DIR / name)}})
          for name in ("comm_path3.txt", "comm_split8.txt", "no_such_comm.txt")),
        # graph edge lists: no such file, a directory, a malformed file
        *(("graph.path", "run-lms", {"graph": {"kind": "edge_list", "path": str(path)}})
          for path in (DATA_DIR / "no_such_graph.txt", DATA_DIR,
                       DATA_DIR / "graph_malformed.txt")),
        ("algorithm.comm", "run-drls",
         {"graph": {"kind": "random_geometric", "n": 2, "radius": 0.8},
          "bandlimit": {"size": 1}, "algorithm": {"kind": "drls", "beta": 0.95, "comm": "ring"}}),
        # one sampled vertex cannot reconstruct three frequencies
        *(("sampling", command, {"sampling": {"kind": "explicit", "p": [1, 0, 0, 0, 0, 0, 0, 0]}})
          for command in ("run-lms", "theory")),
        ("sampling", "design", {"sampling": dict(DESIGN, msd_target_db=-80)}),
        # theory used to solve the design first and name sampling, where
        # run-lms names the step size
        ("algorithm.mu", "theory",
         {"sampling": dict(DESIGN, msd_target_db=-80), "algorithm": {"kind": "lms", "mu": -1}}),
        # graph and communication edge lists that are not UTF-8 text
        ("graph.path", "run-lms",
         {"graph": {"kind": "edge_list", "path": str(DATA_DIR / "graph_not_utf8.txt")}}),
        ("algorithm.comm", "run-drls",
         {"algorithm": {"kind": "drls", "beta": 0.95,
                        "comm": str(DATA_DIR / "graph_not_utf8.txt")}}),
        ("version", "run-lms", {"version": True}),
        ("sampling.strategy", "run-lms",
         {"sampling": {"kind": "strategy", "strategy": "foo", "m": 4}}),
        ("algorithm.comm", "run-drls", {"algorithm": {"kind": "drls", "beta": 0.95, "comm": 3}}),
        # malformed lists and sections used to raise a TypeError (exit 1) or
        # run on with the wrong value
        *(("bandlimit.indices", command, {"bandlimit": {"indices": indices}})
          for command in ("run-lms", "design", "theory") for indices in (3, [[1, 2]])),
        ("sampling.p_max", "design", {"sampling": dict(DESIGN, p_max={"a": 1})}),
        ("compare.p_max", "compare-sampling", {"compare": dict(COMPARE, p_max={"a": 1})}),
        ("signal", "run-lms", {"signal": 3}),
        ("signal", "run-lms", {"signal": [1, 2]}),
        # NaN variances used to be reported as a diverged step size
        ("noise.values", "run-lms", {"noise": {"kind": "values", "values": [None] * 8}}),
        ("sampling.p", "run-lms", {"sampling": {"kind": "explicit", "p": [{"a": 1}] * 8}}),
        # misspelled keys used to run on silently with the default
        ("algorithm.delat", "run-rls", {"algorithm": {"kind": "rls", "beta": 0.9, "delat": 5}}),
        ("sampling.pmax", "design", {"sampling": dict(DESIGN, pmax=0.5)}),
        ("sampling.x", "run-lms",
         {"sampling": {"kind": "strategy", "strategy": "leverage", "m": 3, "x": 1}}),
        ("trails", "run-lms", {"trails": 5}),
        # a non-mapping algorithm section used to be named algorithm.kind
        ("algorithm", "run-lms", {"algorithm": 3}),
        # gen-graph used to take the seed unchecked: a TypeError, or true as 1
        *(("seed", "gen-graph", {"seed": seed}) for seed in ("abc", 2.5, True)),
        # the design's fallback to the algorithm section used to skip the check
        *(("algorithm.mu", "design",
           {"sampling": {k: v for k, v in DESIGN.items() if k != "mu"},
            "algorithm": {"kind": "lms", "mu": mu}}) for mu in ("abc", True)),
        # a key that the chosen kind or design problem does not read used to
        # be accepted and ignored
        ("graph.seed", "gen-graph",
         {"graph": {"kind": "edge_list", "path": str(DATA_DIR / "comm_split8.txt"), "seed": 3}}),
        ("bandlimit.size", "theory", {"bandlimit": {"size": 3, "indices": [0, 1, 2]}}),
        ("noise.low", "run-lms", {"noise": {"kind": "uniform", "sigma_sq": 0.01, "low": 0.1}}),
        ("sampling.p", "run-lms", {"sampling": {"kind": "full", "p": [1] * 8}}),
        ("sampling.budget", "design", {"sampling": dict(DESIGN, budget=1.0)}),
        ("sampling.msd_target_db", "design", {"sampling": dict(DESIGN, problem="sca_min_msd")}),
        ("sampling.msd_target", "design", {"sampling": dict(DESIGN, msd_target=0.01)}),
        ("algorithm.rho", "run-rls", {"algorithm": {"kind": "rls", "beta": 0.9, "rho": 3}}),
        ("compare.msd_target", "compare-sampling",
         {"compare": dict(COMPARE, msd_target=0.5)}),
        # design and compare-sampling read mu or beta from a given algorithm
        # section, and used to leave its kind and other fields unchecked
        *((field, command, {"sampling": DESIGN, "compare": COMPARE, "algorithm": algorithm})
          for command in ("design", "compare-sampling")
          for field, algorithm in (("algorithm.kind", {"kind": "quux", "mu": 0.1}),
                                   ("algorithm.rho", {"kind": "lms", "mu": 0.1, "rho": 3}))),
        # no target used to write a comparison.csv of only its header
        ("compare.rate_targets", "compare-sampling", {"compare": dict(COMPARE, rate_targets=[])}),
        # YAML .nan and .inf used to pass as numbers: reported as a diverged
        # step size, a rank-deficient sampling, or a LinAlgError traceback
        ("signal.scale", "run-lms", {"signal": {"scale": math.nan}}),
        ("noise.sigma_sq", "run-lms", {"noise": {"kind": "uniform", "sigma_sq": math.inf}}),
        ("noise.values", "run-lms", {"noise": {"kind": "values", "values": [math.nan] * 8}}),
        ("sampling.p", "run-lms", {"sampling": {"kind": "explicit", "p": [math.nan] * 8}}),
        ("algorithm.mu", "run-lms", {"algorithm": {"kind": "lms", "mu": math.inf}}),
        # beta = 1 puts the RLS closed form at 0, whose dB figure used to
        # raise a math domain error or blame the sampling
        *(("algorithm.beta", command, {"algorithm": {"kind": kind, "beta": 1.0}})
          for command, kind in (("run-rls", "rls"), ("run-drls", "drls"), ("theory", "rls"))),
        # NaN and inf edge weights used to end in a LinAlgError traceback, be
        # blamed on the step size, or be written out by gen-graph
        *(("graph.path", command,
           {"graph": {"kind": "edge_list", "path": str(DATA_DIR / name)}})
          for name in ("graph_nan_weight.txt", "graph_inf_weight.txt")
          for command in ("run-lms", "gen-graph")),
    ])
    def test_invalid_config_exits_2_naming_the_field(self, tmp_path, capsys, field,
                                                     command, edits):
        out = tmp_path / "out"
        code = cli.main([command, "--config", dump(tmp_path, dict(tiny_config(), **edits)),
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field}:")
        for name in ("curve.csv", "meta.json", "theory.csv", "comparison.csv", "graph.txt"):
            assert not (out / name).exists()

    @pytest.mark.parametrize("command, name, horizon, edits, message", [
        # the small-step figure reads 8.61 here, yet mu = 3 diverges
        ("run-lms", "design_min_rate.yaml", 1000, {"mu": 3},
         "algorithm.mu: the learning curve diverged; mu = 3"),
        # a ring diverges at every rho tried, however many inner iterations
        ("run-drls", "drls.yaml", 40, {"comm": "ring", "rho": 0.1, "inner_iters": 30},
         "algorithm.rho: the learning curve diverged; rho = 0.1"),
    ], ids=["lms", "drls_ring"])
    def test_divergence_error_gives_only_field_and_value(self, tmp_path, capsys, command,
                                                         name, horizon, edits, message):
        config = dict(load_config(CONFIG_DIR / name), trials=4, horizon=horizon)
        config["algorithm"].update(edits)
        code = cli.main([command, "--config", dump(tmp_path, config), "--out",
                         str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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
        probs = SamplingProbabilities(probs=p)
        target = 10.0 ** (scfg.get("msd_target_db", 0.0) / 10.0)
        slack = 1.0 + 1e-9
        if scfg["problem"] == "rls":
            assert rls_msd_theory(probs, scfg["beta"], noise, bl) <= target * slack
            return
        mu = scfg["mu"]
        lam_t = (1.0 - scfg["rate_target"]) / (2.0 * mu)
        assert np.linalg.eigvalsh(weighted_gram(bl, p))[0] >= lam_t / slack
        if scfg["problem"] == "min_rate_convex":
            assert lms_msd_upper_bound(probs, mu, noise, bl) <= target * slack
        if scfg["problem"] == "sca_min_rate":
            assert lms_msd_theory(probs, mu, noise, bl) <= target * slack
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

    def test_linalg_error_in_the_design_solve_propagates(self, tmp_path, monkeypatch):
        # a LinAlgError is a ValueError, but a numerical failure, not a bad value
        def solve(spec):
            raise np.linalg.LinAlgError("Singular matrix")

        entry = harness._DESIGN_PROBLEMS["min_rate_convex"]
        monkeypatch.setitem(harness._DESIGN_PROBLEMS, "min_rate_convex", (solve, *entry[1:]))
        cfg = dict(tiny_config(), sampling=DESIGN)
        with pytest.raises(np.linalg.LinAlgError):
            cli.main(["design", "--config", dump(tmp_path, cfg), "--out", str(tmp_path / "out")])
