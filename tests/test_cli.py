"""Harness contracts: artifacts, exit codes, determinism, summary audit."""

import contextlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onlinevi
import onlinevi.cli as cli
from onlinevi.cli import load_experiment, main, materialize
from onlinevi.family import SIGMA_FLOOR
from onlinevi.learners import run_online

BASE_CONFIG = """
[run]
seed = 1
comparator_restarts = 5
comparator_iters = 400

[dataset]
source = toy
n = 400
loss = hinge
permute = false

[algorithm.sva]
eta = auto

[algorithm.svb]
schedule = inv_sigma_sqrt_t

[algorithm.svb_thm3]
algo = svb
schedule = thm3_convex

[algorithm.ngvi]
eta = 1
alpha = 0.02

[algorithm.oga]
eta = auto

[algorithm.ogael]
eta = auto

[algorithm.ewagrid]
experts = diagonal:21
"""

ALGO_NAMES = ["sva", "svb", "svb_thm3", "ngvi", "oga", "ogael", "ewagrid"]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-run")
    config = root / "exp.ini"
    config.write_text(BASE_CONFIG, encoding="utf-8")
    out = root / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return out


class TestRun:
    def test_artifacts_present(self, run_dir):
        for name in ALGO_NAMES:
            assert (run_dir / f"{name}.csv").exists()
        assert (run_dir / "comparator.csv").exists()
        assert (run_dir / "summary.json").exists()
        assert (run_dir / "config.ini").exists()

    def test_series_schema_and_finite(self, run_dir):
        for name in ALGO_NAMES:
            lines = (run_dir / f"{name}.csv").read_text().strip().splitlines()
            assert lines[0] == "t,instant_loss,cum_loss,avg_cum_loss"
            assert len(lines) == 401
            table = np.array([[float(v) for v in line.split(",")]
                              for line in lines[1:]])
            assert np.all(np.isfinite(table))
            np.testing.assert_array_equal(table[:, 0], np.arange(1, 401))

    def test_summary_keys(self, run_dir):
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["dataset"]["T"] == 400
        assert summary["dataset"]["d"] == 2
        assert set(("value", "method")) <= set(summary["comparator"])
        for name in ALGO_NAMES:
            entry = summary["algorithms"][name]
            for key in ("final_avg_loss", "regret", "bound", "slack_ratio", "wall_ms"):
                assert key in entry, (name, key)
        assert summary["fastest_to_plateau"] in ALGO_NAMES
        phases = summary["phases_ms"]
        assert set(phases) == {"import", "load", "comparator", "pass", "finish", "bounds",
                               "write"}
        assert phases["import"] > 0.0
        assert summary["algorithms"]["ngvi"]["ngvi_halvings"] == {
            "count": 0, "first_step": None, "last_step": None}

    def test_final_sigma_of_each_gaussian_learner(self, run_dir):
        summary = json.loads((run_dir / "summary.json").read_text())
        ctx = materialize(load_experiment(run_dir / "config.ini"))
        for spec, config, _ in ctx.resolved:
            entry = summary["algorithms"][spec.name]
            if spec.name in ("oga", "ewagrid"):
                assert "final_sigma" not in entry, spec.name
                continue
            sigma = run_online(config, ctx.stream, ctx.kind, seed=ctx.cfg.seed).final_sigma
            assert entry["final_sigma"] == {"min": sigma.min(), "max": sigma.max()}, spec.name

    def test_summary_recomputable_from_series(self, run_dir):
        # round-trip audit: every loss-derived number in summary.json must be
        # recomputable from the emitted CSVs
        summary = json.loads((run_dir / "summary.json").read_text())
        comp_total = float(
            (run_dir / "comparator.csv").read_text().strip().splitlines()[1].split(",")[0])
        assert summary["comparator"]["value"] == pytest.approx(comp_total / 400)
        for name in ALGO_NAMES:
            lines = (run_dir / f"{name}.csv").read_text().strip().splitlines()[1:]
            losses = np.array([float(line.split(",")[1]) for line in lines])
            cum = np.array([float(line.split(",")[2]) for line in lines])
            avg = np.array([float(line.split(",")[3]) for line in lines])
            np.testing.assert_allclose(np.cumsum(losses), cum, rtol=1e-15)
            np.testing.assert_allclose(cum / np.arange(1, 401), avg, rtol=1e-15)
            entry = summary["algorithms"][name]
            assert entry["final_avg_loss"] == pytest.approx(avg[-1], rel=1e-15)
            assert entry["regret"] == pytest.approx(cum[-1] - comp_total, rel=1e-12)
            if entry["theorem"] == 3:
                # theorem 3 measures regret against the same comparator
                assert entry["slack_ratio"] == pytest.approx(
                    entry["regret"] / entry["bound"], rel=1e-9)

    def test_comparator_certificate_reported(self, run_dir, capsys):
        # the closed duality gap in comparator.csv and summary.json, and
        # Theorem 3 checked against the lower bound, naming what it compared
        summary = json.loads((run_dir / "summary.json").read_text())
        comp = summary["comparator"]
        assert comp["method"] == "certified"
        assert comp["gap"] == comp["total"] - comp["lower_bound"]
        assert 0.0 <= comp["gap"] <= 1e-9 * max(1.0, comp["total"])
        header, row = (run_dir / "comparator.csv").read_text().splitlines()
        assert header == "total_loss,avg_loss,method,lower_bound,theta_0,theta_1"
        assert row.split(",")[2] == "certified"
        assert float(row.split(",")[3]) == comp["lower_bound"]
        assert main(["bounds", "--run", str(run_dir), "--theorem", "3"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        total = summary["algorithms"]["svb_thm3"]["regret"] + comp["total"]
        assert f"regret={total - comp['lower_bound']:.6g} " in line
        assert line.endswith(f"vs comparator lower bound {comp['lower_bound']:.12g} "
                             f"(certified, gap {comp['gap']:.2g}))")

    def test_theorem3_measured_against_the_lower_bound(self, run_dir):
        from onlinevi.evaluation import ComparatorResult
        ctx = materialize(load_experiment(run_dir / "config.ini"))
        stored = cli._read_comparator_csv(run_dir / "comparator.csv", 2, 400)
        loose = ComparatorResult(stored.theta_star, stored.cumulative_loss_star,
                                 stored.cumulative_loss_star - 5.0,
                                 {"horizon": 400, "method": "projected_subgradient"})
        (record,) = cli.bound_records(ctx, {"svb_thm3": 100.0}, loose, "3")
        assert record["empirical_regret"] == 100.0 - loose.lower_bound
        assert record["notes"].endswith("(projected_subgradient, gap 5)")

    def test_bounds_rejects_a_comparator_without_lower_bound(self, run_dir, tmp_path, capsys):
        import shutil
        old = tmp_path / "old"
        shutil.copytree(run_dir, old)
        path = old / "comparator.csv"
        header, row = path.read_text().splitlines()
        drop = lambda line: ",".join(c for i, c in enumerate(line.split(",")) if i != 3)
        path.write_text(f"{drop(header)}\n{drop(row)}\n")
        assert main(["bounds", "--run", str(old), "--theorem", "all"]) == 2
        assert "lower_bound" in capsys.readouterr().err

    def test_byte_identical_rerun(self, run_dir, tmp_path):
        out2 = tmp_path / "out2"
        assert main(["run", "--config", str(run_dir / "config.ini"),
                     "--out", str(out2)]) == 0
        for name in ALGO_NAMES + ["comparator"]:
            a = (run_dir / f"{name}.csv").read_bytes()
            b = (out2 / f"{name}.csv").read_bytes()
            assert a == b, name

    def test_grid_losses_are_built_one_tile_at_a_time(self, run_dir, tmp_path, monkeypatch):
        # in a run whose tile holds 2^10 values, no call of the expert-loss
        # kernel sees more than one tile's rows, and the grid's series equals
        # that of a grid run on its own at the default tile size
        import onlinevi.learners as learners
        import onlinevi.losses as losses

        shapes = []
        build = learners.expert_loss_matrix

        def recording(kind, experts, features, *rest):
            shapes.append((len(features), len(experts)))
            return build(kind, experts, features, *rest)

        ctx = materialize(load_experiment(run_dir / "config.ini"))
        (_, config, _), = [r for r in ctx.resolved if r[0].name == "ewagrid"]
        trace = run_online(config, ctx.stream, ctx.kind)
        monkeypatch.setattr(losses, "TILE_VALUES", 2 ** 10)
        monkeypatch.setattr(learners, "expert_loss_matrix", recording)
        out = tmp_path / "out"
        assert main(["run", "--config", str(run_dir / "config.ini"), "--out", str(out)]) == 0
        # B and the best expert's total, then the grid's pass
        assert sum(rows for rows, _ in shapes) == 2 * ctx.horizon
        assert len(shapes) > 2
        assert all(rows <= max(2, -(-2 ** 10 // k)) for rows, k in shapes)
        cli._write_series_csv(tmp_path / "own.csv", cli.build_ledger(trace.losses))
        assert (tmp_path / "own.csv").read_bytes() == (out / "ewagrid.csv").read_bytes()

    def test_theorem_1_constants_do_not_depend_on_the_tile(self, run_dir, monkeypatch):
        # B and the best expert's total against one (T, K) matrix
        import onlinevi.losses as losses

        ctx = materialize(load_experiment(run_dir / "config.ini"))
        (_, config, meta), = [r for r in ctx.resolved if r[0].name == "ewagrid"]
        matrix = losses.expert_loss_matrix(ctx.kind, config.experts, ctx.stream.features,
                                           ctx.stream.targets)
        for values in (2 ** 6, 2 ** 10):
            monkeypatch.setattr(losses, "TILE_VALUES", values)
            (_, _, tiled), = [r for r in materialize(load_experiment(run_dir / "config.ini"))
                              .resolved if r[0].name == "ewagrid"]
            assert (tiled["B"], tiled["best_expert_total"]) == (meta["B"],
                                                                meta["best_expert_total"])
        assert meta["B"] == float(np.max(matrix))
        assert meta["best_expert_total"] == float(np.min(matrix.sum(axis=0)))

    def test_materialize_holds_no_grid_matrix(self, tmp_path, monkeypatch):
        # the peak after the stream is loaded, at T = 20,000 and K = 41
        import tracemalloc

        config = tmp_path / "grid.ini"
        config.write_text("[run]\nseed = 1\n[dataset]\nsource = toy\nn = 20000\n"
                          "loss = hinge\n[algorithm.ewagrid]\nexperts = diagonal:41\n",
                          encoding="utf-8")
        load = cli._load_dataset

        def loaded_before_the_peak(cfg):
            full = load(cfg)
            tracemalloc.reset_peak()
            return full

        monkeypatch.setattr(cli, "_load_dataset", loaded_before_the_peak)
        experiment = load_experiment(config)
        tracemalloc.start()
        try:
            ctx = materialize(experiment)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ctx.horizon == 20_000
        assert peak < 20_000 * 41 * 8 / 4

    def test_one_lipschitz_constant_per_materialize(self, run_dir, tmp_path, monkeypatch):
        # the run resolves svb_thm3's l = auto and checks Theorems 2 and 4
        # from the one constant; bounds computes it once more
        calls = []
        certify = cli.lipschitz_constant

        def counting(*args):
            calls.append(1)
            return certify(*args)

        monkeypatch.setattr(cli, "lipschitz_constant", counting)
        out = tmp_path / "out"
        assert main(["run", "--config", str(run_dir / "config.ini"), "--out", str(out)]) == 0
        assert len(calls) == 1
        assert main(["bounds", "--run", str(out), "--theorem", "all"]) == 0
        assert len(calls) == 2

    def test_horizon_zero_is_config_error(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text(BASE_CONFIG.replace("seed = 1", "seed = 1\nhorizon = 0"),
                          encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("options, key", [
        ("algo = svb\nschedule = fixed", "eta"),
        ("algo = svb\nschedule = thm3_strong", "h"),
        ("algo = svb\nschedule = thm3_convex\nl = 0", "l"),
        ("algo = sva\neta = abc", "eta"),
        ("algo = oga\neta = -0.5", "eta"),
        ("algo = ngvi\nalpha = 0", "alpha"),
        ("algo = ngvi\neta = nan", "eta"),
        ("algo = ewagrid\nexperts = diagonal:abc", "experts"),
        ("algo = ewagrid\nexperts = diagonal:1", "experts"),
        ("algo = ewagrid\nexperts = product:1", "experts"),
        ("algo = oga\netta = 0.5", "etta"),
    ])
    def test_bad_algorithm_value_is_config_error(self, tmp_path, capsys, options, key):
        config = tmp_path / "bad.ini"
        config.write_text(BASE_CONFIG + f"\n[algorithm.bad]\n{options}\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert f"[algorithm.bad] {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_holdout_reporting(self, tmp_path):
        config = tmp_path / "hold.ini"
        config.write_text("""
[run]
seed = 2
holdout_fraction = 0.25
comparator_restarts = 3
comparator_iters = 200

[dataset]
source = iid_regression
theta_star = 1,-2,0.5
noise_sd = 0.5
n = 400
loss = squared-linear

[algorithm.oga]
eta = auto
""", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dataset"]["T"] == 300
        entry = summary["algorithms"]["oga"]
        assert entry["holdout_risk"]["mean"] > 0.0
        assert entry["holdout_jensen_ok"] is True


NN_CONFIG = """
[run]
seed = 0
mc_samples = 4
comparator_restarts = 0
comparator_iters = 10

[dataset]
source = iid_regression
theta_star = 1,-1
noise_sd = 0.3
n = 20
loss = squared-nn
hidden_width = 3

[algorithm.oga]
eta = auto
"""

CSV_CONFIG = f"""
[run]
seed = 0
comparator_restarts = 0
comparator_iters = 10

[dataset]
source = csv
path = {Path(__file__).parent / "data" / "toy20.csv"}
label = y
positive_label = 1
loss = hinge

[algorithm.oga]
eta = auto
"""

CONFIGS = {"toy": BASE_CONFIG, "nn": NN_CONFIG, "csv": CSV_CONFIG}


class TestMalformedConfig:
    """A malformed or out-of-range config exits 2, names the key or the
    file on stderr, and leaves no output directory."""

    def _run(self, tmp_path, capsys, text):
        config = tmp_path / "bad.ini"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert not out.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("base, old, new, needle", [
        # values that do not parse
        pytest.param("toy", "n = 400", "n = abc", "[dataset] n", id="n-text"),
        pytest.param("toy", "n = 400", "n = 400\ndata_seed = x1", "[dataset] data_seed",
                     id="data_seed-text"),
        pytest.param("toy", "n = 400", "n = 400\nsubsample = half", "[dataset] subsample",
                     id="subsample-text"),
        pytest.param("nn", "hidden_width = 3", "hidden_width = wide", "[dataset] hidden_width",
                     id="hidden_width-text"),
        pytest.param("nn", "theta_star = 1,-1", "theta_star = 1,abc", "[dataset] theta_star",
                     id="theta_star-text"),
        pytest.param("toy", "seed = 1", "seed = 1\nseed = 2", "option 'seed' in section 'run'",
                     id="duplicate-key"),
        pytest.param("toy", "[run]", "stray = 1\n[run]", "bad.ini", id="line-before-section"),
        # values out of range
        pytest.param("toy", "seed = 1", "seed = 1\nprior_s = 0", "[run] prior_s",
                     id="prior_s-zero"),
        pytest.param("toy", "seed = 1", "seed = 1\nbox_m_abs = -1", "[run] box_m_abs",
                     id="box_m_abs-negative"),
        pytest.param("toy", "seed = 1", "seed = 1\nbox_sigma_lo = 2", "[run] box_sigma_lo",
                     id="box_sigma_lo-above-hi"),
        pytest.param("nn", "hidden_width = 3", "hidden_width = 0", "[dataset] hidden_width",
                     id="hidden_width-zero"),
        pytest.param("nn", "noise_sd = 0.3", "noise_sd = -1", "[dataset] noise_sd",
                     id="noise_sd-negative"),
        pytest.param("toy", "n = 400", "n = 0", "[dataset] n", id="n-zero"),
        pytest.param("toy", "n = 400", "n = 400\nsubsample = 0", "[dataset] subsample",
                     id="subsample-zero"),
        pytest.param("toy", "n = 400", "n = 400\nsubsample = 500",
                     "[dataset] subsample: 500 is more than the 400 rows",
                     id="subsample-above-rows"),
        pytest.param("toy", "seed = 1", "seed = 1\nhorizon = 5000",
                     "[run] horizon: 5000 is more than the 400 rows", id="horizon-above-rows"),
        pytest.param("toy", "comparator_restarts = 5", "comparator_restarts = -3",
                     "[run] comparator_restarts", id="comparator_restarts-negative"),
        pytest.param("toy", "comparator_iters = 400", "comparator_iters = -1",
                     "[run] comparator_iters", id="comparator_iters-negative"),
        # unknown keys and sections
        pytest.param("toy", "seed = 1", "seed = 1\nmc_sampels = 4", "[run] mc_sampels",
                     id="unknown-run-key"),
        pytest.param("toy", "[run]", "[runs]\nseed = 1\n[run]", "[runs]", id="unknown-section"),
        # keys that the chosen loss or svb schedule would not read
        pytest.param("toy", "n = 400", "n = 400\nhidden_width = 0", "[dataset] hidden_width",
                     id="hidden_width-with-hinge"),
        pytest.param("nn", "loss = squared-nn", "loss = squared-linear",
                     "[dataset] hidden_width", id="hidden_width-with-squared-linear"),
        pytest.param("toy", "schedule = inv_sigma_sqrt_t",
                     "schedule = inv_sigma_sqrt_t\neta = abc", "[algorithm.svb] eta",
                     id="svb-eta-default-schedule"),
        pytest.param("toy", "[algorithm.svb]\nschedule = inv_sigma_sqrt_t",
                     "[algorithm.svb]\nh = -3", "[algorithm.svb] h",
                     id="svb-h-implicit-default-schedule"),
        pytest.param("toy", "schedule = thm3_convex", "schedule = thm3_convex\neta = 0.1",
                     "[algorithm.svb_thm3] eta", id="svb-eta-thm3_convex"),
        pytest.param("toy", "schedule = thm3_convex", "schedule = thm3_convex\nh = 2",
                     "[algorithm.svb_thm3] h", id="svb-h-thm3_convex"),
        pytest.param("toy", "schedule = thm3_convex", "schedule = fixed\neta = 0.1\nd = 5",
                     "[algorithm.svb_thm3] d", id="svb-d-fixed"),
        pytest.param("toy", "schedule = thm3_convex", "schedule = thm3_strong\nh = 2\nl = 4",
                     "[algorithm.svb_thm3] l", id="svb-l-thm3_strong"),
        pytest.param("toy", "schedule = thm3_convex", "schedule = thm3-weak",
                     "[algorithm.svb_thm3] schedule", id="svb-unknown-schedule"),
        pytest.param("nn", "[algorithm.oga]",
                     "[algorithm.svb_thm3]\nalgo = svb\nschedule = thm3_convex\n[algorithm.oga]",
                     "[algorithm.svb_thm3] l: auto needs a convex loss",
                     id="svb-l-auto-nonconvex"),
        # keys that the chosen source or loss would not read
        pytest.param("toy", "n = 400", "n = 400\ntheta_star = 1,2", "[dataset] theta_star",
                     id="theta_star-with-toy"),
        pytest.param("toy", "n = 400", "n = 400\npath = toy.csv", "[dataset] path",
                     id="path-with-toy"),
        pytest.param("nn", "n = 20", "n = 20\nlabel = y", "[dataset] label",
                     id="label-with-iid_regression"),
        pytest.param("csv", "label = y", "label = y\nn = 20", "[dataset] n", id="n-with-csv"),
        pytest.param("toy", "seed = 1", "seed = 1\nmc_samples = 7", "[run] mc_samples",
                     id="mc_samples-with-hinge"),
        # a holdout that rounds to zero rows (0.01 of 20)
        pytest.param("nn", "seed = 0", "seed = 0\nholdout_fraction = 0.01",
                     "[run] holdout_fraction", id="holdout-zero-rows"),
    ])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, base, old, new, needle):
        text = CONFIGS[base]
        assert old in text
        code, err = self._run(tmp_path, capsys, text.replace(old, new, 1))
        assert code == 2
        assert needle in err

    @pytest.mark.parametrize("loss, rows, box, algorithm", [
        # every feature zero: the hinge loss is 1 whatever theta
        pytest.param("hinge", "0,0,1\n0,0,-1\n", "", "[algorithm.sva]",
                     id="hinge-zero-features-sva"),
        pytest.param("squared-linear", "0,0,1\n0,0,-2\n", "", "[algorithm.ogael]",
                     id="linear-zero-features-ogael"),
        # the box pins theta at 0 and every target is 0
        pytest.param("squared-linear", "1,2,0\n-3,0.5,0\n", "box_m_abs = 0",
                     "[algorithm.svb_thm3]\nalgo = svb\nschedule = thm3_convex\nl = auto",
                     id="linear-pinned-svb_thm3"),
    ])
    def test_lipschitz_zero_exits_2_naming_the_dataset(self, tmp_path, capsys, loss, rows,
                                                       box, algorithm):
        data = tmp_path / "flat.csv"
        data.write_text("x1,x2,y\n" + rows * 25, encoding="utf-8")
        label = "positive_label = 1\n" if loss == "hinge" else ""
        code, err = self._run(tmp_path, capsys, (
            f"[run]\nseed = 0\n{box}\n[dataset]\nsource = csv\npath = {data}\nlabel = y\n"
            f"{label}loss = {loss}\n{algorithm}\n"))
        assert code == 2
        assert str(data) in err
        assert "L = 0" in err

    @pytest.mark.parametrize("dataset, experts", [
        # 5^30 experts on 30 features; 2^65 on the default squared-nn width
        pytest.param("theta_star = " + ",".join(["1"] * 30) + "\nloss = squared-linear",
                     "product:5", id="linear-d30"),
        pytest.param("theta_star = 1,-1\nloss = squared-nn\nhidden_width = 16",
                     "product:2", id="nn-d65"),
    ])
    def test_expert_grid_capped_before_it_is_built(self, tmp_path, capsys, dataset, experts):
        text = ("[run]\nseed = 0\n[dataset]\nsource = iid_regression\nn = 20\n"
                f"{dataset}\n[algorithm.grid]\nalgo = ewagrid\nexperts = {experts}\n")
        code, err = self._run(tmp_path, capsys, text)
        assert code == 2
        assert "[algorithm.grid] experts" in err

    @pytest.mark.parametrize("text, needles", [
        pytest.param(
            BASE_CONFIG.replace("seed = 1", "seed = 1\nmc_samples = 7").replace(
                "n = 400", "n = 400\ntheta_star = 1,2\nnoise_sd = 0.5\npath = toy.csv\n"
                "label = y\npositive_label = 1\ndelimiter = ;\nhas_header = false\nname = toy"),
            ["[run] mc_samples", "[dataset] theta_star", "[dataset] noise_sd",
             "[dataset] path", "[dataset] label", "[dataset] positive_label",
             "[dataset] delimiter", "[dataset] has_header", "[dataset] name"], id="toy-hinge"),
        pytest.param(NN_CONFIG.replace("n = 20", "n = 20\npath = toy.csv\nlabel = y"),
                     ["[dataset] path", "[dataset] label"], id="iid_regression"),
    ])
    def test_names_every_ignored_key(self, tmp_path, capsys, text, needles):
        code, err = self._run(tmp_path, capsys, text)
        assert code == 2
        for needle in needles:
            assert needle in err


# ---------------------------------------------------------------------------
# property: a malformed config fails before the pass


_SMALL_SECTIONS = {
    "run": {"seed": "1", "comparator_restarts": "0", "comparator_iters": "0"},
    "dataset": {"source": "toy", "n": "50", "loss": "hinge"},
    "algorithm.oga": {"eta": "auto"},
}
#: the keys the small config reads (a hinge toy stream, one oga learner);
#: any other key would be ignored, so it must be rejected
_KNOWN_KEYS = {
    "run": {"seed", "horizon", "holdout_fraction", "prior_s", "box_m_abs", "box_sigma_hi",
            "box_sigma_lo", "comparator_restarts", "comparator_iters"},
    "dataset": {"source", "loss", "n", "data_seed", "permute", "standardize", "subsample"},
    "algorithm.oga": {"algo", "eta"},
}


def _floats_below(bound):
    return st.floats(max_value=bound, allow_nan=False).filter(lambda v: v < bound)


#: every numeric [run] key with a strategy for values outside its range
#: (box_sigma_lo is checked against the default box_sigma_hi = 1)
_RUN_OUT_OF_RANGE = {
    "horizon": st.integers(max_value=0),
    "mc_samples": st.integers(max_value=0),
    "comparator_restarts": st.integers(max_value=-1),
    "comparator_iters": st.integers(max_value=-1),
    "holdout_fraction": st.one_of(_floats_below(0.0), st.floats(min_value=1.0)),
    "prior_s": st.one_of(st.floats(max_value=0.0), st.just(float("nan"))),
    "box_m_abs": _floats_below(0.0),
    "box_sigma_hi": _floats_below(SIGMA_FLOOR),
    "box_sigma_lo": st.one_of(_floats_below(0.0),
                              st.floats(min_value=1.0, exclude_min=True)),
}

#: (options that make the key read, key) for every numeric algorithm value
_ALGORITHM_NUMERIC = [
    ({"algo": "sva"}, "eta"), ({"algo": "oga"}, "eta"), ({"algo": "ogael"}, "eta"),
    ({"algo": "ngvi"}, "eta"), ({"algo": "ngvi"}, "alpha"), ({"algo": "ewagrid"}, "eta"),
    ({"algo": "svb", "schedule": "fixed"}, "eta"),
    ({"algo": "svb", "schedule": "thm3_convex"}, "d"),
    ({"algo": "svb", "schedule": "thm3_convex"}, "l"),
    ({"algo": "svb", "schedule": "thm3_strong"}, "h"),
]

_KEY_TEXT = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)


@st.composite
def _unknown_key(draw):
    section = draw(st.sampled_from(sorted(_KNOWN_KEYS)))
    key = draw(_KEY_TEXT.filter(lambda k: k not in _KNOWN_KEYS[section]))
    return {section: {key: "1"}}, f"[{section}] {key}"


@st.composite
def _run_value_out_of_range(draw):
    key = draw(st.sampled_from(sorted(_RUN_OUT_OF_RANGE)))
    return {"run": {key: repr(draw(_RUN_OUT_OF_RANGE[key]))}}, f"[run] {key}"


@st.composite
def _non_numeric_algorithm_value(draw):
    options, key = draw(st.sampled_from(_ALGORITHM_NUMERIC))
    value = draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCXYZ_", min_size=1,
                         max_size=8).filter(lambda v: v.lower() != "auto"))
    return {"algorithm.bad": {**options, key: value}}, f"[algorithm.bad] {key}"


def _must_not_run(*args, **kwargs):
    raise AssertionError("a malformed config reached the pass")


class TestMalformedConfigProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.one_of(_unknown_key(), _run_value_out_of_range(),
                     _non_numeric_algorithm_value()))
    def test_never_reaches_run_online(self, case):
        edits, needle = case
        sections = {name: dict(options) for name, options in _SMALL_SECTIONS.items()}
        for name, options in edits.items():
            sections.setdefault(name, {}).update(options)
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in options.items())
                       for name, options in sections.items())
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "lockstep", _must_not_run)
            mp.setattr(cli, "run_online", _must_not_run)
            config = Path(tmp) / "bad.ini"
            config.write_text(text, encoding="utf-8")
            out = Path(tmp) / "o"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(config), "--out", str(out)])
            assert code == 2
            assert needle in err.getvalue()
            assert not out.exists()


def _header_only(text):
    return text.splitlines()[0] + "\n"


def _non_numeric_loss(text):
    lines = text.splitlines()
    lines[5] = "5,abc,1,1"
    return "\n".join(lines) + "\n"


def _truncated(text):
    return "\n".join(text.splitlines()[:100]) + "\n"


def _non_finite_loss(value):
    def edit(text):
        lines = text.splitlines()
        lines[4] = "4," + value + "," + lines[4].split(",", 2)[2]
        return "\n".join(lines) + "\n"
    return edit


def _non_finite_comparator(column, value):
    def edit(text):
        header, row = text.splitlines()
        cells = row.split(",")
        cells[column] = value
        return header + "\n" + ",".join(cells) + "\n"
    return edit


class TestMalformedRunDirectory:
    @pytest.mark.parametrize("name, edit, needle", [
        pytest.param("comparator.csv", _header_only, "", id="comparator-header-only"),
        pytest.param("sva.csv", _non_numeric_loss, "", id="series-non-numeric"),
        pytest.param("sva.csv", _truncated, "", id="series-truncated"),
        # a non-finite number is corrupt input, not a bound that fails
        pytest.param("svb_thm3.csv", _non_finite_loss("nan"), "row t = 4", id="series-nan"),
        pytest.param("svb_thm3.csv", _non_finite_loss("inf"), "row t = 4", id="series-inf"),
        pytest.param("comparator.csv", _non_finite_comparator(0, "nan"), "total_loss",
                     id="comparator-total-nan"),
        pytest.param("comparator.csv", _non_finite_comparator(3, "-inf"), "lower_bound",
                     id="comparator-lower-bound-inf"),
        pytest.param("comparator.csv", _non_finite_comparator(5, "inf"), "theta_1",
                     id="comparator-coordinate-inf"),
    ])
    def test_bounds_exits_2_naming_the_file(self, run_dir, tmp_path, capsys, name, edit,
                                            needle):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(run_dir, broken)
        path = broken / name
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        assert main(["bounds", "--run", str(broken), "--theorem", "all"]) == 2
        err = capsys.readouterr().err
        assert name in err and needle in err

    def test_bounds_exits_2_on_a_key_nothing_reads(self, run_dir, tmp_path, capsys):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(run_dir, broken)
        config = broken / "config.ini"
        config.write_text(config.read_text(encoding="utf-8").replace(
            "n = 400", "n = 400\nnoise_sd = 0.5"), encoding="utf-8")
        assert main(["bounds", "--run", str(broken), "--theorem", "all"]) == 2
        assert "[dataset] noise_sd" in capsys.readouterr().err


class TestNetworkLossRun:
    def test_nn_regression_end_to_end(self, tmp_path):
        config = tmp_path / "nn.ini"
        config.write_text("""
[run]
seed = 4
mc_samples = 16
comparator_restarts = 2
comparator_iters = 150
box_m_abs = 5

[dataset]
source = iid_regression
theta_star = 1,-1
noise_sd = 0.3
n = 120
loss = squared-nn
hidden_width = 4

[algorithm.sva]
eta = auto

[algorithm.ogael]
eta = auto
""", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["comparator"]["method"] == "local"
        for name in ("sva", "ogael"):
            assert np.isfinite(summary["algorithms"][name]["final_avg_loss"])

    def test_no_theorem_3_record_on_the_network_loss(self, tmp_path, capsys):
        # Theorem 3 assumes a convex loss; with explicit D and L the schedule
        # runs on squared-nn, but no bound is checked or reported
        config = tmp_path / "nn.ini"
        config.write_text(NN_CONFIG + """
[algorithm.svb_thm3]
algo = svb
schedule = thm3_convex
d = 10
l = 5
""", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["algorithms"]["svb_thm3"]["theorem"] is None
        assert "bound_holds" not in summary["algorithms"]["svb_thm3"]
        capsys.readouterr()
        assert main(["bounds", "--run", str(out), "--theorem", "all"]) == 2
        captured = capsys.readouterr()
        assert "no applicable checks" in captured.err
        assert "theorem 3" not in captured.out

    def test_bounds_says_the_network_loss_is_not_convex(self, tmp_path, capsys):
        config = tmp_path / "nn.ini"
        config.write_text(NN_CONFIG, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["bounds", "--run", str(out), "--theorem", "all"]) == 2
        err = capsys.readouterr().err
        assert "no applicable checks" in err
        assert "squared_nn loss is not convex" in err
        assert "missing constants" not in err


class TestNgviHalvings:
    def test_halvings_reported_in_summary(self, tmp_path):
        # Monte-Carlo gradients can push lambda2 up; at this eta NGVI halves
        # its step on a few steps without aborting
        config = tmp_path / "halve.ini"
        config.write_text("""
[run]
seed = 0
mc_samples = 8
comparator_restarts = 1
comparator_iters = 50
box_m_abs = 5

[dataset]
source = iid_regression
theta_star = 1,-1
noise_sd = 0.3
n = 40
loss = squared-nn
hidden_width = 3

[algorithm.ngvi]
eta = 5
alpha = 0.1
""", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        reported = json.loads((out / "summary.json").read_text())["algorithms"]["ngvi"]
        ctx = materialize(load_experiment(config))
        _, ngvi, _ = ctx.resolved[0]
        halvings = run_online(ngvi, ctx.stream, ctx.kind, mc_samples=8, seed=0).halvings
        steps = np.flatnonzero(halvings) + 1
        assert steps.size > 0
        assert reported["ngvi_halvings"] == {"count": int(halvings.sum()),
                                             "first_step": int(steps[0]),
                                             "last_step": int(steps[-1])}


class TestRuntimeErrorPath:
    def test_ngvi_invalid_precision_exits_3(self, tmp_path, capsys):
        # network-loss MC gradients can push the precision update out of the
        # family; an absurd eta/alpha makes that certain within a few steps
        config = tmp_path / "blowup.ini"
        config.write_text("""
[run]
seed = 0
mc_samples = 8
comparator_restarts = 1
comparator_iters = 50
box_m_abs = 5

[dataset]
source = iid_regression
theta_star = 1,-1
noise_sd = 0.3
n = 40
loss = squared-nn
hidden_width = 3

[algorithm.ngvi]
eta = 1e9
alpha = 1e9
""", encoding="utf-8")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "step" in capsys.readouterr().err


MIXED_NN_CONFIG = """
[run]
seed = 0
mc_samples = 8
comparator_restarts = 1
comparator_iters = 50
box_m_abs = 5

[dataset]
source = iid_regression
theta_star = 1,-1
noise_sd = 0.3
n = 40
loss = squared-nn
hidden_width = 3

[algorithm.sva]
[algorithm.hot]
algo = ngvi
eta = ETA
alpha = 1
[algorithm.oga]
"""


class TestAtomicRunDirectory:
    """A run writes into a hidden sibling directory and renames it into
    place when it is complete; a failed run changes nothing on disk."""

    def _config(self, tmp_path, eta):
        # NGVI at eta = 100 leaves the family at step 30 of 40, the other
        # learners of its pass being fine
        config = tmp_path / f"eta{eta}.ini"
        config.write_text(MIXED_NN_CONFIG.replace("ETA", str(eta)), encoding="utf-8")
        return config

    @staticmethod
    def _files(path: Path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}

    def test_a_failed_run_leaves_no_directory(self, tmp_path, capsys):
        config = self._config(tmp_path, 100)
        out = tmp_path / "new" / "deeper" / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 3
        assert "step 30 (hot): NGVI left the family" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [config.name]

    def test_a_failed_run_keeps_the_old_directory(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(self._config(tmp_path, 1)), "--out", str(out)]) == 0
        before = self._files(out)
        assert main(["run", "--config", str(self._config(tmp_path, 100)),
                     "--out", str(out)]) == 3
        assert self._files(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eta1.ini", "eta100.ini", "out"]

    def test_a_run_replaces_an_earlier_run(self, tmp_path):
        out = tmp_path / "out"
        config = self._config(tmp_path, 1)
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        first = self._files(out)
        (out / "stale.csv").write_text("t,instant_loss,cum_loss,avg_cum_loss\n")
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        second = self._files(out)
        assert set(second) == set(first) and "stale.csv" not in second
        assert all(second[name] == first[name] for name in first if name.endswith(".csv"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eta1.ini", "out"]

    @pytest.mark.parametrize("foreign", ["notes.txt", "sub/"])
    def test_a_directory_with_other_files_is_not_replaced(self, tmp_path, capsys, foreign):
        out = tmp_path / "out"
        out.mkdir()
        (out / "comparator.csv").write_text("kept")
        if foreign.endswith("/"):
            (out / foreign).mkdir()
        else:
            (out / foreign).write_text("kept")
        config = self._config(tmp_path, 1)
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert foreign.rstrip("/") in capsys.readouterr().err
        assert (out / "comparator.csv").read_text() == "kept"

    @pytest.mark.parametrize("mask", [0o022, 0o077, 0o002])
    def test_the_run_directory_has_a_plain_mkdir_mode(self, tmp_path, mask):
        config = self._config(tmp_path, 1)
        old = os.umask(mask)
        try:
            (tmp_path / "plain").mkdir()
            assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        finally:
            os.umask(old)
        modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("plain", "out")]
        assert modes[0] == 0o777 & ~mask and modes[1] == modes[0]

    def test_a_file_is_not_replaced(self, tmp_path):
        out = tmp_path / "out"
        out.write_text("kept")
        assert main(["run", "--config", str(self._config(tmp_path, 1)), "--out", str(out)]) == 2
        assert out.read_text() == "kept"


class TestPasses:
    def test_the_grid_then_one_pass_of_every_walker(self, tmp_path, monkeypatch):
        # one lockstep call per run: of the six walkers on the toy config,
        # and of none when the grid, which walks nothing, is alone; alone, it
        # writes the same bytes
        grid_only = (BASE_CONFIG[:BASE_CONFIG.index("[algorithm.")]
                     + BASE_CONFIG[BASE_CONFIG.index("[algorithm.ewagrid]"):])
        calls = []
        walk = cli.lockstep

        def counting(configs, *args, **kwargs):
            calls.append(len(configs))
            return walk(configs, *args, **kwargs)

        monkeypatch.setattr(cli, "lockstep", counting)
        for name, text, walkers in (("toy", BASE_CONFIG, 6), ("grid", grid_only, 0)):
            calls.clear()
            config = tmp_path / f"{name}.ini"
            config.write_text(text, encoding="utf-8")
            assert main(["run", "--config", str(config), "--out", str(tmp_path / name)]) == 0
            assert calls == [walkers], name
        assert (tmp_path / "grid" / "ewagrid.csv").read_bytes() == \
            (tmp_path / "toy" / "ewagrid.csv").read_bytes()

    def test_a_run_holds_no_decision_array(self, tmp_path):
        # twelve walkers and the grid at T = 5000, d = 40 with a 20% holdout
        # on squared-linear: the Jensen audit and theta_bar of every section
        # read the decisions a block at a time, so the traced peak (numpy
        # reports its allocations to tracemalloc) stays far below the 19.2
        # MB that the twelve walkers' (T, d) decisions would take; the peak
        # is the stream's load, about 6 MB
        import tracemalloc

        sections = {"sva": {}, "svb": {}, "svb_thm3": {"schedule": "thm3_convex"},
                    "ngvi": {}, "oga": {}, "ogael": {}}
        sections.update({f"{name}_2": {"eta": "0.01"} for name in ("sva", "oga", "ogael")})
        sections.update(svb_2={"schedule": "fixed", "eta": "0.01"}, ngvi_2={"eta": "0.5"},
                        svb_thm3_2={"schedule": "thm3_convex"}, ewagrid={})
        theta = ",".join(f"{v:.3f}" for v in np.linspace(-1.0, 1.0, 40))
        text = ("[run]\nseed = 3\nholdout_fraction = 0.2\n[dataset]\n"
                f"source = iid_regression\nn = 6250\ntheta_star = {theta}\n"
                "loss = squared-linear\n")
        text += "".join(f"[algorithm.{name}]\nalgo = {name.split('_')[0]}\n"
                        + "".join(f"{k} = {v}\n" for k, v in options.items())
                        for name, options in sections.items())
        config = tmp_path / "wide.ini"
        config.write_text(text, encoding="utf-8")
        tracemalloc.start()
        try:
            assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        t_len, d = summary["dataset"]["T"], summary["dataset"]["d"]
        walkers = len(sections) - 1
        assert (walkers, t_len, d) == (12, 5000, 40)
        assert all(entry["holdout_jensen_ok"] for entry in summary["algorithms"].values())
        decisions = walkers * t_len * d * 8
        assert peak < 0.4 * decisions, (peak, decisions)

    def test_wall_ms_is_the_pass_and_the_sections_own_work(self, run_dir):
        summary = json.loads((run_dir / "summary.json").read_text())
        pass_ms = summary["phases_ms"]["pass"]
        assert isinstance(pass_ms, float) and pass_ms > 0.0
        for name, entry in summary["algorithms"].items():
            assert isinstance(entry["wall_ms"], float) and entry["wall_ms"] > 0.0
            if name != "ewagrid":
                assert entry["wall_ms"] >= pass_ms, name

    def test_finish_is_the_sections_own_work(self, run_dir):
        # traces, ledgers, holdout estimate and audit: each section's
        # wall_ms past the pass, the grid's whole
        summary = json.loads((run_dir / "summary.json").read_text())
        phases, algorithms = summary["phases_ms"], summary["algorithms"]
        own = sum(entry["wall_ms"] - (0.0 if name == "ewagrid" else phases["pass"])
                  for name, entry in algorithms.items())
        assert phases["finish"] > 0.0
        assert phases["finish"] == pytest.approx(own, abs=0.01)


def _per_cell_series(losses, cumulative, averages) -> bytes:
    """A series file formatted one cell at a time with ``_fmt`` (oracle)."""
    lines = ["t,instant_loss,cum_loss,avg_cum_loss"]
    lines += [f"{i + 1},{cli._fmt(a)},{cli._fmt(b)},{cli._fmt(c)}"
              for i, (a, b, c) in enumerate(zip(losses, cumulative, averages))]
    return ("\n".join(lines) + "\n").encode()


class TestSeriesWriter:
    EDGES = [0.0, 5e-324, 1e308, 1.7976931348623157e308, 2.2250738585072014e-308,
             0.1, 1.0 / 3.0, 123456789.125, 2.0 ** 53 + 2.0, 4.35e-5, 1e16, 1e-7]

    @staticmethod
    def _write(tmp_path, columns, block) -> bytes:
        losses, cumulative, averages = (np.array(c, dtype=float) for c in columns)
        ledger = type("Ledger", (), {"horizon": losses.size, "losses": losses,
                                     "cumulative": cumulative, "averages": averages})
        path = tmp_path / "series.csv"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_SERIES_BLOCK", block)
            cli._write_series_csv(path, ledger)
        return path.read_bytes()

    @pytest.mark.parametrize("block", [1, 5, 12, 4096])
    def test_edge_values_match_the_per_cell_format(self, tmp_path, block):
        columns = (self.EDGES, self.EDGES[::-1], self.EDGES[3:] + self.EDGES[:3])
        assert self._write(tmp_path, columns, block) == _per_cell_series(*columns)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                    min_size=1, max_size=20), st.integers(1, 8))
    def test_any_finite_values_match(self, rows, block):
        with tempfile.TemporaryDirectory() as tmp:
            columns = tuple(zip(*rows))
            assert self._write(Path(tmp), columns, block) == _per_cell_series(*columns)


class TestGenToy:
    def test_row_count_and_labels(self, tmp_path):
        out = tmp_path / "toy.csv"
        assert main(["gen-toy", "--n", "10", "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,y"
        assert len(lines) == 11
        assert all(line.split(",")[2] in ("-1", "1") for line in lines[1:])

    def test_identical_bytes_per_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-toy", "--n", "50", "--seed", "9", "--out", str(a)])
        main(["gen-toy", "--n", "50", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_paper_size(self, tmp_path):
        out = tmp_path / "toy10k.csv"
        assert main(["gen-toy", "--n", "10000", "--seed", "0", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 10001

    def test_bad_n(self, tmp_path):
        assert main(["gen-toy", "--n", "0", "--seed", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestGradcheck:
    def test_hinge_passes(self):
        assert main(["gradcheck", "--loss", "hinge", "--trials", "50",
                     "--tol", "1e-5", "--seed", "0"]) == 0

    def test_squared_linear_passes(self):
        assert main(["gradcheck", "--loss", "squared-linear", "--trials", "50",
                     "--tol", "1e-5", "--seed", "0"]) == 0

    def test_impossible_tolerance_may_fail(self):
        # documented: the finite-difference error floor sits above 1e-12
        code = main(["gradcheck", "--loss", "squared-linear", "--trials", "20",
                     "--tol", "1e-12", "--seed", "0"])
        assert code in (0, 1)

    def test_nn_statistical(self):
        assert main(["gradcheck", "--loss", "squared-nn", "--trials", "2",
                     "--seed", "0", "--mc-samples", "40000"]) == 0

    def test_nn_checks_the_kernel_of_the_pass(self, monkeypatch):
        # a g_sigma 1.5 times too large in the Monte-Carlo kernel fails
        kernel = cli.mc_grad_eps

        def wrong(*args):
            losses, g_m, g_sigma = kernel(*args)
            return losses, g_m, 1.5 * g_sigma

        monkeypatch.setattr(cli, "mc_grad_eps", wrong)
        assert main(["gradcheck", "--loss", "squared-nn", "--trials", "1",
                     "--mc-samples", "20000"]) == 1

    def test_convex_checks_the_kernel_of_the_pass(self, monkeypatch):
        # a g_m 1% too large in the closed-form kernel fails
        kernel = cli.expected_grad_xy

        def wrong(*args):
            g_m, g_sigma = kernel(*args)
            return 1.01 * g_m, g_sigma

        monkeypatch.setattr(cli, "expected_grad_xy", wrong)
        assert main(["gradcheck", "--loss", "hinge", "--trials", "20"]) == 1

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_nn_needs_two_samples(self, capsys, samples):
        # one sample has no standard error, so no margin to check against
        assert main(["gradcheck", "--loss", "squared-nn", "--trials", "1",
                     "--mc-samples", samples]) == 2
        assert "--mc-samples must be >= 2" in capsys.readouterr().err


class TestBounds:
    def test_all_hold(self, run_dir):
        assert main(["bounds", "--run", str(run_dir), "--theorem", "all"]) == 0

    @pytest.mark.parametrize("box, sigma", [
        ("box_sigma_lo = 1", "1"),
        ("box_sigma_hi = 1e-8", "1e-08"),
    ])
    def test_theorem2_names_the_comparator_sigma_used(self, tmp_path, capsys, box, sigma):
        # the point-mass comparator's 0.01 is clipped into the sigma box
        config = tmp_path / "exp.ini"
        config.write_text(f"[run]\nseed = 1\n{box}\ncomparator_restarts = 0\n"
                          "[dataset]\nsource = toy\nn = 100\nloss = hinge\n"
                          "[algorithm.sva]\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        note = f"comparator sigma={sigma}"
        assert summary["algorithms"]["sva"]["bound_notes"].endswith(note)
        capsys.readouterr()
        assert main(["bounds", "--run", str(out), "--theorem", "2"]) == 0
        assert capsys.readouterr().out.rstrip().endswith(f"{note})")

    def test_single_theorem(self, run_dir):
        assert main(["bounds", "--run", str(run_dir), "--theorem", "3"]) == 0

    def test_missing_comparator_is_config_error(self, run_dir, tmp_path):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(run_dir, broken)
        (broken / "comparator.csv").unlink()
        assert main(["bounds", "--run", str(broken), "--theorem", "all"]) == 2

    def test_not_a_run_dir(self, tmp_path):
        assert main(["bounds", "--run", str(tmp_path), "--theorem", "all"]) == 2

    def test_hinge_on_real_targets_certifies_l_from_the_labels(self, tmp_path, capsys):
        # hinge on an iid_regression stream: targets up to 3.55e6, where the
        # hinge gradient -y x Phi(z) is that many times ||x||.  With L from
        # ||x|| alone, Theorems 3 and 4 read VIOLATED on correct learners.
        config = tmp_path / "exp.ini"
        config.write_text("[run]\nseed = 79\n[dataset]\nsource = iid_regression\n"
                          "theta_star = 1e6,1\nn = 200\nloss = hinge\n"
                          "[algorithm.svb_thm3]\nalgo = svb\nschedule = thm3_convex\n"
                          "[algorithm.ogael]\neta = 0.1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["bounds", "--run", str(out), "--theorem", "all"]) == 0
        report = capsys.readouterr().out
        assert "L=2.55301e+07" in report and "VIOLATED" not in report


# ---------------------------------------------------------------------------
# property: on a convex loss, a run that succeeds has bounds that hold

_ETA = st.floats(1e-3, 10.0).map(repr)
_SECTION_OPTIONS = {
    "sva": st.fixed_dictionaries({"eta": st.one_of(st.just("auto"), _ETA),
                                  "project": st.sampled_from(["true", "false"])}),
    "svb": st.just({"schedule": "inv_sigma_sqrt_t"}),
    "svb_fixed": st.fixed_dictionaries({"algo": st.just("svb"), "schedule": st.just("fixed"),
                                        "eta": _ETA}),
    "svb_thm3": st.just({"algo": "svb", "schedule": "thm3_convex"}),
    "svb_strong": st.fixed_dictionaries({"algo": st.just("svb"),
                                         "schedule": st.just("thm3_strong"), "h": _ETA}),
    "ngvi": st.fixed_dictionaries({"eta": _ETA, "alpha": _ETA}),
    "oga": st.fixed_dictionaries({"eta": st.one_of(st.just("auto"), _ETA)}),
    "ogael": st.fixed_dictionaries({"eta": st.one_of(st.just("auto"), _ETA)}),
    "ewagrid": st.fixed_dictionaries({"experts": st.sampled_from(["diagonal:5", "diagonal:21"]),
                                      "eta": st.one_of(st.just("auto"), _ETA)}),
}
#: the sections with a theorem that ``bounds`` checks on a convex loss
_CHECKED = {"sva", "svb_thm3", "ogael", "ewagrid"}


@st.composite
def _convex_config(draw):
    loss, source = draw(st.sampled_from([("hinge", "toy"), ("hinge", "iid_regression"),
                                         ("squared-linear", "iid_regression")]))
    dataset = {"source": source, "loss": loss, "n": draw(st.integers(20, 200))}
    if source == "iid_regression":
        theta = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3))
        dataset["theta_star"] = ",".join(map(repr, theta))
    run = {"seed": draw(st.integers(0, 1000)), "comparator_restarts": draw(st.integers(0, 1)),
           "comparator_iters": "100", "prior_s": repr(draw(st.floats(0.1, 10.0))),
           "box_m_abs": repr(draw(st.floats(0.5, 50.0))),
           "box_sigma_hi": repr(draw(st.floats(0.05, 2.0))),
           "holdout_fraction": draw(st.sampled_from(["0", "0.1", "0.3"]))}
    names = draw(st.lists(st.sampled_from(sorted(_SECTION_OPTIONS)), min_size=1, max_size=4,
                          unique=True))
    sections = {f"algorithm.{name}": draw(_SECTION_OPTIONS[name]) for name in names}
    return {"run": run, "dataset": dataset, **sections}


class TestRunThenBoundsProperty:
    """A deterministic theorem cannot fail on a correct learner: a convex
    run that exits 0 has bounds that hold.  A run that fails exits 2 naming
    a key, or 3 naming a step and a learner, and leaves no directory."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_convex_config())
    def test_a_run_that_succeeds_has_bounds_that_hold(self, sections):
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in options.items())
                       for name, options in sections.items())
        names = [name.split(".", 1)[1] for name in sections if name.startswith("algorithm.")]
        with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
            config = Path(tmp) / "exp.ini"
            config.write_text(text, encoding="utf-8")
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", "--config", str(config), "--out", str(out)])
            if code == 0:
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    bounds = main(["bounds", "--run", str(out), "--theorem", "all"])
                assert bounds == 0 or (bounds == 2 and not _CHECKED.intersection(names)
                                       and "no applicable checks" in err.getvalue()), text
                return
            message = err.getvalue()
            assert "Traceback" not in message
            assert not out.exists(), text
            if code == 2:
                assert message.startswith("configuration error: "), message
                assert re.search(r"\[[\w.]+\]|dataset ", message), message
            else:
                assert code == 3, (code, message)
                step = re.match(r"runtime error: step \d+ \((\w+)\): ", message)
                assert step and step.group(1) in names, message


def _finite_json(value) -> bool:
    if isinstance(value, float):
        return np.isfinite(value)
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    return True


@st.composite
def _extreme_csv(draw):
    """A small regression CSV (x0, ..., y) with one cell scaled by 10^k, or
    with tiny or subnormal targets, and a convex config over it."""
    rows, d = draw(st.integers(6, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    table = rng.uniform(-1.5, 1.5, size=(rows, d + 1))
    case = draw(st.sampled_from(["cell", "tiny", "subnormal"]))
    if case == "cell":
        row, column = draw(st.integers(0, rows - 1)), draw(st.integers(0, d))
        table[row, column] *= 10.0 ** draw(st.integers(0, 308))
    elif case == "tiny":
        table[:, -1] *= 10.0 ** -draw(st.integers(150, 307))
    else:
        table[:, -1] = rng.integers(-1000, 1000, rows) * 5e-324
    text = ",".join([f"x{j}" for j in range(d)] + ["y"]) + "\n"
    text += "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
    run = {"seed": draw(st.integers(0, 1000)), "comparator_restarts": draw(st.integers(0, 1)),
           "comparator_iters": "50",
           "holdout_fraction": draw(st.sampled_from(["0", "0.2"]))}
    dataset = {"source": "csv", "label": "y", "permute": "false",
               "loss": draw(st.sampled_from(["hinge", "squared-linear"])),
               "standardize": draw(st.sampled_from(["true", "false"]))}
    names = draw(st.lists(st.sampled_from(sorted(_SECTION_OPTIONS)), min_size=1, max_size=4,
                          unique=True))
    sections = {f"algorithm.{name}": draw(_SECTION_OPTIONS[name]) for name in names}
    return text, {"run": run, "dataset": dataset, **sections}


class TestExtremeInputProperty:
    """Finite input whose squares or losses overflow a float, or whose
    targets are tiny or subnormal: a run exits 0 with a finite summary,
    exits 2 naming a key or the dataset, or exits 3 naming a step and a
    learner.  It never ends in a traceback (exit 1)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_extreme_csv())
    def test_every_run_exits_with_a_name(self, case):
        table, sections = case
        names = [name.split(".", 1)[1] for name in sections if name.startswith("algorithm.")]
        with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
            (Path(tmp) / "data.csv").write_text(table, encoding="utf-8")
            sections["dataset"]["path"] = Path(tmp) / "data.csv"
            text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in options.items())
                           for name, options in sections.items())
            config = Path(tmp) / "exp.ini"
            config.write_text(text, encoding="utf-8")
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", "--config", str(config), "--out", str(out)])
            message = err.getvalue()
            if code == 0:
                summary = json.loads((out / "summary.json").read_text(encoding="utf-8"),
                                     parse_constant=float)
                assert _finite_json(summary), (text, table)
                return
            assert "Traceback" not in message
            assert not out.exists(), text
            if code == 2:
                assert message.startswith("configuration error: "), message
                assert re.search(r"\[[\w.]+\]|dataset ", message), message
            else:
                assert code == 3, (code, message)
                step = re.match(r"runtime error: step \d+ \((\w+)\): ", message)
                assert step and step.group(1) in names, message


# ---------------------------------------------------------------------------
# the runtime needs numpy and the standard library only


def _python(code: str, *args: str, **variables: str | None) -> str:
    """Standard output of ``code`` run by a fresh interpreter that imports
    this package's source, with the environment ``variables`` set (or
    unset, where None)."""
    src = str(Path(onlinevi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestBlasThreads:
    """Importing the package asks OpenBLAS for one thread unless the user
    already chose a count; the count never changes the outputs."""

    COUNT = "import os, onlinevi\nprint(len(os.listdir('/proc/self/task')))"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="threads are counted from /proc/self/task")
    def test_import_leaves_one_thread_unless_the_user_chose(self):
        assert _python(self.COUNT, OPENBLAS_NUM_THREADS=None).strip() == "1"
        # OpenBLAS caps the count at the number of processors
        expected = min(2, os.cpu_count() or 1)
        assert _python(self.COUNT, OPENBLAS_NUM_THREADS="2").strip() == str(expected)

    def test_thread_count_does_not_change_the_csvs(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(
            "[run]\nseed = 2\nholdout_fraction = 0.25\ncomparator_restarts = 2\n"
            "comparator_iters = 200\n\n[dataset]\nsource = csv\n"
            f"path = {tmp_path / 'toy.csv'}\nlabel = y\npositive_label = 1\nloss = hinge\n\n"
            + BASE_CONFIG[BASE_CONFIG.index("[algorithm.sva]"):], encoding="utf-8")
        code = ("import sys\nfrom onlinevi.cli import main\n"
                "sys.exit(main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]))")
        main(["gen-toy", "--n", "300", "--seed", "4", "--out", str(tmp_path / "toy.csv")])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out-{threads}"
            _python(code, str(config), str(out), OPENBLAS_NUM_THREADS=threads)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        assert set(outputs[0]) == {"comparator.csv", *(f"{n}.csv" for n in ALGO_NAMES)}
        assert outputs[0] == outputs[1]


class TestNumpyOnlyRuntime:
    def test_import_loads_no_scipy_module(self):
        out = _python("import sys, onlinevi.cli\n"
                      "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert out.strip() == "[]"

    def test_import_loads_no_openssl(self):
        # rng takes blake2b from _blake2; hashlib would load OpenSSL's libcrypto
        out = _python("import sys, onlinevi.cli\nprint('_hashlib' in sys.modules)")
        assert out.strip() == "False"

    def test_every_verb_runs_with_scipy_blocked(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(BASE_CONFIG.replace("seed = 1", "seed = 1\nholdout_fraction = 0.25"),
                          encoding="utf-8")
        out = tmp_path / "out"
        commands = [
            ["gen-toy", "--n", "50", "--seed", "3", "--out", str(tmp_path / "toy.csv")],
            ["run", "--config", str(config), "--out", str(out)],
            ["bounds", "--run", str(out), "--theorem", "all"],
            ["gradcheck", "--loss", "hinge", "--trials", "20"],
            ["gradcheck", "--loss", "squared-linear", "--trials", "20"],
            ["gradcheck", "--loss", "squared-nn", "--trials", "1", "--mc-samples", "20000"],
        ]
        # a None entry in sys.modules makes every `import scipy...` raise ImportError
        out_text = _python("import json, sys\n"
                           "sys.modules['scipy'] = None\n"
                           "from onlinevi.cli import main\n"
                           "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
                           "print(json.dumps(codes))", json.dumps(commands))
        assert json.loads(out_text.splitlines()[-1]) == [0, 0, 0, 0, 0, 0]
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["algorithms"]) == set(ALGO_NAMES)
        assert all("holdout_risk" in entry for entry in summary["algorithms"].values())
