"""Harness contracts: artifacts, exit codes, determinism, summary audit."""

import json

import numpy as np
import pytest

from onlinevi.cli import load_experiment, main, materialize
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
        assert set(phases) == {"load", "comparator", "learners", "bounds", "write"}
        assert set(phases["learners"]) == set(ALGO_NAMES)
        assert summary["algorithms"]["ngvi"]["ngvi_halvings"] == {
            "count": 0, "first_step": None, "last_step": None}

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

    def test_byte_identical_rerun(self, run_dir, tmp_path):
        out2 = tmp_path / "out2"
        assert main(["run", "--config", str(run_dir / "config.ini"),
                     "--out", str(out2)]) == 0
        for name in ALGO_NAMES + ["comparator"]:
            a = (run_dir / f"{name}.csv").read_bytes()
            b = (out2 / f"{name}.csv").read_bytes()
            assert a == b, name

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

CONFIGS = {"toy": BASE_CONFIG, "nn": NN_CONFIG}


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
        pytest.param("toy", "comparator_restarts = 5", "comparator_restarts = -3",
                     "[run] comparator_restarts", id="comparator_restarts-negative"),
        pytest.param("toy", "comparator_iters = 400", "comparator_iters = -1",
                     "[run] comparator_iters", id="comparator_iters-negative"),
        # unknown keys and sections
        pytest.param("toy", "seed = 1", "seed = 1\nmc_sampels = 4", "[run] mc_sampels",
                     id="unknown-run-key"),
        pytest.param("toy", "[run]", "[runs]\nseed = 1\n[run]", "[runs]", id="unknown-section"),
    ])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, base, old, new, needle):
        text = CONFIGS[base]
        assert old in text
        code, err = self._run(tmp_path, capsys, text.replace(old, new, 1))
        assert code == 2
        assert needle in err

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


def _header_only(text):
    return text.splitlines()[0] + "\n"


def _non_numeric_loss(text):
    lines = text.splitlines()
    lines[5] = "5,abc,1,1"
    return "\n".join(lines) + "\n"


def _truncated(text):
    return "\n".join(text.splitlines()[:100]) + "\n"


class TestMalformedRunDirectory:
    @pytest.mark.parametrize("name, edit", [
        pytest.param("comparator.csv", _header_only, id="comparator-header-only"),
        pytest.param("sva.csv", _non_numeric_loss, id="series-non-numeric"),
        pytest.param("sva.csv", _truncated, id="series-truncated"),
    ])
    def test_bounds_exits_2_naming_the_file(self, run_dir, tmp_path, capsys, name, edit):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(run_dir, broken)
        path = broken / name
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        assert main(["bounds", "--run", str(broken), "--theorem", "all"]) == 2
        assert name in capsys.readouterr().err


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


class TestBounds:
    def test_all_hold(self, run_dir):
        assert main(["bounds", "--run", str(run_dir), "--theorem", "all"]) == 0

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
