"""The benchmark's workloads.

Each workload turns ``(work directory, seed, smoke)`` into an ``onlinevi``
config file plus any input files it names.  The seed is the run seed of the
config, so it fixes the data stream, its permutation, the Monte-Carlo draws
and the comparator's restarts; the same seed gives the same inputs.  The
reason each workload exists is its ``why`` in ``BENCHMARK.json``: every
layer does most of its work in one workload and little in another.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: The six learners plus SVB under its Theorem 3 schedule (convex losses only).
CONVEX_SECTIONS = {
    "sva": {}, "svb": {}, "svb_thm3": {"algo": "svb", "schedule": "thm3_convex"},
    "ngvi": {}, "oga": {}, "ogael": {}, "ewagrid": {"experts": "diagonal:41"},
}
NN_SECTIONS = {name: opts for name, opts in CONVEX_SECTIONS.items() if name != "svb_thm3"}


@dataclass(frozen=True)
class Workload:
    name: str
    sections: tuple[str, ...]
    #: ``bounds --theorem all`` exits 0 with deterministic Theorems 1, 3, 4
    #: checked; otherwise no theorem applies and it exits 2 by design.
    convex: bool
    make: Callable[[Path, int, bool], Path]


def _write_config(path: Path, run: dict, dataset: dict, sections: dict) -> Path:
    blocks = [("run", run), ("dataset", dataset)]
    blocks += [(f"algorithm.{name}", opts) for name, opts in sections.items()]
    text = "\n".join(f"[{title}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                     for title, body in blocks)
    path.write_text(text, encoding="utf-8")
    return path


def _make_toy_hinge(work: Path, seed: int, smoke: bool) -> Path:
    run = {"seed": seed}
    if smoke:
        run.update(comparator_restarts=1, comparator_iters=50)
    dataset = {"source": "toy", "n": 400 if smoke else 10000, "loss": "hinge"}
    return _write_config(work / "toy-hinge.ini", run, dataset, CONVEX_SECTIONS)


def _make_nn_mc(work: Path, seed: int, smoke: bool) -> Path:
    run = {"seed": seed, "mc_samples": 32, "comparator_restarts": 2}
    if smoke:
        run.update(comparator_restarts=0, comparator_iters=50)
    dataset = {"source": "iid_regression", "theta_star": "1,-0.5",
               "n": 100 if smoke else 2000, "loss": "squared-nn", "hidden_width": 16}
    return _write_config(work / "nn-mc.ini", run, dataset, NN_SECTIONS)


CSV_ROWS = 6000
CSV_FEATURES = 10


def write_regression_csv(path: Path, rows: int, seed: int) -> None:
    """Linear-regression table with unequal feature scales and offsets (so
    that ``standardize`` has work to do), written at 17 significant digits."""
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.5, 3.0, CSV_FEATURES)
    offset = rng.uniform(-2.0, 2.0, CSV_FEATURES)
    features = rng.standard_normal((rows, CSV_FEATURES)) * scale + offset
    weights = rng.uniform(-1.0, 1.0, CSV_FEATURES)
    targets = (features - offset) / scale @ weights + 0.5 * rng.standard_normal(rows)
    header = ",".join([f"x{j}" for j in range(CSV_FEATURES)] + ["y"])
    lines = [header]
    lines += [",".join(format(v, ".17g") for v in (*row, y))
              for row, y in zip(features.tolist(), targets.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _make_csv_linreg_holdout(work: Path, seed: int, smoke: bool) -> Path:
    data = work / "regression.csv"
    write_regression_csv(data, 500 if smoke else CSV_ROWS, seed)
    run = {"seed": seed, "holdout_fraction": 0.2, "comparator_restarts": 4}
    if smoke:
        run.update(comparator_restarts=1, comparator_iters=50)
    dataset = {"source": "csv", "path": data.resolve(), "label": "y",
               "standardize": "true", "loss": "squared-linear"}
    return _write_config(work / "csv-linreg-holdout.ini", run, dataset, CONVEX_SECTIONS)


WORKLOADS = {
    w.name: w for w in (
        Workload("toy-hinge", tuple(CONVEX_SECTIONS), True, _make_toy_hinge),
        Workload("nn-mc", tuple(NN_SECTIONS), False, _make_nn_mc),
        Workload("csv-linreg-holdout", tuple(CONVEX_SECTIONS), True,
                 _make_csv_linreg_holdout),
    )
}
