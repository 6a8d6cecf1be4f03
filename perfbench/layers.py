"""Per-layer metrics from one traced run.

Each metric names the wrapped targets it is computed from; when one of them
is in the traced child's ``missing_targets`` the metric is reported missing
instead of being computed from absent spans (which would read as zero).
Span totals cover both commands of the traced child, ``run`` then
``bounds``.
"""

from __future__ import annotations

from pathlib import Path

from .tracer import LAYERS, Spans

HOLDOUT = ("evaluation.online_to_batch", "evaluation.generalization_estimate",
           "evaluation.jensen_holdout_audit")
LOADERS = ("data.gen_toy_classification", "data.gen_iid_regression", "data.load_csv")


def per_layer_metrics(spans_path: Path, child: dict, sections, steps: int,
                      out: Path, overhead_s: float) -> tuple[dict, list]:
    spans = Spans(spans_path)
    gone = set(child["missing_targets"])
    metrics: dict[str, float] = {}
    missing = [f"target {t} not found" for t in child["missing_targets"]]
    missing += child["missing_kernels"]

    def put(name: str, needs: tuple[str, ...], compute) -> None:
        absent = [t for t in needs if t in gone]
        if absent:
            missing.append(f"{name} (needs {', '.join(absent)})")
        else:
            metrics[name] = compute()

    seen = {name.split(".", 1)[0] for name in spans.names}
    for layer, seconds in spans.layer_self().items():
        if layer not in LAYERS:
            continue
        if layer in seen:
            metrics[f"{layer}.self_s"] = seconds
        else:
            missing.append(f"{layer}.self_s (no span of layer {layer} recorded)")

    runs = spans.indices("learners.run_online")
    main_spans = spans.indices("cli.main")

    def per_step(i):
        return lambda: float(spans.duration[runs[i]]) * 1e6 / steps

    if len(runs) == len(sections):
        for i, name in enumerate(sections):
            put(f"learners.us_per_step.{name}", ("cli:run_online",), per_step(i))
    else:
        missing.append(f"learners.us_per_step.* ({len(runs)} run_online calls "
                       f"for {len(sections)} sections)")
    put("learners.share_of_run", ("cli:run_online", "cli:main"),
        lambda: float(spans.duration[runs].sum() / spans.duration[main_spans[0]]))
    put("family.gaussians_per_step",
        ("cli:run_online", "family:MeanFieldGaussian.__post_init__"),
        lambda: spans.count_within("family.MeanFieldGaussian.__post_init__",
                                   "learners.run_online") / (steps * len(sections)))

    put("evaluation.comparator_s", ("cli:best_in_hindsight",),
        lambda: spans.total("evaluation.best_in_hindsight"))
    put("evaluation.comparator_objective_evals",
        ("cli:best_in_hindsight", "evaluation:point_loss_series"),
        lambda: spans.count_children("losses.point_loss_series",
                                     "evaluation.best_in_hindsight"))
    put("evaluation.comparator_total", (), lambda: float(
        (out / "comparator.csv").read_text().splitlines()[1].split(",")[0]))
    put("evaluation.holdout_s", tuple("cli:" + n.split(".")[1] for n in HOLDOUT),
        lambda: sum(spans.total(n) for n in HOLDOUT))
    put("evaluation.holdout_peak_mb", tuple("cli:" + n.split(".")[1] for n in HOLDOUT),
        lambda: max(child["peak_bytes"].values(), default=0) / 2 ** 20)
    put("evaluation.alpha_estimate_s", ("cli:alpha_estimate",),
        lambda: spans.total("evaluation.alpha_estimate"))
    put("evaluation.ledger_s", ("cli:build_ledger",),
        lambda: spans.total("evaluation.build_ledger"))

    put("data.load_s", tuple("data:" + n.split(".")[1] for n in LOADERS),
        lambda: sum(spans.total(n) for n in LOADERS))
    put("data.prepare_stream_s", ("data:prepare_stream",),
        lambda: spans.total("data.prepare_stream"))

    metrics["cli.import_s"] = child["import_s"]
    put("cli.materialize_self_s", ("cli:materialize",),
        lambda: spans.total_self("cli.materialize"))
    put("cli.bound_records_s", ("cli:bound_records",),
        lambda: spans.total("cli.bound_records"))
    put("cli.write_series_s", ("cli:_write_series_csv",),
        lambda: spans.total("cli._write_series_csv"))
    put("cli.read_series_s", ("cli:_read_series_csv",),
        lambda: spans.total("cli._read_series_csv"))
    metrics["cli.series_bytes"] = sum((out / f"{name}.csv").stat().st_size
                                      for name in sections)

    for name, value in child["kernels"].items():
        metrics[name] = value
    metrics["trace.overhead_s"] = overhead_s
    return metrics, missing
