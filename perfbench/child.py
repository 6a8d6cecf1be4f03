"""Child processes of the benchmark; run as ``python3 -m perfbench.child``.

``setup <config> <result.json>``
    Imports ``onlinevi.cli``, parses the config and materializes it, the
    work ``onlinevi run`` does before its first comparator step, then
    records ``time.monotonic()``.  The parent read the same system-wide
    clock at spawn, so the difference is the set-up time from process start.

``trace <config> <out dir> <spans.npz> <result.json> <seed> <rows>``
    Runs ``onlinevi run`` and then ``onlinevi bounds`` in this process with
    the tracer's wrappers installed, saves the spans, and afterwards times
    single kernel calls (inputs from ``seed``; one permutation of ``rows``)
    with the wrappers removed.

Both write one JSON object to ``result.json``; standard output is left to
the commands they run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path


def _import_cli():
    import onlinevi.cli as cli

    source = Path(cli.__file__).resolve().parent
    expected = (Path.cwd() / "src" / "onlinevi").resolve()
    if source != expected:
        raise SystemExit(f"onlinevi was imported from {source}, not {expected}")
    return cli


def _setup(config: str, result_path: str) -> None:
    cli = _import_cli()
    import numpy as np
    import scipy

    ctx = cli.materialize(cli.load_experiment(config))
    t_end = time.monotonic()
    cfg = ctx.cfg
    sizes = {
        "T": ctx.horizon,
        "rows": ctx.horizon + (ctx.holdout.T if ctx.holdout is not None else 0),
        "holdout_rows": ctx.holdout.T if ctx.holdout is not None else 0,
        "d": ctx.stream.d,
        "d_param": ctx.box.d,
        "sections": [spec.name for spec, _, _ in ctx.resolved],
        "mc_samples": cfg.mc_samples,
        "comparator_starts": cfg.comparator_restarts + (1 if ctx.kind.kind == "squared_nn" else 2),
        "comparator_iters": cfg.comparator_iters,
    }
    versions = {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__}
    Path(result_path).write_text(json.dumps({"t_end": t_end, "sizes": sizes,
                                             "versions": versions}))


def _median_call_s(fn, calls: int, repeats: int) -> float:
    """Median over ``repeats`` batches of the mean time of one call."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def _kernels(seed: int, rows: int) -> tuple[dict, list]:
    """Per-call costs of the kernels named in the per-layer metrics, timed
    on fixed-size inputs made from the seed.  A kernel whose functions are
    gone is reported missing."""
    import numpy as np

    from onlinevi import family, losses, rng

    gen = np.random.default_rng(seed)
    out, missing = {}, []

    def hinge_grad():
        q = family.MeanFieldGaussian(gen.normal(size=2), gen.uniform(0.2, 1.0, 2))
        ex = losses.DataExample(gen.normal(size=2), 1.0)
        kind = losses.LossKind.hinge()
        return lambda: losses.expected_loss_grad(kind, q, ex)

    def linear_grad():
        q = family.MeanFieldGaussian(gen.normal(size=10), gen.uniform(0.2, 1.0, 10))
        ex = losses.DataExample(gen.normal(size=10), float(gen.normal()))
        kind = losses.LossKind.squared_linear()
        return lambda: losses.expected_loss_grad(kind, q, ex)

    def mc_grad():
        kind = losses.LossKind.squared_nn(16)
        d = kind.param_dim(2)
        q = family.MeanFieldGaussian(0.5 * gen.normal(size=d), gen.uniform(0.2, 1.0, d))
        ex = losses.DataExample(gen.normal(size=2), float(gen.normal()))
        return lambda: losses.mc_expected_loss_and_grad(kind, q, ex, 32, seed)

    def normals():
        stream = rng.CounterRng(seed, "perfbench")
        return lambda: stream.normals(2080)

    def derive():
        return lambda: rng.derive_seed(seed, 12345)

    def permutation():
        return lambda: rng.CounterRng(seed, "stream-permutation").permutation(rows)

    plan = [
        # metric, factory, calls per batch, batches, scale from seconds
        ("losses.expected_grad_us.hinge", hinge_grad, 200, 15, 1e6),
        ("losses.expected_grad_us.squared_linear", linear_grad, 200, 15, 1e6),
        ("losses.mc_grad_us", mc_grad, 20, 15, 1e6),
        ("rng.normals_ns_per_value", normals, 20, 15, 1e9 / 2080),
        ("rng.derive_seed_us", derive, 200, 15, 1e6),
        ("rng.permutation_ms", permutation, 1, 5, 1e3),
    ]
    for metric, factory, calls, repeats, scale in plan:
        try:
            call = factory()
            call()  # warm-up; also fails fast if a signature changed
        except (AttributeError, TypeError) as exc:
            missing.append(f"{metric}: {exc}")
            continue
        out[metric] = _median_call_s(call, calls, repeats) * scale
    return out, missing


def _trace(config: str, out_dir: str, spans_path: str, result_path: str,
           seed: str, rows: str) -> None:
    t0 = time.perf_counter()
    cli = _import_cli()
    import_s = time.perf_counter() - t0

    from perfbench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    rc_run = cli.main(["run", "--config", config, "--out", out_dir])
    t_run_end = time.monotonic()
    sys.stdout.flush()
    rc_bounds = cli.main(["bounds", "--run", out_dir, "--theorem", "all"])
    sys.stdout.flush()
    tracer.uninstall()
    tracer.save(spans_path)

    kernels, kernel_missing = _kernels(int(seed), int(rows))
    Path(result_path).write_text(json.dumps({
        "import_s": import_s, "t_run_end": t_run_end,
        "rc_run": rc_run, "rc_bounds": rc_bounds,
        "missing_targets": tracer.missing, "missing_kernels": kernel_missing,
        "peak_bytes": tracer.peak_bytes, "kernels": kernels, "spans": len(tracer.start),
    }))


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        _setup(*args)
    elif mode == "trace":
        _trace(*args)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
