"""Benchmark runner: one workload, untraced repetitions, checks, metrics.

A run with ``--trace 0``:

1. writes the workload's config (and input files) from ``--seed``;
2. starts one warm-up child (bytecode caches, input sizes, versions);
3. repeats, in fresh processes, a set-up probe (imports ``onlinevi.cli`` and
   materializes the config; timed from spawn to the end of
   ``materialize``), ``onlinevi run`` and ``BOUNDS_PER_REP`` times
   ``onlinevi bounds``, until the next repetition would end after
   ``--seconds`` (at least ``MIN_REPS`` repetitions, since outputs are
   compared across them, and at least ``SETUP_PROBES`` set-up probes), and
   checks every output;
4. prints each end-to-end metric (median over repetitions) and, as its
   last line, the JSON result.

``--trace 1`` does the same and then one traced run (``child.py trace``);
it reports the per-layer metrics instead, including the tracing overhead
against the untraced median.  Every command invocation and every output
check is one operation; ``failed / attempted`` is ``ops_failed_ratio``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .workloads import WORKLOADS, Workload

MIN_REPS = 2
SETUP_PROBES = 3
#: ``bounds`` is short, so it runs more than once per repetition to give its
#: median as many samples as the longer ``run``.
BOUNDS_PER_REP = 2
#: Every child is killed once the whole run has taken this long, so the
#: benchmark ends well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    spawned_at: float  # time.monotonic() just before the spawn
    stdout: str
    stderr: str


@dataclass
class Rep:
    setup_s: float | None
    run: Proc
    bounds: list[Proc]
    seconds: float


class Ops:
    """Counts operations (command invocations and output checks) and keeps
    a line for each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class Bench:
    def __init__(self, root: Path, work: Path, workload: Workload, seed: int,
                 seconds: float, trace: bool, smoke: bool):
        self.root, self.work, self.workload = root, work, workload
        self.seed, self.seconds, self.trace, self.smoke = seed, seconds, trace, smoke
        self.started = time.perf_counter()
        self.ops = Ops()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.reference: Path | None = None
        self.bounds_report: list[str] | None = None

    # -- processes -------------------------------------------------------

    def spawn(self, args: list[str], tag: str) -> Proc:
        """Run ``python3 <args>`` from the checkout root and wait for it,
        with its own resource usage (wall, CPU, peak RSS)."""
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        remaining = HARD_LIMIT_S - (time.perf_counter() - self.started)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned_at = time.monotonic()
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(max(remaining, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        return Proc(rc=proc.returncode, wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    rss_mb=usage.ru_maxrss / 1024.0, spawned_at=spawned_at,
                    stdout=out_path.read_text(errors="replace"),
                    stderr=err_path.read_text(errors="replace"))

    def setup_probe(self, config: Path, tag: str) -> dict | None:
        result = self.work / f"{tag}.json"
        proc = self.spawn(["-m", "perfbench.child", "setup", str(config), str(result)], tag)
        if not self.ops.check(proc.rc == 0, f"{tag}: exit {proc.rc}: {proc.stderr[-300:]}"):
            return None
        info = json.loads(result.read_text())
        info["setup_s"] = info["t_end"] - proc.spawned_at
        return info

    def cli(self, *args: str, tag: str) -> Proc:
        return self.spawn(["-m", "onlinevi.cli", *args], tag)

    # -- checks ----------------------------------------------------------

    def check_bounds(self, rc: int, stdout: str, stderr: str, label: str) -> None:
        report = [line for line in stdout.splitlines() if line.startswith("theorem ")]
        report += [line for line in stderr.splitlines() if "error" in line]
        if self.bounds_report is None:
            self.bounds_report = report
        else:
            self.ops.check(report == self.bounds_report,
                           f"{label}: bounds report differs from the first one")
        if not self.workload.convex:
            self.ops.check(rc == 2 and "no applicable checks" in stderr,
                           f"{label}: bounds should exit 2 with no applicable theorem, "
                           f"got {rc}: {stderr[-300:]}")
            return
        held, violated = set(), []
        for line in stdout.splitlines():
            if line.startswith("theorem ") and "[deterministic]" in line:
                if line.endswith(")") and "-> holds" in line:
                    held.add(int(line.split()[1]))
                else:
                    violated.append(line)
        self.ops.check(rc == 0 and not violated and {1, 3, 4} <= held,
                       f"{label}: bounds exit {rc}, deterministic theorems holding "
                       f"{sorted(held)}, violated {violated}")

    def check_outputs(self, out: Path, label: str) -> None:
        """Each learner's total, summed left to right from its series CSV,
        against summary.json: ``total - comparator.total == regret`` and
        ``total / T == final_avg_loss``, exactly."""
        try:
            summary = json.loads((out / "summary.json").read_text())
            comparator_total = float(
                (out / "comparator.csv").read_text().splitlines()[1].split(",")[0])
            same = comparator_total == summary["comparator"]["total"]
        except (OSError, ValueError, IndexError, KeyError) as exc:
            self.ops.check(False, f"{label}: unreadable summary or comparator: {exc!r}")
            return
        self.ops.check(same, f"{label}: comparator.csv total differs from summary.json")
        for name in self.workload.sections:
            try:
                entry = summary["algorithms"][name]
                rows = [line.split(",") for line in
                        (out / f"{name}.csv").read_text().splitlines()[1:]]
                total = 0.0
                for row in rows:
                    total += float(row[1])
                ok = (float(rows[-1][2]) == total
                      and total - comparator_total == entry["regret"]
                      and total / len(rows) == entry["final_avg_loss"])
            except (OSError, ValueError, IndexError, KeyError) as exc:
                self.ops.check(False, f"{label}: {name}: unreadable output: {exc!r}")
                continue
            self.ops.check(ok, f"{label}: {name}: series total {total!r} disagrees "
                               f"with summary.json")

    def check_identical(self, out: Path, label: str) -> None:
        ref = sorted(p.name for p in self.reference.glob("*.csv"))
        got = sorted(p.name for p in out.glob("*.csv"))
        same = ref == got and all(
            (out / n).read_bytes() == (self.reference / n).read_bytes() for n in ref)
        self.ops.check(same, f"{label}: series/comparator CSVs differ from repetition 0")

    # -- the run -----------------------------------------------------------

    def repetition(self, config: Path, i: int) -> Rep:
        start = time.perf_counter()
        probe = self.setup_probe(config, f"setup{i}")
        out = self.work / f"rep{i}"
        run = self.cli("run", "--config", str(config), "--out", str(out), tag=f"run{i}")
        self.ops.check(run.rc == 0, f"rep {i}: run exit {run.rc}: {run.stderr[-300:]}")
        bounds = []
        for j in range(BOUNDS_PER_REP):
            bounds.append(self.cli("bounds", "--run", str(out), "--theorem", "all",
                                   tag=f"bounds{i}-{j}"))
            self.check_bounds(bounds[-1].rc, bounds[-1].stdout, bounds[-1].stderr, f"rep {i}")
        self.check_outputs(out, f"rep {i}")
        if self.reference is None:
            self.reference = out
        else:
            self.check_identical(out, f"rep {i}")
            shutil.rmtree(out)
        return Rep(probe and probe["setup_s"], run, bounds, time.perf_counter() - start)

    def run(self) -> dict:
        config = self.workload.make(self.work, self.seed, self.smoke)
        warm = self.setup_probe(config, "warmup")  # also writes bytecode caches
        if warm is None:
            raise BenchError("; ".join(self.ops.failures))
        reps: list[Rep] = []
        deadline = time.perf_counter() + self.seconds
        while True:
            reps.append(self.repetition(config, len(reps)))
            if len(reps) < MIN_REPS:
                continue
            per_rep = statistics.median(r.seconds for r in reps)
            now = time.perf_counter()
            reserve = 2 * per_rep if self.trace else 0.0
            if (now + per_rep > deadline
                    or now - self.started + per_rep + reserve > HARD_LIMIT_S):
                break

        probes = [self.setup_probe(config, f"setup{i}")
                  for i in range(len(reps), 0 if self.smoke else SETUP_PROBES)]
        samples = {
            "run_wall_s": [r.run.wall_s for r in reps],
            "run_cpu_s": [r.run.cpu_s for r in reps],
            "setup_s": [r.setup_s for r in reps if r.setup_s is not None]
                       + [p["setup_s"] for p in probes if p is not None],
            "bounds_wall_s": [b.wall_s for r in reps for b in r.bounds],
            "peak_rss_mb": [r.run.rss_mb for r in reps],
        }
        e2e = {name: statistics.median(values) for name, values in samples.items() if values}
        result = {
            "sizes": warm["sizes"], "versions": warm["versions"], "end_to_end": e2e,
            "samples": samples,
            "summary_wall_ms": _summary_wall_ms(self.reference),
        }
        if self.trace:
            result.update(self.traced(config, warm["sizes"], e2e["run_wall_s"]))
        return result

    def traced(self, config: Path, sizes: dict, untraced_wall: float) -> dict:
        from .layers import per_layer_metrics

        out = self.work / "traced"
        spans_path = self.work / "spans.npz"
        child_path = self.work / "traced.json"
        proc = self.spawn(["-m", "perfbench.child", "trace", str(config), str(out),
                           str(spans_path), str(child_path), str(self.seed),
                           str(sizes["rows"])], "traced")
        if not self.ops.check(proc.rc == 0,
                              f"traced run: exit {proc.rc}: {proc.stderr[-300:]}"):
            return {"per_layer": {}, "missing": ["traced run failed"],
                    "traced_run_wall_s": None, "spans": 0}
        child = json.loads(child_path.read_text())
        self.ops.check(child["rc_run"] == 0, f"traced run: run exit {child['rc_run']}")
        self.check_bounds(child["rc_bounds"], proc.stdout, proc.stderr, "traced run")
        self.check_outputs(out, "traced run")
        self.check_identical(out, "traced run")
        traced_wall = child["t_run_end"] - proc.spawned_at
        metrics, missing = per_layer_metrics(
            spans_path, child, self.workload.sections, sizes["T"], out,
            traced_wall - untraced_wall)
        return {"per_layer": metrics, "missing": missing, "spans_path": spans_path,
                "traced_run_wall_s": traced_wall, "spans": child["spans"]}


class BenchError(RuntimeError):
    """The benchmark could not run at all (as opposed to a failed check)."""


def _summary_wall_ms(out: Path) -> dict:
    try:
        algorithms = json.loads((out / "summary.json").read_text())["algorithms"]
    except (OSError, ValueError, KeyError):
        return {}
    return {name: entry.get("wall_ms") for name, entry in algorithms.items()}


def environment(root: Path) -> dict:
    """Where and on what the numbers were measured.  A checkout that is not
    a git repository has no sha; the digest of ``src`` identifies the code."""
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                               env=git_env, capture_output=True, text=True,
                               timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    sha = lines[1] if len(lines) == 2 and Path(lines[0]) == root else None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": nproc,
            "cpu_model": cpu_model}


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measure for this long (at least two repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every check in seconds, numbers meaningless")
    return parser.parse_args(argv)


def measure(root: Path, args) -> dict:
    """Run one workload and return the full record, which is also written
    to ``.perfbench_out/<workload>-seed<n>-trace<t>.json`` (spans next to
    it).  Raises BenchError when the workload cannot be set up at all."""
    workload = WORKLOADS[args.workload]
    declared = json.loads((root / "BENCHMARK.json").read_text())
    (root / WORK_DIR).mkdir(exist_ok=True)
    (root / OUT_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=root / WORK_DIR))
    stem = (f"{workload.name}{'-smoke' if args.smoke else ''}"
            f"-seed{args.seed}-trace{args.trace}")
    bench = Bench(root, work, workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    try:
        result = bench.run()
        if "spans_path" in result:
            shutil.move(result.pop("spans_path"), root / OUT_DIR / f"{stem}-spans.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    why = {w["name"]: w["why"] for w in declared["workloads"]}.get(workload.name)
    record = {
        "workload": {"name": workload.name, "why": why, "seed": args.seed,
                     "smoke": args.smoke, **result["sizes"]},
        "environment": {**environment(root), **result["versions"]},
        "end_to_end": result["end_to_end"],
        "per_layer": result.get("per_layer"),
        "samples": result["samples"],
        "summary_wall_ms": result["summary_wall_ms"],
        "traced_run_wall_s": result.get("traced_run_wall_s"),
        "spans": result.get("spans"),
        "missing": result.get("missing", []),
        "attempted": bench.ops.attempted,
        "failures": bench.ops.failures,
    }
    (root / OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def result_line(record: dict, declared: dict, trace: bool) -> dict:
    """The final JSON object: the declared end-to-end metrics, or with
    tracing the declared per-layer ones.  A metric that could not be
    computed is left out (and listed as missing in the report)."""
    values = record["per_layer"] if trace else record["end_to_end"]
    section = declared["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section if m["name"] in values}
    return {"correct": not record["failures"], "attempted": record["attempted"],
            "failed": len(record["failures"]), "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "onlinevi" / "cli.py").is_file():
        print("perfbench: no src/onlinevi here; run from the root of an onlinevi checkout",
              file=sys.stderr)
        return 2
    try:
        record = measure(root, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    declared = json.loads((root / "BENCHMARK.json").read_text())
    line = result_line(record, declared, bool(args.trace))
    _print_report(record, declared, line)
    print(json.dumps(line))
    return 0


def _print_report(record: dict, declared: dict, line: dict) -> None:
    w = record["workload"]
    print(f"workload {w['name']} seed {w['seed']}: T={w['T']} d={w['d']} "
          f"d_param={w['d_param']} holdout={w['holdout_rows']} "
          f"mc_samples={w['mc_samples']} comparator={w['comparator_starts']}x"
          f"{w['comparator_iters']} sections={','.join(w['sections'])}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, value in record["end_to_end"].items():
        n = len(record["samples"][name])
        print(f"  {name:<44} {value:>14.6g} {units.get(name, '')}  (median of {n})")
    print(f"  {'ops_failed_ratio':<44} {line['failed'] / line['attempted']:>14.6g} ratio  "
          f"({line['failed']} of {line['attempted']})")
    if record["traced_run_wall_s"] is not None:
        print(f"  traced run: {record['spans']} spans, run wall "
              f"{record['traced_run_wall_s']:.4g} s")
    if record["per_layer"] is not None:
        for name, value in sorted(record["per_layer"].items()):
            print(f"  {name:<44} {value:>14.6g} {units.get(name, '')}")
        for name, wall_ms in record["summary_wall_ms"].items():
            traced = record["per_layer"].get(f"learners.us_per_step.{name}")
            print(f"  cross-check {name}: untraced summary.json "
                  f"{1000.0 * wall_ms / w['T']:.4g} us/step"
                  + ("" if traced is None else f", traced {traced:.4g} us/step"))
    for entry in record["missing"]:
        print(f"  missing: {entry}")
    section = declared["per_layer" if record["per_layer"] is not None else "end_to_end"]
    absent = [m["name"] for m in section if m["name"] not in line["metrics"]]
    if absent:
        print(f"  not in the result line: {', '.join(absent)}")
    for entry in record["failures"]:
        print(f"  FAILED: {entry}")
