"""Span recording around calls into the ``onlinevi`` modules.

The tracer replaces named functions with wrappers that record one span per
call: name, start, end (``perf_counter_ns``) and the index of the enclosing
span.  Spans live in flat in-memory arrays and are written out once, at the
end, with :meth:`Tracer.save`.  Nothing under ``src/`` is modified: the
wrappers are installed into the already imported modules and removed again
by :meth:`Tracer.uninstall`.

A target is ``"<module>:<attribute>"``, where the module is the namespace in
which callers look the name up (``learners:expected_loss_grad`` times the
learners' calls into ``losses``) and the attribute may be ``Class.method``.
The span name is ``<layer>.<qualname>``, the layer being the module that
defines the function.  A target that no longer exists is recorded in
:attr:`Tracer.missing` instead of raising, so a refactor that renames a
function only loses the metrics that need it.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = ("rng", "family", "losses", "learners", "evaluation", "data", "cli")

#: Calls that cross a layer boundary on the paths ``cmd_run`` and
#: ``cmd_bounds`` take, plus the ``cli`` helpers that own a metric.
TARGETS = (
    # cli: the command entry and the phases with a metric of their own
    "cli:main", "cli:materialize", "cli:bound_records", "cli:_write_series_csv",
    "cli:_read_series_csv",
    # cli -> data
    "data:gen_toy_classification", "data:gen_iid_regression", "data:load_csv",
    "data:prepare_stream", "data:Dataset.examples",
    # cli -> learners / evaluation / losses / family
    "cli:run_online", "cli:diagonal_lattice", "cli:product_lattice",
    "cli:best_in_hindsight", "cli:build_ledger", "cli:regret",
    "cli:online_to_batch", "cli:generalization_estimate", "cli:jensen_holdout_audit",
    "cli:alpha_estimate", "cli:ewa_bound", "cli:sva_bound", "cli:svb_bounds",
    "cli:ogael_bound", "cli:lipschitz_constant", "cli:expected_loss_series",
    "cli:point_loss_series", "cli:kl_divergence",
    # learners -> losses / family / rng, once or more per step
    "learners:point_loss", "learners:point_grad", "learners:point_loss_many",
    "learners:expected_loss_grad", "learners:mc_expected_loss_and_grad",
    "learners:derive_seed", "learners:project_box", "learners:h_map",
    "learners:to_natural", "learners:from_natural",
    "family:MeanFieldGaussian.__post_init__", "family:BoxConstraints.contains",
    "family:GaussianPrior.natural", "family:GaussianPrior.gaussian",
    # evaluation -> losses (the comparator's objective and gradient)
    "evaluation:point_loss_series", "evaluation:nn_batch_mean_grad",
    # every caller -> rng
    "rng:CounterRng.uniforms", "rng:CounterRng.normals", "rng:CounterRng.permutation",
)

#: Targets whose peak traced allocation is recorded as well (tracemalloc is
#: switched on only for the duration of these calls).
MEMORY_TARGETS = frozenset({
    "cli:online_to_batch", "cli:generalization_estimate", "cli:jensen_holdout_audit",
})


def _resolve(target: str):
    """(owner, attribute, function) for a target; raises AttributeError or
    ImportError when it does not exist."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(f"onlinevi.{module_name}")
    *classes, attr = path.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    # a class attribute is read from the class itself so that a method
    # inherited from elsewhere is not wrapped by mistake
    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if not callable(fn) or isinstance(fn, type):
        raise AttributeError(f"{target} is not a function")
    return owner, attr, fn


class Tracer:
    """Records spans for the calls made through the installed wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.peak_bytes: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack = [-1]
        self._installed: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            try:
                owner, attr, fn = _resolve(target)
            except (AttributeError, ImportError, KeyError):
                self.missing.append(target)
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            name = f"{layer}.{fn.__qualname__}"
            wrapper = self._wrap(fn, name, target in MEMORY_TARGETS)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, name: str, measure_memory: bool):
        nid = self._id(name)
        clock = time.perf_counter_ns
        stack, name_ids, parents = self._stack, self.name_id, self.parent
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if not measure_memory:
            return wrapper
        peaks = self.peak_bytes

        @functools.wraps(fn)
        def memory_wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return wrapper(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0), peak)

        return memory_wrapper

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64))


class Spans:
    """Read-side view of a saved span file, with the aggregates the
    benchmark reports."""

    def __init__(self, path):
        with np.load(path) as f:
            self.names = [str(n) for n in f["names"]]
            self.name_id = f["name_id"]
            self.parent = f["parent"]
            self.start = f["start_ns"]
            self.end = f["end_ns"]
        self.duration = (self.end - self.start) / 1e9
        child = np.zeros(self.duration.size)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child

    def indices(self, name: str) -> np.ndarray:
        """Span indices of one name, in call order; empty if never called."""
        if name not in self.names:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(self.name_id == self.names.index(name))[0]

    def total(self, name: str) -> float:
        return float(self.duration[self.indices(name)].sum())

    def total_self(self, name: str) -> float:
        return float(self.self_time[self.indices(name)].sum())

    def layer_self(self) -> dict[str, float]:
        """Self time summed per layer (the span name's first component)."""
        per_name = np.bincount(self.name_id, weights=self.self_time,
                               minlength=len(self.names))
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in zip(self.names, per_name):
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + float(seconds)
        return totals

    def count_within(self, name: str, outer: str) -> int:
        """Calls of ``name`` made anywhere inside a call of ``outer``.

        Spans are stored in the order their calls began, so the spans inside
        one call are the contiguous run that starts before it ends.
        """
        inner = self.indices(name)
        count = 0
        for i in self.indices(outer):
            stop = i + 1 + np.searchsorted(self.start[i + 1:], self.end[i], side="left")
            count += int(np.count_nonzero((inner > i) & (inner < stop)))
        return count

    def count_children(self, name: str, parent_name: str) -> int:
        """Calls of ``name`` whose enclosing span is a call of ``parent_name``."""
        inner = self.indices(name)
        parents = self.parent[inner]
        parents = parents[parents >= 0]
        return int(np.count_nonzero(np.isin(parents, self.indices(parent_name))))
