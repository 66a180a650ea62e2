"""Per-layer tracing from outside the library.

While a traced job runs, `traced(tracer)` replaces the public functions and
methods of each ktmix layer with wrappers that record a span per call (name,
start, end, parent) into an in-memory list, and restores the originals on
exit.  The library source carries no instrumentation; every span sits on a
call the CLI or a library user makes anyway, in the order they make it.

Counts are computed right after the call they describe, inside a
`trace.count` span, so their cost is excluded from every layer's self time
and shows up as tracing overhead instead.
"""

from __future__ import annotations

import contextlib
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("data", "partition", "measure", "kt", "estimator", "joint", "cli")


class Tracer:
    """Spans and counts of one traced job."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index or -1]
        self._stack: list = []
        self.counts: Counter = Counter()
        self.estimators: list = []   # marginal estimators built during the job
        self._levels_seen = weakref.WeakKeyDictionary()

    def call(self, name, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def nearest_layer(self, layers) -> str | None:
        """Layer of the innermost open span that belongs to one of `layers`."""
        for i in reversed(self._stack):
            layer = self.spans[i][0].split(".")[0]
            if layer in layers:
                return layer
        return None

    def first_build(self, partition, k: int) -> bool:
        """True the first time level k of this partition object is seen."""
        seen = self._levels_seen.setdefault(partition, set())
        if k in seen:
            return False
        seen.add(k)
        return True

    # -- summaries ----------------------------------------------------------

    def times(self) -> tuple[dict, dict]:
        """(inclusive seconds per span name, self seconds per span name).

        Inclusive time leaves out the trace.count spans nested inside, so
        neither figure charges a layer for the tracer's own work.
        """
        child = [0.0] * len(self.spans)
        counting = [0.0] * len(self.spans)
        # A child is always recorded after its parent, so one backward pass
        # has every span's totals ready before they are passed up.
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[i]
            if name == "trace.count":
                counting[i] = end - start
            if parent >= 0:
                child[parent] += end - start
                counting[parent] += counting[i]
        inclusive: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for (name, start, end, _), covered, counted in zip(self.spans, child, counting):
            inclusive[name] += (end - start) - (0.0 if name == "trace.count" else counted)
            own[name] += (end - start) - covered
        return inclusive, own

    def dump(self, job_id: int) -> list:
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"job": job_id, "id": i, "name": name, "start": start - origin,
             "end": end - origin, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]


def _wrap(tracer: Tracer, name: str, fn, after=None, nested=True):
    """Wrapper of fn that records a span; after(result, args) runs as count work.

    nested=False skips the span when the caller is already inside a span of
    the same name (a sum measure pricing its parts), so a name's inclusive
    time never counts the same interval twice.
    """

    def wrapper(*args, **kwargs):
        if not nested and tracer.current() == name:
            return fn(*args, **kwargs)
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            tracer.call("trace.count", after, (result, args), {})
        return result

    return wrapper


def _module_patches(ktmix, tracer: Tracer):
    """(original function, wrapper) for the layer functions the CLI reaches."""

    def after_parse(result, args):
        names, columns = result
        tracer.counts["data.cells"] += len(names) * int(columns[0].size)

    def after_pair(result, args):
        tracer.counts["joint.pairs"] += 1

    return [
        (ktmix.data.parse_dataset, _wrap(tracer, "data.parse_dataset", ktmix.data.parse_dataset, after_parse)),
        (ktmix.data.build_schema, _wrap(tracer, "data.build_schema", ktmix.data.build_schema)),
        (ktmix.estimator.level_alphabet,
         _wrap(tracer, "estimator.level_alphabet", ktmix.estimator.level_alphabet)),
        (ktmix.joint.analyze_pair, _wrap(tracer, "joint.analyze_pair", ktmix.joint.analyze_pair, after_pair)),
        (ktmix.joint.build_forest, _wrap(tracer, "joint.build_forest", ktmix.joint.build_forest)),
        (ktmix.cli.main, _wrap(tracer, "cli.main", ktmix.cli.main)),
    ]


def _method_patches(ktmix, tracer: Tracer):
    """(class, method name, wrapper) for the layer methods the CLI and users reach."""
    kt_state = ktmix.KtState
    estimator = ktmix.MixtureEstimator
    joint = ktmix.JointEstimator
    partition = ktmix.Partition

    def after_level_map(level_map, args):
        self, k = args[0], args[1]
        if tracer.first_build(self, k):
            tracer.counts["partition.kept_cells"] += level_map.kept_count

    def after_kt_many(result, args):
        self, symbols = args[0], np.asarray(args[1], dtype=np.int64)
        if symbols.size:
            trips = int(np.count_nonzero(np.bincount(symbols, minlength=self.alphabet_size)))
            tracer.counts["kt.symbol_trips"] += trips
            if tracer.nearest_layer(("estimator", "joint")) == "joint":
                tracer.counts["joint.symbol_trips"] += trips

    def count_kt_observe(self, symbol):
        tracer.counts["kt.observe.calls"] += 1
        return kt_observe(self, symbol)

    def after_estimator_init(result, args):
        tracer.estimators.append(args[0])

    def after_joint_init(result, args):
        self = args[0]
        tracer.counts["joint.grid_states"] += sum(
            self.grid_state(j, k) is not None
            for j in range(self.partition_x.max_level + 1)
            for k in range(self.partition_y.max_level + 1)
        )

    kt_observe = kt_state.observe
    patches = [
        (ktmix.HistogramSequence, "__init__", "partition.build", None),
        (partition, "level_map", "partition.level_map", after_level_map),
        (kt_state, "observe_many", "kt.observe_many", after_kt_many),
        (estimator, "__init__", "estimator.init", after_estimator_init),
        (estimator, "observe_many", "estimator.observe_many", None),
        (estimator, "observe", "estimator.observe", None),
        (estimator, "density_at", "estimator.density_at", None),
        (joint, "__init__", "joint.init", after_joint_init),
        (joint, "observe_many", "joint.observe_many", None),
    ]
    out = [(cls, attr, _wrap(tracer, name, getattr(cls, attr), after))
           for cls, attr, name, after in patches]
    # KtState.observe runs once per level per sample: count it, but leave
    # its time to the estimator.observe span around it to keep overhead low.
    out.append((kt_state, "observe", count_kt_observe))
    for cls in (ktmix.ReferenceMeasure, ktmix.LebesgueMeasure, ktmix.CountingMeasure,
                ktmix.SumMeasure, ktmix.ScaledMeasure):
        if "masses_half_open" in vars(cls):
            out.append((cls, "masses_half_open",
                        _wrap(tracer, "measure.masses_half_open", cls.masses_half_open, nested=False)))
    return out


@contextlib.contextmanager
def traced(ktmix, tracer: Tracer):
    """Install the tracing wrappers for the duration of the block."""
    undo = []
    try:
        for original, wrapper in _module_patches(ktmix, tracer):
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] != "ktmix":
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        for cls, attr, wrapper in _method_patches(ktmix, tracer):
            undo.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, job_s: float, columns: int) -> dict:
    """Per-layer metrics of one traced job of job_s seconds over `columns` input columns."""
    inclusive, own = tracer.times()
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in own.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    live = sum(int(np.isfinite(est.level_log_densities()).sum()) for est in tracer.estimators)
    counts = tracer.counts
    metrics = {
        "data.parse_dataset.s": inclusive["data.parse_dataset"],
        "data.build_schema.s": inclusive["data.build_schema"],
        "data.cells": counts["data.cells"],
        "partition.level_map.s": inclusive["partition.build"] + inclusive["partition.level_map"],
        "partition.kept_cells": counts["partition.kept_cells"],
        "measure.masses_half_open.s": inclusive["measure.masses_half_open"],
        "kt.observe_many.s": inclusive["kt.observe_many"],
        "kt.symbol_trips": counts["kt.symbol_trips"],
        "kt.observe.calls": counts["kt.observe.calls"],
        "estimator.level_alphabet.s": inclusive["estimator.level_alphabet"],
        "estimator.observe_many.s": inclusive["estimator.observe_many"],
        "estimator.observe.s": inclusive["estimator.observe"],
        "estimator.density_at.s": inclusive["estimator.density_at"],
        "estimator.live_levels": live,
        "estimator.fits_per_column": len(tracer.estimators) / columns,
        "joint.observe_many.s": inclusive["joint.init"] + inclusive["joint.observe_many"],
        "joint.grid_states": counts["joint.grid_states"],
        "joint.symbol_trips": counts["joint.symbol_trips"],
        "joint.analyze_pair.s": inclusive["joint.analyze_pair"],
        "joint.analyze_pair.self_s": own["joint.analyze_pair"],
        "joint.pairs": counts["joint.pairs"],
        "joint.build_forest.s": inclusive["joint.build_forest"],
        "cli.main.s": inclusive["cli.main"],
        "cli.self.s": own["cli.main"],
    }
    for layer in LAYERS[:-1]:
        metrics[f"{layer}.self.s"] = layer_self[layer]
    count_s = inclusive["trace.count"]
    metrics["trace.count.s"] = count_s
    metrics["trace.job.s"] = job_s
    attributed = sum(layer_self.values())
    metrics["trace.accounted_frac"] = attributed / (job_s - count_s) if job_s > count_s else 0.0
    return metrics


# Metrics that are counts: they must repeat exactly between jobs and runs of one seed.
COUNT_METRICS = (
    "data.cells", "partition.kept_cells", "kt.symbol_trips", "kt.observe.calls",
    "estimator.live_levels", "estimator.fits_per_column", "joint.grid_states",
    "joint.symbol_trips", "joint.pairs",
)
