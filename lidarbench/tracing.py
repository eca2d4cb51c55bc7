"""Spans and counters around the public entry points of each lidarmix layer.

Tracing lives entirely in the benchmark: `Tracer.install` rebinds every
module-level name under `lidarmix` that refers to a traced function, so
calls made inside the library (for example `points_in_box` as looked up by
`lidarmix.adversarial` and `lidarmix.sector_mix`) are recorded too. The
oracle is traced through `TracedOracle`, a `DetectorOracle` proxy. Spans
stay in memory with their parent's index; a span's self time is its
duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Entry:
    """One traced entry point, named `<layer>.<function>` after the module
    that defines it. `after(counts, args, result, before)` adds counters;
    `before(counts)` snapshots what `after` needs."""

    name: str
    after: Callable[..., None] | None = None
    before: Callable[[dict], Any] | None = None
    proxied: bool = False  # an oracle method, traced by TracedOracle

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def func(self) -> str:
        return self.name.split(".", 1)[1]


def _count_points_in(key):
    def after(counts, args, result, before):
        counts[key] += args[0].n_points

    return after


def _backproject(counts, args, result, before):
    counts["sensor.points_out"] += result.n_points


def _enhanced_filter(counts, args, result, before):
    scene = args[0]
    counts["sector_mix.boxes_in"] += len(scene.boxes)
    counts["sector_mix.boxes_kept"] += len(result.boxes)
    counts["sector_mix.points_in"] += scene.n_points
    counts["sector_mix.points_kept"] += result.n_points


def _perturb(counts, args, result, before):
    _, outcome = result
    counts["adversarial.points_in"] += args[0].n_points
    counts["adversarial.candidates"] += outcome.candidates
    counts["adversarial.points_translated"] += outcome.translated
    counts["adversarial.points_added"] += outcome.added
    counts["adversarial.points_removed"] += outcome.removed


def _predict(counts, args, result, before):
    counts["oracle.predict.points_in"] += args[0].n_points
    counts["oracle.predict.boxes_out"] += len(result)


def _pseudo_before(counts):
    return counts["oracle.predict.boxes_out"]


def _pseudo_after(counts, args, result, before):
    counts["pipeline.pseudo_boxes_predicted"] += counts["oracle.predict.boxes_out"] - before
    counts["pipeline.pseudo_boxes_kept"] += sum(len(s.boxes) for s in result)


def _advmix_stage(counts, args, result, before):
    for epoch in result.epochs:
        counts["pipeline.consistency_skipped"] += epoch.consistency_skipped
        counts["pipeline.consistency_attempted"] += epoch.scenes_processed


def _bytes(key, size):
    def after(counts, args, result, before):
        counts[key] += size(args, result)

    return after


ENTRIES = [
    Entry("oracle.predict", _predict, proxied=True),
    Entry("oracle.loss_and_gradient", proxied=True),
    Entry("pipeline.run_targetmix_stage"),
    Entry("pipeline.generate_pseudo_labels", _pseudo_after, _pseudo_before),
    Entry("pipeline.run_advmix_stage", _advmix_stage),
    Entry("sensor.build_range_image", _count_points_in("sensor.points_in")),
    Entry("sensor.downsample_range_image"),
    Entry("sensor.backproject", _backproject),
    Entry("sector_mix.sample_sectors"),
    Entry("sector_mix.polar_mix"),
    Entry("sector_mix.enhanced_filter", _enhanced_filter),
    Entry("adversarial.adversarial_perturb_detailed", _perturb),
    Entry("adversarial.point_mixup"),
    Entry("adversarial.advmix_sample"),
    Entry("adversarial.consistency_loss"),
    Entry("geometry.points_in_box", _count_points_in("geometry.points_in_box.points_scanned")),
    Entry("geometry.apply_rigid_transform"),
    Entry("io.read_cloud", _bytes("io.bytes_read", lambda a, r: 16 * r.n_points)),
    Entry("io.write_cloud", _bytes("io.bytes_written", lambda a, r: 16 * a[0].n_points)),
    Entry("io.read_labels", _bytes("io.bytes_read", lambda a, r: os.path.getsize(a[0]))),
    Entry("io.write_labels", _bytes("io.bytes_written", lambda a, r: os.path.getsize(a[1]))),
    Entry("synth.synthesize_dataset"),
]
_BY_NAME = {e.name: e for e in ENTRIES}

# Set-up entry points are measured over one set-up, every other one over
# one pass of the workload's input pool.
SETUP_ENTRIES = {"synth.synthesize_dataset"}


@dataclass(frozen=True)
class Metric:
    """A per-layer metric. kind is "calls" or "self_ms" of `entry`, a
    counter `key`, or the ratio of counter `key` to counter `base`."""

    name: str
    unit: str
    better: str
    entry: str
    kind: str
    key: str = ""
    base: str = ""


def _timed(entry: str, calls: bool = False) -> list[Metric]:
    out = [Metric(f"{entry}.self_ms", "ms", "lower", entry, "self_ms")]
    if calls:
        out.insert(0, Metric(f"{entry}.calls", "count", "lower", entry, "calls"))
    return out


def _count(name: str, entry: str, key: str | None = None) -> Metric:
    return Metric(name, "count", "lower", entry, "count", key or name)


def _ratio(name: str, entry: str, key: str, base: str, better: str = "higher") -> Metric:
    return Metric(name, "ratio", better, entry, "ratio", key, base)


PER_LAYER: list[Metric] = [
    *_timed("oracle.predict", calls=True),
    _count("oracle.predict.points_in", "oracle.predict"),
    _count("oracle.predict.boxes_out", "oracle.predict"),
    *_timed("oracle.loss_and_gradient", calls=True),
    *_timed("pipeline.run_targetmix_stage"),
    *_timed("pipeline.generate_pseudo_labels"),
    *_timed("pipeline.run_advmix_stage"),
    _ratio(
        "pipeline.pseudo_keep_ratio",
        "pipeline.generate_pseudo_labels",
        "pipeline.pseudo_boxes_kept",
        "pipeline.pseudo_boxes_predicted",
    ),
    _ratio(
        "pipeline.consistency_skip_ratio",
        "pipeline.run_advmix_stage",
        "pipeline.consistency_skipped",
        "pipeline.consistency_attempted",
        better="lower",
    ),
    *_timed("sensor.build_range_image"),
    *_timed("sensor.downsample_range_image"),
    *_timed("sensor.backproject"),
    _count("sensor.points_in", "sensor.build_range_image"),
    _count("sensor.points_out", "sensor.backproject"),
    _ratio("sensor.point_keep_ratio", "sensor.backproject", "sensor.points_out", "sensor.points_in"),
    *_timed("sector_mix.sample_sectors"),
    *_timed("sector_mix.polar_mix"),
    *_timed("sector_mix.enhanced_filter", calls=True),
    _ratio(
        "sector_mix.box_keep_ratio",
        "sector_mix.enhanced_filter",
        "sector_mix.boxes_kept",
        "sector_mix.boxes_in",
    ),
    _ratio(
        "sector_mix.point_keep_ratio",
        "sector_mix.enhanced_filter",
        "sector_mix.points_kept",
        "sector_mix.points_in",
    ),
    *_timed("adversarial.adversarial_perturb_detailed"),
    _ratio(
        "adversarial.candidate_ratio",
        "adversarial.adversarial_perturb_detailed",
        "adversarial.candidates",
        "adversarial.points_in",
    ),
    _count("adversarial.points_translated", "adversarial.adversarial_perturb_detailed"),
    _count("adversarial.points_added", "adversarial.adversarial_perturb_detailed"),
    _count("adversarial.points_removed", "adversarial.adversarial_perturb_detailed"),
    *_timed("adversarial.point_mixup", calls=True),
    *_timed("adversarial.advmix_sample", calls=True),
    *_timed("adversarial.consistency_loss", calls=True),
    *_timed("geometry.points_in_box", calls=True),
    _count(
        "geometry.points_in_box.points_scanned",
        "geometry.points_in_box",
    ),
    *_timed("geometry.apply_rigid_transform"),
    *_timed("io.read_cloud"),
    *_timed("io.write_cloud"),
    *_timed("io.read_labels"),
    *_timed("io.write_labels"),
    _count("io.bytes_read", "io.read_cloud"),
    _count("io.bytes_written", "io.write_cloud"),
    *_timed("synth.synthesize_dataset"),
]


@dataclass
class Pass:
    """Aggregates of the spans and counters recorded since the last
    `Tracer.collect`."""

    calls: dict[str, int]
    self_ms: dict[str, float]
    counts: dict[str, int]

    def value(self, m: Metric, missing: set[str]) -> float | None:
        if m.entry in missing:
            return None
        if m.kind == "calls":
            return self.calls.get(m.entry, 0)
        if m.kind == "self_ms":
            return self.self_ms.get(m.entry, 0.0)
        if m.kind == "count":
            return self.counts.get(m.key, 0)
        base = self.counts.get(m.base, 0)
        return self.counts.get(m.key, 0) / base if base else 0.0


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int] = []
        self._open: list[int] = []
        self._counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def call(self, entry: Entry, fn, args: tuple, kwargs: dict):
        before = entry.before(self._counts) if entry.before else None
        idx = len(self._names)
        self._names.append(entry.name)
        self._parents.append(self._open[-1] if self._open else -1)
        self._ends.append(0.0)
        self._open.append(idx)
        self._starts.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self._ends[idx] = time.perf_counter()
            self._open.pop()
        if entry.after:
            entry.after(self._counts, args, result, before)
        return result

    def install(self) -> None:
        """Rebind every lidarmix module-level name bound to a traced
        function. An entry point its defining module no longer has is
        recorded in `missing`."""
        modules = [m for n, m in list(sys.modules.items()) if n == "lidarmix" or n.startswith("lidarmix.")]
        for entry in ENTRIES:
            if entry.proxied:
                continue
            home = importlib.import_module(f"lidarmix.{entry.layer}")
            original = getattr(home, entry.func, None)
            if not callable(original):
                self.missing.add(entry.name)
                continue
            wrapper = self._wrap(entry, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, entry: Entry, fn):
        def traced(*args, **kwargs):
            return self.call(entry, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def collect(self) -> Pass:
        """Aggregate and forget the closed spans and counters."""
        if self._open:
            raise RuntimeError("collect() inside an open span")
        n = len(self._names)
        children = [0.0] * n
        for i in range(n):
            parent = self._parents[i]
            if parent >= 0:
                children[parent] += self._ends[i] - self._starts[i]
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self._names[i]
            calls[name] += 1
            self_ms[name] += (self._ends[i] - self._starts[i] - children[i]) * 1000.0
        counts = dict(self._counts)
        self._names, self._starts, self._ends, self._parents = [], [], [], []
        self._counts = defaultdict(int)
        return Pass(dict(calls), dict(self_ms), counts)


class TracedOracle:
    """DetectorOracle and GradientProvider proxy that records a span per
    `predict` and `loss_and_gradient` call."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def predict(self, scene):
        return self._tracer.call(_BY_NAME["oracle.predict"], self._inner.predict, (scene,), {})

    def loss_and_gradient(self, scene, boxes):
        entry = _BY_NAME["oracle.loss_and_gradient"]
        return self._tracer.call(entry, self._inner.loss_and_gradient, (scene, boxes), {})

    def clone(self) -> "TracedOracle":
        return TracedOracle(self._inner.clone(), self._tracer)
