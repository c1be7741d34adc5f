"""Layer spans and counts recorded from outside the library.

`Tracer.installed()` replaces each layer function at the name the pipeline
calls it by with a wrapper that records a span (name, start, end, parent,
pair) and the counts readable from its arguments and return value, then
restores the originals. No file under `src/` changes. Spans stay in memory
until the run ends.

A layer's self time is its span minus its child spans, and minus the time
the wrappers spent on bookkeeping and counting at the end of those children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

# (module under rigidflow, attribute the caller looks up, span name = layer.function)
LAYER_FUNCTIONS = (
    ("pipeline", "preprocess", "pipeline.preprocess"),
    ("pipeline", "infer_rigid_flow", "pipeline.infer_rigid_flow"),
    ("pipeline", "assemble_rigid_flow", "pipeline.assemble_rigid_flow"),
    ("pipeline", "voxelize", "geom.voxelize"),
    ("pipeline", "transfer_flow_to_points", "geom.transfer_flow_to_points"),
    ("pipeline", "estimate_ego_motion", "rigidfit.estimate_ego_motion"),
    ("pipeline", "fit_cluster_transform", "rigidfit.fit_cluster_transform"),
    ("pipeline", "dbscan", "cluster.dbscan"),
    ("pipeline", "soft_flow", "flowhead.soft_flow"),
    ("pipeline", "refine_scene", "refine.refine_scene"),
    ("refine", "icp_refine", "refine.icp_refine"),
    ("refine", "weighted_kabsch", "rigidfit.weighted_kabsch"),
    ("rigidfit", "weighted_kabsch", "rigidfit.weighted_kabsch"),
    ("rigidfit", "affinity", "transport.affinity"),
    ("rigidfit", "add_slack", "transport.add_slack"),
    ("rigidfit", "sinkhorn", "transport.sinkhorn"),
    ("rigidfit", "soft_correspondences", "transport.soft_correspondences"),
)

# Affinities at or below this value sit on the floor the transport layer
# applies before normalising; such entries carry no relative information.
AFFINITY_FLOOR = 1e-30
F64 = 8  # bytes per float64 entry, for the computed (not measured) byte counts

# Per-layer metrics: (name, unit, better, end-to-end metric it should move, on which workload).
LAYER_METRICS = (
    ("transport.affinity.self_ms", "ms", "lower", "latency_p50_ref, pairs_per_kref on street (large share), crowd (small)"),
    ("transport.affinity.cells", "count", "lower", "latency and peak_alloc_mib on street"),
    ("transport.affinity.bytes_computed", "B", "lower", "peak_alloc_mib on street"),
    ("transport.add_slack.self_ms", "ms", "lower", "latency_p50_ref on street"),
    ("transport.add_slack.bytes_computed", "B", "lower", "peak_alloc_mib on street"),
    ("transport.sinkhorn.self_ms", "ms", "lower", "latency_p50_ref, pairs_per_kref on street (large share), crowd (small)"),
    ("transport.sinkhorn.cells_x_iters", "count", "lower", "latency_p50_ref on street"),
    ("transport.sinkhorn.bytes_computed", "B", "lower", "latency_p50_ref on street"),
    ("transport.sinkhorn.floored_share", "ratio", "lower", "accurate_ratio, trusted_ratio, ego_rre_deg on noisy-feat"),
    ("transport.sinkhorn.kept_mass", "ratio", "higher", "accurate_ratio, trusted_ratio, ego_rre_deg on noisy-feat"),
    ("transport.soft_correspondences.self_ms", "ms", "lower", "latency_p50_ref on street"),
    ("transport.soft_correspondences.dead_rows", "count", "lower", "ego_rre_deg on noisy-feat"),
    ("rigidfit.estimate_ego_motion.self_ms", "ms", "lower", "latency_p50_ref on street, crowd"),
    ("rigidfit.weighted_kabsch.calls", "count", "lower", "latency_p50_ref on crowd (mostly from ICP)"),
    ("rigidfit.weighted_kabsch.self_ms", "ms", "lower", "latency_p50_ref on crowd"),
    ("rigidfit.weighted_kabsch.failed", "count", "lower", "accurate_ratio on noisy-feat"),
    ("rigidfit.fit_cluster_transform.calls", "count", "lower", "latency_p50_ref on crowd"),
    ("rigidfit.fit_cluster_transform.failed", "count", "lower", "accurate_ratio on noisy-feat"),
    ("flowhead.soft_flow.self_ms", "ms", "lower", "latency_p50_ref on crowd; no change on street"),
    ("flowhead.soft_flow.cells", "count", "lower", "latency and peak_alloc_mib on crowd"),
    ("flowhead.soft_flow.bytes_computed", "B", "lower", "peak_alloc_mib on crowd"),
    ("cluster.dbscan.self_ms", "ms", "lower", "latency_p50_ref on crowd; small on street"),
    ("cluster.dbscan.points_in", "count", "lower", "latency_p50_ref on crowd"),
    ("cluster.dbscan.clusters", "count", "higher", "latency_p50_ref on crowd (one fit and one ICP each)"),
    ("cluster.dbscan.noise_share", "ratio", "lower", "epe3d_m on crowd"),
    ("geom.voxelize.self_ms", "ms", "lower", "latency_p50_ref on crowd and street"),
    ("geom.voxelize.points_in", "count", "lower", "latency_p50_ref on crowd and street"),
    ("geom.voxelize.voxels_out", "count", "lower", "latency_p50_ref on crowd and street"),
    ("geom.transfer_flow_to_points.self_ms", "ms", "lower", "latency_p50_ref on crowd"),
    ("refine.refine_scene.self_ms", "ms", "lower", "latency_p50_ref on crowd and street; zero on noisy-feat"),
    ("refine.icp_refine.self_ms", "ms", "lower", "latency_p50_ref on crowd and street; zero on noisy-feat"),
    ("refine.icp_refine.calls", "count", "lower", "latency_p50_ref on crowd and street; zero on noisy-feat"),
    ("refine.icp_refine.iterations", "count", "lower", "latency_p50_ref on crowd and street"),
    ("refine.icp_refine.no_overlap", "count", "lower", "epe3d_m on crowd and street"),
    ("refine.icp_refine.ms_per_iteration", "ms", "lower", "latency_p50_ref on crowd and street"),
    ("pipeline.preprocess.self_ms", "ms", "lower", "latency_p50_ref on crowd"),
    ("pipeline.infer_rigid_flow.self_ms", "ms", "lower", "latency_p50_ref on crowd (orchestration)"),
    ("pipeline.assemble_rigid_flow.self_ms", "ms", "lower", "latency_p50_ref on crowd"),
    ("pipeline.assemble_rigid_flow.calls", "count", "lower", "latency_p50_ref on crowd"),
    ("trace.overhead_ms", "ms", "lower", "none: traced minus untraced median wall time per pair"),
)


def _bound(sig: inspect.Signature, args, kwargs) -> dict:
    b = sig.bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _sinkhorn_counts(arguments, out) -> dict:
    a = arguments["a"]
    real_in = a.values[: a.n_rows, : a.n_cols]
    cells = a.values.size
    iters = int(arguments["iterations"])
    return {
        "cells_x_iters": cells * iters,
        # one pass over the slack-augmented matrix per row and per column sweep
        "bytes_computed": cells * F64 * 2 * iters,
        "floored_entries": int(np.count_nonzero(real_in <= AFFINITY_FLOOR)),
        "real_entries": real_in.size,
        "kept_mass_sum": float(out.real.sum(axis=1).mean()),
    }


def _icp_counts(arguments, out) -> dict:
    return {"iterations": out.iterations, "no_overlap": int(out.no_overlap)}


def _dbscan_counts(arguments, out) -> dict:
    return {
        "points_in": len(arguments["points"]),
        "clusters": out.n_clusters,
        "noise_points": int(np.count_nonzero(out.labels == -1)),
    }


def _soft_flow_counts(arguments, out) -> dict:
    cells = len(arguments["x"]) * len(arguments["y"])
    return {"cells": cells, "bytes_computed": cells * F64}


# span name -> counts read from (bound arguments, return value) at the boundary
COUNTERS = {
    "transport.affinity": lambda a, out: {"cells": out.values.size, "bytes_computed": out.values.size * F64},
    "transport.add_slack": lambda a, out: {"bytes_computed": out.values.size * F64},
    "transport.sinkhorn": _sinkhorn_counts,
    "transport.soft_correspondences": lambda a, out: {"dead_rows": int(np.count_nonzero(out[1] == 0))},
    "flowhead.soft_flow": _soft_flow_counts,
    "cluster.dbscan": _dbscan_counts,
    "geom.voxelize": lambda a, out: {"points_in": len(a["pc"]), "voxels_out": len(out)},
    "refine.icp_refine": _icp_counts,
}


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    name: str
    pair: int
    parent: int  # id of the enclosing span, -1 for a root
    start: float
    end: float
    self_s: float
    failed: bool


class Tracer:
    """Collects spans and counts while installed; `pair` tags everything recorded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))  # pair -> "span.counter" -> value
        self.pair = -1
        self.missing: list[str] = []
        self._open: list[list] = []  # per open span: [id, parent id, start, covered seconds]
        self._next_id = 0
        self._wrappers = []
        for module, attr, name in LAYER_FUNCTIONS:
            mod = importlib.import_module(f"rigidflow.{module}")
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"rigidflow.{module}.{attr}")
                continue
            self._wrappers.append((mod, attr, fn, self._wrap(name, fn)))

    @contextlib.contextmanager
    def installed(self):
        """Route the pipeline's layer calls through the wrappers for the duration."""
        try:
            for mod, attr, _, wrapper in self._wrappers:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, fn, _ in self._wrappers:
                setattr(mod, attr, fn)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self._next_id, self._open[-1][0] if self._open else -1, 0.0, 0.0]
            self._next_id += 1
            self._open.append(frame)
            frame[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(name, frame, isinstance(exc, ValueError))
                raise
            self._close(name, frame, False, counter, lambda: _bound(sig, args, kwargs), out)
            return out

        return traced

    def _close(self, name, frame, failed, counter=None, arguments=None, out=None) -> None:
        end = time.perf_counter()
        self._open.pop()
        span_id, parent, start, covered = frame
        duration = end - start
        self.spans.append(Span(span_id, name, self.pair, parent, start, end, duration - covered, failed))
        counts = self.counts[self.pair]
        counts[f"{name}.calls"] += 1
        counts[f"{name}.failed"] += failed
        if counter is not None:
            for key, value in counter(arguments(), out).items():
                counts[f"{name}.{key}"] += value
        # The parent's self time excludes this span and the bookkeeping after
        # `end`; ancestors further up see both inside the parent's span.
        if self._open:
            self._open[-1][3] += duration + (time.perf_counter() - end)

    def count_means(self, pairs: list[int]) -> dict:
        """Each counter's mean per pair over `pairs`."""
        totals = defaultdict(float)
        for pair in pairs:
            for key, value in self.counts.get(pair, {}).items():
                totals[key] += value
        return {key: value / len(pairs) for key, value in sorted(totals.items())}

    def layer_metrics(self, count_pairs: list[int], overhead_ms: float) -> dict:
        """Per-pair layer metrics: self times as medians over all traced pairs,
        counts as means over `count_pairs` (a fixed set, so counts repeat exactly)."""
        pairs = sorted({s.pair for s in self.spans} | set(self.counts))
        self_ms = defaultdict(lambda: defaultdict(float))  # name -> pair -> ms
        icp_ms = 0.0
        for s in self.spans:
            self_ms[s.name][s.pair] += 1000.0 * s.self_s
            if s.name == "refine.icp_refine":
                icp_ms += 1000.0 * (s.end - s.start)
        icp_iterations = sum(c.get("refine.icp_refine.iterations", 0) for c in self.counts.values())
        means = defaultdict(float, self.count_means(count_pairs))

        def ratio(num, den):
            return means[num] / means[den] if means[den] else 0.0

        derived = {
            "transport.sinkhorn.floored_share": ratio("transport.sinkhorn.floored_entries", "transport.sinkhorn.real_entries"),
            "transport.sinkhorn.kept_mass": ratio("transport.sinkhorn.kept_mass_sum", "transport.sinkhorn.calls"),
            "cluster.dbscan.noise_share": ratio("cluster.dbscan.noise_points", "cluster.dbscan.points_in"),
            "refine.icp_refine.ms_per_iteration": icp_ms / icp_iterations if icp_iterations else 0.0,
            "trace.overhead_ms": overhead_ms,
        }
        values = {}
        for metric, _, _, _ in LAYER_METRICS:
            span_name, _, field = metric.rpartition(".")
            if metric in derived:
                values[metric] = derived[metric]
            elif field == "self_ms":
                values[metric] = statistics.median(self_ms[span_name].get(p, 0.0) for p in pairs)
            else:
                values[metric] = means[metric]
        return values

    def span_records(self) -> list[dict]:
        """Spans as plain dicts, for writing out when the run ends."""
        return [dataclasses.asdict(s) for s in self.spans]
