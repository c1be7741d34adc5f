"""Seeded workloads, the timed library call, and the checks on its outputs.

Import only after `bootstrap.prepare()`. Every input is a pure function of
(workload, seed, pair index), so the same seed always gives the same pairs.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np

from rigidflow import pipeline
from rigidflow.geom import FlowField, PointCloud
from rigidflow.metrics import ego_metrics, flow_metrics
from rigidflow.rigidfit import fit_cluster_transform
from rigidflow.synthetic import SceneSpec, generate_scene

# Feature noise of the `noisy-feat` workload cycles through these levels.
NOISE_SIGMAS = (0.025, 0.05, 0.075, 0.1)
# A returned pair whose EPE3D mean exceeds this counts as wrong.
EPE_GATE_M = 0.10
# Tolerance of the rigidity refit, as in test_structural_rigidity_of_output.
RIGIDITY_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One seeded stream of frame pairs.

    Accuracy and the output digest are taken over exactly the first
    `min_pairs` pairs, so they repeat for a given seed; those the timed loop
    does not reach within `--seconds` run untimed after it. The traced run
    goes on past `--seconds` until `traced_pairs` pairs are done, and takes
    its layer counts over exactly those.
    """

    name: str
    spec: SceneSpec
    refine: bool
    feature_noise: bool
    min_pairs: int
    traced_pairs: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("street", SceneSpec(), refine=True, feature_noise=False,
                 min_pairs=160, traced_pairs=32),
        Workload(
            "crowd",
            SceneSpec(n_objects=8, points_per_object=1500, background_points=30000,
                      background_extent=30.0),
            refine=True, feature_noise=False, min_pairs=64, traced_pairs=12,
        ),
        Workload("noisy-feat", SceneSpec(), refine=False, feature_noise=True,
                 min_pairs=280, traced_pairs=48),
    )
}


@dataclass(frozen=True)
class PairInputs:
    frame_x: PointCloud
    frame_y: PointCloud
    gt_ego: object


@dataclass(frozen=True)
class PairResult:
    """Outcome of one timed call: scored outputs, or the library's refusal."""

    refused: str | None
    digest: str
    problems: tuple = ()
    epe3d: float = float("nan")
    epe3d_median: float = float("nan")
    acc3ds: float = float("nan")
    rre_deg: float = float("nan")
    rte_m: float = float("nan")


def pair_inputs(wl: Workload, seed: int, index: int) -> PairInputs:
    """Frames of pair `index`; scene and noise seeds derive from (seed, index) only."""
    scene_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
    scene = generate_scene(dataclasses.replace(wl.spec, seed=scene_seed))
    fx, fy = scene.frame_x, scene.frame_y
    if wl.feature_noise:
        sigma = NOISE_SIGMAS[index % len(NOISE_SIGMAS)]
        noise = np.random.default_rng(np.random.SeedSequence([seed, index, 1]))
        fx = dataclasses.replace(fx, features=fx.features + noise.normal(0.0, sigma, fx.features.shape))
        fy = dataclasses.replace(fy, features=fy.features + noise.normal(0.0, sigma, fy.features.shape))
    return PairInputs(fx, fy, scene.gt_ego)


def run_pair(wl: Workload, inputs: PairInputs, cfg: pipeline.PipelineConfig):
    """The timed call, as a library user makes it (README quickstart).

    Names are looked up on the `pipeline` module at call time so that the
    traced run's wrappers apply.
    """
    rng = np.random.default_rng(cfg.seed)
    x = pipeline.preprocess(inputs.frame_x, cfg, rng)
    y = pipeline.preprocess(inputs.frame_y, cfg, rng)
    decomp, flow = pipeline.infer_rigid_flow(x, y, cfg, refine=wl.refine, rng=rng)
    return x, decomp, flow


def refusal(err: ValueError) -> PairResult:
    return PairResult(refused=str(err), digest=_sha(f"ValueError: {err}".encode()))


def score(inputs: PairInputs, outputs) -> PairResult:
    """Check and score one returned pair; never called inside a timed region."""
    x, decomp, flow = outputs
    fm = flow_metrics(flow, FlowField(x.flow))
    em = ego_metrics(decomp.ego, inputs.gt_ego)
    return PairResult(
        refused=None,
        digest=output_digest(decomp, flow),
        problems=tuple(check_outputs(x, decomp, flow)),
        epe3d=fm.epe3d_mean,
        epe3d_median=fm.epe3d_median,
        acc3ds=fm.acc3ds,
        rre_deg=em.rre,
        rte_m=em.rte,
    )


def output_digest(decomp, flow: FlowField) -> str:
    """SHA-256 over every array the caller receives that defines the answer."""
    parts = [
        flow.vectors,
        decomp.voxel_flow.vectors,
        decomp.ego.matrix(),
        decomp.bg_mask_x,
        decomp.clusters.labels,
        np.array(decomp.cluster_fitted, dtype=bool),
        np.array(decomp.cluster_refined, dtype=bool),
        *(t.matrix() for t in decomp.cluster_transforms),
    ]
    h = hashlib.sha256()
    for a in parts:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def combined_digest(results) -> str:
    return _sha("".join(r.digest for r in results).encode())


def check_outputs(x: PointCloud, decomp, flow: FlowField) -> list[str]:
    """Flow shape and finiteness, and rigidity of every transformed segment."""
    problems = []
    if flow.vectors.shape != (len(x), 3):
        problems.append(f"flow has shape {flow.vectors.shape}, expected ({len(x)}, 3)")
    if not np.all(np.isfinite(flow.vectors)):
        problems.append("flow has non-finite vectors")
    pts = decomp.voxel_x.points
    vflow = decomp.voxel_flow.vectors
    bg = decomp.bg_mask_x
    segments = [("background", bg, decomp.ego)]
    fg_index = np.flatnonzero(~bg)
    for k, (t, fitted) in enumerate(zip(decomp.cluster_transforms, decomp.cluster_fitted)):
        if fitted:
            segments.append((f"cluster {k}", fg_index[decomp.clusters.labels == k], t))
    for label, sel, t in segments:
        try:
            refit = fit_cluster_transform(PointCloud(pts[sel]), FlowField(vflow[sel]))
        except ValueError as err:
            problems.append(f"{label}: refit failed ({err})")
            continue
        gap = max(np.abs(refit.rotation - t.rotation).max(),
                  np.abs(refit.translation - t.translation).max())
        if gap >= RIGIDITY_TOL:
            problems.append(f"{label}: flow refits to its transform only within {gap:.3g}")
    return problems


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
