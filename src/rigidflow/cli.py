"""Command-line interface: `flow` (run the pipeline), `synth` (generate
scenes), and `eval` (score flow/ego estimates).

Exit codes: 0 on success, 2 on usage or input errors (missing/unparsable
files, invalid config values or scene specs, mismatched lengths or feature
widths, output paths that cannot be written), 3 on numerical failures
inside the pipeline (degenerate geometry, no background, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from .geom import FlowField, PointCloud
from .io import (
    ParseError,
    format_key_values,
    read_key_values,
    read_point_cloud_any,
    read_transform,
    transform_to_text,
    write_point_cloud,
    write_transform,
)
from .metrics import ego_metrics, flow_metrics
from .pipeline import PipelineConfig, infer_rigid_flow, preprocess, with_height_mask, with_xyz_features
from .synthetic import SceneSpec, generate_scene

__all__ = ["main"]


class _InputError(Exception):
    """Bad inputs or flag combinations; maps to exit code 2."""


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _flag(value) -> str:
    return "true" if value else "false"


def _sorted_pairs(prefix: str, values: dict) -> list:
    """`prefix.key` report pairs in key order."""
    return [(f"{prefix}.{key}", values[key]) for key in sorted(values)]


def _field_pairs(prefix: str, values) -> list:
    """`prefix.field` report pairs of a metrics dataclass, in field order."""
    return [
        (f"{prefix}.{f.name}", repr(getattr(values, f.name))) for f in dataclasses.fields(values)
    ]


def _emit(text: str, path: str | None) -> None:
    """Write a report to `path`, or to stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _with_seed(spec, seed: int | None):
    """`spec` (a config or scene spec) with `--seed` over its seed; a bad value names the flag."""
    if seed is None:
        return spec
    try:
        return dataclasses.replace(spec, seed=seed)
    except ValueError as exc:
        raise _InputError(f"--seed {seed}: {exc}") from exc


def _read_config(path: str | None, seed: int | None) -> PipelineConfig:
    """The config file's values over the defaults, then `--seed` over both.

    A bad value is reported against where it came from: the file or `--seed`.
    """
    try:
        cfg = PipelineConfig.from_flat_dict(read_key_values(path) if path else {})
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from exc
    return _with_seed(cfg, seed)


def _load_cloud(path: str) -> PointCloud:
    if not os.path.exists(path):
        raise _InputError(f"no such file: {path}")
    return read_point_cloud_any(path)


def _attach(args, pc: PointCloud, side: str, name: str, flag: str, derive) -> PointCloud:
    """`pc` with attribute `name` as `--{flag}` provides it: embedded (oracle),
    from the `--{side}-{flag}` cloud file (file), or computed by `derive`."""
    mode = getattr(args, flag)
    if mode == "oracle":
        if getattr(pc, name) is None:
            raise _InputError(
                f"{side} cloud has no embedded {name}; --{flag} oracle needs generated scenes"
            )
        return pc
    if mode != "file":
        return derive(pc)
    path = getattr(args, f"{side}_{flag}")
    if path is None:
        raise _InputError(f"--{flag} file requires --{side}-{flag}")
    donor = _load_cloud(path)
    if getattr(donor, name) is None or len(donor) != len(pc):
        raise _InputError(f"{flag[:-1]} file {path} does not match the {side} cloud")
    return dataclasses.replace(pc, **{name: getattr(donor, name)})


def cmd_flow(args: argparse.Namespace) -> int:
    timings: dict[str, float] = {}
    try:
        cfg = _read_config(args.config, args.seed)
        if not np.isfinite(args.mask_height):  # refused before any file is read, naming the flag
            raise _InputError(f"--mask-height must be finite, got {args.mask_height}")

        t0 = time.perf_counter()
        src = _load_cloud(args.src)
        tgt = _load_cloud(args.tgt)
        src = _attach(args, src, "src", "features", "features", with_xyz_features)
        tgt = _attach(args, tgt, "tgt", "features", "features", with_xyz_features)
        height_mask = lambda pc: with_height_mask(pc, args.mask_height)
        src = _attach(args, src, "src", "fg_prob", "masks", height_mask)
        tgt = _attach(args, tgt, "tgt", "fg_prob", "masks", height_mask)
        if src.features.shape[1] != tgt.features.shape[1]:
            files = (args.src, args.tgt)
            if args.features == "file":
                files = (args.src_features, args.tgt_features)
            raise _InputError(
                f"feature widths differ: {files[0]} has D = {src.features.shape[1]}, "
                f"{files[1]} has D = {tgt.features.shape[1]}"
            )
        gt_ego = read_transform(args.gt_ego) if args.gt_ego else None
        timings["read_ms"] = 1e3 * (time.perf_counter() - t0)
    except (ParseError, _InputError, OSError) as exc:
        return _fail(str(exc), 2)

    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng(cfg.seed)
        x = preprocess(src, cfg, rng)
        y = preprocess(tgt, cfg, rng)
        timings["preprocess_ms"] = 1e3 * (time.perf_counter() - t0)

        t0 = time.perf_counter()
        decomp, flow = infer_rigid_flow(x, y, cfg, refine=args.refine, rng=rng)
        timings["infer_ms"] = 1e3 * (time.perf_counter() - t0)
    except ValueError as exc:
        return _fail(f"numerical failure: {exc}", 3)

    run = {
        "command": "flow",
        "src": args.src,
        "tgt": args.tgt,
        "features": args.features,
        "masks": args.masks,
        "refine": _flag(args.refine),
        "src_points": str(len(x)),
        "tgt_points": str(len(y)),
        "src_voxels": str(len(decomp.voxel_x)),
        "tgt_voxels": str(len(decomp.voxel_y)),
        "ego_transform": transform_to_text(decomp.ego),
    }
    pairs = _sorted_pairs("run", run) + _sorted_pairs("config", cfg.to_flat_dict())
    if x.flow is not None:
        pairs += _field_pairs("flow", flow_metrics(flow, FlowField(x.flow)))

    if gt_ego is not None:
        pairs += _field_pairs("ego", ego_metrics(decomp.ego, gt_ego))

    pairs.append(("cluster.count", str(decomp.clusters.n_clusters)))
    for k, (size, fit) in enumerate(zip(decomp.clusters.cluster_sizes, decomp.cluster_fits)):
        pairs += [
            (f"cluster.{k}.size", str(size)),
            (f"cluster.{k}.fitted", _flag(fit.fitted)),
            (f"cluster.{k}.refined", _flag(fit.refined)),
            (f"cluster.{k}.transform", transform_to_text(fit.transform)),
        ]

    try:
        t0 = time.perf_counter()
        write_point_cloud(args.out_flow, PointCloud(points=x.points, flow=flow.vectors))
        if args.out_ego:
            write_transform(args.out_ego, decomp.ego)
        timings["write_ms"] = 1e3 * (time.perf_counter() - t0)

        if args.timings:
            pairs += _sorted_pairs("timing", {key: repr(ms) for key, ms in timings.items()})
        _emit(format_key_values(pairs), args.report)
    except OSError as exc:
        return _fail(str(exc), 2)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        spec = SceneSpec(**{name: getattr(args, name) for name in _SYNTH_FLAGS.values()})
        scene = generate_scene(_with_seed(spec, args.seed))
    except (ValueError, _InputError) as exc:
        return _fail(str(exc), 2)

    prefix = args.out_prefix
    paths = {
        "x": f"{prefix}_x.rgf",
        "y": f"{prefix}_y.rgf",
        "gt_flow": f"{prefix}_gt_flow.rgf",
        "ego": f"{prefix}_ego.txt",
    }
    try:
        write_point_cloud(paths["x"], scene.frame_x)
        write_point_cloud(paths["y"], scene.frame_y)
        write_point_cloud(
            paths["gt_flow"],
            PointCloud(points=scene.frame_x.points, flow=scene.gt_flow.vectors),
        )
        write_transform(paths["ego"], scene.gt_ego)
        for k, t in enumerate(scene.gt_object_transforms):
            write_transform(f"{prefix}_object_{k}.txt", t)
    except OSError as exc:
        return _fail(str(exc), 2)
    for name, path in paths.items():
        print(f"{name}: {path}")
    for k in range(len(scene.gt_object_transforms)):
        print(f"object_{k}: {prefix}_object_{k}.txt")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        pred = _load_cloud(args.pred)
        gt = _load_cloud(args.gt)
        if pred.flow is None:
            raise _InputError(f"no flow data in {args.pred}")
        if gt.flow is None:
            raise _InputError(f"no flow data in {args.gt}")
        pairs = _sorted_pairs("run", {"command": "eval", "pred": args.pred, "gt": args.gt})
        pairs += _field_pairs("flow", flow_metrics(FlowField(pred.flow), FlowField(gt.flow)))
        if args.pred_ego or args.gt_ego:
            if not (args.pred_ego and args.gt_ego):
                raise _InputError("--pred-ego and --gt-ego must be given together")
            pairs += _field_pairs(
                "ego", ego_metrics(read_transform(args.pred_ego), read_transform(args.gt_ego))
            )
    except (_InputError, OSError, ValueError) as exc:
        return _fail(str(exc), 2)

    # eval scores no clusters, but its report keeps the section's count line
    pairs.append(("cluster.count", "0"))
    text = format_key_values(pairs)
    sys.stdout.write(text)
    if args.report:
        try:
            _emit(text, args.report)
        except OSError as exc:
            return _fail(str(exc), 2)
    return 0


# `rigidflow synth` flag -> the SceneSpec field it sets; the field gives the
# flag's type and default. `--seed` is separate, so that a bad seed names it.
_SYNTH_FLAGS = {
    "objects": "n_objects",
    "points-per-object": "points_per_object",
    "background-points": "background_points",
    "extent": "background_extent",
    "ego-rotation-deg": "ego_rotation_deg",
    "ego-translation": "ego_translation",
    "object-rotation-deg": "object_rotation_deg",
    "object-translation": "object_translation",
    "noise-sigma": "noise_sigma",
    "dropout": "dropout",
    "feature-dim": "feature_dim",
    "gap": "min_object_gap",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidflow",
        description="Rigid multi-body scene flow: inference, synthetic scenes, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="estimate rigid scene flow for a frame pair")
    p_flow.add_argument("--src", required=True, help="source cloud (.rgf or xyz text)")
    p_flow.add_argument("--tgt", required=True, help="target cloud (.rgf or xyz text)")
    p_flow.add_argument(
        "--features",
        choices=["oracle", "xyz", "file"],
        default="oracle",
        help="feature provider: embedded attributes, raw coordinates, or separate files",
    )
    p_flow.add_argument("--src-features", help="cloud file donating source features")
    p_flow.add_argument("--tgt-features", help="cloud file donating target features")
    p_flow.add_argument(
        "--masks",
        choices=["oracle", "height", "file"],
        default="oracle",
        help="foreground provider: embedded fg_prob, height heuristic, or separate files",
    )
    p_flow.add_argument("--src-masks", help="cloud file donating source fg_prob")
    p_flow.add_argument("--tgt-masks", help="cloud file donating target fg_prob")
    p_flow.add_argument("--mask-height", type=float, default=-0.5, help="height threshold (y up)")
    p_flow.add_argument("--refine", action="store_true", help="run ICP test-time refinement")
    p_flow.add_argument("--config", help="flat key=value config file")
    p_flow.add_argument("--seed", type=int, help="override the config seed")
    p_flow.add_argument("--gt-ego", help="ground-truth ego transform for error reporting")
    p_flow.add_argument("--out-flow", default="flow.rgf", help="output flow cloud path")
    p_flow.add_argument("--out-ego", help="optional path for the estimated ego transform")
    p_flow.add_argument("--report", help="write the run report here instead of stdout")
    p_flow.add_argument("--timings", action="store_true", help="include timing lines in the report")
    p_flow.set_defaults(func=cmd_flow)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene with ground truth")
    p_synth.add_argument("--out-prefix", required=True, help="prefix for all written files")
    spec_fields = {f.name: f for f in dataclasses.fields(SceneSpec)}
    for flag, name in _SYNTH_FLAGS.items():
        default = spec_fields[name].default
        p_synth.add_argument(f"--{flag}", dest=name, type=type(default), default=default)
    p_synth.add_argument("--seed", type=int, default=spec_fields["seed"].default)
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("eval", help="score a predicted flow (and optionally ego) file")
    p_eval.add_argument("--pred", required=True, help="predicted flow cloud")
    p_eval.add_argument("--gt", required=True, help="ground-truth flow cloud")
    p_eval.add_argument("--pred-ego", help="estimated ego transform file")
    p_eval.add_argument("--gt-ego", help="ground-truth ego transform file")
    p_eval.add_argument("--report", help="also write the report to this path")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
