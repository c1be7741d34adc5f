import argparse
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rigidflow.cli import build_parser, main
from rigidflow.io import read_key_values, read_point_cloud, read_transform, write_point_cloud
from rigidflow.geom import PointCloud
from rigidflow.synthetic import SceneSpec, generate_scene


def synth(tmp_path, *extra):
    tmp_path.mkdir(parents=True, exist_ok=True)
    prefix = str(tmp_path / "scene")
    rc = main(["synth", "--out-prefix", prefix, "--seed", "0", *extra])
    assert rc == 0
    return prefix


def test_synth_writes_parseable_consistent_files(tmp_path):
    prefix = synth(tmp_path)
    x = read_point_cloud(f"{prefix}_x.rgf")
    y = read_point_cloud(f"{prefix}_y.rgf")
    gt = read_point_cloud(f"{prefix}_gt_flow.rgf")
    ego = read_transform(f"{prefix}_ego.txt")
    assert x.features is not None and x.fg_prob is not None
    assert x.cluster_id is not None and x.flow is not None
    assert y.features is not None and y.fg_prob is not None
    assert len(gt) == len(x)
    np.testing.assert_array_equal(gt.flow, x.flow)
    assert os.path.exists(f"{prefix}_object_2.txt")
    # self-consistency: background flow equals the ego displacement (float32)
    bg = x.cluster_id < 0
    moved = ego.apply(x.points[bg]) - x.points[bg]
    assert np.abs(moved - x.flow[bg]).max() < 1e-5


SYNTH_FLAG_FIELDS = {
    "--objects": "n_objects",
    "--points-per-object": "points_per_object",
    "--background-points": "background_points",
    "--extent": "background_extent",
    "--ego-rotation-deg": "ego_rotation_deg",
    "--ego-translation": "ego_translation",
    "--object-rotation-deg": "object_rotation_deg",
    "--object-translation": "object_translation",
    "--noise-sigma": "noise_sigma",
    "--dropout": "dropout",
    "--feature-dim": "feature_dim",
    "--gap": "min_object_gap",
    "--seed": "seed",
}


def test_synth_flag_defaults_are_the_scene_spec_defaults():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = {
        option: action
        for action in sub.choices["synth"]._actions
        for option in action.option_strings
    }
    defaults = {f.name: f.default for f in dataclasses.fields(SceneSpec)}
    for flag, name in SYNTH_FLAG_FIELDS.items():
        default = actions[flag].default
        assert default == defaults[name] and type(default) is type(defaults[name]), flag


def test_synth_defaults_write_the_default_scene(tmp_path):
    prefix = str(tmp_path / "scene")
    assert main(["synth", "--out-prefix", prefix]) == 0
    x = read_point_cloud(f"{prefix}_x.rgf")
    want = generate_scene(SceneSpec()).frame_x
    assert x.features.shape == want.features.shape == (len(want), SceneSpec().feature_dim)
    np.testing.assert_array_equal(x.points, want.points.astype(np.float32))


def test_synth_zero_objects_zero_flow(tmp_path):
    prefix = str(tmp_path / "static")
    rc = main(
        [
            "synth", "--out-prefix", prefix, "--objects", "0",
            "--ego-rotation-deg", "0", "--ego-translation", "0",
            "--noise-sigma", "0", "--dropout", "0",
        ]
    )
    assert rc == 0
    gt = read_point_cloud(f"{prefix}_gt_flow.rgf")
    np.testing.assert_array_equal(gt.flow, 0.0)


def test_synth_invalid_spec_exits_2(tmp_path, capsys):
    # NaN and inf used to escape as an OverflowError traceback or, for the
    # noise, as a silently noise-free scene
    for flag, value in [
        ("--points-per-object", "2"),
        ("--extent", "nan"),
        ("--gap", "nan"),
        ("--ego-rotation-deg", "nan"),
        ("--ego-translation", "nan"),
        ("--object-rotation-deg", "inf"),
        ("--noise-sigma", "nan"),
    ]:
        rc = main(["synth", "--out-prefix", str(tmp_path / "bad"), flag, value])
        assert rc == 2, flag
        assert "inconsistent scene spec" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_synth_negative_seed_exits_2_naming_the_flag(tmp_path, capsys):
    prefix = tmp_path / "neg"
    rc = main(["synth", "--out-prefix", str(prefix), "--seed", "-1"])
    assert rc == 2
    assert "--seed -1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_flow_end_to_end_oracle_features(tmp_path, capsys):
    prefix = synth(tmp_path, "--noise-sigma", "0", "--dropout", "0")
    out_flow = str(tmp_path / "pred.rgf")
    report_path = str(tmp_path / "report.txt")
    rc = main(
        [
            "flow", "--src", f"{prefix}_x.rgf", "--tgt", f"{prefix}_y.rgf",
            "--features", "oracle", "--refine", "--seed", "7",
            "--out-flow", out_flow, "--report", report_path,
            "--gt-ego", f"{prefix}_ego.txt",
        ]
    )
    assert rc == 0
    report = read_key_values(report_path)
    assert float(report["flow.epe3d_mean"]) < 1e-3
    assert float(report["ego.rre"]) < 0.1
    assert report["cluster.count"] == "3"
    pred = read_point_cloud(out_flow)
    assert pred.flow is not None and len(pred) > 0


def test_flow_missing_file_exits_2(tmp_path, capsys):
    rc = main(
        ["flow", "--src", str(tmp_path / "nope.rgf"), "--tgt", str(tmp_path / "nope2.rgf")]
    )
    assert rc == 2
    assert "nope.rgf" in capsys.readouterr().err


def test_flow_unparsable_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "garbage.rgf"
    bad.write_bytes(b"RGF1" + b"\xff" * 3)
    rc = main(["flow", "--src", str(bad), "--tgt", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "garbage.rgf" in err and "byte" in err


def test_flow_out_of_range_fg_prob_exits_2_naming_attribute(tmp_path, rng, capsys):
    n, dim = 30, 4
    pc = PointCloud(rng.normal(size=(n, 3)), features=rng.normal(size=(n, dim)), fg_prob=np.zeros(n))
    p = tmp_path / "prob.rgf"
    write_point_cloud(p, pc)
    data = bytearray(p.read_bytes())
    fg_offset = 16 + 12 * n + 4 * n * dim
    data[fg_offset : fg_offset + 4] = np.float32(7.0).tobytes()
    p.write_bytes(bytes(data))
    rc = main(["flow", "--src", str(p), "--tgt", str(p)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "prob.rgf" in err and "fg_prob values must lie in [0, 1]" in err


@pytest.mark.parametrize(
    "key",
    [
        "definitely_not_a_key",
        # removed options: a config that still sets one must fail loudly
        "flow_smooth_k",
        "flow_smooth_radius",
        "normalized_chamfer",
        "lambda_inlier",
        "lambda_cd",
        "interp_k",
    ],
)
def test_flow_config_unknown_key_exits_2(tmp_path, capsys, key):
    prefix = synth(tmp_path)
    cfg = tmp_path / "unknown.cfg"
    cfg.write_text(f"{key} = 3\n")
    rc = main(
        ["flow", "--src", f"{prefix}_x.rgf", "--tgt", f"{prefix}_y.rgf", "--config", str(cfg)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown.cfg" in err and f"unknown config key {key!r}" in err


@pytest.mark.parametrize(
    "line, name",
    [
        ("voxel_size = -1", "voxel_size"),
        ("tau_ego = nan", "tau_ego"),
        ("fg_threshold = 1.5", "fg_threshold"),
        ("icp_fg.max_iterations = 0", "max_iterations"),
        ("seed = -1", "seed"),
        # NaN fails every comparison, so a `value <= 0` check lets it through
        ("slack_d0 = nan", "slack_d0"),
        ("icp_fg.max_correspondence_distance = nan", "max_correspondence_distance"),
        ("icp_bg.convergence_epsilon = nan", "convergence_epsilon"),
        ("remove_ground = true\nground_removal_y = nan", "ground_removal_y"),
        # inf passes a `value > 0` check but yields a wrong answer or exit 3
        ("voxel_size = inf", "voxel_size"),
        ("dbscan_eps = inf", "dbscan_eps"),
        ("tau_ego = inf", "tau_ego"),
        ("tau_flow = inf", "tau_flow"),
    ],
)
def test_flow_config_invalid_value_exits_2(tmp_path, capsys, line, name):
    prefix = synth(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"seed = 3\n{line}\n")
    out_flow = tmp_path / "pred.rgf"
    rc = main(
        [
            "flow", "--src", f"{prefix}_x.rgf", "--tgt", f"{prefix}_y.rgf",
            "--config", str(cfg), "--out-flow", str(out_flow),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.cfg" in err and name in err
    assert not out_flow.exists()


def test_flow_negative_seed_flag_exits_2_naming_the_flag(tmp_path, capsys):
    prefix = synth(tmp_path)
    out_flow = tmp_path / "pred.rgf"
    rc = main(
        [
            "flow", "--src", f"{prefix}_x.rgf", "--tgt", f"{prefix}_y.rgf",
            "--seed", "-1", "--out-flow", str(out_flow),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "--seed -1" in err and "None" not in err
    assert not out_flow.exists()


@pytest.mark.parametrize("flag", ["--out-flow", "--out-ego", "--report"])
def test_flow_unwritable_output_exits_2_naming_path(tmp_path, capsys, flag):
    prefix = synth(tmp_path)
    args = [
        "flow", "--src", f"{prefix}_x.rgf", "--tgt", f"{prefix}_y.rgf",
        "--out-flow", str(tmp_path / "pred.rgf"),
    ]
    unwritable = str(tmp_path / "missing_dir" / "out")
    rc = main(args + [flag, unwritable])
    assert rc == 2
    assert unwritable in capsys.readouterr().err


def test_flow_gt_ego_adds_only_the_ego_lines(tmp_path):
    # the ground-truth ego is scored, nothing else: no training-loss block
    prefix = synth(tmp_path)
    lines = {}
    for name, extra in (("plain", []), ("gt", ["--gt-ego", f"{prefix}_ego.txt"])):
        report = tmp_path / f"{name}.txt"
        rc = main(
            [
                "flow", "--src", f"{prefix}_x.rgf", "--tgt", f"{prefix}_y.rgf",
                "--refine", "--seed", "7", "--out-flow", str(tmp_path / f"{name}.rgf"),
                "--report", str(report), *extra,
            ]
        )
        assert rc == 0
        lines[name] = report.read_text().splitlines()
    at = lines["plain"].index("cluster.count = 3")
    keys = [line.split(" = ")[0] for line in lines["gt"][at : at + 2]]
    assert keys == ["ego.rre", "ego.rte"]
    assert lines["gt"][:at] + lines["gt"][at + 2 :] == lines["plain"]


def test_flow_missing_gt_ego_exits_2_before_inference(tmp_path, capsys, monkeypatch):
    import rigidflow.cli as cli

    prefix = synth(tmp_path)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise ValueError("inference ran")

    monkeypatch.setattr(cli, "infer_rigid_flow", spy)
    out_flow = tmp_path / "pred.rgf"
    missing = str(tmp_path / "no_ego.txt")
    rc = main(
        [
            "flow", "--src", f"{prefix}_x.rgf", "--tgt", f"{prefix}_y.rgf",
            "--gt-ego", missing, "--out-flow", str(out_flow),
        ]
    )
    assert rc == 2
    assert missing in capsys.readouterr().err
    assert calls == []
    assert not out_flow.exists()


def test_flow_mismatched_feature_widths_exit_2_naming_both_donors(tmp_path, rng, capsys):
    prefix = synth(tmp_path)
    donors = []
    for side, frame, dim in (("src", "x", 16), ("tgt", "y", 8)):
        n = len(read_point_cloud(f"{prefix}_{frame}.rgf"))
        donor = tmp_path / f"{side}_feat.rgf"
        write_point_cloud(donor, PointCloud(np.zeros((n, 3)), features=rng.normal(size=(n, dim))))
        donors.append(str(donor))
    rc = main(
        [
            "flow", "--src", f"{prefix}_x.rgf", "--tgt", f"{prefix}_y.rgf",
            "--features", "file", "--src-features", donors[0], "--tgt-features", donors[1],
            "--out-flow", str(tmp_path / "pred.rgf"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{donors[0]} has D = 16" in err and f"{donors[1]} has D = 8" in err


def test_flow_infinite_mask_height_exits_2_naming_the_flag(tmp_path, capsys):
    prefix = synth(tmp_path)
    rc = main(
        [
            "flow", "--src", f"{prefix}_x.rgf", "--tgt", f"{prefix}_y.rgf",
            "--masks", "height", "--mask-height", "inf", "--out-flow", str(tmp_path / "p.rgf"),
        ]
    )
    assert rc == 2
    assert "--mask-height" in capsys.readouterr().err


def test_flow_nan_mask_height_exits_2_naming_the_flag(tmp_path, capsys):
    # `y > nan` is False everywhere, which would make every point background
    prefix = synth(tmp_path)
    out_flow = tmp_path / "pred.rgf"
    rc = main(
        [
            "flow", "--src", f"{prefix}_x.rgf", "--tgt", f"{prefix}_y.rgf",
            "--masks", "height", "--mask-height", "nan", "--out-flow", str(out_flow),
        ]
    )
    assert rc == 2
    assert "--mask-height" in capsys.readouterr().err
    assert not out_flow.exists()


def test_flow_non_finite_text_cloud_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.xyz"
    bad.write_text("0.0 0.0 0.0\nnan 1.0 0.0\n1.0 0.0 1.0\n")
    rc = main(
        [
            "flow", "--src", str(bad), "--tgt", str(bad), "--features", "xyz",
            "--masks", "height", "--out-flow", str(tmp_path / "pred.rgf"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.xyz" in err and "non-finite" in err


def test_flow_numerical_failure_exits_3(tmp_path, rng, capsys):
    # all-foreground clouds leave no background: numerical failure, not usage
    pts = rng.uniform(-3.0, 3.0, size=(200, 3))
    pc = PointCloud(
        pts, features=rng.normal(size=(200, 4)), fg_prob=np.ones(200)
    )
    p = tmp_path / "fg.rgf"
    write_point_cloud(p, pc)
    rc = main(["flow", "--src", str(p), "--tgt", str(p)])
    assert rc == 3
    assert "no background" in capsys.readouterr().err


def test_flow_oracle_features_require_embedded(tmp_path, rng, capsys):
    pc = PointCloud(rng.uniform(-3, 3, size=(50, 3)))
    p = tmp_path / "plain.rgf"
    write_point_cloud(p, pc)
    rc = main(["flow", "--src", str(p), "--tgt", str(p), "--features", "oracle"])
    assert rc == 2


def test_flow_deterministic_artifacts(tmp_path):
    prefix = synth(tmp_path)
    outs = []
    for run in range(2):
        out_flow = str(tmp_path / f"flow_{run}.rgf")
        report = str(tmp_path / f"report_{run}.txt")
        ego = str(tmp_path / f"ego_{run}.txt")
        rc = main(
            [
                "flow", "--src", f"{prefix}_x.rgf", "--tgt", f"{prefix}_y.rgf",
                "--refine", "--seed", "7", "--out-flow", out_flow,
                "--report", report, "--out-ego", ego,
            ]
        )
        assert rc == 0
        outs.append(
            (
                open(out_flow, "rb").read(),
                open(report, "rb").read(),
                open(ego, "rb").read(),
            )
        )
    assert outs[0] == outs[1]


def test_synth_deterministic_artifacts(tmp_path):
    a = synth(tmp_path / "a")
    b = synth(tmp_path / "b")
    for suffix in ("_x.rgf", "_y.rgf", "_gt_flow.rgf", "_ego.txt"):
        assert open(a + suffix, "rb").read() == open(b + suffix, "rb").read()


def test_eval_identical_files(tmp_path, capsys):
    prefix = synth(tmp_path)
    rc = main(
        ["eval", "--pred", f"{prefix}_gt_flow.rgf", "--gt", f"{prefix}_gt_flow.rgf"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "flow.epe3d_mean = 0.0" in out


def test_eval_hand_constructed_metrics(tmp_path, capsys):
    pts = np.zeros((4, 3))
    gt_flow = np.zeros((4, 3))
    gt_flow[:, 0] = 1.0
    pred_flow = gt_flow.copy()
    pred_flow[0, 0] = 1.04   # rel err 0.04 -> strict hit
    pred_flow[1, 0] = 1.08   # rel err 0.08 -> relaxed hit only
    pred_flow[2, 0] = 1.5    # rel err 0.5  -> outlier
    p_gt = tmp_path / "gt.rgf"
    p_pred = tmp_path / "pred.rgf"
    write_point_cloud(p_gt, PointCloud(pts, flow=gt_flow))
    write_point_cloud(p_pred, PointCloud(pts, flow=pred_flow))
    rc = main(["eval", "--pred", str(p_pred), "--gt", str(p_gt)])
    assert rc == 0
    out = capsys.readouterr().out
    # hand computation: errors (0.04, 0.08, 0.5, 0.0) on unit-norm flows, so
    # points 0 and 3 pass the strict gate; point 1 only the relaxed gate;
    # point 2 is an outlier
    assert "flow.acc3ds = 0.5" in out
    assert "flow.acc3dr = 0.75" in out
    assert "flow.outliers = 0.25" in out


def test_eval_mismatched_lengths_exits_2(tmp_path, rng, capsys):
    a = tmp_path / "a.rgf"
    b = tmp_path / "b.rgf"
    write_point_cloud(a, PointCloud(np.zeros((3, 3)), flow=np.zeros((3, 3))))
    write_point_cloud(b, PointCloud(np.zeros((4, 3)), flow=np.zeros((4, 3))))
    rc = main(["eval", "--pred", str(a), "--gt", str(b)])
    assert rc == 2


def test_eval_requires_flow_blocks(tmp_path, rng):
    p = tmp_path / "noflow.rgf"
    write_point_cloud(p, PointCloud(rng.normal(size=(5, 3))))
    rc = main(["eval", "--pred", str(p), "--gt", str(p)])
    assert rc == 2


def test_eval_with_ego_files(tmp_path, capsys):
    prefix = synth(tmp_path)
    rc = main(
        [
            "eval", "--pred", f"{prefix}_gt_flow.rgf", "--gt", f"{prefix}_gt_flow.rgf",
            "--pred-ego", f"{prefix}_ego.txt", "--gt-ego", f"{prefix}_ego.txt",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "ego.rre = 0.0" in out


def test_flow_timings_flag_adds_lines(tmp_path):
    prefix = synth(tmp_path)
    report = str(tmp_path / "timed.txt")
    rc = main(
        [
            "flow", "--src", f"{prefix}_x.rgf", "--tgt", f"{prefix}_y.rgf",
            "--seed", "1", "--out-flow", str(tmp_path / "f.rgf"),
            "--report", report, "--timings",
        ]
    )
    assert rc == 0
    assert "timing.infer_ms" in open(report).read()


def test_flow_deterministic_under_threaded_blas(tmp_path):
    # Each inference runs its two branches on two Python threads, which then
    # call a 2-thread OpenBLAS at once; reruns must still match byte for byte.
    prefix = synth(tmp_path)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="2")
    outs = []
    for run in range(2):
        paths = [str(tmp_path / f"{name}_{run}") for name in ("flow.rgf", "report.txt", "ego.txt")]
        result = subprocess.run(
            [
                sys.executable, "-m", "rigidflow.cli", "flow",
                "--src", f"{prefix}_x.rgf", "--tgt", f"{prefix}_y.rgf", "--refine", "--seed", "7",
                "--out-flow", paths[0], "--report", paths[1], "--out-ego", paths[2],
            ],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outs.append([open(p, "rb").read() for p in paths])
    assert outs[0] == outs[1]
