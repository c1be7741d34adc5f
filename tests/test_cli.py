import os

import numpy as np

from rigidflow.cli import main
from rigidflow.io import read_point_cloud, read_report, read_transform, write_point_cloud
from rigidflow.geom import PointCloud


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


def test_synth_invalid_spec_exits_2(tmp_path):
    rc = main(
        ["synth", "--out-prefix", str(tmp_path / "bad"), "--points-per-object", "2"]
    )
    assert rc == 2


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
    report = read_report(report_path)
    assert report.flow_metrics is not None
    assert report.flow_metrics.epe3d_mean < 1e-3
    assert report.ego_metrics is not None
    assert report.ego_metrics.rre < 0.1
    assert report.energy is not None
    assert report.energy.l_bg <= 1e-6
    assert len(report.clusters) == 3
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
