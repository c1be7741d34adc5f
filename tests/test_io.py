import dataclasses
import struct

import numpy as np
import pytest

from rigidflow.cli import main
from rigidflow.geom import POINT_ATTRIBUTES, PointCloud
from rigidflow.io import (
    _BLOCKS,
    ParseError,
    format_key_values,
    read_key_values,
    read_point_cloud,
    read_point_cloud_any,
    read_transform,
    read_xyz_text,
    transform_to_text,
    write_point_cloud,
    write_transform,
    write_xyz_text,
)
from rigidflow.pipeline import PipelineConfig

from conftest import make_transform


def _full_cloud(rng, n=20, dim=4):
    return PointCloud(
        rng.normal(size=(n, 3)),
        features=rng.normal(size=(n, dim)),
        fg_prob=rng.uniform(size=n),
        cluster_id=rng.integers(-1, 3, size=n),
        flow=rng.normal(size=(n, 3)),
    )


def test_binary_round_trip_is_exact_at_storage_precision(tmp_path, rng):
    pc = _full_cloud(rng)
    path = tmp_path / "cloud.rgf"
    write_point_cloud(path, pc)
    back = read_point_cloud(path)
    # storage is float32; reading returns exactly the stored values
    np.testing.assert_array_equal(back.points, pc.points.astype(np.float32))
    np.testing.assert_array_equal(back.features, pc.features.astype(np.float32))
    np.testing.assert_array_equal(back.fg_prob, pc.fg_prob.astype(np.float32))
    np.testing.assert_array_equal(back.cluster_id, pc.cluster_id)
    np.testing.assert_array_equal(back.flow, pc.flow.astype(np.float32))


def test_binary_double_round_trip_byte_identical(tmp_path, rng):
    pc = _full_cloud(rng)
    p1 = tmp_path / "a.rgf"
    p2 = tmp_path / "b.rgf"
    write_point_cloud(p1, pc)
    write_point_cloud(p2, read_point_cloud(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_binary_partial_attributes(tmp_path, rng):
    pc = PointCloud(rng.normal(size=(7, 3)), flow=rng.normal(size=(7, 3)))
    path = tmp_path / "c.rgf"
    write_point_cloud(path, pc)
    back = read_point_cloud(path)
    assert back.features is None and back.fg_prob is None and back.cluster_id is None
    assert back.flow is not None


def test_binary_layout_is_pinned(tmp_path):
    # header (magic, n, feature dim, attribute bits), then points and the
    # blocks in bit order, float32 except int32 cluster ids
    pc = PointCloud(
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        features=[[0.5, -1.0], [2.0, 0.25]],
        fg_prob=[0.0, 1.0],
        cluster_id=[-1, 7],
        flow=[[0.5, 0.0, -0.5], [1.0, 2.0, 3.0]],
    )
    golden = (
        struct.pack("<4sIII", b"RGF1", 2, 2, 1 | 2 | 4 | 8)
        + struct.pack("<6f", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        + struct.pack("<4f", 0.5, -1.0, 2.0, 0.25)
        + struct.pack("<2f", 0.0, 1.0)
        + struct.pack("<2i", -1, 7)
        + struct.pack("<6f", 0.5, 0.0, -0.5, 1.0, 2.0, 3.0)
    )
    path = tmp_path / "golden.rgf"
    write_point_cloud(path, pc)
    assert path.read_bytes() == golden
    back = read_point_cloud(path)
    for name in ("points", *POINT_ATTRIBUTES):
        np.testing.assert_array_equal(getattr(back, name), getattr(pc, name))

    partial = dataclasses.replace(pc, features=None, cluster_id=None)
    write_point_cloud(path, partial)
    assert path.read_bytes() == (
        struct.pack("<4sIII", b"RGF1", 2, 0, 2 | 8)
        + struct.pack("<6f", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        + struct.pack("<2f", 0.0, 1.0)
        + struct.pack("<6f", 0.5, 0.0, -0.5, 1.0, 2.0, 3.0)
    )


def test_binary_blocks_cover_every_point_attribute():
    assert [name for name, _, _ in _BLOCKS] == list(POINT_ATTRIBUTES)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.rgf"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ParseError) as err:
        read_point_cloud(path)
    assert err.value.offset == 0
    assert "bad.rgf" in str(err.value)


def test_binary_truncation_reports_offset(tmp_path, rng):
    pc = _full_cloud(rng, n=10)
    path = tmp_path / "t.rgf"
    write_point_cloud(path, pc)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ParseError) as err:
        read_point_cloud(path)
    assert err.value.offset == len(data) - 8


def test_xyz_text_round_trip(tmp_path, rng):
    pc = PointCloud(rng.normal(size=(9, 3)), flow=rng.normal(size=(9, 3)))
    path = tmp_path / "cloud.xyz"
    write_xyz_text(path, pc)
    back = read_xyz_text(path)
    np.testing.assert_allclose(back.points, pc.points, rtol=1e-6)
    np.testing.assert_allclose(back.flow, pc.flow, rtol=1e-6)


def test_xyz_text_bad_column_count(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1.0 2.0 3.0\n4.0 5.0\n")
    with pytest.raises(ParseError) as err:
        read_xyz_text(path)
    assert err.value.offset == 12  # second line starts after "1.0 2.0 3.0\n"


def test_read_any_sniffs_format(tmp_path, rng):
    pc = PointCloud(rng.normal(size=(5, 3)))
    b = tmp_path / "x.rgf"
    t = tmp_path / "x.xyz"
    write_point_cloud(b, pc)
    write_xyz_text(t, pc)
    assert len(read_point_cloud_any(b)) == 5
    assert len(read_point_cloud_any(t)) == 5


def test_transform_round_trip_exact(tmp_path, rng):
    t = make_transform(rng)
    path = tmp_path / "ego.txt"
    write_transform(path, t)
    back = read_transform(path)
    np.testing.assert_array_equal(back.rotation, t.rotation)
    np.testing.assert_array_equal(back.translation, t.translation)


def test_transform_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 0 0\n0 1 0\n")
    with pytest.raises(ParseError):
        read_transform(path)


def test_xyz_text_non_finite_is_a_parse_error(tmp_path):
    path = tmp_path / "nan.xyz"
    path.write_text("1.0 2.0 3.0\nnan 0.0 0.0\n0.5 0.5 0.5\n")
    with pytest.raises(ParseError, match="non-finite") as err:
        read_xyz_text(path)
    assert "nan.xyz" in str(err.value)


def test_config_file_round_trip(tmp_path):
    cfg = PipelineConfig(seed=9, tau_ego=0.25, slack_d0=0.4)
    path = tmp_path / "run.cfg"
    path.write_text(format_key_values(sorted(cfg.to_flat_dict().items())))
    assert PipelineConfig.from_flat_dict(read_key_values(path)) == cfg


def test_config_file_partial_overrides(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text("# comment\nseed = 42\nicp_bg.max_correspondence_distance = 0.5\n")
    cfg = PipelineConfig.from_flat_dict(read_key_values(path))
    assert cfg.seed == 42
    assert cfg.icp_bg.max_correspondence_distance == 0.5
    assert cfg.voxel_size == PipelineConfig().voxel_size


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
    ],
)
def test_config_unknown_key(tmp_path, key):
    path = tmp_path / "unknown.cfg"
    path.write_text(f"{key} = 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        PipelineConfig.from_flat_dict(read_key_values(path))


def test_report_round_trip_lossless(tmp_path, rng):
    # a report is text pairs; reading it back gives the same text for each key
    pairs = [
        ("run.command", "flow"),
        ("run.src", "dir with spaces/a=b.rgf"),
        ("config.slack_d0", "none"),
        ("flow.epe3d_mean", repr(0.1 + 0.2)),
        ("cluster.0.transform", transform_to_text(make_transform(rng))),
        ("timing.infer_ms", repr(12.5)),
    ]
    text = format_key_values(pairs)
    assert text.splitlines()[1] == "run.src = dir with spaces/a=b.rgf"
    path = tmp_path / "report.txt"
    path.write_text(text)
    back = read_key_values(path)
    assert list(back.items()) == pairs
    assert format_key_values(back.items()) == text
    assert float(back["flow.epe3d_mean"]) == 0.1 + 0.2


def test_key_values_line_without_equals_reports_offset(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# header\nseed = 1\nvoxel_size 0.2\n")
    with pytest.raises(ParseError, match="expected 'key = value'") as err:
        read_key_values(path)
    assert err.value.offset == len("# header\nseed = 1\n")
    assert "bad.cfg" in str(err.value)


def test_key_values_non_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"seed = 1\nvoxel_size = \xff\n")
    with pytest.raises(ParseError, match="not UTF-8") as err:
        read_key_values(path)
    assert err.value.offset == len(b"seed = 1\n")


def _report_keys(text):
    return [line.partition(" = ")[0] for line in text.splitlines()]


FLOW_RUN_AND_CONFIG_KEYS = [
    "run.command",
    "run.ego_transform",
    "run.features",
    "run.masks",
    "run.refine",
    "run.src",
    "run.src_points",
    "run.src_voxels",
    "run.tgt",
    "run.tgt_points",
    "run.tgt_voxels",
    "config.dbscan_eps",
    "config.dbscan_min_cluster_size",
    "config.dbscan_min_samples",
    "config.ego_sample_size",
    "config.fg_threshold",
    "config.ground_removal_y",
    "config.icp_bg.convergence_epsilon",
    "config.icp_bg.max_correspondence_distance",
    "config.icp_bg.max_iterations",
    "config.icp_fg.convergence_epsilon",
    "config.icp_fg.max_correspondence_distance",
    "config.icp_fg.max_iterations",
    "config.max_points",
    "config.range_cutoff",
    "config.remove_ground",
    "config.seed",
    "config.sinkhorn_iterations",
    "config.slack_d0",
    "config.tau_ego",
    "config.tau_flow",
    "config.voxel_size",
]
FLOW_KEYS = ["flow.epe3d_mean", "flow.epe3d_median", "flow.acc3ds", "flow.acc3dr", "flow.outliers"]
EGO_KEYS = ["ego.rre", "ego.rte"]
CLUSTER_KEYS = ["cluster.count"] + [
    f"cluster.{k}.{name}" for k in range(3) for name in ("size", "fitted", "refined", "transform")
]


def _flow_args(tmp_path, capsys):
    """Synthesize a noise-free scene and return `flow` CLI args for it."""
    prefix = str(tmp_path / "scene")
    assert main(["synth", "--out-prefix", prefix, "--seed", "0",
                 "--noise-sigma", "0", "--dropout", "0"]) == 0
    capsys.readouterr()  # drop synth's listing of the files it wrote
    return [
        "flow", "--src", f"{prefix}_x.rgf", "--tgt", f"{prefix}_y.rgf",
        "--gt-ego", f"{prefix}_ego.txt",
        "--out-flow", str(tmp_path / "pred.rgf"), "--out-ego", str(tmp_path / "ego.txt"),
    ]


def test_report_omits_timings_by_default(tmp_path, capsys):
    # wall-clock lines would break byte-identical reports, so they are opt-in
    flow_args = _flow_args(tmp_path, capsys)
    report = tmp_path / "report.txt"
    assert main(flow_args + ["--report", str(report)]) == 0
    keys = _report_keys(report.read_text())
    assert "flow.epe3d_mean" in keys
    assert not any(key.startswith("timing.") for key in keys)


def test_report_key_order_is_pinned(tmp_path, capsys):
    # reports are byte-compared artifacts, so their key order is part of them
    prefix = str(tmp_path / "scene")
    flow_args = _flow_args(tmp_path, capsys)
    expected = FLOW_RUN_AND_CONFIG_KEYS + FLOW_KEYS + EGO_KEYS + CLUSTER_KEYS

    assert main(flow_args) == 0
    assert _report_keys(capsys.readouterr().out) == expected

    report = tmp_path / "timed.txt"
    assert main(flow_args + ["--report", str(report), "--timings"]) == 0
    assert capsys.readouterr().out == ""
    assert _report_keys(report.read_text()) == expected + [
        "timing.infer_ms",
        "timing.preprocess_ms",
        "timing.read_ms",
        "timing.write_ms",
    ]

    eval_report = tmp_path / "eval.txt"
    rc = main(
        [
            "eval", "--pred", str(tmp_path / "pred.rgf"), "--gt", f"{prefix}_gt_flow.rgf",
            "--pred-ego", str(tmp_path / "ego.txt"), "--gt-ego", f"{prefix}_ego.txt",
            "--report", str(eval_report),
        ]
    )
    assert rc == 0
    eval_text = capsys.readouterr().out
    assert eval_report.read_text() == eval_text
    assert _report_keys(eval_text) == (
        ["run.command", "run.gt", "run.pred"] + FLOW_KEYS + EGO_KEYS + ["cluster.count"]
    )
    assert "cluster.count = 0" in eval_text
