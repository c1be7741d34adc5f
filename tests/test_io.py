import numpy as np
import pytest

from rigidflow.energy import EnergyBreakdown
from rigidflow.geom import PointCloud
from rigidflow.io import (
    ClusterSummary,
    ParseError,
    RunReport,
    parse_report,
    read_config,
    read_point_cloud,
    read_point_cloud_any,
    read_report,
    read_transform,
    read_xyz_text,
    serialize_report,
    write_config,
    write_point_cloud,
    write_report,
    write_transform,
    write_xyz_text,
)
from rigidflow.metrics import EgoMetrics, FlowMetrics
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


def test_config_file_round_trip(tmp_path):
    cfg = PipelineConfig(seed=9, tau_ego=0.25, slack_d0=0.4)
    path = tmp_path / "run.cfg"
    write_config(path, cfg)
    assert read_config(path) == cfg


def test_config_file_partial_overrides(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text("# comment\nseed = 42\nicp_bg.max_correspondence_distance = 0.5\n")
    cfg = read_config(path)
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
    with pytest.raises(ParseError, match="unknown config key"):
        read_config(path)


def _sample_report(rng):
    return RunReport(
        config=PipelineConfig().to_flat_dict(),
        extra={"command": "flow", "src": "a.rgf"},
        flow_metrics=FlowMetrics(0.0123, 0.011, 0.98, 0.999, 0.001),
        ego_metrics=EgoMetrics(rre=0.05, rte=0.002),
        energy=EnergyBreakdown.from_terms(0.1, 0.2, 0.3, 0.4, 0.5),
        clusters=[
            ClusterSummary(size=120, transform=make_transform(rng), fitted=True, refined=True),
            ClusterSummary(size=45, transform=make_transform(rng), fitted=True, refined=False),
        ],
        timings_ms={"infer": 12.5},
    )


def test_report_round_trip_lossless(tmp_path, rng):
    report = _sample_report(rng)
    text = serialize_report(report, include_timings=True)
    again = serialize_report(parse_report(text), include_timings=True)
    assert text == again
    path = tmp_path / "report.txt"
    write_report(path, report, include_timings=True)
    back = read_report(path)
    assert back.flow_metrics == report.flow_metrics
    assert back.ego_metrics == report.ego_metrics
    assert back.energy == report.energy
    assert back.timings_ms == report.timings_ms
    assert [c.size for c in back.clusters] == [120, 45]
    np.testing.assert_array_equal(
        back.clusters[0].transform.rotation, report.clusters[0].transform.rotation
    )


def test_report_omits_timings_by_default(rng):
    report = _sample_report(rng)
    text = serialize_report(report)
    assert "timing." not in text
    assert "flow.epe3d_mean" in text


def test_report_key_order_is_pinned(rng):
    # the report is a byte-compared artifact, so its key order is part of it
    report = _sample_report(rng)
    report.config = {"voxel_size": "0.1", "seed": "0"}
    text = serialize_report(report, include_timings=True)
    keys = [line.partition(" = ")[0] for line in text.splitlines()]
    assert keys == [
        "run.command",
        "run.src",
        "config.seed",
        "config.voxel_size",
        "flow.epe3d_mean",
        "flow.epe3d_median",
        "flow.acc3ds",
        "flow.acc3dr",
        "flow.outliers",
        "ego.rre",
        "ego.rte",
        "energy.l_bg",
        "energy.l_trans",
        "energy.l_inlier",
        "energy.l_ego",
        "energy.l_rigid",
        "energy.l_cd",
        "energy.l_fg",
        "energy.total",
        "energy.lambda_inlier",
        "energy.lambda_cd",
        "cluster.count",
        "cluster.0.size",
        "cluster.0.fitted",
        "cluster.0.refined",
        "cluster.0.transform",
        "cluster.1.size",
        "cluster.1.fitted",
        "cluster.1.refined",
        "cluster.1.transform",
        "timing.infer",
    ]


def test_report_rejects_unknown_section():
    with pytest.raises(ValueError):
        parse_report("bogus.key = 1\n")
