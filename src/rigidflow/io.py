"""File formats: binary point clouds, text clouds, transforms, configs, reports.

The native cloud format is a little-endian binary container (magic "RGF1"):
a 16-byte header (magic, point count u32, feature dim u32, attribute bitmask
u32) followed by N x 3 float32 coordinates and the optional attribute blocks
in bitmask order: features (N x D float32), fg_prob (N float32), cluster_id
(N int32), flow (N x 3 float32). A plain-text XYZ[+flow] format is provided
for interchange. Transforms are row-major 3x4 float text. Configs and
reports are flat "key = value" text, written in a deterministic order so
identical runs produce identical bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dataclass_field, fields

import numpy as np

from .energy import EnergyBreakdown
from .geom import PointCloud, RigidTransform
from .metrics import EgoMetrics, FlowMetrics
from .pipeline import PipelineConfig

__all__ = [
    "ParseError",
    "MAGIC",
    "read_point_cloud",
    "write_point_cloud",
    "read_xyz_text",
    "write_xyz_text",
    "read_point_cloud_any",
    "read_transform",
    "write_transform",
    "read_config",
    "write_config",
    "ClusterSummary",
    "RunReport",
    "serialize_report",
    "parse_report",
    "write_report",
    "read_report",
]

MAGIC = b"RGF1"
_FLAG_FEATURES = 1
_FLAG_FG_PROB = 2
_FLAG_CLUSTER_ID = 4
_FLAG_FLOW = 8
_ALL_FLAGS = _FLAG_FEATURES | _FLAG_FG_PROB | _FLAG_CLUSTER_ID | _FLAG_FLOW
_HEADER = struct.Struct("<4sIII")


class ParseError(ValueError):
    """A file could not be parsed; carries the path and byte offset."""

    def __init__(self, path: str, offset: int, reason: str):
        self.path = str(path)
        self.offset = int(offset)
        self.reason = reason
        super().__init__(f"{self.path}: byte {self.offset}: {reason}")


def write_point_cloud(path, pc: PointCloud) -> None:
    """Write a cloud in the binary container (float32/int32 storage)."""
    mask = 0
    dim = 0
    if pc.features is not None:
        mask |= _FLAG_FEATURES
        dim = pc.features.shape[1]
    if pc.fg_prob is not None:
        mask |= _FLAG_FG_PROB
    if pc.cluster_id is not None:
        mask |= _FLAG_CLUSTER_ID
    if pc.flow is not None:
        mask |= _FLAG_FLOW
    parts = [_HEADER.pack(MAGIC, len(pc), dim, mask)]
    parts.append(pc.points.astype("<f4").tobytes())
    if pc.features is not None:
        parts.append(pc.features.astype("<f4").tobytes())
    if pc.fg_prob is not None:
        parts.append(pc.fg_prob.astype("<f4").tobytes())
    if pc.cluster_id is not None:
        parts.append(pc.cluster_id.astype("<i4").tobytes())
    if pc.flow is not None:
        parts.append(pc.flow.astype("<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def read_point_cloud(path) -> PointCloud:
    """Read a binary cloud written by `write_point_cloud`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise ParseError(path, len(data), "truncated header")
    magic, n, dim, mask = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise ParseError(path, 0, f"bad magic {magic!r}, expected {MAGIC!r}")
    if mask & ~_ALL_FLAGS:
        raise ParseError(path, 12, f"unknown attribute bits 0x{mask & ~_ALL_FLAGS:x}")
    if mask & _FLAG_FEATURES and dim == 0:
        raise ParseError(path, 8, "feature block present but feature dim is 0")

    expected = _HEADER.size + 12 * n
    if mask & _FLAG_FEATURES:
        expected += 4 * n * dim
    if mask & _FLAG_FG_PROB:
        expected += 4 * n
    if mask & _FLAG_CLUSTER_ID:
        expected += 4 * n
    if mask & _FLAG_FLOW:
        expected += 12 * n
    if len(data) != expected:
        raise ParseError(
            path,
            min(len(data), expected),
            f"size mismatch: have {len(data)} bytes, header implies {expected}",
        )

    offset = _HEADER.size

    def block(dtype: str, count: int, shape) -> np.ndarray:
        nonlocal offset
        out = np.frombuffer(data, dtype=dtype, count=count, offset=offset).reshape(shape)
        offset += out.nbytes
        return out

    points = block("<f4", 3 * n, (n, 3)).astype(np.float64)
    features = fg_prob = cluster_id = flow = None
    if mask & _FLAG_FEATURES:
        features = block("<f4", n * dim, (n, dim)).astype(np.float64)
    if mask & _FLAG_FG_PROB:
        fg_prob = block("<f4", n, (n,)).astype(np.float64)
    if mask & _FLAG_CLUSTER_ID:
        cluster_id = block("<i4", n, (n,)).astype(np.int64)
    if mask & _FLAG_FLOW:
        flow = block("<f4", 3 * n, (n, 3)).astype(np.float64)
    try:
        return PointCloud(points, features=features, fg_prob=fg_prob, cluster_id=cluster_id, flow=flow)
    except ValueError as exc:
        raise ParseError(path, _HEADER.size, str(exc)) from exc


def write_xyz_text(path, pc: PointCloud) -> None:
    """Write "x y z" (plus "vx vy vz" when flow is present), one point per line."""
    lines = []
    for i in range(len(pc)):
        cols = [repr(float(v)) for v in pc.points[i]]
        if pc.flow is not None:
            cols += [repr(float(v)) for v in pc.flow[i]]
        lines.append(" ".join(cols))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def read_xyz_text(path) -> PointCloud:
    """Read the text format: 3 or 6 whitespace-separated floats per line."""
    points, flows = [], []
    width = None
    offset = 0
    with open(path, "rb") as fh:
        raw = fh.read()
    for line in raw.split(b"\n"):
        stripped = line.strip()
        if stripped and not stripped.startswith(b"#"):
            cols = stripped.split()
            if width is None:
                width = len(cols)
                if width not in (3, 6):
                    raise ParseError(path, offset, f"expected 3 or 6 columns, got {len(cols)}")
            if len(cols) != width:
                raise ParseError(path, offset, f"expected {width} columns, got {len(cols)}")
            try:
                values = [float(c) for c in cols]
            except ValueError as exc:
                raise ParseError(path, offset, f"bad number: {exc}") from exc
            points.append(values[:3])
            if width == 6:
                flows.append(values[3:])
        offset += len(line) + 1
    if not points:
        raise ParseError(path, 0, "no points in file")
    return PointCloud(np.array(points), flow=np.array(flows) if flows else None)


def read_point_cloud_any(path) -> PointCloud:
    """Read either format, sniffing the binary magic first."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return read_point_cloud(path)
    return read_xyz_text(path)


def write_transform(path, t: RigidTransform) -> None:
    """Write a transform as three text rows of four float64 values ([R | t])."""
    rows = []
    for i in range(3):
        rows.append(
            " ".join(repr(float(v)) for v in (*t.rotation[i], t.translation[i]))
        )
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def read_transform(path) -> RigidTransform:
    with open(path, "rb") as fh:
        raw = fh.read()
    rows = []
    offset = 0
    for line in raw.split(b"\n"):
        stripped = line.strip()
        if stripped and not stripped.startswith(b"#"):
            cols = stripped.split()
            if len(cols) != 4:
                raise ParseError(path, offset, f"expected 4 columns, got {len(cols)}")
            try:
                rows.append([float(c) for c in cols])
            except ValueError as exc:
                raise ParseError(path, offset, f"bad number: {exc}") from exc
        offset += len(line) + 1
    if len(rows) != 3:
        raise ParseError(path, 0, f"expected 3 rows, got {len(rows)}")
    m = np.array(rows)
    try:
        return RigidTransform(m[:, :3], m[:, 3])
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from exc


def write_config(path, cfg: PipelineConfig) -> None:
    flat = cfg.to_flat_dict()
    with open(path, "w") as fh:
        for key in sorted(flat):
            fh.write(f"{key} = {flat[key]}\n")


def read_config(path, base: PipelineConfig | None = None) -> PipelineConfig:
    """Parse a flat key/value config; keys absent from the file keep defaults."""
    flat = (base or PipelineConfig()).to_flat_dict()
    offset = 0
    with open(path, "rb") as fh:
        raw = fh.read()
    for line in raw.split(b"\n"):
        stripped = line.strip()
        if stripped and not stripped.startswith(b"#"):
            if b"=" not in stripped:
                raise ParseError(path, offset, "expected 'key = value'")
            key, _, value = stripped.partition(b"=")
            flat[key.strip().decode()] = value.strip().decode()
        offset += len(line) + 1
    try:
        return PipelineConfig.from_flat_dict(flat)
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from exc


@dataclass
class ClusterSummary:
    """Report row for one cluster: size, transform, fit/refine flags."""

    size: int
    transform: RigidTransform
    fitted: bool
    refined: bool


@dataclass
class RunReport:
    """Structured run summary that serializes losslessly to flat text.

    `config` is the flat config echo, `extra` holds free-form run metadata
    (command, paths, counts). Metric/energy sections are optional. Timing
    entries are carried in `timings_ms` but only written when explicitly
    requested, so default artifacts stay byte-identical across reruns.
    """

    config: dict = dataclass_field(default_factory=dict)
    extra: dict = dataclass_field(default_factory=dict)
    flow_metrics: FlowMetrics | None = None
    ego_metrics: EgoMetrics | None = None
    energy: EnergyBreakdown | None = None
    clusters: list = dataclass_field(default_factory=list)
    timings_ms: dict = dataclass_field(default_factory=dict)


def _transform_to_text(t: RigidTransform) -> str:
    values = np.concatenate([t.rotation, t.translation[:, None]], axis=1).reshape(-1)
    return " ".join(repr(float(v)) for v in values)


def _transform_from_text(text: str) -> RigidTransform:
    values = np.array([float(c) for c in text.split()])
    m = values.reshape(3, 4)
    return RigidTransform(m[:, :3], m[:, 3])


def serialize_report(report: RunReport, include_timings: bool = False) -> str:
    lines = []
    for key in sorted(report.extra):
        lines.append(f"run.{key} = {report.extra[key]}")
    for key in sorted(report.config):
        lines.append(f"config.{key} = {report.config[key]}")
    for section, values in (
        ("flow", report.flow_metrics),
        ("ego", report.ego_metrics),
        ("energy", report.energy),
    ):
        if values is not None:
            for f in fields(values):
                lines.append(f"{section}.{f.name} = {repr(getattr(values, f.name))}")
    lines.append(f"cluster.count = {len(report.clusters)}")
    for k, summary in enumerate(report.clusters):
        lines.append(f"cluster.{k}.size = {summary.size}")
        lines.append(f"cluster.{k}.fitted = {'true' if summary.fitted else 'false'}")
        lines.append(f"cluster.{k}.refined = {'true' if summary.refined else 'false'}")
        lines.append(f"cluster.{k}.transform = {_transform_to_text(summary.transform)}")
    if include_timings:
        for key in sorted(report.timings_ms):
            lines.append(f"timing.{key} = {repr(float(report.timings_ms[key]))}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> RunReport:
    """Inverse of `serialize_report` (including timing lines when present)."""
    report = RunReport()
    flow: dict = {}
    ego: dict = {}
    energy: dict = {}
    clusters: dict = {}
    for lineno, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"report line {lineno + 1}: expected 'key = value'")
        head, _, rest = key.partition(".")
        if head == "run":
            report.extra[rest] = value
        elif head == "config":
            report.config[rest] = value
        elif head == "flow":
            flow[rest] = float(value)
        elif head == "ego":
            ego[rest] = float(value)
        elif head == "energy":
            energy[rest] = float(value)
        elif head == "timing":
            report.timings_ms[rest] = float(value)
        elif head == "cluster":
            clusters[rest] = value
        else:
            raise ValueError(f"report line {lineno + 1}: unknown section {head!r}")
    if flow:
        report.flow_metrics = FlowMetrics(**flow)
    if ego:
        report.ego_metrics = EgoMetrics(**ego)
    if energy:
        report.energy = EnergyBreakdown(**energy)
    count = int(clusters.pop("count", "0"))
    for k in range(count):
        report.clusters.append(
            ClusterSummary(
                size=int(clusters[f"{k}.size"]),
                fitted=clusters[f"{k}.fitted"] == "true",
                refined=clusters[f"{k}.refined"] == "true",
                transform=_transform_from_text(clusters[f"{k}.transform"]),
            )
        )
    return report


def write_report(path, report: RunReport, include_timings: bool = False) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_report(report, include_timings=include_timings))


def read_report(path) -> RunReport:
    with open(path) as fh:
        return parse_report(fh.read())
