"""File formats: binary point clouds, text clouds, transforms, and flat
`key = value` files (configs and reports).

The native cloud format is a little-endian binary container (magic "RGF1"):
a 16-byte header (magic, point count u32, feature dim u32, attribute bitmask
u32) followed by N x 3 float32 coordinates and the optional attribute blocks
in bitmask order: features (N x D float32), fg_prob (N float32), cluster_id
(N int32), flow (N x 3 float32). That order, the bits and the stored dtypes
are this module's `_BLOCKS` table; the set of attributes and their shapes
are `geom.POINT_ATTRIBUTES`. A plain-text XYZ[+flow] format is provided
for interchange. Transforms are row-major 3x4 float text. Configs and
reports are flat "key = value" text; this module moves them as text and
leaves their meaning to the caller (`PipelineConfig.from_flat_dict` for
configs, the CLI for reports), which writes keys in a fixed order so that
identical runs produce identical bytes. Only `geom` is imported.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .geom import POINT_ATTRIBUTES, PointCloud, RigidTransform

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
    "transform_to_text",
    "format_key_values",
    "read_key_values",
]

MAGIC = b"RGF1"
_HEADER = struct.Struct("<4sIII")
# Attribute blocks in file order: (attribute, header bit, 4-byte stored dtype).
# Shapes come from `POINT_ATTRIBUTES`, with the header's feature dim as D.
_BLOCKS = (
    ("features", 1, "<f4"),
    ("fg_prob", 2, "<f4"),
    ("cluster_id", 4, "<i4"),
    ("flow", 8, "<f4"),
)
_ALL_BITS = sum(bit for _, bit, _ in _BLOCKS)


class ParseError(ValueError):
    """A file could not be parsed; carries the path and byte offset."""

    def __init__(self, path: str, offset: int, reason: str):
        self.path = str(path)
        self.offset = int(offset)
        self.reason = reason
        super().__init__(f"{self.path}: byte {self.offset}: {reason}")


def write_point_cloud(path, pc: PointCloud) -> None:
    """Write a cloud in the binary container (float32/int32 storage)."""
    present = [(name, bit, dtype) for name, bit, dtype in _BLOCKS if getattr(pc, name) is not None]
    dim = 0 if pc.features is None else pc.features.shape[1]
    parts = [_HEADER.pack(MAGIC, len(pc), dim, sum(bit for _, bit, _ in present))]
    parts.append(pc.points.astype("<f4").tobytes())
    parts += [getattr(pc, name).astype(dtype).tobytes() for name, _, dtype in present]
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
    if mask & ~_ALL_BITS:
        raise ParseError(path, 12, f"unknown attribute bits 0x{mask & ~_ALL_BITS:x}")

    blocks = [("points", "<f4", (n, 3))]
    for name, bit, dtype in _BLOCKS:
        if mask & bit:
            shape = POINT_ATTRIBUTES[name][1]
            if None in shape and dim == 0:
                raise ParseError(path, 8, "feature block present but feature dim is 0")
            blocks.append((name, dtype, (n, *(dim if s is None else s for s in shape))))
    expected = _HEADER.size + sum(4 * math.prod(shape) for _, _, shape in blocks)
    if len(data) != expected:
        raise ParseError(
            path,
            min(len(data), expected),
            f"size mismatch: have {len(data)} bytes, header implies {expected}",
        )

    arrays = {}
    offset = _HEADER.size
    for name, dtype, shape in blocks:
        count = math.prod(shape)
        arrays[name] = np.frombuffer(data, dtype, count, offset).reshape(shape)
        offset += 4 * count
    try:
        return PointCloud(**arrays)
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


def _text_lines(path):
    """(byte offset, stripped bytes) of each line that is neither blank nor a `#` comment."""
    with open(path, "rb") as fh:
        raw = fh.read()
    offset = 0
    for line in raw.split(b"\n"):
        stripped = line.strip()
        if stripped and not stripped.startswith(b"#"):
            yield offset, stripped
        offset += len(line) + 1


def read_xyz_text(path) -> PointCloud:
    """Read the text format: 3 or 6 whitespace-separated floats per line."""
    points, flows = [], []
    width = None
    for offset, line in _text_lines(path):
        cols = line.split()
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
    if not points:
        raise ParseError(path, 0, "no points in file")
    try:
        return PointCloud(np.array(points), flow=np.array(flows) if flows else None)
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from exc


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
    rows = []
    for offset, line in _text_lines(path):
        cols = line.split()
        if len(cols) != 4:
            raise ParseError(path, offset, f"expected 4 columns, got {len(cols)}")
        try:
            rows.append([float(c) for c in cols])
        except ValueError as exc:
            raise ParseError(path, offset, f"bad number: {exc}") from exc
    if len(rows) != 3:
        raise ParseError(path, 0, f"expected 3 rows, got {len(rows)}")
    m = np.array(rows)
    try:
        return RigidTransform(m[:, :3], m[:, 3])
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from exc


def transform_to_text(t: RigidTransform) -> str:
    """One line of the 12 row-major values of [R | t], as report values hold them."""
    values = np.concatenate([t.rotation, t.translation[:, None]], axis=1).reshape(-1)
    return " ".join(repr(float(v)) for v in values)


def format_key_values(pairs) -> str:
    """`key = value` lines, one per (key, text) pair, in the given order."""
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def read_key_values(path) -> dict[str, str]:
    """Read a flat `key = value` file (a config or a report) into text values.

    Blank lines and `#` lines are skipped; every other line splits on its
    first `=`, and key and value are stripped. A later line wins over an
    earlier one with the same key.
    """
    out = {}
    for offset, line in _text_lines(path):
        if b"=" not in line:
            raise ParseError(path, offset, "expected 'key = value'")
        key, _, value = line.partition(b"=")
        try:
            out[key.strip().decode()] = value.strip().decode()
        except UnicodeDecodeError as exc:
            raise ParseError(path, offset, f"not UTF-8 text: {exc}") from exc
    return out
