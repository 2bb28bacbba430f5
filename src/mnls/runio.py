"""Run artifacts on disk: series CSV, event log, metadata, field snapshots.

Every writer goes through one temp-file-plus-rename context, so a crash
never leaves a half-written artifact; series.csv is streamed through it
from a run's sample table, a block of rows at a time.  All float
formatting uses Python's shortest round-trip repr so reruns of the same
configuration are byte-identical.

Snapshot layout (all little-endian):

    bytes 0..3   magic "MNLS"
    uint64       format version (currently 1)
    uint64       dim
    uint64 * dim nodes per axis
    float64      half-width L
    float64      field time stamp
    payload      interleaved Re/Im float64 pairs, row-major node order
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import IO

import numpy as np

from .diagnostics import SERIES_COLUMNS, SampleTable
from .errors import (CorruptSnapshot, EmptySeries, InvalidResolution, MissingColumn,
                     UnreadableSeries)
from .lattice import ComplexField, make_grid

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "write_snapshot",
    "read_snapshot",
    "write_series_csv",
    "read_series_csv",
    "write_events_jsonl",
    "write_meta_json",
]

SNAPSHOT_MAGIC = b"MNLS"
SNAPSHOT_VERSION = 1


def _named(exc: OSError, path: Path) -> OSError:
    """The same error (errno and subclass) on `path`, not on the temporary
    file beside it that the atomic write opened or renamed."""
    return OSError(exc.errno, exc.strerror, str(path))


@contextmanager
def _atomic_file(path: str | Path, mode: str = "wb", **kwargs) -> Iterator[IO]:
    """Open a temp file next to `path`; rename it onto `path` when the block
    ends normally and unlink it when the block raises."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    except OSError as exc:
        raise _named(exc, path) from exc
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise _named(exc, path) from exc
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    with _atomic_file(path) as fh:
        fh.write(data)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_snapshot(path: str | Path, field: ComplexField) -> None:
    g = field.grid
    header = SNAPSHOT_MAGIC + struct.pack("<QQ", SNAPSHOT_VERSION, g.dim)
    header += struct.pack("<" + "Q" * g.dim, *([g.n] * g.dim))
    header += struct.pack("<dd", g.half_width, field.time)
    with _atomic_file(path) as fh:
        fh.write(header)
        # no copy unless the field is not C-contiguous or not little-endian
        fh.write(np.ascontiguousarray(field.values, "<c16"))


def read_snapshot(path: str | Path) -> ComplexField:
    """Load a snapshot; raises CorruptSnapshot if the file is not a whole one."""
    raw = Path(path).read_bytes()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise CorruptSnapshot(f"{path}: not a field snapshot (bad magic)")
    try:
        version, dim = struct.unpack_from("<QQ", raw, 4)
        if version != SNAPSHOT_VERSION:
            raise CorruptSnapshot(f"{path}: unsupported snapshot version {version}")
        if dim not in (1, 2):
            raise CorruptSnapshot(f"{path}: unsupported snapshot dimension {dim}")
        off = 20
        ns = struct.unpack_from("<" + "Q" * dim, raw, off)
        off += 8 * dim
        half_width, time = struct.unpack_from("<dd", raw, off)
        off += 16
        grid = make_grid(dim, half_width, ns[0])
        # the payload's own bits, signed zeros and infinities included, in one copy
        payload = np.frombuffer(raw, dtype="<c16", count=math.prod(ns), offset=off)
        vals = payload.reshape(grid.shape).astype(np.complex128)
    except (struct.error, ValueError, OverflowError, InvalidResolution) as exc:
        raise CorruptSnapshot(f"{path}: truncated or malformed snapshot: {exc}") from exc
    return ComplexField(grid, vals, time)


def write_series_csv(path: str | Path, samples: SampleTable) -> None:
    """Stream one header line and one line per table row, each cell a shortest repr."""
    with _atomic_file(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(SERIES_COLUMNS) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in samples.rows())


def read_series_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Columns of a series file as float arrays, keyed by header name.

    Blank lines are skipped.  Raises EmptySeries for a file without a header
    or data rows, and UnreadableSeries for a file that cannot be read, a row
    whose cell count differs from the header's and a cell that is not a
    finite decimal number (numpy's parser also refuses Python's `1_000` and
    hex; it takes `nan` and `inf`, which no run writes).
    """
    try:
        with open(path) as fh:
            lines = (ln for ln in fh if ln.strip())
            header = next(lines, None)
            if header is None:
                raise EmptySeries(f"{path}: no header")
            first = next(lines, None)
            if first is None:
                # checked here: np.loadtxt warns on empty input
                raise EmptySeries(f"{path}: header only, no data rows")
            table = np.loadtxt(chain([first], lines), delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError) as exc:
        raise UnreadableSeries(f"cannot read series {path}: {exc}") from exc
    names = header.rstrip("\n").split(",")
    if table.shape[1] != len(names):
        raise UnreadableSeries(f"{path}: data rows have {table.shape[1]} cells where "
                               f"the header has {len(names)}")
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, col = bad[0]
        raise UnreadableSeries(f"{path}: data row {row + 1} has the non-finite "
                               f"{names[col]} {float(table[row, col])}")
    return {name: table[:, j] for j, name in enumerate(names)}


def require_column(cols: dict[str, np.ndarray], name: str, path="series") -> np.ndarray:
    if name not in cols:
        raise MissingColumn(f"{path}: no column {name!r} (have {sorted(cols)})")
    return cols[name]


def write_events_jsonl(path: str | Path, events) -> None:
    lines = [json.dumps(e, sort_keys=True) for e in events]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def write_meta_json(path: str | Path, meta: dict) -> None:
    atomic_write_text(path, json.dumps(meta, sort_keys=True, indent=2) + "\n")
