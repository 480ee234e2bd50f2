"""Grid file I/O: a small binary format plus CSV interchange.

Binary layout ("G2S1"): 4-byte magic, little-endian u32 row and column
counts, two little-endian f64 node spacings, then rows*cols f64 values in
row-major order.  CSV files carry plain numeric rows only; node spacings for
CSV inputs come from command-line flags.  All writes go through a temporary
file and an atomic rename, so a failed run never leaves a partial file.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"G2S1"
_HEADER = struct.Struct("<4sIIdd")
_MAX_CELLS = 100_000_000  # 800 MB of payload; anything above is a corrupt header


@dataclass(frozen=True)
class GridData:
    """Values plus node spacings; spacings are None for CSV sources."""

    values: np.ndarray
    hx: float | None = None
    hy: float | None = None


def _is_csv(path) -> bool:
    return Path(path).suffix.lower() == ".csv"


def read_grid(path) -> GridData:
    """Read a grid file; format chosen by extension (.csv vs binary)."""
    if _is_csv(path):
        return _read_csv(path)
    return _read_binary(path)


def write_grid(path, values, hx: float = 1.0, hy: float = 1.0) -> None:
    """Write a grid atomically; format chosen by extension (.csv vs binary).

    A grid that :func:`read_grid` would refuse (empty, non-finite, or for
    binary files above the cell cap or with spacings that are not positive
    and finite) raises :class:`FormatError` before any file is created.
    """
    values = np.ascontiguousarray(values, dtype=float)
    if values.ndim != 2:
        raise FormatError(f"grids must be 2-d, got shape {values.shape}")
    _check_values(path, values)
    if _is_csv(path):
        lines = "\n".join(",".join(repr(float(v)) for v in row) for row in values)
        atomic_write(path, (lines + "\n").encode())
    else:
        m, n = values.shape
        hx, hy = float(hx), float(hy)
        _check_header(path, m, n, hx, hy)
        header = _HEADER.pack(MAGIC, m, n, hx, hy)
        atomic_write(path, header + values.astype("<f8").tobytes())


def _check_header(path, m: int, n: int, hx: float, hy: float) -> None:
    """The binary header's rules: a non-empty size within the cell cap and
    positive, finite node spacings."""
    if m == 0 or n == 0 or m * n > _MAX_CELLS:
        raise FormatError(f"{path}: implausible grid dimensions {m}x{n}")
    if not (np.isfinite(hx) and np.isfinite(hy) and hx > 0 and hy > 0):
        raise FormatError(f"{path}: node spacings must be positive and finite")


def _check_values(path, values: np.ndarray) -> None:
    """Both formats' rules for the values: at least one, all finite."""
    if values.size == 0:
        raise FormatError(f"{path}: grid of shape {values.shape} holds no values")
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: grid contains non-finite values")


def atomic_write(path, payload: bytes) -> None:
    """Write bytes to a temporary file and rename into place."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_binary(path) -> GridData:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: file too short to hold a grid header")
    magic, m, n, hx, hy = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    _check_header(path, m, n, hx, hy)
    expected = _HEADER.size + 8 * m * n
    if len(raw) < expected:
        raise FormatError(
            f"{path}: truncated payload, header says {m}x{n} "
            f"({expected - _HEADER.size} bytes) but {len(raw) - _HEADER.size} present"
        )
    if len(raw) > expected:
        raise FormatError(f"{path}: {len(raw) - expected} trailing bytes after payload")
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(m, n).copy()
    _check_values(path, values)
    return GridData(values=values, hx=hx, hy=hy)


def _read_csv(path) -> GridData:
    values = None
    with open(path, "r", encoding="utf-8") as handle:
        # loadtxt only warns on a blank file, and turning that warning into an
        # error would change process-wide state, so a blank file skips it
        if any(line.strip() for line in handle):
            handle.seek(0)
            try:
                values = np.loadtxt(handle, delimiter=",", ndmin=2, comments=None)
            except ValueError:
                pass
    if values is None:
        # the row loop parses the same grid and raises its own error for a
        # bad file, naming the first bad row; a blank file has none
        values = _read_csv_rows(path)
    _check_values(path, values)
    return GridData(values=values, hx=None, hy=None)


def _read_csv_rows(path) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            try:
                row = [float(field) for field in fields]
            except ValueError:
                raise FormatError(f"{path}: row {lineno}: non-numeric value") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise FormatError(
                    f"{path}: row {lineno}: expected {width} values, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no numeric rows found")
    return np.array(rows, dtype=float)
