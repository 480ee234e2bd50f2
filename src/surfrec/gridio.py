"""Grid file I/O: a small binary format plus CSV interchange.

Binary layout ("G2S1"): 4-byte magic, little-endian u32 row and column
counts, two little-endian f64 node spacings, then rows*cols f64 values in
row-major order.  CSV files carry plain numeric rows and no spacings; every
CSV the package writes, grid or table, is the text of :func:`_csv_text`.  All
writes go through a temporary file and an atomic rename, so a failed run
never leaves a partial file.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, finite_real

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
    return _read_csv(path) if _is_csv(path) else _read_binary(path)


def write_grid(path, values, hx: float = 1.0, hy: float = 1.0) -> None:
    """Write a grid atomically; format chosen by extension (.csv vs binary).

    A grid that :func:`read_grid` would refuse (empty, non-finite, or for
    binary files above the cell cap) raises :class:`FormatError` before any
    file is created, as does, for binary files, a spacing that is not a
    finite positive real (a bool, string or None included).  A float64 grid
    goes from the array to a binary file without a copy.
    """
    values = np.ascontiguousarray(values, dtype="<f8")
    if values.ndim != 2:
        raise FormatError(f"grids must be 2-d, got shape {values.shape}")
    _check_values(path, values)
    if _is_csv(path):
        atomic_write(path, _csv_text(values.tolist()).encode())
    else:
        m, n = values.shape
        hx, hy = _check_header(path, m, n, hx, hy)
        atomic_write(path, _HEADER.pack(MAGIC, m, n, hx, hy), values)


def _check_header(path, m: int, n: int, hx, hy) -> tuple[float, float]:
    """The binary header's rules, on read and on write: a non-empty size
    within the cell cap and finite, positive node spacings, returned as floats."""
    if m == 0 or n == 0 or m * n > _MAX_CELLS:
        raise FormatError(f"{path}: implausible grid dimensions {m}x{n}")
    try:
        return finite_real("hx", hx, positive=True), finite_real("hy", hy, positive=True)
    except ValueError as err:
        raise FormatError(f"{path}: {err}") from None


def _check_values(path, values: np.ndarray) -> None:
    """Both formats' rules for the values: at least one, all finite."""
    if values.size == 0:
        raise FormatError(f"{path}: grid of shape {values.shape} holds no values")
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: grid contains non-finite values")


def _csv_text(rows) -> str:
    """CSV text of rows of strings and Python ints and floats, whose ``str``,
    the form csv writes, is their ``repr``: every number reads back bit for bit."""
    import csv  # loaded on the first CSV write, not by every CLI process

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def atomic_write(path, *chunks) -> None:
    """Write the chunks (bytes, or C-contiguous arrays as their raw bytes) to
    a temporary file beside path, made by ``open`` and so with the mode of
    any new file, and rename it into place."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}")
    handle = open(tmp, "xb")  # "x" refuses a taken name: the cleanup deletes only ours
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def _read_binary(path) -> GridData:
    """The header, then the payload read straight into the returned array."""
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FormatError(f"{path}: file too short to hold a grid header")
        magic, m, n, hx, hy = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        hx, hy = _check_header(path, m, n, hx, hy)
        values = np.empty((m, n), dtype="<f8")
        present = handle.readinto(values)
        if present < values.nbytes:
            raise FormatError(f"{path}: truncated payload, header says {m}x{n} "
                              f"({values.nbytes} bytes) but {present} present")
        # counted a block at a time, so a long tail is never held whole
        trailing = sum(iter(lambda: len(handle.read(1 << 16)), 0))
    if trailing:
        raise FormatError(f"{path}: {trailing} trailing bytes after payload")
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
