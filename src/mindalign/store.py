"""One checked file format for checkpoints, datasets and images.

A file is ``MAGIC`` then NumPy ``.npy`` v1.0 records (NEP 1): first a uint8
record of `format_flat` metadata whose ``arrays`` key names the records that
follow, then one record per array. `read_arrays` accepts exactly what
`write_arrays` writes, and raises one `DataError` naming the path otherwise.
"""

from __future__ import annotations

import io
import math
import tokenize
import warnings
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from .errors import ConfigError, DataError
from .flatkv import format_flat, parse_flat

MAGIC = b"mindalign-arrays\n"
# little-endian float32 and int64, bool, and the uint8 metadata text
_DTYPES = ("<f4", "<i8", "|b1", "|u1")
# what numpy's header parser and the checks below raise on malformed bytes;
# numpy only warns on some garbled headers, so warnings are raised as errors
_MALFORMED = (ValueError, TypeError, ArithmeticError, tokenize.TokenError, UserWarning,
              ConfigError)


def write_arrays(path: Path, items: dict[str, object],
                 arrays: dict[str, np.ndarray]) -> None:
    """Write flat metadata ``items`` and the named ``arrays`` (of `_DTYPES`)."""
    text = format_flat({**items, "arrays": ",".join(arrays)}).encode("utf-8")
    buf = io.BytesIO()
    buf.write(MAGIC)
    for arr in (np.frombuffer(text, dtype=np.uint8), *arrays.values()):
        npy.write_array(buf, np.ascontiguousarray(arr), version=(1, 0), allow_pickle=False)
    Path(path).write_bytes(buf.getvalue())


def read_arrays(path: Path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """The metadata items and the arrays, in written order, of one array file."""
    raw = Path(path).read_bytes()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _parse(raw)
    except _MALFORMED as exc:
        raise DataError(f"{path}: {' '.join(str(exc).split())}") from None


def check_layout(path: Path, arrays: dict[str, np.ndarray],
                 layout: dict[str, tuple[str, tuple[int, ...]]]) -> None:
    """Raise `DataError` unless ``arrays`` has exactly the names of ``layout``,
    each with the (dtype, shape) it maps to."""
    got = {name: (arr.dtype.str, arr.shape) for name, arr in arrays.items()}
    bad = sorted(n for n in got.keys() | layout.keys() if got.get(n) != layout.get(n))
    if bad:
        raise DataError(f"{path}: array {bad[0]!r} is {got.get(bad[0], 'missing')}, "
                        f"expected {layout.get(bad[0], 'none')}")


def _parse(raw: bytes) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    if not raw.startswith(MAGIC):
        raise ValueError("not an array file (bad magic)")
    fp = io.BytesIO(raw)
    fp.seek(len(MAGIC))
    items = parse_flat(_record(fp, raw).tobytes().decode("utf-8"))
    names = [name for name in items.pop("arrays", "").split(",") if name]
    if len(set(names)) != len(names):
        raise ValueError("an array name repeats")
    arrays = {name: _record(fp, raw) for name in names}
    if fp.tell() != len(raw):
        raise ValueError(f"{len(raw) - fp.tell()} bytes after the last record")
    return items, arrays


def _record(fp: io.BytesIO, raw: bytes) -> np.ndarray:
    """The next .npy v1.0 record, its length checked before anything is read."""
    if npy.read_magic(fp) != (1, 0):
        raise ValueError("record is not .npy version 1.0")
    shape, fortran_order, dtype = npy.read_array_header_1_0(fp)
    if fortran_order or dtype.str not in _DTYPES or min(shape, default=0) < 0:
        raise ValueError(f"unsupported record: dtype {dtype.str}, shape {shape}, "
                         f"fortran_order {fortran_order}")
    start, size = fp.tell(), math.prod(shape) * dtype.itemsize
    if start + size > len(raw):
        raise ValueError(f"record of shape {shape} is cut short")
    fp.seek(size, io.SEEK_CUR)
    arr = np.frombuffer(raw, dtype, math.prod(shape), start).reshape(shape).copy()
    if dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValueError("non-finite float")
    if dtype.kind == "b" and arr.view(np.uint8).max(initial=0) > 1:
        raise ValueError("bool byte other than 0 or 1")
    return arr
