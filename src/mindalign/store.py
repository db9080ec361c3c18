"""One checked file format for checkpoints, datasets and images.

A file is ``MAGIC`` then NumPy ``.npy`` v1.0 records (NEP 1): first a uint8
record of `format_flat` metadata whose ``arrays`` key names the records that
follow, then one record per array. `read_arrays` accepts exactly what
`write_arrays` writes, and raises one `DataError` naming the path otherwise;
`write_arrays` refuses, before it writes anything, an array that
`read_arrays` would reject, and writes under a temporary name that it moves
into place only once the file is complete, so no cut file ever carries the
final name.

Records move one at a time between the file and their arrays; neither side
holds the whole file. The reader takes the file's size first and checks each
record's length against it before reading the record, so a cut file is
refused before its data is read, and an endless one is never read whole.
"""

from __future__ import annotations

import io
import math
import os
import tokenize
import warnings
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from .errors import ConfigError, DataError, NonFiniteError
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
    """Write flat metadata ``items`` and the named ``arrays`` (of `_DTYPES`).

    A float array holding a NaN or Inf raises `NonFiniteError` naming it."""
    for name, arr in arrays.items():
        if not name or "," in name or arr.dtype.str not in _DTYPES:
            raise ValueError(f"{path}: cannot store array {name!r} of dtype {arr.dtype.str}")
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise NonFiniteError(f"{path}: array {name!r} holds a non-finite value")
    text = format_flat({**items, "arrays": ",".join(arrays)}).encode("utf-8")
    path = Path(path)
    part = path.with_name(f".{path.name}.{os.getpid()}.part")
    try:
        with open(part, "wb") as fp:
            fp.write(MAGIC)
            for arr in (np.frombuffer(text, dtype=np.uint8), *arrays.values()):
                npy.write_array(fp, np.ascontiguousarray(arr), version=(1, 0),
                                allow_pickle=False)
        os.replace(part, path)
    except OSError as exc:  # out of disk, or past a file-size limit
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from None
    finally:
        part.unlink(missing_ok=True)  # already gone once it has been moved into place


def read_arrays(path: Path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """The metadata items and the arrays, in written order, of one array file."""
    try:
        with open(path, "rb") as fp, warnings.catch_warnings():
            warnings.simplefilter("error")
            return _parse(fp, os.fstat(fp.fileno()).st_size)
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


def _parse(fp: io.BufferedReader, size: int) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    if fp.read(len(MAGIC)) != MAGIC:
        raise ValueError("not an array file (bad magic)")
    items = parse_flat(_record(fp, size).tobytes().decode("utf-8"))
    names = [name for name in items.pop("arrays", "").split(",") if name]
    if len(set(names)) != len(names):
        raise ValueError("an array name repeats")
    arrays = {name: _record(fp, size) for name in names}
    if fp.tell() != size:
        raise ValueError(f"{size - fp.tell()} bytes after the last record")
    return items, arrays


def _record(fp: io.BufferedReader, size: int) -> np.ndarray:
    """The next .npy v1.0 record, its length checked before anything is read."""
    if npy.read_magic(fp) != (1, 0):
        raise ValueError("record is not .npy version 1.0")
    shape, fortran_order, dtype = npy.read_array_header_1_0(fp)
    if fortran_order or dtype.str not in _DTYPES or min(shape, default=0) < 0:
        raise ValueError(f"unsupported record: dtype {dtype.str}, shape {shape}, "
                         f"fortran_order {fortran_order}")
    count = math.prod(shape)
    if fp.tell() + count * dtype.itemsize > size:
        raise ValueError(f"record of shape {shape} is cut short")
    arr = np.fromfile(fp, dtype, count)
    if arr.size != count:  # the file shrank since its size was taken
        raise ValueError(f"record of shape {shape} is cut short")
    if dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValueError("non-finite float")
    if dtype.kind == "b" and arr.view(np.uint8).max(initial=0) > 1:
        raise ValueError("bool byte other than 0 or 1")
    return arr.reshape(shape)
