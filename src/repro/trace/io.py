"""Trace files: a trace's columns in one compressed NumPy archive.

Version 2 stores a :class:`~repro.trace.stream.Trace`'s columns as
they are (:mod:`repro.trace.columns`), one ``np.savez_compressed`` zip
with five members::

    columns     RECORD_DTYPE[n]   one row per dynamic instruction
    dep_indptr  int64[n + 1]      CSR offsets into dep_data
    dep_data    int32[m]          dependence distances, record order
    name        str (0-d)         the trace's name
    version     int64 (0-d)       2

NumPy records dtype, byte order and shape in each member's header, so
the reader checks those against the expected columns and never
unpickles (``allow_pickle=False``). Every other check on the file's
contents (codes, CSR shape, the column invariants) runs before a
:class:`~repro.trace.stream.Trace` is built.
"""

from __future__ import annotations

import zipfile
import zlib
from pathlib import Path
from typing import Union

from repro.trace.stream import Trace

VERSION = 2

#: The leading bytes of a version-1 (per-record ``struct``) file.
_V1_MAGIC = b"RTRC"
_ZIP_MAGIC = b"PK\x03\x04"
_MEMBERS = ("columns", "dep_indptr", "dep_data", "name", "version")
_TRI_FIELDS = ("mispredict", "il1_miss", "dl1_miss", "dl2_miss")


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace's columns to ``path`` (format above)."""
    import numpy as np

    # A file object, so NumPy does not append ``.npz`` to the path.
    with open(path, "wb") as out:
        np.savez_compressed(
            out,
            columns=trace.columns,
            dep_indptr=trace.dep_indptr.astype(np.int64, copy=False),
            dep_data=trace.dep_data.astype(np.int32, copy=False),
            name=np.array(trace.name),
            version=np.array(VERSION, dtype=np.int64),
        )


def _member(members, key: str, dtype, ndim: int):
    array = members[key]
    if array.dtype != dtype or array.ndim != ndim:
        raise ValueError(
            f"trace member {key!r} is {array.dtype}[{array.ndim}-d], "
            f"expected {dtype}[{ndim}-d]"
        )
    return array


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`, checking every member.

    Raises ValueError for a version-1 file, a file that is not a trace
    archive, a truncated one, a member of the wrong dtype or shape, an
    out-of-range code, or columns :meth:`Trace.validate` rejects.
    """
    import numpy as np

    from repro.trace.columns import OP_CLASSES, RECORD_DTYPE

    with open(path, "rb") as stream:
        magic = stream.read(4)
        if magic == _V1_MAGIC:
            raise ValueError(
                "trace file is version 1 (per-record format), which is no "
                "longer read; regenerate it with `repro trace`"
            )
        if magic != _ZIP_MAGIC:
            raise ValueError(f"not a trace file (magic {magic!r})")
        stream.seek(0)
        try:
            with np.load(stream, allow_pickle=False) as archive:
                missing = [key for key in _MEMBERS if key not in archive.files]
                if missing:
                    raise ValueError(
                        f"not a trace file (missing members {missing})"
                    )
                members = {key: archive[key] for key in _MEMBERS}
        except (zipfile.BadZipFile, zlib.error, EOFError, OSError) as exc:
            raise ValueError(f"truncated trace file ({exc})") from exc

    version = members["version"]
    if version.shape != () or version.dtype.kind not in "iu":
        raise ValueError("not a trace file (bad version member)")
    if int(version) != VERSION:
        raise ValueError(f"unsupported trace version {int(version)}")
    name = members["name"]
    if name.shape != () or name.dtype.kind != "U":
        raise ValueError("not a trace file (bad name member)")

    columns = _member(members, "columns", RECORD_DTYPE, 1)
    indptr = _member(members, "dep_indptr", np.dtype(np.int64), 1)
    data = _member(members, "dep_data", np.dtype(np.int32), 1)
    if (
        len(indptr) != len(columns) + 1
        or indptr[0] != 0
        or indptr[-1] != len(data)
        or np.any(np.diff(indptr) < 0)
    ):
        raise ValueError(
            "trace dep_indptr must rise monotonically from 0 to "
            f"len(dep_data) over {len(columns) + 1} entries"
        )
    if len(columns) and int(columns["op"].max()) >= len(OP_CLASSES):
        raise ValueError(
            f"bad op-class code {int(columns['op'].max())} "
            f"(there are {len(OP_CLASSES)})"
        )
    for field in _TRI_FIELDS:
        codes = columns[field]
        if np.any((codes < -1) | (codes > 1)):
            raise ValueError(f"bad tri-state code in {field!r}")
    trace = Trace(columns, indptr, data, name=str(name))
    trace.validate()
    return trace
