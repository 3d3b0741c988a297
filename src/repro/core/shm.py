"""Zero-copy reads of table-cache entries.

`open_npz_mmap` returns read-only zero-copy views over the arrays of an
**uncompressed** ``.npz`` (the format `repro.core.tablecache` writes).
``np.load`` ignores ``mmap_mode`` for zip archives, so this walks the
zip's local headers itself: each stored member's payload is a contiguous
``.npy`` byte range inside the file, mapped once with
``mmap.ACCESS_READ`` and wrapped by ``np.frombuffer``.  The views are
*read-only* (a write raises ``ValueError``) and share pages across every
process mapping the same cache entry — a fleet of workers warm-hitting
one table-cache file does not copy the payload per task.  Deleting the
file while views are alive is safe on POSIX: the inode persists until
the last mapping dies.
"""

from __future__ import annotations

import io
import mmap
import struct
import zipfile

import numpy as np

__all__ = ["open_npz_mmap"]

#: The fixed portion of a zip *local* file header (signature through
#: the extra-field length), per APPNOTE 4.3.7.
_ZIP_LOCAL_HEADER = struct.Struct("<IHHHHHIIIHH")
_ZIP_LOCAL_MAGIC = 0x04034B50


def _member_data_span(zf: zipfile.ZipFile, raw, info: zipfile.ZipInfo
                      ) -> tuple[int, int]:
    """(offset, size) of a stored member's payload inside the file.

    The *local* header's name/extra lengths can differ from the central
    directory's, so the span is computed from the local header itself.
    """
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"{info.filename} is compressed; cannot mmap")
    hdr = bytes(raw[info.header_offset:
                    info.header_offset + _ZIP_LOCAL_HEADER.size])
    if len(hdr) < _ZIP_LOCAL_HEADER.size:
        raise ValueError("truncated zip local header")
    fields = _ZIP_LOCAL_HEADER.unpack(hdr)
    if fields[0] != _ZIP_LOCAL_MAGIC:
        raise ValueError("bad zip local header signature")
    name_len, extra_len = fields[9], fields[10]
    start = info.header_offset + _ZIP_LOCAL_HEADER.size + name_len + extra_len
    return start, info.file_size


def _npy_view(raw: memoryview, start: int, size: int) -> np.ndarray:
    """A read-only ndarray over one ``.npy`` payload inside ``raw``."""
    head = bytes(raw[start:start + min(size, 4096)])
    bio = io.BytesIO(head)
    version = np.lib.format.read_magic(bio)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(bio)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(bio)
    else:
        raise ValueError(f"unsupported .npy version {version}")
    if dtype.hasobject:
        raise ValueError("object arrays cannot be mapped")
    data_start = start + bio.tell()
    count = int(np.prod(shape, dtype=np.int64))
    arr = np.frombuffer(raw, dtype=dtype, count=count, offset=data_start)
    return arr.reshape(shape, order="F" if fortran else "C")


def open_npz_mmap(path) -> dict[str, np.ndarray]:
    """Read-only zero-copy array views over an uncompressed ``.npz``.

    Returns member name (without the ``.npy`` suffix) -> read-only
    ndarray backed by one shared ``mmap`` of the file; the mapping stays
    alive as long as any view references it.  Raises ``ValueError`` /
    ``OSError`` / ``zipfile.BadZipFile`` when the archive is compressed,
    torn, or otherwise unmappable — callers fall back to an eager load.
    """
    with open(path, "rb") as fh:
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    raw = memoryview(mapped)
    views: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
        for info in zf.infolist():
            name = info.filename
            if name.endswith(".npy"):
                name = name[:-4]
            start, size = _member_data_span(zf, raw, info)
            views[name] = _npy_view(raw, start, size)
    return views
