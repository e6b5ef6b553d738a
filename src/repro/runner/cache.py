"""Incremental result caching for experiment jobs.

A completed job's value is pickled under a key derived from the job's
full description (callable, config, seed) *and* a hash of the package's
source code, so editing any ``repro`` module invalidates every cached
result while reruns of an unchanged tree are free.

On disk the cache is a directory of append-only packs, one per writing
:class:`ResultCache` (so never shared by two processes), each named
``<code_version>-<unique>.pack``. A pack is a run of records: a fixed
header — the 32-character key, the body length and the CRC32 of the
body — and then the pickled value. Each record goes out in one write
and one flush, so a finished job persists the moment it completes. On
its first ``get`` or ``put`` a cache indexes every pack of its own code
version as key -> (pack, offset, length); the index holds locations,
never values, and packs of other code versions are never read. A record
that is short or fails its CRC (a torn write) ends its pack's scan: it
and every later record of that pack are misses, and the rerun that
recomputes them writes them to a new pack. The directory is safe to
delete wholesale and cheap to ship as a CI artifact.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional, Tuple

from repro.config import RUNNER_CONFIG
from repro.runner.job import Job, job_identity

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = RUNNER_CONFIG.cache_dir

_code_version_memo: Optional[str] = None

#: Source patterns folded into :func:`code_version`. ``*.c``/``*.h``
#: cover the compiled replay kernel (``perf/_kernel/kernel.c``), whose
#: edits change compiled-tier results just as surely as Python edits do.
SOURCE_PATTERNS = ("*.py", "*.c", "*.h")

#: A pack record's header: the key, the body length and the body's CRC32.
_HEADER = struct.Struct("<32sQI")

_PACK_SUFFIX = ".pack"

#: Where one record's body lives: (pack path, offset, length, CRC32).
_Location = Tuple[str, int, int, int]


def source_tree_digest(root: Path) -> str:
    """Content hash of every :data:`SOURCE_PATTERNS` file under ``root``.

    Deterministic across checkouts: files are visited in sorted
    relative-path order and hashed by content, never by mtime.
    """
    digest = hashlib.sha256()
    paths = sorted(
        path
        for pattern in SOURCE_PATTERNS
        for path in root.rglob(pattern)
    )
    for path in paths:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def code_version() -> str:
    """Hash of every source file (``.py``/``.c``/``.h``) in ``repro``.

    Computed once per process. Content-based (not mtime-based), so a
    fresh checkout of the same revision reuses caches produced elsewhere,
    and a one-byte edit to the compiled kernel's C source invalidates
    every cached result exactly like a Python edit.
    """
    global _code_version_memo
    if _code_version_memo is None:
        package_root = Path(__file__).resolve().parent.parent
        _code_version_memo = source_tree_digest(package_root)
    return _code_version_memo


def _intact_records(path: str) -> List[Tuple[bytes, _Location]]:
    """``(key, location)`` of each record of one pack, in pack order.

    The scan ends at the first record that is short or fails its CRC, or
    at a read error; a pack removed before it is opened has no records.
    """
    records: List[Tuple[bytes, _Location]] = []
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            offset = 0
            while True:
                header = handle.read(_HEADER.size)
                if len(header) != _HEADER.size:
                    break
                key, length, crc = _HEADER.unpack(header)
                offset += _HEADER.size
                if length > size - offset:
                    break
                body = handle.read(length)
                if len(body) != length or zlib.crc32(body) != crc:
                    break
                records.append((key, (path, offset, length, crc)))
                offset += length
    except OSError:
        pass
    return records


class ResultCache:
    """Pack-backed store of completed job results.

    Construction does no I/O: a cache built only to :meth:`key` jobs
    touches nothing on disk. :meth:`close` releases the open packs.
    """

    def __init__(
        self,
        root: str = DEFAULT_CACHE_DIR,
        version: Optional[str] = None,
    ):
        self._index: Optional[Dict[bytes, _Location]] = None
        self._readers: Dict[str, BinaryIO] = {}
        self._writer: Optional[BinaryIO] = None
        self._pack = ""
        self.root = Path(root)
        self.version = version or code_version()
        self._key_head = f'{{"code": {json.dumps(self.version)}, "job": '

    def key(self, job: Job) -> str:
        """Cache key of one job (config hash x code version).

        The job's display *name* is excluded: two jobs with the same
        callable, configuration and seed compute the same value, so
        identical simulation points are shared across figures (e.g.
        Figure 7.1's fault-free ARCC run, the Figure 7.2/7.3 baseline
        and the sensitivity sweep's zero point are one cache entry).
        The payload is the sorted-key JSON object ``{"code": version,
        "job": identity}``, spelled out around :func:`job_identity` so
        the job encoding lives in one place: the identity the batch
        already wrote for the job, or, for a job keyed on its own,
        :func:`~repro.runner.job.encode_job`'s text without a memo. The
        text up to the identity is the same for every job, so it is
        written once per cache.
        """
        payload = f"{self._key_head}{job_identity(job)}}}"
        return hashlib.sha256(payload.encode()).hexdigest()[:32]

    def _packs(self) -> List[str]:
        """Every pack under the root, any code version, in name order."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return [
            os.path.join(self.root, name)
            for name in sorted(names)
            if name.endswith(_PACK_SUFFIX)
        ]

    def _indexed(self) -> Dict[bytes, _Location]:
        """key -> location of every intact record of this code version."""
        if self._index is None:
            self._index = {}
            for path in self._packs():
                name = os.path.basename(path)
                if name.rpartition("-")[0] == self.version:
                    self._index.update(_intact_records(path))
        return self._index

    def keys(self) -> List[str]:
        """Sorted keys of every entry of this code version."""
        return sorted(key.decode(errors="replace") for key in self._indexed())

    def get(self, job: Job) -> Tuple[bool, Any]:
        """(hit, value) for one job; misses return ``(False, None)``."""
        location = self._indexed().get(self.key(job).encode())
        if location is None:
            return False, None
        path, offset, length, crc = location
        try:
            reader = self._readers.get(path)
            if reader is None:
                reader = self._readers[path] = open(path, "rb")
            reader.seek(offset)
            body = reader.read(length)
        except OSError:
            return False, None
        if len(body) != length or zlib.crc32(body) != crc:
            return False, None
        try:
            return True, pickle.loads(body)
        except Exception:
            # A pickle from an incompatible library version
            # (AttributeError, ModuleNotFoundError, ...) is a miss,
            # never a crash.
            return False, None

    def put(self, job: Job, value: Any) -> None:
        """Append one job's value to this cache's own pack."""
        index = self._indexed()
        key = self.key(job).encode()
        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        crc = zlib.crc32(body)
        if self._writer is None:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, self._pack = tempfile.mkstemp(
                prefix=f"{self.version}-", suffix=_PACK_SUFFIX, dir=self.root
            )
            self._writer = os.fdopen(fd, "wb")
        offset = self._writer.tell() + _HEADER.size
        try:
            self._writer.write(_HEADER.pack(key, len(body), crc) + body)
            self._writer.flush()
        except BaseException:
            # A failed write may leave a torn record, which ends this
            # pack for every reader: later records go to a new pack.
            with contextlib.suppress(OSError):
                self._writer.close()
            self._writer = None
            raise
        index[key] = (self._pack, offset, len(body), crc)

    def close(self) -> None:
        """Close this cache's open packs and forget its index.

        The cache stays usable: the next ``get`` or ``put`` indexes the
        directory again, and the next ``put`` starts a new pack.
        """
        handles = list(self._readers.values())
        if self._writer is not None:
            handles.append(self._writer)
        self._index, self._readers, self._writer = None, {}, None
        for handle in handles:
            handle.close()

    def __del__(self) -> None:
        self.close()

    def clear(self) -> int:
        """Delete every pack, any code version; returns the entries removed.

        Tolerates concurrent clears: a pack removed by another process
        between the directory listing and the unlink is simply not
        counted, never an error.
        """
        self.close()
        removed = 0
        for path in self._packs():
            removed += len(_intact_records(path))
            Path(path).unlink(missing_ok=True)
        return removed
