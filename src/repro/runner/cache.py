"""Incremental result caching for experiment jobs.

A completed job's value is pickled under a key derived from the job's
full description (callable, config, seed) *and* a hash of the package's
source code, so editing any ``repro`` module invalidates every cached
result while reruns of an unchanged tree are free. The cache is a plain
directory of files — safe to delete wholesale, cheap to ship as a CI
artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Optional, Tuple

from repro.config import RUNNER_CONFIG
from repro.runner.job import Job, job_identity

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = RUNNER_CONFIG.cache_dir

_code_version_memo: Optional[str] = None

#: Source patterns folded into :func:`code_version`. ``*.c``/``*.h``
#: cover the compiled replay kernel (``perf/_kernel/kernel.c``), whose
#: edits change compiled-tier results just as surely as Python edits do.
SOURCE_PATTERNS = ("*.py", "*.c", "*.h")


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


class ResultCache:
    """Directory-backed store of completed job results."""

    def __init__(
        self,
        root: str = DEFAULT_CACHE_DIR,
        version: Optional[str] = None,
    ):
        self.root = Path(root)
        self.version = version or code_version()

    def key(self, job: Job) -> str:
        """Cache key of one job (config hash x code version).

        The job's display *name* is excluded: two jobs with the same
        callable, configuration and seed compute the same value, so
        identical simulation points are shared across figures (e.g.
        Figure 7.1's fault-free ARCC run, the Figure 7.2/7.3 baseline
        and the sensitivity sweep's zero point are one cache entry).
        The payload is the sorted-key JSON object ``{"code": version,
        "job": identity}``, spelled out around :func:`job_identity` so
        the job encoding lives in one place.
        """
        payload = f'{{"code": {json.dumps(self.version)}, "job": {job_identity(job)}}}'
        return hashlib.sha256(payload.encode()).hexdigest()[:32]

    def _path(self, job: Job) -> Path:
        return self.root / f"{self.key(job)}.pkl"

    def get(self, job: Job) -> Tuple[bool, Any]:
        """(hit, value) for one job; misses return ``(False, None)``."""
        path = self._path(job)
        try:
            with open(path, "rb") as handle:
                return True, pickle.load(handle)
        except Exception:
            # Any unreadable entry — missing file, truncated write, or a
            # pickle from an incompatible library version (AttributeError,
            # ModuleNotFoundError, ...) — is a miss, never a crash.
            return False, None

    def put(self, job: Job, value: Any) -> None:
        """Store one job's value (atomic rename, so concurrency-safe)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(job)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every cached result; returns the number removed.

        Tolerates concurrent clears: an entry removed by another process
        between the directory listing and the unlink is simply not
        counted, never an error.
        """
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed
