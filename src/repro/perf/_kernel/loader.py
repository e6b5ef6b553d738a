"""Compile-at-first-use ctypes loader for the C replay kernel.

The kernel ships as one C source file next to this module and is built
with whatever C compiler the host provides (``$CC``, then ``cc``,
``gcc``, ``clang`` on ``PATH``) the first time an engine asks for it.
Shared objects are cached under a content hash of (source, compiler,
flags), so rebuilds happen only when any of the three changes and
concurrent builds race benignly (atomic rename, last writer wins).

No compiler — or ``REPRO_KERNEL_DISABLE=1`` in the environment, which
CI's masked leg uses to prove the fallback stays green — leaves the
compiled tier *unavailable*, never silently different: callers observe
the state through :func:`kernel_available` / :func:`kernel_provenance`,
``resolve_engine("compiled")`` refuses to run, and every planned trace
job records which tier actually served it (the provenance travels in
reports and in runner cache keys; see ``repro.perf.engine``).

Float determinism: every build passes ``-ffp-contract=off`` so the
compiler cannot contract the replay's multiply/adds into FMAs — with
contraction off, x86-64's SSE2 doubles execute the transcription's
IEEE-754 operations exactly as CPython does, which is what the
bit-identity contract rests on. There is no build without the flag: a
compiler that rejects it (it is GCC/Clang spelling) leaves the compiled
tier unavailable, with provenance ``reference (kernel build failed
with ...)``, rather than serving a kernel that may fuse FMAs under the
``compiled`` label.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

#: Environment variable that masks the compiled tier entirely.
DISABLE_ENV = "REPRO_KERNEL_DISABLE"

#: Environment variable overriding where built objects are cached.
CACHE_DIR_ENV = "REPRO_KERNEL_CACHE_DIR"

#: Environment variable with extra compiler flags (split on whitespace),
#: appended after the base and determinism flags, for example a
#: sanitizer build: ``-fsanitize=address,undefined``.
CFLAGS_ENV = "REPRO_KERNEL_CFLAGS"

_SOURCE = Path(__file__).with_name("kernel.c")

_BASE_FLAGS = ["-O3", "-fPIC", "-shared", "-std=c99"]

#: Determinism flag — see module docstring; never dropped.
_FP_FLAGS = ["-ffp-contract=off"]


def _npyrandom_flags() -> List[str]:
    """Link flags for NumPy's static distributions library, if shipped.

    ``libnpyrandom.a`` is NumPy's published C/Cython linking surface
    (it backs ``numpy.random.c_distributions``); linking it gives the
    materialization kernel NumPy's *own* compiled ziggurat
    ``random_standard_exponential`` — same tables, same bit stream —
    so trace generation never transcribes a distribution. Builds
    without it (older/partial NumPy installs) simply omit the
    materialization entry point; replay is unaffected.
    """
    try:
        import numpy.random as npr

        lib_dir = Path(npr.__file__).parent / "lib"
        if (lib_dir / "libnpyrandom.a").is_file():
            return ["-DHAVE_NPYRANDOM", f"-L{lib_dir}", "-lnpyrandom"]
    except Exception:
        pass
    return []

# (available, provenance, cdll) — resolved once per process.
_state: Optional[Tuple[bool, str, Optional[ctypes.CDLL]]] = None


class ReplayParams(ctypes.Structure):
    """Mirror of ``ReplayParams`` in ``kernel.c`` (same field order):
    eleven 8-byte integers, then seven doubles, so there is no padding."""

    _fields_ = [
        ("n_accesses", ctypes.c_longlong),
        ("n_cores", ctypes.c_longlong),
        ("n_sets", ctypes.c_longlong),
        ("n_ways", ctypes.c_longlong),
        ("n_channels", ctypes.c_longlong),
        ("n_ranks", ctypes.c_longlong),
        ("banks_per_device", ctypes.c_longlong),
        ("lotecc_checksum", ctypes.c_longlong),
        ("route_mod", ctypes.c_longlong),
        ("lines_per_page", ctypes.c_longlong),
        ("page_hash_mult", ctypes.c_longlong),
        ("trc_ns", ctypes.c_double),
        ("tras_ns", ctypes.c_double),
        ("burst_ns", ctypes.c_double),
        ("data_offset_ns", ctypes.c_double),
        ("hysteresis_ns", ctypes.c_double),
        ("ns_per_cycle", ctypes.c_double),
        ("upgrade_below", ctypes.c_double),
    ]


#: ``replay_kernel`` return codes (keep in sync with kernel.c).
REPLAY_OK = 0
REPLAY_NOMEM = 1

#: ``stat_out`` slot indices (keep in sync with kernel.c).
STAT_HITS = 0
STAT_MISSES = 1
STAT_MAX_OCCUPANCY = 2
STAT_MIRROR_VIOLATIONS = 3
STAT_PROBE_COLLISIONS = 4
STAT_POSITIONS = 5


def _find_compiler() -> Optional[str]:
    candidates: List[str] = []
    env_cc = os.environ.get("CC")
    if env_cc:
        candidates.append(env_cc)
    candidates.extend(["cc", "gcc", "clang"])
    for name in candidates:
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "_build"


def _compile(
    cc: str, flags: List[str], link_flags: List[str], out_path: Path
) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=out_path.parent, suffix=".so.tmp"
    )
    os.close(fd)
    try:
        # Libraries go after the source: GNU ld resolves left to right.
        subprocess.run(
            [cc, *flags, "-o", tmp, str(_SOURCE), *link_flags],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(tmp, out_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _resolve() -> Tuple[bool, str, Optional[ctypes.CDLL]]:
    if os.environ.get(DISABLE_ENV):
        return False, f"reference (compiled tier masked by ${DISABLE_ENV})", None
    cc = _find_compiler()
    if cc is None:
        return False, "reference (no C compiler on PATH)", None
    source = _SOURCE.read_bytes()
    npy = _npyrandom_flags()
    # With NumPy's static distributions library first, then without it.
    extra = os.environ.get(CFLAGS_ENV, "").split()
    flags = _BASE_FLAGS + _FP_FLAGS + extra
    for link_flags in [npy, []] if npy else [[]]:
        tag = hashlib.sha256(
            source
            + cc.encode()
            + " ".join(flags + link_flags).encode()
        ).hexdigest()[:16]
        out_path = _build_dir() / f"replay_{tag}.so"
        try:
            if not out_path.exists():
                _compile(cc, flags, link_flags, out_path)
            lib = ctypes.CDLL(str(out_path))
        except (subprocess.CalledProcessError, OSError):
            continue
        lib.replay_kernel.restype = ctypes.c_int
        lib.replay_kernel.argtypes = [
            ctypes.POINTER(ReplayParams),
            ctypes.c_void_p,  # addr (int64)
            ctypes.c_void_p,  # write flags (uint8)
            ctypes.c_void_p,  # gap cycles (float64)
            ctypes.c_void_p,  # core_offsets (int64)
            ctypes.c_void_p,  # mlp (float64)
            ctypes.c_void_p,  # route table: chan (int32, M entries)
            ctypes.c_void_p,  # route table: rank_index (int32)
            ctypes.c_void_p,  # route table: bank_index (int32)
            ctypes.c_void_p,  # cycles out (float64)
            ctypes.c_void_p,  # read_bursts out (int64)
            ctypes.c_void_p,  # write_bursts out (int64)
            ctypes.c_void_p,  # active_ns out (float64)
            ctypes.c_void_p,  # powerdown_ns out (float64)
            ctypes.c_void_p,  # last_activity out (float64)
            ctypes.c_void_p,  # float_out (float64)
            ctypes.c_void_p,  # stat_out (int64)
        ]
        if hasattr(lib, "materialize_kernel"):
            lib.materialize_kernel.restype = ctypes.c_longlong
            lib.materialize_kernel.argtypes = [
                ctypes.c_void_p,  # bitgen_t* (Generator.bit_generator)
                ctypes.c_double,  # spatial locality
                ctypes.c_double,  # read fraction
                ctypes.c_longlong,  # region base line
                ctypes.c_longlong,  # footprint lines
                ctypes.c_double,  # mean gap instructions
                ctypes.c_longlong,  # instruction budget
                ctypes.c_longlong,  # current line
                ctypes.c_longlong,  # output capacity
                ctypes.c_void_p,  # addresses out (int64)
                ctypes.c_void_p,  # write flags out (uint8)
                ctypes.c_void_p,  # gaps out (int64)
            ]
        label = f"compiled ({' '.join(extra)})" if extra else "compiled"
        return True, label, lib
    return False, f"reference (kernel build failed with {cc})", None


def _ensure_resolved() -> Tuple[bool, str, Optional[ctypes.CDLL]]:
    global _state
    if _state is None:
        _state = _resolve()
    return _state


def kernel_available() -> bool:
    """Whether the compiled replay tier can serve this process."""
    return _ensure_resolved()[0]


def kernel_provenance() -> str:
    """Which tier backs compiled-engine requests, and why.

    ``"compiled"`` when the shared object is loaded; otherwise a
    ``"reference (reason)"`` string naming why the compiled tier is out
    (no compiler, masked by environment, build failure). Surfaces in
    CLI summaries and engine provenance reports — never swallowed.
    """
    return _ensure_resolved()[1]


def materializer_available() -> bool:
    """Whether the kernel can also materialize traces.

    True only when the shared object was linked against NumPy's
    ``libnpyrandom.a`` (so its ``materialize_kernel`` entry point
    exists). Replay availability does not imply this — a NumPy without
    the static library still gets the compiled replay tier.
    """
    available, _, lib = _ensure_resolved()
    return available and lib is not None and hasattr(
        lib, "materialize_kernel"
    )


def load_kernel() -> ctypes.CDLL:
    """The loaded kernel library; raises when unavailable."""
    available, provenance, lib = _ensure_resolved()
    if not available or lib is None:
        raise RuntimeError(
            f"compiled replay kernel unavailable: {provenance}"
        )
    return lib


def reset_kernel_loader() -> None:
    """Forget the resolved state (tests toggle the environment mask)."""
    global _state
    _state = None


__all__ = [
    "CACHE_DIR_ENV",
    "CFLAGS_ENV",
    "DISABLE_ENV",
    "REPLAY_NOMEM",
    "REPLAY_OK",
    "STAT_HITS",
    "STAT_MAX_OCCUPANCY",
    "STAT_MIRROR_VIOLATIONS",
    "STAT_MISSES",
    "STAT_POSITIONS",
    "STAT_PROBE_COLLISIONS",
    "ReplayParams",
    "kernel_available",
    "kernel_provenance",
    "load_kernel",
    "materializer_available",
    "reset_kernel_loader",
]
