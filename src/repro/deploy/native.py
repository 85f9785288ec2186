"""Native uint8 x int8 kernels: build, cache and load ``qnative.c``.

NumPy has no int8 dot-product instruction, so the NumPy int8 kernels
(:mod:`repro.deploy.qkernels`) run their exact integer GEMM on float32
BLAS and lose to the fp32 path.  ``qnative.c`` runs the same GEMM on
AVX-512 VNNI, with the zero-point fold, the bias and the requantization
(or float32 dequantization) fused into its epilogue, plus the
requantizing residual Add.  Each kernel computes what the NumPy kernel
behind the same variant name computes, bit for bit, so the NumPy kernels
stay as the fallback and as the reference the tests compare against.

:func:`load` is the one place that decides whether native kernels bind:

- the first call compiles ``qnative.c`` with the system C compiler
  (``cc``) into ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``),
  under a name hashed from the source, the flags and the compiler
  version, so the build runs once per machine and source tree.  The
  library is written under a temporary name and moved into place with
  :func:`os.replace`, so concurrent first calls never load a torn file;
- it then loads the library with :mod:`ctypes` (calls release the GIL,
  so thread-mode replicas run int8 batches in parallel) and asks it
  whether this CPU has every instruction set it was built for;
- on any failure (no compiler, no VNNI, a compile error, an unwritable
  cache) it returns ``None`` and logs the reason once; the plan then
  binds the NumPy kernels.

Importing this module compiles and loads nothing.  To rebuild, delete
the ``qnative-*.so`` files in the cache directory.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.utils.logging import get_logger

__all__ = ["Layer", "cache_dir", "implementation", "load", "pack_weights", "status"]

_log = get_logger(__name__)

SOURCE = Path(__file__).with_name("qnative.c")
#: Explicit instruction sets rather than ``-march=native``, so a cached
#: library is valid on any VNNI CPU; no FMA contraction, so the float
#: epilogue rounds exactly where NumPy rounds.
FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off", "-mavx512f", "-mavx512bw",
         "-mavx512dq", "-mavx512vl", "-mavx512vnni")
COMPILE_TIMEOUT_S = 120

#: Epilogue kinds of ``qn_layer.out_kind``.
OUT_S32, OUT_U8, OUT_F32 = 0, 1, 2

_lock = threading.Lock()
#: ``(library or None, human-readable status)`` once :func:`load` ran.
_state: tuple["ctypes.CDLL | None", str] | None = None


class Layer(ctypes.Structure):
    """``qn_layer``: one Conv/Gemm node's packed weights and epilogue.

    Built once at bind time; every pointer field refers to an array the
    binding closure keeps alive.
    """

    _fields_ = [
        ("w", ctypes.c_void_p),
        ("zp_term", ctypes.c_void_p),
        ("f64", ctypes.c_void_p),
        ("bias", ctypes.c_void_p),
        ("m0", ctypes.c_void_p),
        ("rnd", ctypes.c_void_p),
        ("total", ctypes.c_void_p),
        ("k", ctypes.c_int64),
        ("n", ctypes.c_int64),
        ("zp_out", ctypes.c_int64),
        ("lo", ctypes.c_int64),
        ("out_kind", ctypes.c_int32),
        ("relu", ctypes.c_int32),
    ]


def pack_weights(codes: np.ndarray) -> np.ndarray:
    """``(K, C_out)`` int8 codes in the GEMM's ``[C_out/16][K/4][16][4]`` order.

    K and C_out are zero-padded to multiples of 4 and 16, so the kernel
    reads whole 64-byte groups; the zero rows and columns add nothing.
    """
    k, n = codes.shape
    k4, n16 = -(-k // 4), -(-n // 16)
    padded = np.zeros((4 * k4, 16 * n16), np.int8)
    padded[:k, :n] = codes
    return np.ascontiguousarray(padded.reshape(k4, 4, n16, 16).transpose(2, 0, 3, 1))


def cache_dir() -> Path:
    """Where built libraries are cached: ``$XDG_CACHE_HOME/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro"


def _library_path(compiler: str) -> Path:
    """The cached library's path, named by source, flags and compiler version."""
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                             timeout=COMPILE_TIMEOUT_S, check=True).stdout
    digest = hashlib.sha256()
    for part in (SOURCE.read_bytes(), " ".join(FLAGS).encode(), version.encode()):
        digest.update(part)
    return cache_dir() / f"qnative-{digest.hexdigest()[:16]}.so"


def _intact(path: Path) -> bool:
    """Whether ``path`` holds a whole library (a truncated one is rebuilt).

    The linker writes an ELF file's section header table last, so a file
    shorter than the table's end was cut short.  A non-ELF library (such
    as Mach-O) is only checked for being non-empty.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(64)
        size = path.stat().st_size
    except OSError:
        return False
    if head[:4] != b"\x7fELF":
        return size > 0
    if len(head) < 64 or head[4:6] != b"\x02\x01":  # 64-bit little-endian
        return False
    (shoff,) = struct.unpack_from("<Q", head, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", head, 0x3A)
    return size >= shoff + shentsize * shnum


def _compile(compiler: str, path: Path) -> None:
    """Build the library at ``path`` via a temporary file and an atomic rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
    os.close(fd)
    try:
        proc = subprocess.run([compiler, *FLAGS, "-o", tmp, str(SOURCE)],
                              capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{compiler} failed: {proc.stderr.strip()[-2000:]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open() -> tuple["ctypes.CDLL | None", str]:
    """Build (if needed) and load the library: ``(library or None, status)``."""
    compiler = shutil.which("cc")
    if compiler is None:
        return None, "no C compiler (cc) on PATH"
    try:
        path = _library_path(compiler)
        if not _intact(path):
            _compile(compiler, path)
        lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        return None, f"build or load failed: {exc}"
    lib.qn_cpu_ok.argtypes = []
    lib.qn_cpu_ok.restype = ctypes.c_int
    if not lib.qn_cpu_ok():
        return None, "this CPU lacks AVX-512 F/BW/DQ/VL or VNNI"
    lib.qn_gemm.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    lib.qn_gemm.restype = None
    lib.qn_add.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                           ctypes.c_int64, ctypes.c_void_p]
    lib.qn_add.restype = None
    return lib, str(path)


def _loaded() -> tuple["ctypes.CDLL | None", str]:
    """:func:`_open`'s outcome, computed once per process.

    Forked workers inherit it, so they never take the lock or rebuild.
    """
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                _state = _open()
                if _state[0] is None:
                    _log.warning("native int8 kernels unavailable, using NumPy: %s", _state[1])
    return _state


def load() -> "ctypes.CDLL | None":
    """The native kernel library, or ``None`` when the NumPy kernels must bind.

    Builds and loads on the first call in a process; later calls return
    the same outcome.
    """
    return _loaded()[0]


def implementation() -> str:
    """``"native"`` or ``"numpy"``: the int8 kernels this process binds."""
    return "numpy" if load() is None else "native"


def status() -> str:
    """Which int8 kernels bind and why: ``"native (<library path>)"`` or
    ``"numpy (<reason>)"``."""
    lib, detail = _loaded()
    return f"{'numpy' if lib is None else 'native'} ({detail})"
