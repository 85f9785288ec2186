"""Native kernels: build, cache and load ``qnative.c``.

NumPy has no int8 dot-product instruction, so the NumPy int8 kernels
(:mod:`repro.deploy.qkernels`) run their exact integer GEMM on float32
BLAS and lose to the fp32 path.  ``qnative.c`` runs the same GEMM on
AMX-INT8 tiles or AVX-512 VNNI, with the zero-point fold, the bias and
the requantization (or float32 dequantization) fused into its epilogue,
plus the requantizing residual Add and the conv front end (pad + im2col,
and the quantization of float32 input) that fp32 and int8 convs share.
Each kernel computes what the NumPy code behind the same variant name
computes, bit for bit, so the NumPy kernels stay as the fallback and as
the reference the tests compare against.

:func:`load` is the one place that decides whether native kernels bind,
and on which GEMM engine:

- the first call compiles ``qnative.c`` with the system C compiler
  (``cc``) into ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``),
  under a name hashed from the source, the flags and the compiler
  version, so the build runs once per machine and source tree.  The
  library is written under a temporary name and moved into place with
  :func:`os.replace`, so concurrent first calls never load a torn file.
  When the build with the AMX flags fails (a compiler or assembler
  without AMX), the same source builds without its AMX code and
  :func:`status` quotes the compiler's error;
- it then loads the library with :mod:`ctypes` (calls release the GIL,
  so thread-mode replicas run batches in parallel) and asks it whether
  this CPU has every instruction set it was built for;
- it asks the kernel for AMX tile data (``arch_prctl``,
  ``ARCH_REQ_XCOMP_PERM``), a per-process permission that forked
  workers inherit.  Where the CPU, the OS, the kernel or the compiler
  says no, the int8 GEMM runs on VNNI and :func:`status` says why;
- on any other failure (no compiler, no VNNI, a compile error, an
  unwritable cache) it returns ``None`` and logs the reason once; the
  plan then binds the NumPy kernels.

The engine is a property of the host, not an option: AMX tiles, else
VNNI, else NumPy, with the same output bits on each.  Importing this
module compiles and loads nothing.  To rebuild, delete the
``qnative-*.so`` files in the cache directory.
"""

from __future__ import annotations

import ctypes
import errno
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.utils.logging import get_logger

__all__ = ["Conv", "Layer", "cache_dir", "column_stride", "engine", "implementation", "load",
           "pack_weights", "status"]

_log = get_logger(__name__)

SOURCE = Path(__file__).with_name("qnative.c")
#: Explicit instruction sets rather than ``-march=native``, so a cached
#: library is valid on any VNNI CPU; no FMA contraction, so the float
#: epilogue rounds exactly where NumPy rounds.
FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off", "-mavx512f", "-mavx512bw",
         "-mavx512dq", "-mavx512vl", "-mavx512vnni")
#: Added when the compiler accepts them; the AMX code runs only on CPUs
#: that have it, after the kernel granted the tile data permission.
AMX_FLAGS = ("-mamx-tile", "-mamx-int8")
COMPILE_TIMEOUT_S = 120

#: Epilogue kinds of ``qn_layer.out_kind``.
OUT_S32, OUT_U8, OUT_F32 = 0, 1, 2
#: uint8 column rows are padded to a multiple of this many bytes.
ROW_ALIGN = 64

#: Why ``qn_amx_enable`` said no, by its return code (negative: -errno).
_AMX_REFUSED = {
    1: "the library was built without AMX code",
    2: "this CPU has no AMX-TILE/AMX-INT8",
    3: "the OS does not enable AMX tile state",
}

_lock = threading.Lock()


@dataclass(frozen=True)
class _Loaded:
    """What :func:`load` decided for this process."""

    lib: "ctypes.CDLL | None"
    #: The library path, or why the NumPy kernels bind.
    detail: str
    #: ``None`` when the int8 GEMM runs on AMX tiles, else why not.
    amx_off: str | None = None


_state: _Loaded | None = None


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
        ("kp", ctypes.c_int64),
        ("n", ctypes.c_int64),
        ("zp_out", ctypes.c_int64),
        ("lo", ctypes.c_int64),
        ("out_kind", ctypes.c_int32),
        ("relu", ctypes.c_int32),
        ("amx", ctypes.c_int32),
    ]


class Conv(ctypes.Structure):
    """``qn_conv``: one conv's front end (pad + im2col), built at bind time.

    A Gemm's input is the 1 x 1 case (``h = w = kernel = 1``, ``c = K``).
    A quantizing front end (float32 in, uint8 out) needs ``scratch``, a
    row of ``kernel * kernel * c`` float32 that only its plan writes.
    """

    _fields_ = [
        ("h", ctypes.c_int64),
        ("w", ctypes.c_int64),
        ("c", ctypes.c_int64),
        ("kernel", ctypes.c_int64),
        ("stride", ctypes.c_int64),
        ("pad", ctypes.c_int64),
        ("oh", ctypes.c_int64),
        ("ow", ctypes.c_int64),
        ("in_size", ctypes.c_int64),
        ("out_size", ctypes.c_int64),
        ("row", ctypes.c_int64),
        ("scratch", ctypes.c_void_p),
        ("scale", ctypes.c_float),
        ("zp", ctypes.c_int32),
    ]


def column_stride(k: int) -> int:
    """Bytes per uint8 column row of a K-long reduction: K rounded up to 64.

    The one place this format is decided: :func:`pack_weights` pads K to
    it, the plan sizes column buffers and the gather's rows with it, and
    both GEMM engines read it from ``Layer.kp``.  The gather zero-fills
    the padding, and the packed weights there are zero.
    """
    return -(-k // ROW_ALIGN) * ROW_ALIGN


def pack_weights(codes: np.ndarray) -> np.ndarray:
    """``(K, C_out)`` int8 codes in the GEMM's ``[C_out/16][K/4][16][4]`` order.

    K is zero-padded to :func:`column_stride` (a multiple of 64) and C_out
    to a multiple of 16, so each 1 KiB run of 16 K-groups of one channel
    block is an AMX B tile and the VNNI loop reads whole 64-byte groups;
    the zero rows and columns add nothing.
    """
    k, n = codes.shape
    kp, n16 = column_stride(k), -(-n // 16)
    padded = np.zeros((kp, 16 * n16), np.int8)
    padded[:k, :n] = codes
    return np.ascontiguousarray(padded.reshape(kp // 4, 4, n16, 16).transpose(2, 0, 3, 1))


def cache_dir() -> Path:
    """Where built libraries are cached: ``$XDG_CACHE_HOME/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro"


def _library_path(compiler: str, version: str, flags: tuple[str, ...]) -> Path:
    """The cached library's path, named by source, flags and compiler version."""
    digest = hashlib.sha256()
    for part in (SOURCE.read_bytes(), " ".join(flags).encode(), version.encode()):
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


def _compile(compiler: str, flags: tuple[str, ...], path: Path) -> None:
    """Build the library at ``path`` via a temporary file and an atomic rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
    os.close(fd)
    try:
        proc = subprocess.run([compiler, *flags, "-o", tmp, str(SOURCE)],
                              capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{compiler} failed: {proc.stderr.strip()[-2000:]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build(compiler: str) -> tuple[Path, str | None]:
    """The cached library, built if needed: ``(path, why it has no AMX code)``.

    Builds with :data:`AMX_FLAGS` first.  When that build fails, the same
    source builds without its AMX code, and the reason quotes the
    compiler's first error line.  A cached build of that kind (and no AMX
    build beside it) is reused as it is; deleting it retries the AMX build.
    """
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                             timeout=COMPILE_TIMEOUT_S, check=True).stdout
    with_amx = _library_path(compiler, version, FLAGS + AMX_FLAGS)
    plain = _library_path(compiler, version, FLAGS)
    command = f"{Path(compiler).name} {' '.join(AMX_FLAGS)}"
    if _intact(with_amx):
        return with_amx, None
    if _intact(plain):
        return plain, f"an earlier {command} build failed; delete the library to retry it"
    try:
        _compile(compiler, FLAGS + AMX_FLAGS, with_amx)
        return with_amx, None
    except RuntimeError as exc:
        lines = str(exc).removeprefix(f"{compiler} failed: ").splitlines() or [str(exc)]
        error = next((line for line in lines if "error" in line), lines[0]).strip()
    _compile(compiler, FLAGS, plain)
    return plain, f"{command} failed: {error}"


def _amx_refusal(code: int) -> str:
    """``qn_amx_enable``'s non-zero return code as a reason."""
    if code > 0:
        return _AMX_REFUSED.get(code, f"code {code}")
    name = errno.errorcode.get(-code, str(-code))
    hint = ": a signal stack too small for tile state" if -code == errno.ENOSPC else ""
    return f"the kernel refused tile data ({name}{hint})"


def _open() -> _Loaded:
    """Build (if needed) and load the library, and pick the GEMM engine."""
    compiler = shutil.which("cc")
    if compiler is None:
        return _Loaded(None, "no C compiler (cc) on PATH")
    try:
        path, amx_off = _build(compiler)
        lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        return _Loaded(None, f"build or load failed: {exc}")
    lib.qn_cpu_ok.argtypes = []
    lib.qn_cpu_ok.restype = ctypes.c_int
    if not lib.qn_cpu_ok():
        return _Loaded(None, "this CPU lacks AVX-512 F/BW/DQ/VL or VNNI")
    lib.qn_amx_enable.argtypes = []
    lib.qn_amx_enable.restype = ctypes.c_int
    lib.qn_gemm.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    lib.qn_gemm.restype = None
    lib.qn_gather.argtypes = [ctypes.c_void_p, ctypes.c_void_p, *(ctypes.c_int64,) * 5,
                              ctypes.c_void_p]
    lib.qn_gather.restype = None
    lib.qn_add.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                           ctypes.c_int64, ctypes.c_void_p]
    lib.qn_add.restype = None
    code = lib.qn_amx_enable()
    if code != 0 and amx_off is None:
        amx_off = _amx_refusal(code)
    return _Loaded(lib, str(path), amx_off)


def _loaded() -> _Loaded:
    """:func:`_open`'s outcome, computed once per process.

    Forked workers inherit it (and the AMX permission), so they never
    take the lock or rebuild.
    """
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                _state = _open()
                if _state.lib is None:
                    _log.warning("native kernels unavailable, using NumPy: %s", _state.detail)
    return _state


def load() -> "ctypes.CDLL | None":
    """The native kernel library, or ``None`` when the NumPy kernels must bind.

    Builds and loads on the first call in a process; later calls return
    the same outcome.
    """
    return _loaded().lib


def implementation() -> str:
    """``"native"`` or ``"numpy"``: the kernels this process binds."""
    return "numpy" if load() is None else "native"


def engine() -> str:
    """What runs the int8 GEMM: ``"amx"`` (AMX-INT8 tiles), ``"vnni"`` or
    ``"numpy"``.  Kernels bound later read it; all three give the same bits."""
    state = _loaded()
    if state.lib is None:
        return "numpy"
    return "vnni" if state.amx_off else "amx"


def status() -> str:
    """Which kernels bind and why: ``"native, AMX tiles + VNNI: <library>"``,
    ``"native, VNNI (AMX off: <reason>): <library>"`` or ``"numpy (<reason>)"``."""
    state = _loaded()
    if state.lib is None:
        return f"numpy ({state.detail})"
    if state.amx_off is None:
        return f"native, AMX tiles + VNNI: {state.detail}"
    return f"native, VNNI (AMX off: {state.amx_off}): {state.detail}"
