"""The compiled cascade iteration: kernel.c, built at first use and cached.

The source is compiled with the C compiler COMPILER and FLAGS into
``kernel-<key>.so`` under the cache directory (see cache_dir), where the key
hashes the source, the compiler name, the flags and the platform;
``kernel-<key>.sha256`` records the library's digest. A build goes to a temporary file that is renamed into place, so
processes that build at once each load a whole library. A cached library
whose digest does not match (say, one cut short) is built again. Loading a
cached library starts no process. Without the compiler, load() raises
FileNotFoundError naming it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import sysconfig
from ctypes import c_double, c_int, c_int64, c_void_p
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("kernel.c")
COMPILER = "cc"
# no -ffast-math, and no contraction into fused multiply-adds: the kernel
# must give the bits of numpy's and scipy's separate multiplies and adds
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
MAX_WIDTH = 16
# what a step ran (Block.ran), as kernel.c's enum numbers it
STEP_CAPS, STEP_ROWS, STEP_DECLINED, STEP_WHOLE = range(4)

_lib = None


def cache_dir() -> Path:
    """$XDG_CACHE_HOME/prodrisk, or ~/.cache/prodrisk; where that cannot be
    written, prodrisk-<uid> in the temporary directory."""
    base = Path(os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache"))
    existing = next(p for p in (base, *base.parents) if p.exists())
    if os.access(existing, os.W_OK):
        return base / "prodrisk"
    import tempfile
    return Path(tempfile.gettempdir()) / f"prodrisk-{os.getuid()}"


def library_path() -> Path:
    """Where the library built from the current source, compiler, flags and platform is cached."""
    key = hashlib.sha256(b"\0".join(
        [SOURCE.read_bytes(), COMPILER.encode(), " ".join(FLAGS).encode(),
         sysconfig.get_platform().encode()])).hexdigest()[:16]
    return cache_dir() / f"kernel-{key}.so"


def _is_whole(path: Path) -> bool:
    """Whether path holds the library whose digest was recorded when it was built."""
    try:
        digest = path.with_suffix(".sha256").read_text()
        return hashlib.sha256(path.read_bytes()).hexdigest() == digest
    except OSError:
        return False


def _build(path: Path) -> None:
    """Compile the source to path and record its digest beside it, each file by a rename."""
    # imported here, as a run with a cached library needs none of them
    import shutil
    import subprocess
    import tempfile

    def temp() -> str:
        fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=path.parent)
        os.close(fd)
        return tmp

    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise FileNotFoundError(f"C compiler {COMPILER!r} not found on PATH; prodrisk "
                                f"compiles its cascade kernel {SOURCE.name} at first use")
    path.parent.mkdir(parents=True, exist_ok=True)
    lib_tmp, digest_tmp = temp(), temp()
    try:
        # an absolute path, which the source's #include __FILE__ needs
        done = subprocess.run([compiler, *FLAGS, "-o", lib_tmp, str(SOURCE.resolve())],
                              capture_output=True, text=True)
        if done.returncode:
            raise OSError(f"{COMPILER} could not compile {SOURCE}: {done.stderr.strip()}")
        Path(digest_tmp).write_text(hashlib.sha256(Path(lib_tmp).read_bytes()).hexdigest())
        os.replace(lib_tmp, path)
        os.replace(digest_tmp, path.with_suffix(".sha256"))
    finally:
        for tmp in (lib_tmp, digest_tmp):
            if os.path.exists(tmp):
                os.unlink(tmp)


def load() -> ctypes.CDLL:
    """The kernel library, built first if no whole copy is cached."""
    global _lib
    if _lib is None:
        path = library_path()
        if not _is_whole(path):  # not built yet, or damaged
            _build(path)
        lib = ctypes.CDLL(str(path))
        p = c_void_p
        for sfx in ("i32", "i64"):
            _declare(lib, f"step_{sfx}", c_int64, [p, p, c_int64])
            _declare(lib, f"whole_{sfx}", c_int, [p, c_int] + [p] * 9)
            _declare(lib, f"down_rows_{sfx}", c_int, [p, c_int, p, c_int64, p, p, p])
        _declare(lib, "finish", c_int64, [p, c_int64, c_int64])
        _lib = lib
    return _lib


def _declare(lib, name, restype, argtypes) -> None:
    fn = getattr(lib, name)
    fn.restype, fn.argtypes = restype, argtypes


class Ops(ctypes.Structure):
    """The operator arrays of one ImpactMatrices, as kernel.c's Ops reads them."""

    _fields_ = [("n", c_int64), ("n_sectors", c_int64),
                ("sector_ptr", c_void_p), ("sector_idx", c_void_p), ("sector_val", c_void_p),
                ("sector_of", c_void_p), ("s_out", c_void_p),
                ("group_ptr", c_void_p), ("down_ptr", c_void_p), ("down_idx", c_void_p),
                ("down_val", c_void_p),
                ("up_ptr", c_void_p), ("up_idx", c_void_p), ("up_val", c_void_p),
                ("u_resid", c_void_p)]


class Block(ctypes.Structure):
    """One block of cascades between kernel calls, as kernel.c's Block reads it."""

    _fields_ = [("w", c_int64), ("max_iter", c_int64), ("epsilon", c_double)] + [
        (name, c_void_p) for name in ("h_d", "hd_new", "h_u", "hu_new", "q", "sector", "dec")] + [
        ("n_caps", c_int64)] + [
        (name, c_void_p) for name in ("cap_at", "cap_val", "done", "col_of", "out_d", "out_u",
                                      "T", "converged", "sigma", "pi")] + [
        ("budget", c_int64)] + [
        (name, c_void_p) for name in ("damaged", "mark", "sector_mark", "in_ptr", "changed_d",
                                      "changed_u", "rows_d", "rows_u", "rows_q", "rows_s")] + [
        ("n_changed_d", c_int64), ("n_changed_u", c_int64), ("ran", c_int64)]


def addr(a: np.ndarray | None) -> int | None:
    """Address of a's first element; None (NULL) for None or an empty array.

    a must be C-contiguous. A ctypes view of a writable array's buffer finds
    the address in a third of the time a.ctypes takes, and refuses a
    non-contiguous array.
    """
    if a is None or not a.size:
        return None
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except TypeError:  # read-only
        return a.ctypes.data


class Kernel:
    """The compiled steps, bound to the operators of one ImpactMatrices.

    Every operator, group_ptr and the operators' index pointers share one
    index type, int32 or int64, which picks the copy of the kernel. step and
    finish run a Block (see kernel.c); whole and down_rows are exposed for
    the tests.
    """

    def __init__(self, m):
        lib = load()
        idx = m.up_op.indices.dtype
        ops = (m.sector_op, m.down_op, m.up_op)
        index_arrays = [m.group_ptr] + [a for op in ops for a in (op.indptr, op.indices)]
        if {a.dtype for a in index_arrays} != {idx} or idx not in (np.int32, np.int64):
            raise TypeError("the operators must share one index type, int32 or int64")
        floats = [m.s_out, m.u_resid] + [op.data for op in ops]
        if any(a.dtype != np.float64 for a in floats) or not all(
                a.flags.c_contiguous for a in floats + index_arrays):
            raise TypeError("the operators must hold contiguous float64 values and indices")
        # the structure points into these arrays, kept alive with it
        self._m, self._sector_of = m, np.ascontiguousarray(m.sector_of, dtype=np.int64)
        self.ops = Ops(
            m.n, m.sector_op.shape[0],
            *map(addr, (m.sector_op.indptr, m.sector_op.indices, m.sector_op.data,
                        self._sector_of, m.s_out, m.group_ptr,
                        m.down_op.indptr, m.down_op.indices, m.down_op.data,
                        m.up_op.indptr, m.up_op.indices, m.up_op.data, m.u_resid)))
        self.ref = ctypes.addressof(self.ops)
        sfx = "i32" if idx == np.int32 else "i64"
        self.step = getattr(lib, f"step_{sfx}")
        self.whole = getattr(lib, f"whole_{sfx}")
        self.down_rows = getattr(lib, f"down_rows_{sfx}")
        self.finish = lib.finish
