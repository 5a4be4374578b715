"""The compiled cascade iteration: kernel.c, built at first use and cached.

The source is built three times with the C compiler COMPILER, each build's
flags in BUILDS under the lanes of its vectors: the portable build with
FLAGS, two lanes; the AVX2 build with FLAGS and -mavx2, four lanes; and the
AVX-512 build with FLAGS and -mavx512f, eight lanes. All write the same
bits. load() opens the portable build and asks its probe, kernel.c's
vector_lanes, for the lanes of the widest build this CPU runs (8, 4 or 2);
it opens that build in its place. Nothing else chooses the build.

Each build is cached as ``kernel-<key>.so`` under the cache directory (see
cache_dir), where the key hashes the source, the compiler name, the flags
and the platform, beside ``kernel-<key>.sha256``, the library's digest: two
files per key, so six for the three builds. The cache is never pruned: each
revision of the source leaves its own files, and deleting the directory
clears them all (the next load builds again). A cold cache compiles the
three builds at once, before the probe can run. A build goes to a temporary
file that is renamed into place, so processes that build at once each load
a whole library. A cached library whose digest does not match (say, one cut
short) is built again. Loading cached libraries starts no process. Without
the compiler, load() raises FileNotFoundError naming it. Building a
scenario's operators (prodrisk.cascade.build_impact_matrices) loads the
library for its residual demand, so on a cold cache the compile is part of
set-up, not of the first scoring call. Workspace, the only Python mirror of
kernel.c's Ops and Block, runs the library on one ImpactMatrices, with its
level rows on cache-line boundaries; matvec takes one CSR operator's product
with a vector.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import sysconfig
from ctypes import c_double, c_int64, c_void_p
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("kernel.c")
COMPILER = "cc"
# no -ffast-math, and no contraction into fused multiply-adds: the kernel
# must give the bits of separate multiplies and adds, as numpy and scipy do
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
# each build's flags, by the lanes of its vectors, as vector_lanes names them;
# -mavx512f offers fused multiply-adds, which -ffp-contract=off keeps out of the code
BUILDS = {2: FLAGS, 4: FLAGS + ("-mavx2",), 8: FLAGS + ("-mavx512f",)}
# the byte boundary that every level buffer of a Workspace starts on: a cache line
ALIGN = 64
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


def library_path(flags: tuple[str, ...] = FLAGS) -> Path:
    """Where the library built from the current source, compiler, flags and platform is cached."""
    key = hashlib.sha256(b"\0".join(
        [SOURCE.read_bytes(), COMPILER.encode(), " ".join(flags).encode(),
         sysconfig.get_platform().encode()])).hexdigest()[:16]
    return cache_dir() / f"kernel-{key}.so"


def _is_whole(path: Path) -> bool:
    """Whether path holds the library whose digest was recorded when it was built."""
    try:
        digest = path.with_suffix(".sha256").read_text()
        return hashlib.sha256(path.read_bytes()).hexdigest() == digest
    except OSError:
        return False


def _build(builds: dict[Path, tuple[str, ...]], optional: frozenset[Path] = frozenset()) -> None:
    """Compile the source to each path with its flags, every compiler at once.

    Each library and the digest recorded beside it are placed by a rename.
    Raises OSError for a build that failed, unless its path is among optional.
    """
    # imported here, as a run with cached libraries needs none of them
    import shutil
    import subprocess
    import tempfile

    def temp(path: Path) -> str:
        fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=path.parent)
        os.close(fd)
        return tmp

    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise FileNotFoundError(f"C compiler {COMPILER!r} not found on PATH; prodrisk "
                                f"compiles its cascade kernel {SOURCE.name} at first use")
    temps = {}
    try:
        for path in builds:
            path.parent.mkdir(parents=True, exist_ok=True)
            temps[path] = temp(path), temp(path)
        runs = {path: subprocess.Popen([compiler, *flags, "-o", temps[path][0], str(SOURCE)],
                                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                       text=True) for path, flags in builds.items()}
        errors = {path: run.communicate()[1] for path, run in runs.items()}
        for path, run in runs.items():
            if run.returncode:
                if path in optional:
                    continue
                raise OSError(f"{COMPILER} {' '.join(builds[path])} could not compile "
                              f"{SOURCE}: {errors[path].strip()}")
            lib_tmp, digest_tmp = temps[path]
            Path(digest_tmp).write_text(hashlib.sha256(Path(lib_tmp).read_bytes()).hexdigest())
            os.replace(lib_tmp, path)
            os.replace(digest_tmp, path.with_suffix(".sha256"))
    finally:
        for tmp in (t for pair in temps.values() for t in pair):
            if os.path.exists(tmp):
                os.unlink(tmp)


def load() -> ctypes.CDLL:
    """The kernel library for this CPU: the build that the portable build's probe
    picks; each built first if no whole copy is cached."""
    global _lib
    if _lib is None:
        paths = {lanes: library_path(flags) for lanes, flags in BUILDS.items()}
        portable = paths[2]
        if not _is_whole(portable):  # not built yet, or damaged
            # all at once, as the probe is not built yet; a vector build that
            # fails matters only where the probe asks for it, and is tried again then
            _build({paths[lanes]: flags for lanes, flags in BUILDS.items()
                    if not _is_whole(paths[lanes])},
                   optional=frozenset(p for p in paths.values() if p != portable))
        lib = _open(portable)
        lanes = lib.vector_lanes()
        if paths[lanes] != portable:
            if not _is_whole(paths[lanes]):
                _build({paths[lanes]: BUILDS[lanes]})
            lib = _open(paths[lanes])
        _lib = lib
    return _lib


def _open(path: Path) -> ctypes.CDLL:
    """The library at path, its exports declared."""
    lib = ctypes.CDLL(str(path))
    _declare(lib, "step_block", c_int64, [c_void_p, c_void_p, c_int64])
    _declare(lib, "finish", c_int64, [c_void_p, c_int64, c_int64])
    _declare(lib, "matvec", None, [c_void_p] * 3 + [c_int64, c_void_p, c_void_p])
    _declare(lib, "vector_lanes", c_int64, [])
    return lib


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
                                      "T", "converged")] + [
        ("budget", c_int64)] + [
        (name, c_void_p) for name in ("damaged", "mark", "sector_mark", "in_ptr", "changed_d",
                                      "changed_u", "rows_d", "rows_u", "rows_q", "rows_s")] + [
        ("n_changed_d", c_int64), ("n_changed_u", c_int64), ("ran", c_int64),
        ("recomputed", c_int64), ("futile", c_int64)]


def addr(a: np.ndarray | None) -> int | None:
    """Address of a's first element; None (NULL) for None or an empty array.

    Raises ValueError for an array that is not C-contiguous: the kernel would
    read the wrong elements. A ctypes view of a writable array's buffer finds
    the address in a third of the time a.ctypes takes.
    """
    if a is None or not a.size:
        return None
    if not a.flags.c_contiguous:
        raise ValueError("the kernel reads C-contiguous arrays only")
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except TypeError:  # read-only
        return a.ctypes.data


def aligned(sizes: list[int]) -> list[np.ndarray]:
    """Empty float64 arrays of the given sizes, each starting on an ALIGN-byte
    boundary, cut from one allocation."""
    lane = ALIGN // 8
    spans = [-(-k // lane) * lane for k in sizes]
    whole = np.empty(sum(spans) + lane - 1)
    at = -addr(whole) % ALIGN // 8
    arrays = []
    for k, span in zip(sizes, spans):
        arrays.append(whole[at:at + k])
        at += span
    return arrays


class Workspace:
    """The compiled step on one ImpactMatrices, and every buffer of a block of up to width columns.

    Blocks run in it one after another, on int32 operator indices, group_ptr
    and sector_of. A run takes no memory of its own beyond small per-column
    vectors, so a thread that scores many blocks touches the same pages
    throughout instead of faulting in fresh ones every iteration. The result
    rows out_d and out_u are overwritten by the next block. block is the
    state the kernel runs (kernel.c's Block): the addresses of the level
    buffers (h_d, h_u, each with its successor, and q) and the sector sums,
    each on an ALIGN-byte boundary (see aligned), the decrement, the
    per-column flags, and the firm marks and row lists of the row-subset
    steps. A workspace serves one thread at a time; the kernel calls release
    the GIL, so workspaces on different threads run their blocks in parallel.
    """

    def __init__(self, m, width: int):
        if not 1 <= width <= MAX_WIDTH:
            raise ValueError(f"a block holds 1 to {MAX_WIDTH} columns, not {width}")
        lib = load()
        ops = (m.sector_op, m.down_op, m.up_op)
        indices = [m.group_ptr, m.sector_of] + [a for op in ops for a in (op.indptr, op.indices)]
        if any(a.dtype != np.int32 for a in indices):
            raise TypeError("the operators' indices, group_ptr and sector_of must be int32")
        floats = [m.s_out, m.u_resid] + [op.data for op in ops]
        if any(a.dtype != np.float64 for a in floats) or not all(
                a.flags.c_contiguous for a in floats + indices):
            raise TypeError("the operators must hold contiguous float64 values and indices")
        n, n_sectors = m.n, m.sector_op.shape[0]
        self.m = m
        self._ops = Ops(  # points into m's arrays, kept alive with m
            n, n_sectors,
            *map(addr, (m.sector_op.indptr, m.sector_op.indices, m.sector_op.data,
                        m.sector_of, m.s_out, m.group_ptr,
                        m.down_op.indptr, m.down_op.indices, m.down_op.data,
                        m.up_op.indptr, m.up_op.indices, m.up_op.data, m.u_resid)))
        self._step = lib.step_block
        # h_d, hd_new, h_u, hu_new, q and the sector sums, each row of a
        # product's operand on whole cache lines where width is 8 or 16
        *levels, sector = aligned([n * width] * 5 + [n_sectors * width])
        self.levels = {addr(a): a for a in levels}
        self.dec = np.empty(width)
        self.done = np.zeros(width, dtype=bool)
        self.out_d, self.out_u = np.empty((width, n)), np.empty((width, n))
        self.in_ptr = m.down_op.indptr[m.group_ptr]
        flags = [np.zeros(k, dtype=bool) for k in (n, n, n_sectors)]
        rows = [np.empty(k, dtype=np.intp) for k in (n,) * 5 + (n_sectors,)]
        self._held = {  # the block points into these
            **dict(zip(("h_d", "hd_new", "h_u", "hu_new", "q"), levels)),
            **dict(zip(("damaged", "mark", "sector_mark"), flags)),
            **dict(zip(("changed_d", "changed_u", "rows_d", "rows_u", "rows_q", "rows_s"), rows)),
            "sector": sector, "col_of": np.empty(width, dtype=np.intp),
            "dec": self.dec, "done": self.done, "out_d": self.out_d, "out_u": self.out_u,
            "in_ptr": self.in_ptr}
        self.block = Block(budget=-1, **{name: addr(a) for name, a in self._held.items()})
        self.ref = ctypes.addressof(self.block)
        self._ops_ref = ctypes.addressof(self._ops)

    def begin(self, caps: tuple[np.ndarray, np.ndarray, np.ndarray], width: int, epsilon: float,
              max_iter: int, budget: int, futile: int) -> tuple[np.ndarray, np.ndarray]:
        """Point the block at a run of 1 to the workspace's width columns; its T and converged.

        budget and futile go to kernel.c's Block: a row-subset step may
        recompute at most budget nonzeros, and a step after one that
        recomputed more than futile runs whole without marking a row.
        """
        if not 1 <= width <= len(self.dec):
            raise ValueError(f"this workspace holds 1 to {len(self.dec)} columns, not {width}")
        rows, cols, vals = caps
        # the kernel compacts the caps in place, so they are copies, held here
        self._caps = (np.asarray(rows * width + cols, dtype=np.intp),
                      np.array(vals, dtype=np.float64))
        self._out = np.empty(width, dtype=np.int64), np.empty(width, dtype=bool)
        b = self.block
        b.w, b.max_iter, b.epsilon, b.n_caps = width, max_iter, epsilon, len(rows)
        b.budget, b.futile = budget, futile
        b.cap_at, b.cap_val, b.T, b.converged = map(addr, self._caps + self._out)
        return self._out

    def step(self, t: int) -> int:
        """Iteration t of the block in one kernel call (kernel.c's step_block); the live
        columns left."""
        return self._step(self._ops_ref, self.ref, t)

    def state(self, w: int) -> list[np.ndarray]:
        """The current levels h_d and h_u, as (n, w) views."""
        n = self.m.n
        return [self.levels[p][:n * w].reshape(n, w) for p in (self.block.h_d, self.block.h_u)]


def matvec(op, x: np.ndarray) -> np.ndarray:
    """The product of a CSR operator op (int32 indptr and indices, float64 data,
    a shape) and a vector x, by kernel.c's matvec: each row sums from 0.0 in
    stored order, as scipy's csr_matvec does, so the bits are scipy's."""
    rows, cols = op.shape
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (cols,):
        raise ValueError(f"an operator of {cols} columns takes a vector of {cols}, "
                         f"not an array of shape {x.shape}")
    if (op.indptr.dtype, op.indices.dtype, op.data.dtype) != (np.int32, np.int32, np.float64):
        raise TypeError("the operator must hold int32 indices and float64 values")
    out = np.empty(rows)
    load().matvec(addr(op.indptr), addr(op.indices), addr(op.data), rows, addr(x), addr(out))
    return out
