"""Building, caching and loading the compiled cascade kernel."""

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import KERNEL_BUILDS, kernel_library, runs_here
from reference import edge_blocks

from prodrisk import cli, kernel
from prodrisk.esri import esri_all
from prodrisk.netcore import SyntheticConfig, build_network, generate_synthetic
from prodrisk.prodfun import Scenario, assign_scenario, calibrate
from prodrisk.cascade import _iterate, build_impact_matrices

SRC = str(Path(__file__).resolve().parent.parent / "src")

# scores a small network with whatever kernel the process loads; prints the
# digest of the scores and whether the library was cached before the load
SCORE = """
import hashlib
from prodrisk import esri, kernel
from prodrisk.netcore import SyntheticConfig, build_network, generate_synthetic
from prodrisk.prodfun import Scenario, assign_scenario
from prodrisk.cascade import build_impact_matrices
firms, edges = generate_synthetic(SyntheticConfig(n_firms=200, mean_out_degree=6.0), seed=3)
net = build_network(firms, [zip(*edges)])
m = build_impact_matrices(net, assign_scenario(net, Scenario.LEO))
cached = kernel.library_path().exists()
v = esri.esri_all(net, m, None)
print(hashlib.sha256(v.values.tobytes() + v.T.tobytes()).hexdigest(), cached)
"""


def scores_digest() -> str:
    firms, edges = generate_synthetic(SyntheticConfig(n_firms=200, mean_out_degree=6.0), seed=3)
    net = build_network(firms, edge_blocks(edges))
    m = build_impact_matrices(net, assign_scenario(net, Scenario.LEO))
    v = esri_all(net, m, calibrate(net, assign_scenario(net, Scenario.LEO)))
    return hashlib.sha256(v.values.tobytes() + v.T.tobytes()).hexdigest()


@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """A fresh cache directory, and no kernel loaded in this process."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(kernel, "_lib", None)
    return cache / "prodrisk"


def test_cache_is_keyed_by_source_flags_and_platform(empty_cache, monkeypatch, tmp_path):
    assert kernel.library_path() == kernel.library_path(kernel.FLAGS)
    assert kernel.BUILDS == {2: kernel.FLAGS, 4: kernel.FLAGS + ("-mavx2",),
                             8: kernel.FLAGS + ("-mavx512f",)}
    assert sorted(KERNEL_BUILDS.values()) == sorted(kernel.BUILDS)

    def every():  # the portable build's path, then the AVX2 build's, then the AVX-512 build's
        return [kernel.library_path(flags) for flags in kernel.BUILDS.values()]

    seen = every()
    assert all(p.parent == empty_cache and p.name.startswith("kernel-") for p in seen)
    edited = tmp_path / "kernel.c"
    edited.write_bytes(kernel.SOURCE.read_bytes() + b"\n")
    monkeypatch.setattr(kernel, "SOURCE", edited)
    seen += every()
    seen += [kernel.library_path(flags + ("-g",)) for flags in kernel.BUILDS.values()]
    monkeypatch.setattr(kernel.sysconfig, "get_platform", lambda: "elsewhere")
    seen += every()
    assert len(set(seen)) == 12


def test_unwritable_cache_falls_back_to_the_temporary_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "not" / "yet"))
    assert kernel.cache_dir() == tmp_path / "not" / "yet" / "prodrisk"
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert kernel.cache_dir() == Path(tempfile.gettempdir()) / f"prodrisk-{os.getuid()}"


@pytest.mark.parametrize("shock", [False, True])
def test_missing_compiler_exits_1_naming_it(empty_cache, monkeypatch, tmp_path, capsys, shock):
    assert cli.main(["generate", "--n", "60", "--seed", "2", "--out-dir", str(tmp_path)]) == 0
    monkeypatch.setattr(shutil, "which", lambda name: None)
    args = ["esri", "--firms", str(tmp_path / "firms.csv"), "--edges", str(tmp_path / "edges.csv"),
            "--out-dir", str(tmp_path / "out")]
    if shock:
        (tmp_path / "psi.csv").write_text("firm_id,psi\nF000001,0.0\n")
        args += ["--psi-file", str(tmp_path / "psi.csv")]
    capsys.readouterr()
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert f"C compiler {kernel.COMPILER!r} not found" in err
    assert not empty_cache.exists() or not any(empty_cache.iterdir())


def built_libraries() -> list[Path]:
    """The cached builds after a load: the portable one, and each vector build wherever it compiles."""
    kernel.load()
    return [p for p in map(kernel.library_path, kernel.BUILDS.values()) if kernel._is_whole(p)]


def test_truncated_library_is_rebuilt(tmp_path, monkeypatch):
    want = scores_digest()
    wholes = [p.read_bytes() for p in built_libraries()]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernel, "_lib", None)
    paths = [kernel.library_path(flags) for flags in kernel.BUILDS.values()][:len(wholes)]
    paths[0].parent.mkdir(parents=True)
    for path, whole in zip(paths, wholes):
        path.write_bytes(whole[:len(whole) // 2])
        # the digest recorded for the whole library, as its build wrote it
        path.with_suffix(".sha256").write_text(hashlib.sha256(whole).hexdigest())
    assert scores_digest() == want
    assert [p.stat().st_size for p in paths] == [len(w) for w in wholes]
    assert sorted(paths[0].parent.iterdir()) == sorted(
        [f for p in paths for f in (p, p.with_suffix(".sha256"))])


def test_two_processes_build_into_an_empty_cache_at_once(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"),
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    procs = [subprocess.Popen([sys.executable, "-c", SCORE], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for _ in range(2)]
    outs = [p.communicate(timeout=300) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
    results = [out.split() for out, _ in outs]
    assert results[0][0] == results[1][0] == scores_digest()
    assert [cached for _, cached in results] == ["False", "False"]  # both built
    names = sorted(f.name for f in (tmp_path / "cache" / "prodrisk").iterdir())
    libs = [name for name in names if name.endswith(".so")]
    # each library beside its digest, and no temporary file left
    assert names == sorted(libs + [name[:-len(".so")] + ".sha256" for name in libs])
    assert sorted(libs) == sorted(p.name for p in built_libraries())


def test_warm_cache_load_starts_no_process(monkeypatch):
    chosen = kernel.load()._name  # warm the cache, building it if need be
    # the portable build, and the build the probe picks
    needed = [kernel.library_path(), kernel.library_path(kernel.BUILDS[kernel.load().vector_lanes()])]
    assert all(kernel._is_whole(p) for p in needed)
    calls = []

    def spy(name):
        def refuse(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"subprocess.{name} called")
        return refuse

    for name in ("Popen", "run", "call", "check_call", "check_output", "getoutput",
                 "getstatusoutput"):
        monkeypatch.setattr(subprocess, name, spy(name))
    monkeypatch.setattr(os, "system", spy("os.system"))
    monkeypatch.setattr(kernel, "_lib", None)
    assert kernel.load()._name == chosen == str(needed[-1])
    assert scores_digest()
    assert calls == []


def test_cold_load_compiles_every_build_at_once(empty_cache, monkeypatch):
    events = []

    class Spy(subprocess.Popen):
        def __init__(self, args, **kwargs):
            events.append(("start", args[1:args.index("-o")]))
            super().__init__(args, **kwargs)

        def communicate(self, *args, **kwargs):
            events.append(("wait", self.args[1:self.args.index("-o")]))
            return super().communicate(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", Spy)
    kernel.load()
    flags = [list(f) for f in kernel.BUILDS.values()]
    # the three compilers run before any is waited for; a warm load starts none
    assert events == [("start", f) for f in flags] + [("wait", f) for f in flags]
    monkeypatch.setattr(kernel, "_lib", None)
    kernel.load()
    assert len(events) == 6


def test_builds_iterate_the_same_bytes(monkeypatch):
    """Blocks of every width from 1 to 16, run on each build this CPU runs, write the
    portable build's bytes: on the eight-lane build, widths 9 to 15 take a whole vector,
    then up to three two-lane pairs and, where odd, a lone lane."""
    libs = {build: kernel_library(build) for build in KERNEL_BUILDS if runs_here(build)}
    firms, edges = generate_synthetic(SyntheticConfig(n_firms=600, mean_out_degree=8.0,
                                                      coverage=0.8), seed=4)
    net = build_network(firms, edge_blocks(edges))
    for scenario in (Scenario.GL, Scenario.LEO):
        m = build_impact_matrices(net, assign_scenario(net, scenario))
        for width in range(1, 17):
            # single-firm shocks to 0, spread over the network
            caps = np.linspace(0, m.n - 1, width).astype(np.intp), np.arange(width), np.zeros(width)
            runs = {}
            for build, lib in libs.items():
                monkeypatch.setattr(kernel, "_lib", lib)
                h_d, h_u, T, conv = _iterate(m, caps, width, 1e-3, 1000)
                runs[build] = b"".join(a.tobytes() for a in (h_d, h_u, T, conv))
            for build in libs:
                assert runs[build] == runs["portable"], (scenario, width, build)


@pytest.mark.parametrize("scenario", list(Scenario))
def test_builds_score_the_same_bytes(scenario, monkeypatch):
    """esri_all writes the portable build's values, T and converged flags on each build this CPU runs."""
    libs = {build: kernel_library(build) for build in KERNEL_BUILDS if runs_here(build)}
    firms, edges = generate_synthetic(SyntheticConfig(n_firms=400, mean_out_degree=8.0,
                                                      coverage=0.8), seed=5)
    net = build_network(firms, edge_blocks(edges))
    m = build_impact_matrices(net, assign_scenario(net, scenario))
    runs = {}
    for build, lib in libs.items():
        monkeypatch.setattr(kernel, "_lib", lib)
        v = esri_all(net, m, None)
        runs[build] = v.values.tobytes() + v.T.tobytes() + v.converged.tobytes()
    for build in libs:
        assert runs[build] == runs["portable"], build


@pytest.mark.parametrize("width", [1, 16])
def test_level_buffers_start_on_cache_lines(width):
    """Every level buffer and the sector sums start on a cache line, also after the swaps
    of whole steps and of a compaction, so a row of 8 or 16 levels spans whole lines."""
    firms, edges = generate_synthetic(SyntheticConfig(n_firms=300, mean_out_degree=6.0), seed=2)
    net = build_network(firms, edge_blocks(edges))
    m = build_impact_matrices(net, assign_scenario(net, Scenario.GL))
    ws = kernel.Workspace(m, width)
    names = ("h_d", "hd_new", "h_u", "hu_new", "q", "sector")
    firms_hit = np.linspace(0, m.n - 1, width).astype(np.intp)
    ws.begin((firms_hit, np.arange(width), np.zeros(width)), width, 1e-3, 1000, -1)
    starts, t, live = [], 0, width
    while live:
        starts.append([getattr(ws.block, name) for name in names])
        t += 1
        live = ws.step(t)
    starts.append([getattr(ws.block, name) for name in names])
    assert all(p % kernel.ALIGN == 0 for row in starts for p in row)
    # the pairs of level buffers swapped, and the block of 16 was compacted
    assert len({row[0] for row in starts}) == 2
    assert width == 1 or ws.block.w < width


def test_addr_refuses_arrays_that_are_not_contiguous():
    """A strided view would have the kernel read the wrong elements, so it is refused;
    read-only and writable contiguous arrays give their first element's address."""
    with pytest.raises(ValueError, match="C-contiguous"):
        kernel.addr(np.arange(10.0)[::2])
    frozen = np.arange(10.0)
    frozen.flags.writeable = False
    for a in (frozen, np.arange(10.0), np.arange(10, dtype=np.int32)[2:]):
        assert kernel.addr(a) == a.ctypes.data
    assert kernel.addr(np.empty(0)) is None
