"""Building, caching and loading the compiled cascade kernel."""

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from reference import edge_blocks

from prodrisk import cli, kernel
from prodrisk.esri import esri_all
from prodrisk.netcore import SyntheticConfig, build_network, generate_synthetic
from prodrisk.prodfun import Scenario, assign_scenario, calibrate
from prodrisk.cascade import build_impact_matrices

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
    seen = [kernel.library_path()]
    assert seen[0].parent == empty_cache and seen[0].name.startswith("kernel-")
    edited = tmp_path / "kernel.c"
    edited.write_bytes(kernel.SOURCE.read_bytes() + b"\n")
    monkeypatch.setattr(kernel, "SOURCE", edited)
    seen.append(kernel.library_path())
    monkeypatch.setattr(kernel, "FLAGS", kernel.FLAGS + ("-g",))
    seen.append(kernel.library_path())
    monkeypatch.setattr(kernel.sysconfig, "get_platform", lambda: "elsewhere")
    seen.append(kernel.library_path())
    assert len(set(seen)) == 4


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


def test_truncated_library_is_rebuilt(tmp_path, monkeypatch):
    want = scores_digest()
    whole = Path(kernel.load()._name).read_bytes()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernel, "_lib", None)
    path = kernel.library_path()
    path.parent.mkdir(parents=True)
    path.write_bytes(whole[:len(whole) // 2])
    # the digest recorded for the whole library, as its build wrote it
    path.with_suffix(".sha256").write_text(hashlib.sha256(whole).hexdigest())
    assert scores_digest() == want
    assert path.stat().st_size == len(whole)
    assert sorted(path.parent.iterdir()) == sorted([path, path.with_suffix(".sha256")])


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
    files = sorted((tmp_path / "cache" / "prodrisk").iterdir())
    assert [f.suffix for f in files] == [".sha256", ".so"]  # no temporary file left


def test_warm_cache_load_starts_no_process(monkeypatch):
    kernel.load()  # warm the cache, building it if need be
    assert kernel.library_path().exists()
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
    assert kernel.load() is not None
    assert scores_digest()
    assert calls == []
