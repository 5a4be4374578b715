"""Shared test plumbing: the acceptance checklist printer and the kernel builds.

Acceptance tests wrap their assertions in criterion(); every criterion
prints one PASS/FAIL line in the terminal summary regardless of how the
run went, so the checklist is visible even when something breaks early.

kernel_library opens any build of the compiled kernel, and the
kernel_build fixture (parametrized indirectly with a build's name) makes it
the one the test scores with.
"""

import contextlib

import pytest

from prodrisk import kernel

# the builds of kernel.c, each with the lanes of its vectors, its key in kernel.BUILDS
KERNEL_BUILDS = {"portable": 2, "avx2": 4, "avx512": 8}


def runs_here(build: str) -> bool:
    """Whether this CPU runs the named build: whether kernel.c's probe
    vector_lanes finds vectors at least as wide as the build's."""
    return KERNEL_BUILDS[build] <= kernel.load().vector_lanes()  # load builds what this CPU needs


def kernel_library(build: str):
    """The named build of the kernel, opened; skips the test where this CPU cannot run it."""
    if not runs_here(build):
        pytest.skip(f"this CPU has no vectors as wide as the {build} build's "
                    f"(kernel.c's probe vector_lanes), so that build cannot run here")
    return kernel._open(kernel.library_path(kernel.BUILDS[KERNEL_BUILDS[build]]))


@pytest.fixture
def kernel_build(request, monkeypatch):
    """The build named by the parameter, loaded in place of the one the probe picks."""
    monkeypatch.setattr(kernel, "_lib", kernel_library(request.param))
    return request.param

_RESULTS: dict[int, tuple[str, bool]] = {}


def record_criterion(num: int, desc: str, ok: bool) -> None:
    _RESULTS[num] = (desc, ok)


@contextlib.contextmanager
def criterion(num: int, desc: str):
    """Record PASS when the block completes, FAIL when it raises."""
    try:
        yield
    except BaseException:
        record_criterion(num, desc, False)
        raise
    record_criterion(num, desc, True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for num in sorted(_RESULTS):
        desc, ok = _RESULTS[num]
        tr.write_line(f"CRITERION {num} [{'PASS' if ok else 'FAIL'}] {desc}")
