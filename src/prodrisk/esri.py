"""Per-firm systemic-risk index with deterministic parallel batch execution.

The index of firm i is the out-strength-weighted fraction of total network
production lost at the cascade fixed point after i alone fails completely.
Batches run one independent cascade per firm; results are bitwise identical
for any worker count because each cascade uses a fixed accumulation order.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .netcore import DataError, ProductionNetwork, fingerprint
from .prodfun import Scenario, ProductionParams, assign_scenario, calibrate
from .cascade import (ImpactMatrices, CascadeResult, _iterate, build_impact_matrices,
                      rescale_for_coverage, run_cascade)
from .kernel import Workspace, load


@dataclass(frozen=True)
class EsriVector:
    """Batch result: one index value and convergence record per firm."""

    firm_ids: tuple[str, ...]
    values: np.ndarray
    T: np.ndarray
    converged: np.ndarray
    network_fingerprint: str


def _total_out(s_out: np.ndarray) -> float:
    """Total out-strength, the denominator of every loss; zero is a data error."""
    total = float(np.sum(s_out))
    if total == 0:
        raise DataError("total out-strength is zero, losses are undefined")
    return total


def _loss_weighted(s_out: np.ndarray, total_out: float, h_final: np.ndarray) -> float:
    """Out-strength-weighted production loss, fixed summation order."""
    return float(np.sum(s_out * (1.0 - h_final)) / total_out)


def esri_single(net: ProductionNetwork, matrices: ImpactMatrices, params: ProductionParams,
                firm: int, epsilon: float = 1e-2, max_iter: int = 1000) -> tuple[float, CascadeResult]:
    """Index of a single firm: fail it completely, run the cascade, weigh losses."""
    if not 0 <= firm < net.n:
        raise ValueError(f"firm index {firm} out of range")
    total_out = _total_out(net.s_out)
    psi = np.ones(net.n)
    psi[firm] = 0.0
    result = run_cascade(net, matrices, params, psi, epsilon=epsilon, max_iter=max_iter)
    return _loss_weighted(net.s_out, total_out, result.h_final), result


# single-firm shocks per kernel call: the columns of one (n, BLOCK) state
BLOCK = 16


def _run_range(ws: Workspace, lo: int, hi: int, total_out: float, epsilon: float,
               max_iter: int, values: np.ndarray, T: np.ndarray, conv: np.ndarray) -> int:
    """Run the cascades of firms lo..hi-1 in workspace ws, BLOCK at a time.

    Each block writes its firms' entries of the batch arrays values, T and
    conv in place; returns the number of firms run. A block's values are one
    reduction over its rows; each row's sum is that of _loss_weighted on the
    row alone.
    """
    m = ws.m
    for start in range(lo, hi, BLOCK):
        stop = min(start + BLOCK, hi)
        firms = np.arange(start, stop)
        h_d, h_u, T[start:stop], conv[start:stop] = _iterate(
            m, (firms, firms - start, np.zeros(len(firms))), len(firms), epsilon, max_iter, ws=ws)
        # s_out * (1 - min(h_d, h_u)), in place in the workspace's result rows
        h = np.minimum(h_d, h_u, out=h_d)
        np.subtract(1.0, h, out=h)
        h *= m.s_out
        values[start:stop] = np.sum(h, axis=1) / total_out
    return hi - lo


def esri_all(net: ProductionNetwork, matrices: ImpactMatrices, params: ProductionParams,
             epsilon: float = 1e-2, max_iter: int = 1000, worker_count: int = 1,
             progress=None) -> EsriVector:
    """Index of every firm, optionally on a pool of worker threads.

    The output is a pure function of (network, scenario, epsilon, max_iter);
    worker_count only changes wall time. Non-converged cascades are recorded
    per firm and the batch still completes. progress, if given, is called
    with the number of finished firms after each chunk; the firms run in
    chunks of 64, and the pool has no more threads than there are chunks or
    CPUs (os.cpu_count()). The threads share the operators, each runs its
    chunks in a workspace of its own, and the kernel calls release the GIL.
    A chunk writes the result entries of its own firms, so the threads write
    disjoint slices of the same arrays.
    params is not read: it is passed through as in run_cascade.
    """
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")
    n = net.n
    chunk = 64
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    total_out = _total_out(net.s_out)
    local = threading.local()
    values = np.empty(n)
    T = np.empty(n, dtype=np.int64)
    conv = np.empty(n, dtype=bool)

    def run(lo_hi):
        ws = getattr(local, "ws", None)
        if ws is None:
            ws = local.ws = Workspace(matrices, BLOCK)
        return _run_range(ws, *lo_hi, total_out, epsilon, max_iter, values, T, conv)

    workers = min(worker_count, len(bounds), os.cpu_count() or 1)
    load()  # built once, before any thread needs it
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        done = 0
        for count in pool.map(run, bounds) if pool else map(run, bounds):
            done += count
            if progress is not None:
                progress(done, n)
    finally:
        if pool is not None:
            # after an error here (a failed chunk, Ctrl-C), the chunks not yet started never run
            pool.shutdown(cancel_futures=True)

    for a in (values, T, conv):
        a.flags.writeable = False
    return EsriVector(
        firm_ids=net.firm_ids,
        values=values, T=T, converged=conv, network_fingerprint=fingerprint(net),
    )


def scenario_suite(net: ProductionNetwork, epsilon: float = 1e-2, max_iter: int = 1000,
                   worker_count: int = 1, progress=None) -> dict[Scenario, EsriVector]:
    """Batch indices under all four input-partition scenarios, shared firm order.

    progress, if given, is called as in esri_all with counts over the whole
    suite: every firm is scored once per scenario.
    """
    scenarios = (Scenario.LIN, Scenario.GL, Scenario.MIX, Scenario.LEO)
    out: dict[Scenario, EsriVector] = {}
    for k, scenario in enumerate(scenarios):
        spec = assign_scenario(net, scenario)
        params = calibrate(net, spec)
        matrices = rescale_for_coverage(build_impact_matrices(net, spec), net)
        report = None
        if progress is not None:
            def report(done, n, offset=k * net.n):
                progress(offset + done, len(scenarios) * n)
        out[scenario] = esri_all(net, matrices, params, epsilon=epsilon, max_iter=max_iter,
                                 worker_count=worker_count, progress=report)
    return out
