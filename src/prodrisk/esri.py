"""Per-firm systemic-risk index with deterministic parallel batch execution.

The index of firm i is the out-strength-weighted fraction of total network
production lost at the cascade fixed point after i alone fails completely.
Batches run one independent cascade per firm; results are bitwise identical
for any worker count because each cascade uses a fixed accumulation order.
"""

from __future__ import annotations

import contextlib
import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .netcore import DataError, ProductionNetwork, fingerprint
from .prodfun import Scenario, ProductionParams, assign_scenario, calibrate
from .cascade import (ImpactMatrices, CascadeResult, _Workspace, _iterate,
                      build_impact_matrices, rescale_for_coverage, run_cascade)


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

# the batch context of a pool worker, set once by its initializer
_worker_ctx: dict | None = None


def _init_worker(ctx: dict) -> None:
    """Pool initializer: keep the batch context for every range this worker runs."""
    global _worker_ctx
    _worker_ctx = ctx


def _run_range(bounds: tuple[int, int], ctx: dict | None = None
               ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Run the cascades of one firm-index range, BLOCK at a time; ctx defaults to the worker's."""
    lo, hi = bounds
    ctx = ctx or _worker_ctx
    m: ImpactMatrices = ctx["matrices"]
    total_out: float = ctx["total_out"]
    # one workspace per process, made by its first range, serves all its blocks
    ws = ctx.get("workspace")
    if ws is None:
        ws = ctx["workspace"] = _Workspace(m, BLOCK)

    values = np.empty(hi - lo)
    T = np.empty(hi - lo, dtype=np.int64)
    conv = np.empty(hi - lo, dtype=bool)
    for start in range(lo, hi, BLOCK):
        stop = min(start + BLOCK, hi)
        firms = np.arange(start, stop)
        h_d, h_u, t, c = _iterate(m, (firms, firms - start, np.zeros(len(firms))), len(firms),
                                  ctx["epsilon"], ctx["max_iter"], ws=ws)
        block = slice(start - lo, stop - lo)
        T[block], conv[block] = t, c
        values[block] = [_loss_weighted(m.s_out, total_out, np.minimum(hd, hu))
                         for hd, hu in zip(h_d, h_u)]
    return lo, values, T, conv


def esri_all(net: ProductionNetwork, matrices: ImpactMatrices, params: ProductionParams,
             epsilon: float = 1e-2, max_iter: int = 1000, worker_count: int = 1,
             progress=None) -> EsriVector:
    """Index of every firm, optionally across worker processes.

    The output is a pure function of (network, scenario, epsilon, max_iter);
    worker_count only changes wall time. Non-converged cascades are recorded
    per firm and the batch still completes. progress, if given, is called
    with the number of finished firms after each chunk. params is not read:
    it is passed through as in run_cascade.
    """
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")
    n = net.n
    chunk = 64
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    ctx = {"matrices": matrices, "total_out": _total_out(net.s_out),
           "epsilon": epsilon, "max_iter": max_iter}

    values = np.empty(n)
    T = np.empty(n, dtype=np.int64)
    conv = np.empty(n, dtype=bool)

    with contextlib.ExitStack() as stack:
        ranges = map(functools.partial(_run_range, ctx=ctx), bounds)
        if worker_count > 1:
            # each worker receives the batch context once, when it starts
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=worker_count, initializer=_init_worker, initargs=(ctx,)))
            ranges = pool.map(_run_range, bounds)
        done = 0
        for lo, v, t, c in ranges:
            values[lo:lo + len(v)] = v
            T[lo:lo + len(v)] = t
            conv[lo:lo + len(v)] = c
            done += len(v)
            if progress is not None:
                progress(done, n)

    for a in (values, T, conv):
        a.flags.writeable = False
    return EsriVector(
        firm_ids=tuple(f.firm_id for f in net.firms),
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
        matrices = rescale_for_coverage(build_impact_matrices(net, spec), net.firms)
        report = None
        if progress is not None:
            def report(done, n, offset=k * net.n):
                progress(offset + done, len(scenarios) * n)
        out[scenario] = esri_all(net, matrices, params, epsilon=epsilon, max_iter=max_iter,
                                 worker_count=worker_count, progress=report)
    return out
