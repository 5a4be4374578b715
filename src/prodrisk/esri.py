"""Per-firm systemic-risk index with deterministic parallel batch execution.

The index of firm i is the out-strength-weighted fraction of total network
production lost at the cascade fixed point after i alone fails completely.
Batches run one independent cascade per firm; results are bitwise identical
for any worker count because each cascade uses a fixed accumulation order.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .netcore import DataError, ProductionNetwork, fingerprint
from .prodfun import Scenario, ProductionParams, assign_scenario, calibrate
from .cascade import ImpactMatrices, CascadeResult, build_impact_matrices, rescale_for_coverage, run_cascade


@dataclass(frozen=True)
class EsriVector:
    """Batch result: one index value and convergence record per firm."""

    firm_ids: tuple[str, ...]
    values: np.ndarray
    T: np.ndarray
    converged: np.ndarray
    scenario: Scenario
    epsilon: float
    max_iter: int
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


# batch context inherited by forked workers, set just before the pool starts
_BATCH: dict | None = None


def _run_range(bounds: tuple[int, int]) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Run the cascades of one firm-index range against the shared context."""
    lo, hi = bounds
    ctx = _BATCH
    m: ImpactMatrices = ctx["matrices"]
    total_out: float = ctx["total_out"]
    s_out = m.s_out
    epsilon, max_iter = ctx["epsilon"], ctx["max_iter"]

    values = np.empty(hi - lo)
    T = np.empty(hi - lo, dtype=np.int64)
    conv = np.empty(hi - lo, dtype=bool)
    psi = np.ones(m.n)
    for k, i in enumerate(range(lo, hi)):
        psi[i] = 0.0
        res = run_cascade(ctx["net"], m, ctx["params"], psi, epsilon=epsilon, max_iter=max_iter)
        psi[i] = 1.0
        values[k] = _loss_weighted(s_out, total_out, res.h_final)
        T[k] = res.T
        conv[k] = res.converged
    return lo, values, T, conv


def esri_all(net: ProductionNetwork, matrices: ImpactMatrices, params: ProductionParams,
             epsilon: float = 1e-2, max_iter: int = 1000, worker_count: int = 1,
             progress=None) -> EsriVector:
    """Index of every firm, optionally across worker processes.

    The output is a pure function of (network, scenario, epsilon, max_iter);
    worker_count only changes wall time. Non-converged cascades are recorded
    per firm and the batch still completes. progress, if given, is called
    with the number of finished firms after each chunk.
    """
    global _BATCH
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")
    n = net.n
    chunk = 64
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    ctx = {"net": net, "matrices": matrices, "params": params,
           "total_out": _total_out(net.s_out), "epsilon": epsilon, "max_iter": max_iter}

    values = np.empty(n)
    T = np.empty(n, dtype=np.int64)
    conv = np.empty(n, dtype=bool)

    use_pool = worker_count > 1 and "fork" in multiprocessing.get_all_start_methods()
    _BATCH = ctx
    try:
        with contextlib.ExitStack() as stack:
            run = map
            if use_pool:
                mp_ctx = multiprocessing.get_context("fork")
                run = stack.enter_context(
                    ProcessPoolExecutor(max_workers=worker_count, mp_context=mp_ctx)).map
            done = 0
            for lo, v, t, c in run(_run_range, bounds):
                values[lo:lo + len(v)] = v
                T[lo:lo + len(v)] = t
                conv[lo:lo + len(v)] = c
                done += len(v)
                if progress is not None:
                    progress(done, n)
    finally:
        _BATCH = None

    for a in (values, T, conv):
        a.flags.writeable = False
    return EsriVector(
        firm_ids=tuple(f.firm_id for f in net.firms),
        values=values, T=T, converged=conv,
        scenario=params.spec.scenario, epsilon=float(epsilon), max_iter=int(max_iter),
        network_fingerprint=fingerprint(net),
    )


def scenario_suite(net: ProductionNetwork, epsilon: float = 1e-2, max_iter: int = 1000,
                   worker_count: int = 1) -> dict[Scenario, EsriVector]:
    """Batch indices under all four input-partition scenarios, shared firm order."""
    out: dict[Scenario, EsriVector] = {}
    for scenario in (Scenario.LIN, Scenario.GL, Scenario.MIX, Scenario.LEO):
        spec = assign_scenario(net, scenario)
        params = calibrate(net, spec)
        matrices = rescale_for_coverage(build_impact_matrices(net, spec), net.firms)
        out[scenario] = esri_all(net, matrices, params, epsilon=epsilon,
                                 max_iter=max_iter, worker_count=worker_count)
    return out
