"""Shock propagation over the production network.

A failure scenario caps every firm's production at psi in [0, 1]. Two
independent recursions then run to a fixed point: downstream (buyers lose
inputs when suppliers fail, damped by how replaceable each supplier is
within its sector) and upstream (suppliers lose demand when buyers fail).
Both recursions are synchronous and monotone, so they always terminate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .kernel import Workspace
from .netcore import DataError, ProductionNetwork
from .prodfun import ScenarioSpec, inputs_are_essential


# the cost rule of the row-subset step (_subset_budget), in one-column
# multiply-adds, fitted to the compiled kernel at widths 1 and 16 on 5k- and
# 100k-firm networks (where a row-subset step stops paying: 38% and 58% of
# the nonzeros at 5k, 44% and 90% at 100k): the work per nonzero of a product
# beyond its multiply-adds; marking what a recomputed nonzero feeds and
# counting its rows' nonzeros; and the bookkeeping of one step
LOAD_COST = 1
GATHER_COST = 2
STEP_COST = 50_000


@dataclass(frozen=True)
class ImpactMatrices:
    """Per-edge impact coefficients, compiled into three CSR operators.

    Essential inputs of one buyer form one constraint group per supplier
    sector; all non-essential inputs of a buyer share a single pooled group.
    Groups are numbered in buyer order, so the groups of each buyer are
    contiguous: firm i's are group_ptr[i] to group_ptr[i + 1], and
    seg_starts holds the first group of each present buyer. down_op has one
    row per group, in that order, and one column per supplier. up_op maps
    (supplier, buyer) to the buyer's share of the supplier's sales; u_resid
    is the demand share of each supplier not covered by observed buyers,
    held at full level during the iteration. The shares of both operators
    are shrunk for income-statement coverage (see build_impact_matrices).
    sector_op sums out-strength-weighted levels per sector. Every row
    accumulates over ascending column indices. down_op and up_op are
    compiled from the canonical (supplier, buyer) edges as they are: these
    list each buyer's inputs by ascending supplier, and an essential group
    is one (buyer, supplier sector) pair, whose input total is its entries'
    denominator. The operators' indices, group_ptr and sector_of are int32, the kernel's.
    """

    n: int
    s_out: np.ndarray
    sector_of: np.ndarray
    n_groups: int
    seg_starts: np.ndarray       # first group index per present buyer
    group_ptr: np.ndarray        # firm i's groups: group_ptr[i] to group_ptr[i + 1]
    u_resid: np.ndarray
    down_op: sparse.csr_array    # (group, supplier) -> downstream share
    up_op: sparse.csr_array      # (supplier, buyer) -> upstream share
    sector_op: sparse.csr_array  # (sector, firm) -> s_out


@dataclass(frozen=True)
class CascadeState:
    """Snapshot of one iteration; its arrays are frozen.

    A trace holds the state after iteration t at position t. sigma and
    pi_tilde are the substitution factors and per-group input availabilities
    applied in the step that produced these levels, the no-shock values in
    states 0 and 1 (iteration 1 only sets the caps); pi_tilde is in the
    group order of the matrices that produced the state.
    """

    h_d: np.ndarray
    h_u: np.ndarray
    sigma: np.ndarray
    pi_tilde: np.ndarray

    def __post_init__(self):
        for a in (self.h_d, self.h_u, self.sigma, self.pi_tilde):
            a.flags.writeable = False


@dataclass(frozen=True)
class CascadeResult:
    """Converged (or capped) outcome of one failure scenario."""

    h_final: np.ndarray
    h_d_final: np.ndarray
    h_u_final: np.ndarray
    T: int
    converged: bool
    trace: tuple[CascadeState, ...] | None = None


def build_impact_matrices(net: ProductionNetwork, spec: ScenarioSpec) -> ImpactMatrices:
    """Per-edge impact coefficients for one scenario, shrunk for coverage.

    For an edge from supplier j to buyer i: if j's sector is essential for i,
    the downstream entry is j's share among i's same-sector inputs; otherwise
    it is j's share of all of i's inputs. The upstream entry is always buyer
    i's share of j's sales.

    Where income statements report unobserved trade, each share shrinks as
    it is formed. Upstream entries of supplier j shrink by min(1, s_out_j /
    revenue_j), because part of j's true demand never shows up in the
    network; the complement moves into u_resid and stays at full level.
    Downstream entries of buyer i shrink by min(1, s_in_i /
    material_cost_i), because part of i's true input basket is unobserved
    and assumed unshocked. Missing or zero figures leave entries unchanged.

    Raises DataError, before forming any array, for a network with more
    firms or edges than int32 indices can count.
    """
    # down_op has a nonzero per edge and a row per group, at most one per edge
    limit = np.iinfo(np.int32).max
    if max(net.n, net.n_edges) > limit:
        raise DataError(f"a network of {net.n} firms and {net.n_edges} edges is too large: "
                        f"the operators' int32 indices count at most {limit}")
    n, n_sectors, idx = net.n, len(net.sectors), np.int32
    # row pointer of the canonical edges as a supplier-major CSR
    sup_ptr = np.searchsorted(net.sup, np.arange(n + 1)).astype(idx)
    d_sup, lam_d, d_group, guniq = _downstream_entries(net, spec)
    group_buyer = guniq // (n_sectors + 1)
    _, seg_starts = np.unique(group_buyer, return_index=True)
    group_ptr = np.searchsorted(group_buyer, np.arange(n + 1)).astype(idx)

    down_op = sparse.csr_array((lam_d, (d_group.astype(idx), d_sup)), shape=(len(guniq), n))
    del d_sup, lam_d, d_group
    lam_u = net.w / net.s_out[net.sup]
    lam_u *= _coverage_factor(net.s_out, net.revenue)[net.sup]
    up_op = sparse.csr_array((lam_u, net.buy.astype(idx), sup_ptr), shape=(n, n))
    sector_of = net.sector_of.astype(idx)
    sector_op = sparse.csr_array((net.s_out, (sector_of, np.arange(n, dtype=idx))),
                                 shape=(n_sectors, n))
    for op in (down_op, up_op, sector_op):
        op.sort_indices()
    for a in (seg_starts, group_ptr, sector_of):
        a.flags.writeable = False
    return ImpactMatrices(
        n=n, s_out=net.s_out, sector_of=sector_of, n_groups=len(guniq),
        seg_starts=seg_starts, group_ptr=group_ptr, u_resid=_residual_demand(up_op),
        down_op=down_op, up_op=up_op, sector_op=sector_op,
    )


def _downstream_entries(net: ProductionNetwork, spec: ScenarioSpec
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Downstream share and constraint group of every edge, in canonical order.

    Returns the supplier (as int32), coverage-shrunk share and group index of
    each edge, and the sorted group keys buyer * (n_sectors + 1) + (1 +
    sector, or 0 for the pooled group). No reordering is needed: the
    canonical order lists each buyer's inputs by ascending supplier, and an
    essential group is one (buyer, supplier sector) pair, whose input total
    is its denominator.
    """
    n_sectors = len(net.sectors)
    d_sup, d_buy, d_w = net.sup.astype(np.int32), net.buy, net.w
    d_sector = net.sector_of.astype(np.int32)[d_sup]
    d_ess = inputs_are_essential(net, spec, d_buy, d_sector)

    # constraint groups: one per (buyer, essential sector), one pooled per buyer
    gkey = d_buy * np.int64(n_sectors + 1) + np.where(d_ess, 1 + d_sector, 0)
    del d_sector
    guniq, d_group = np.unique(gkey, return_inverse=True)
    del gkey

    # denominators: the group's input total if essential, else all of the buyer's inputs
    lam_d = np.where(d_ess, np.bincount(d_group, weights=d_w)[d_group], net.s_in[d_buy])
    np.divide(d_w, lam_d, out=lam_d)
    lam_d *= _coverage_factor(net.s_in, net.material_cost)[d_buy]
    return d_sup, lam_d, d_group, guniq


def _residual_demand(up_op: sparse.csr_array) -> np.ndarray:
    """Per-supplier demand share outside the network, in [0, 1].

    Formed with a matvec that sums each row from 0.0 in stored order, as the
    kernel's upstream update does, so it complements the observed share
    summed in the same order as that update sums it.
    """
    resid = 1.0 - (up_op @ np.ones(up_op.shape[1]))
    np.clip(resid, 0.0, 1.0, out=resid)
    resid.flags.writeable = False
    return resid


def _coverage_factor(observed: np.ndarray, reported: np.ndarray) -> np.ndarray:
    """min(1, observed / reported) per firm; 1 where the figure is NaN (not reported) or 0.

    A tiny figure may overflow the ratio to inf, which the cap turns into 1.
    """
    fac = np.ones(len(reported))
    ok = reported > 0
    with np.errstate(over="ignore"):
        fac[ok] = np.minimum(1.0, observed[ok] / reported[ok])
    return fac


def rescale_for_coverage(matrices: ImpactMatrices, net: ProductionNetwork) -> ImpactMatrices:
    """Return matrices unchanged: build_impact_matrices already applies coverage.

    The name stays until perfbench/job.py, which wraps it on the scoring
    paths of cli and esri, no longer binds it, as with calibrate.
    """
    return matrices


def _subset_budget(m: ImpactMatrices, width: int) -> float:
    """Most nonzeros of down_op and up_op a row-subset step may recompute at this width.

    A product costs width + LOAD_COST one-column multiply-adds per nonzero.
    A step pays that for each nonzero it recomputes, plus GATHER_COST for
    marking what the nonzero feeds and the per-row work around it, plus
    STEP_COST for its bookkeeping; it pays off while that stays below the
    full products.
    """
    full = (width + LOAD_COST) * (m.down_op.nnz + m.up_op.nnz)
    return (full - STEP_COST) / (width + LOAD_COST + GATHER_COST)


def _factors(m: ImpactMatrices, h_d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma and pi_tilde of a step from the downstream levels h_d.

    sigma = fmin(s_out / the sector sum, 1) per firm, and pi_tilde = clip(1 -
    down_op @ (sigma (1 - h_d)), 0, 1) per group: the factors a step from
    h_d applies, in the kernel's summation order. A whole sector that has
    stopped divides by zero, which fmin maps to 1.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sigma = np.fmin(m.s_out / (m.sector_op @ h_d)[m.sector_of], 1.0)
    return sigma, np.clip(1.0 - m.down_op @ (sigma * (1.0 - h_d)), 0.0, 1.0)


def _iterate(m: ImpactMatrices, caps: tuple[np.ndarray, np.ndarray, np.ndarray], width: int,
             epsilon: float, max_iter: int, trace: list | None = None,
             ws: Workspace | None = None):
    """Run `width` cascades side by side as the columns of one (n, width) state.

    caps = (rows, cols, values) lists every production cap below 1: firm
    rows[k] of column cols[k] is held at or below values[k]. Each column
    stops at its first iteration whose largest level decrement is at most
    epsilon, or at max_iter unconverged, and its levels, T and converged flag
    are taken there. Finished columns ride along until at least half of the
    live ones are done; then the live columns are compacted. All state lives
    in ws (a new workspace if none is given), which must be at least `width`
    wide.

    Each iteration is one call of the compiled kernel (kernel.c's step),
    which also applies the caps and finishes and compacts columns. Iteration
    1 only sets the caps (see below). Each later one recomputes only the rows
    whose inputs changed in the one before, in place; every other row keeps
    its bits and a decrement of exactly 0, so T, converged, finishing and
    compaction are those of recomputing every row. Once the rows to recompute
    pass the cost rule (_subset_budget), or the block is compacted, every row
    is recomputed from then on, into the successor buffers. Either way the
    step writes uncapped levels and takes its decrement from them, and the
    caps follow. Every row accumulates in the same order as a matvec, so a
    column's result is bit-identical whatever block it runs in and whichever
    rows are recomputed.

    Iteration 1 runs no step, as none would move an uncapped level: from
    all-ones levels q = sigma * 0 = +0.0, so every downstream product is 0
    and h_d = clip(1 - 0) = 1; upstream, the product is the observed share s
    that u_resid = clip(1 - s, 0, 1) was formed from by a matvec of the same
    order, and clip(s + clip(1 - s, 0, 1), 0, 1) is exactly 1.0 under
    round-to-nearest (for s >= 0.5, 1 - s is exact by Sterbenz; for s < 0.5
    its rounding error e is at most 2**-54, and 1 + e rounds back to 1.0; for
    s > 1 the remainder is 0). So it sets the caps (min(1, v) = v), and a
    column's decrement is its largest 1 - v. Later steps take theirs before
    the caps, exactly, as levels never rise: a cap that binds at t held the
    level at t - 1, so its true decrement is 0 and its uncapped one < 0. That
    changes no comparison with epsilon > 0, and a row-subset step counts a
    row as moved only where its level fell.

    Returns (h_d, h_u, T, converged), with one row of h_d and h_u per column.
    A list passed as trace receives the CascadeState of every iteration of a
    one-column run, t = 0 included. A traced run takes the same steps as an
    untraced one; state t's sigma and pi_tilde are those of a step from
    state t - 1's h_d (_factors), state 0's those of all-ones levels, which
    state 1 shares.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be finite and > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if max_iter > 2**63 - 1:  # the kernel's int64 Block.max_iter
        raise ValueError("max_iter must be < 2**63")
    if ws is None:
        ws = Workspace(m, width)
    budget = _subset_budget(m, width)
    # below 0, no row subset pays at this size: every row, every step
    T, converged = ws.begin(caps, width, epsilon, max_iter, int(budget) if budget >= 0 else -1)
    if trace is not None:
        ones = np.ones(m.n)
        factors = _factors(m, ones)
        trace.append(CascadeState(ones, ones, *factors))

    for t in range(1, max_iter + 1):
        live = ws.step(t)
        if trace is not None:
            if t > 1:  # state 1's step starts from state 0's all-ones levels
                factors = _factors(m, trace[-1].h_d)
            h_d, h_u = ws.state(1)  # a finished one-column run is never compacted
            trace.append(CascadeState(h_d[:, 0].copy(), h_u[:, 0].copy(), *factors))
        if not live:
            break
    return ws.out_d[:width], ws.out_u[:width], T, converged


def run_cascade(net: ProductionNetwork, matrices: ImpactMatrices, params,
                psi: np.ndarray, epsilon: float = 1e-2, max_iter: int = 1000,
                record_trace: bool = False, substitution: bool = True) -> CascadeResult:
    """Iterate the shock recursion to its fixed point.

    Starts from all-ones levels; the exogenous cap takes effect in the first
    iteration and re-enters both updates every iteration, so no firm recovers
    above it. Stops at the first iteration whose largest level decrement
    (downstream or upstream) is at most epsilon, or after max_iter iterations
    with converged = False. The final per-firm level is the minimum of the
    downstream and upstream levels. record_trace keeps every state, the
    all-ones state at t = 0 included.

    The substitution factors sigma are recomputed from the downstream levels
    every iteration; substitution=False holds them at 1, so a failed
    supplier passes its whole drop to its buyers. It does so by giving every
    firm a sector of its own, where sigma = s_out / fl(s_out * h_d) is at
    least 1, or inf or nan where the product is 0, and so capped to exactly
    1. net and params are not read: they are passed through so every scoring
    entry point has the same signature. This is the one-column case of the
    batch kernel.
    """
    if matrices.n == 0:
        raise ValueError("cannot run a cascade on an empty network")
    psi = np.asarray(psi, dtype=np.float64)
    if psi.ndim != 1:
        raise ValueError("psi must be a 1-d vector")
    if not np.all((psi >= 0) & (psi <= 1)):  # also rejects NaN
        raise ValueError("psi values must lie in [0, 1]")
    if len(psi) != matrices.n:
        raise ValueError(f"psi has length {len(psi)}, expected {matrices.n}")
    if not substitution:
        firms = np.arange(matrices.n, dtype=np.int32)
        matrices = dataclasses.replace(matrices, sector_of=firms, sector_op=sparse.csr_array(
            (matrices.s_out, (firms, firms)), shape=(matrices.n, matrices.n)))

    capped = np.flatnonzero(psi < 1.0)
    trace: list[CascadeState] | None = [] if record_trace else None
    # + 0.0 turns a -0.0 cap into +0.0, so it writes the levels a 0 cap does
    h_d, h_u, T, converged = _iterate(matrices, (capped, np.zeros_like(capped), psi[capped] + 0.0),
                                      1, epsilon, max_iter, trace=trace)
    h_d, h_u = h_d[0], h_u[0]
    h_final = np.minimum(h_d, h_u)
    for a in (h_final, h_d, h_u):
        a.flags.writeable = False
    return CascadeResult(
        h_final=h_final, h_d_final=h_d, h_u_final=h_u, T=int(T[0]),
        converged=bool(converged[0]), trace=tuple(trace) if trace is not None else None,
    )
