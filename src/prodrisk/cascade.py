"""Shock propagation over the production network.

A failure scenario caps every firm's production at psi in [0, 1]. Two
independent recursions then run to a fixed point: downstream (buyers lose
inputs when suppliers fail, damped by how replaceable each supplier is
within its sector) and upstream (suppliers lose demand when buyers fail).
Both recursions are synchronous and monotone, so they always terminate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .netcore import ProductionNetwork, FirmRecord, sector_is_physical
from .prodfun import ScenarioSpec, ESS_ALL, ESS_PHYSICAL


@dataclass(frozen=True)
class ImpactMatrices:
    """Per-edge impact coefficients, compiled into three CSR operators.

    down_op has one row per constraint group and one column per supplier.
    Essential inputs of one buyer form one group per supplier sector; all
    non-essential inputs of a buyer share a single pooled group. Groups are
    sorted by buyer, so the groups of each present buyer form one contiguous
    segment starting at seg_starts. up_op maps (supplier, buyer) to the
    buyer's share of the supplier's sales; u_resid is the demand share of
    each supplier not covered by observed buyers, held at full level during
    the iteration. sector_op sums out-strength-weighted levels per sector.
    Every row accumulates over ascending column indices.
    """

    n: int
    s_out: np.ndarray
    s_in: np.ndarray
    sector_of: np.ndarray
    n_groups: int
    group_buyer: np.ndarray
    group_sector: np.ndarray     # sector id per group, -1 for the pooled group
    present_buyers: np.ndarray   # buyers that have at least one in-edge
    seg_starts: np.ndarray       # first group index per present buyer
    u_resid: np.ndarray
    down_op: sparse.csr_array    # (group, supplier) -> downstream share
    up_op: sparse.csr_array      # (supplier, buyer) -> upstream share
    sector_op: sparse.csr_array  # (sector, firm) -> s_out


@dataclass(frozen=True)
class ExogenousShock:
    """Per-firm cap on production imposed from outside the network."""

    psi: np.ndarray

    def __post_init__(self):
        # always copy: the shock owns (and freezes) its vector, never the caller's
        psi = np.array(self.psi, dtype=np.float64)
        if psi.ndim != 1:
            raise ValueError("psi must be a 1-d vector")
        if not np.all((psi >= 0) & (psi <= 1)):  # also rejects NaN
            raise ValueError("psi values must lie in [0, 1]")
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)


@dataclass(frozen=True)
class CascadeState:
    """Snapshot of one iteration; its arrays are frozen.

    sigma and pi_tilde are the replaceability factors and per-group input
    availabilities applied in the step that produced these levels; for the
    initial state they are the no-shock values. pi_tilde is aligned with the
    constraint groups of the matrices that produced the state.
    """

    t: int
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
    """Per-edge impact coefficients for one scenario.

    For an edge from supplier j to buyer i: if j's sector is essential for i,
    the downstream entry is j's share among i's same-sector inputs; otherwise
    it is j's share of all of i's inputs. The upstream entry is always buyer
    i's share of j's sales.
    """
    n = net.n
    n_sectors = len(net.sectors)
    sup, buy, w = net.sup, net.buy, net.w
    s_in, s_out = net.s_in, net.s_out

    phys_sector = np.array([sector_is_physical(c) for c in net.sectors], dtype=bool)
    cls = spec.essential_class
    ess = (cls[buy] == ESS_ALL) | ((cls[buy] == ESS_PHYSICAL) & phys_sector[net.sector_of[sup]])

    # downstream order: sorted by (buyer, supplier)
    d_ord = np.lexsort((sup, buy))
    d_sup = sup[d_ord]
    d_buy = buy[d_ord]
    d_w = w[d_ord]
    d_ess = ess[d_ord]
    d_sector = net.sector_of[d_sup]

    # denominators of essential entries: same-sector input totals per buyer
    pair_key = d_buy * n_sectors + d_sector
    pair_uniq, pair_inv = np.unique(pair_key, return_inverse=True)
    pair_sum = np.bincount(pair_inv, weights=d_w)
    lam_d = np.where(d_ess, d_w / pair_sum[pair_inv], d_w / s_in[d_buy])

    # constraint groups: one per (buyer, essential sector), one pooled per buyer
    gkey = d_buy * np.int64(n_sectors + 1) + np.where(d_ess, 1 + d_sector, 0)
    guniq, d_group = np.unique(gkey, return_inverse=True)
    group_buyer = guniq // (n_sectors + 1)
    group_sector = guniq % (n_sectors + 1) - 1
    present_buyers, seg_starts = np.unique(group_buyer, return_index=True)

    down_op = sparse.csr_array((lam_d, (d_group, d_sup)), shape=(len(guniq), n))
    # upstream entries use the canonical (supplier, buyer) order directly
    up_op = sparse.csr_array((w / s_out[sup], (sup, buy)), shape=(n, n))
    sector_op = sparse.csr_array((s_out, (net.sector_of, np.arange(n))), shape=(n_sectors, n))
    for op in (down_op, up_op, sector_op):
        op.sort_indices()
    u_resid = _residual_demand(up_op)
    for a in (group_buyer, group_sector, present_buyers, seg_starts):
        a.flags.writeable = False
    return ImpactMatrices(
        n=n, s_out=s_out, s_in=s_in, sector_of=net.sector_of, n_groups=len(guniq),
        group_buyer=group_buyer, group_sector=group_sector,
        present_buyers=present_buyers, seg_starts=seg_starts, u_resid=u_resid,
        down_op=down_op, up_op=up_op, sector_op=sector_op,
    )


def _residual_demand(up_op: sparse.csr_array) -> np.ndarray:
    """Per-supplier demand share outside the network, in [0, 1].

    Formed with the kernel's own matvec, so it complements the observed share
    summed in the same order as the upstream update sums it.
    """
    resid = 1.0 - (up_op @ np.ones(up_op.shape[1]))
    np.clip(resid, 0.0, 1.0, out=resid)
    resid.flags.writeable = False
    return resid


def _scale_rows(op: sparse.csr_array, fac: np.ndarray) -> sparse.csr_array:
    """op with row r multiplied by fac[r]; shares the index arrays of op."""
    data = op.data * np.repeat(fac, np.diff(op.indptr))
    return sparse.csr_array((data, op.indices, op.indptr), shape=op.shape)


def rescale_for_coverage(matrices: ImpactMatrices, firms: "tuple[FirmRecord, ...]") -> ImpactMatrices:
    """Shrink impact entries where income statements report unobserved trade.

    Upstream entries reaching supplier i shrink by min(1, s_out_i / revenue_i)
    because part of i's true demand never shows up in the network; the
    complement moves into u_resid and stays at full level. Downstream entries
    reaching buyer i shrink by min(1, s_in_i / material_cost_i) because part
    of i's true input basket is unobserved and assumed unshocked. Missing or
    zero figures leave entries unchanged.
    """
    n = matrices.n
    fac_u = np.ones(n)
    fac_d = np.ones(n)
    for i, f in enumerate(firms):
        if f.revenue is not None and f.revenue > 0:
            fac_u[i] = min(1.0, matrices.s_out[i] / f.revenue)
        if f.material_cost is not None and f.material_cost > 0:
            fac_d[i] = min(1.0, matrices.s_in[i] / f.material_cost)

    up_op = _scale_rows(matrices.up_op, fac_u)
    down_op = _scale_rows(matrices.down_op, fac_d[matrices.group_buyer])
    return dataclasses.replace(matrices, up_op=up_op, down_op=down_op,
                               u_resid=_residual_demand(up_op))


def _sigma(s_out: np.ndarray, sector_of: np.ndarray, sector_live: np.ndarray) -> np.ndarray:
    """Replaceability factors: own out-strength over surviving sector output, capped at 1."""
    denom = sector_live[sector_of]
    sigma = np.ones(len(s_out))
    np.divide(s_out, denom, out=sigma, where=denom > 0)
    np.minimum(sigma, 1.0, out=sigma)
    return sigma


def replaceability(h_d: np.ndarray, net: ProductionNetwork) -> np.ndarray:
    """Replaceability factor of every firm given downstream levels h_d.

    A firm's factor is its baseline out-strength divided by the surviving
    output of its whole sector (itself included), capped at 1. A sector with
    no surviving output gives factor 1: nothing is left to substitute with.
    Upstream levels play no role.
    """
    h_d = np.asarray(h_d, dtype=np.float64)
    live = np.bincount(net.sector_of, weights=net.s_out * h_d, minlength=len(net.sectors))
    return _sigma(net.s_out, net.sector_of, live)


def _advance(m: ImpactMatrices, h_d: np.ndarray, h_u: np.ndarray, psi: np.ndarray,
             sigma_fixed: np.ndarray | None):
    """One synchronous update; returns (h_d', h_u', sigma used, pi_tilde used)."""
    if sigma_fixed is not None:
        sigma = sigma_fixed
    else:
        sigma = _sigma(m.s_out, m.sector_of, m.sector_op @ h_d)

    # relative input availability per constraint group; the per-firm weighted
    # drop is folded before the matvec so every edge costs one multiply-add
    q = sigma * (1.0 - h_d)
    pi_tilde = 1.0 - (m.down_op @ q)
    np.clip(pi_tilde, 0.0, 1.0, out=pi_tilde)

    hd_new = np.ones(m.n)
    if m.n_groups:
        hd_new[m.present_buyers] = np.minimum.reduceat(pi_tilde, m.seg_starts)
    np.clip(hd_new, 0.0, psi, out=hd_new)

    # upstream: demand-weighted buyer levels plus the unobserved remainder
    hu_new = (m.up_op @ h_u) + m.u_resid
    np.clip(hu_new, 0.0, psi, out=hu_new)
    return hd_new, hu_new, sigma, pi_tilde


def run_cascade(net: ProductionNetwork, matrices: ImpactMatrices, params,
                psi: np.ndarray, epsilon: float = 1e-2, max_iter: int = 1000,
                record_trace: bool = False,
                sigma_fixed: np.ndarray | None = None) -> CascadeResult:
    """Iterate the shock recursion to its fixed point.

    Starts from all-ones levels; the exogenous cap takes effect in the first
    iteration and re-enters both updates every iteration, so no firm recovers
    above it. Stops at the first iteration whose largest level decrement
    (downstream or upstream) is at most epsilon, or after max_iter iterations
    with converged = False. The final per-firm level is the minimum of the
    downstream and upstream levels. record_trace keeps every state, the
    all-ones state at t = 0 included.

    sigma_fixed freezes the replaceability factors (for example at all-ones
    to switch substitution off entirely); by default they are recomputed from
    the downstream levels every iteration. net and params are not read: they
    are passed through so every scoring entry point has the same signature.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if matrices.n == 0:
        raise ValueError("cannot run a cascade on an empty network")
    psi = ExogenousShock(psi).psi
    if len(psi) != matrices.n:
        raise ValueError(f"psi has length {len(psi)}, expected {matrices.n}")
    if sigma_fixed is not None:
        # a copy: a recorded trace freezes it, never the caller's array
        sigma_fixed = np.array(sigma_fixed, dtype=np.float64)

    h_d = np.ones(matrices.n)
    h_u = h_d
    trace: list[CascadeState] | None = None
    if record_trace:
        sigma = sigma_fixed if sigma_fixed is not None else _sigma(
            matrices.s_out, matrices.sector_of, matrices.sector_op @ h_d)
        trace = [CascadeState(t=0, h_d=h_d, h_u=h_u, sigma=sigma,
                              pi_tilde=np.ones(matrices.n_groups))]

    converged = False
    T = max_iter
    for t in range(1, max_iter + 1):
        hd_new, hu_new, sigma, pit = _advance(matrices, h_d, h_u, psi, sigma_fixed)
        dec = max(np.max(h_d - hd_new), np.max(h_u - hu_new))
        h_d, h_u = hd_new, hu_new
        if trace is not None:
            trace.append(CascadeState(t=t, h_d=h_d, h_u=h_u, sigma=sigma, pi_tilde=pit))
        if dec <= epsilon:
            T = t
            converged = True
            break

    h_final = np.minimum(h_d, h_u)
    for a in (h_final, h_d, h_u):
        a.flags.writeable = False
    return CascadeResult(
        h_final=h_final, h_d_final=h_d, h_u_final=h_u, T=T, converged=converged,
        trace=tuple(trace) if trace is not None else None,
    )
