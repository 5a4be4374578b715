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
from scipy.sparse import _sparsetools

from .netcore import ProductionNetwork, FirmRecord, sector_is_physical
from .prodfun import ScenarioSpec, ESS_ALL, ESS_PHYSICAL


# rank slots of at most this many buyers are padded and reduced in one call,
# which costs about as much as one elementwise call per slot at a block of 16
TAIL_ROWS = 64


@dataclass(frozen=True)
class GroupSlots:
    """Rank-slot row layout of down_op, for each buyer's group maximum.

    With the present buyers sorted by group count, descending (buyers), the
    k-th groups of the buyers with more than k groups (slot k) belong to a
    prefix of that order. down_op holds the head slots one after another,
    sizes[k] rows each, then tail_slots slots of tail_rows rows each, so row
    p of every slot belongs to buyers[p]; in the tail, a buyer with no group
    in a slot has an empty row there. The head is slot 0 and every further
    slot of more than TAIL_ROWS buyers. rows[g] is the down_op row of group
    g; rows and everything else indexed by group are in group order.
    """

    buyers: np.ndarray
    rows: np.ndarray
    sizes: tuple[int, ...]
    tail_slots: int
    tail_rows: int


@dataclass(frozen=True)
class ImpactMatrices:
    """Per-edge impact coefficients, compiled into three CSR operators.

    Essential inputs of one buyer form one constraint group per supplier
    sector; all non-essential inputs of a buyer share a single pooled group.
    Groups are numbered in buyer order, so the groups of each present buyer
    form one contiguous segment starting at seg_starts; group_buyer,
    group_sector and seg_starts are in this group order. down_op has one
    column per supplier and one row per group, but its rows are in the
    rank-slot order the kernel reduces them in, with empty pad rows in the
    tail (see GroupSlots); slots.rows maps each group to its row. up_op maps
    (supplier, buyer) to the buyer's share of the supplier's sales; u_resid
    is the demand share of each supplier not covered by observed buyers,
    held at full level during the iteration. sector_op sums
    out-strength-weighted levels per sector. Every row accumulates over
    ascending column indices.
    """

    n: int
    s_out: np.ndarray
    s_in: np.ndarray
    sector_of: np.ndarray
    n_groups: int
    group_buyer: np.ndarray
    group_sector: np.ndarray     # sector id per group, -1 for the pooled group
    seg_starts: np.ndarray       # first group index per present buyer
    slots: GroupSlots
    u_resid: np.ndarray
    down_op: sparse.csr_array    # (slots.rows[group], supplier) -> downstream share
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
    initial state they are the no-shock values. pi_tilde is in the group
    order of the matrices that produced the state (not down_op's row order).
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
    n, n_sectors = net.n, len(net.sectors)
    d_sup, lam_d, d_group, guniq = _downstream_entries(net, spec)
    group_buyer = guniq // (n_sectors + 1)
    group_sector = guniq % (n_sectors + 1) - 1
    present_buyers, seg_starts = np.unique(group_buyer, return_index=True)
    slots = _group_slots(present_buyers, seg_starts, len(guniq))

    n_rows = sum(slots.sizes) + slots.tail_slots * slots.tail_rows
    down_op = sparse.csr_array((lam_d, (slots.rows[d_group], d_sup)), shape=(n_rows, n))
    # upstream entries use the canonical (supplier, buyer) order directly
    up_op = sparse.csr_array((net.w / net.s_out[net.sup], (net.sup, net.buy)), shape=(n, n))
    sector_op = sparse.csr_array((net.s_out, (net.sector_of, np.arange(n))), shape=(n_sectors, n))
    for op in (down_op, up_op, sector_op):
        op.sort_indices()
    u_resid = _residual_demand(up_op)
    for a in (group_buyer, group_sector, seg_starts, slots.buyers, slots.rows):
        a.flags.writeable = False
    return ImpactMatrices(
        n=n, s_out=net.s_out, s_in=net.s_in, sector_of=net.sector_of, n_groups=len(guniq),
        group_buyer=group_buyer, group_sector=group_sector,
        seg_starts=seg_starts, slots=slots, u_resid=u_resid,
        down_op=down_op, up_op=up_op, sector_op=sector_op,
    )


def _downstream_entries(net: ProductionNetwork, spec: ScenarioSpec
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Downstream share and constraint group of every edge, by (buyer, supplier).

    Returns the supplier, share and group index of each edge, and the sorted
    group keys buyer * (n_sectors + 1) + (1 + sector, or 0 for the pooled
    group). The edge-length temporaries are freed on return, before the
    operators are compiled.
    """
    n_sectors = len(net.sectors)
    sup, buy, w = net.sup, net.buy, net.w
    phys_sector = np.array([sector_is_physical(c) for c in net.sectors], dtype=bool)
    cls = spec.essential_class
    ess = (cls[buy] == ESS_ALL) | ((cls[buy] == ESS_PHYSICAL) & phys_sector[net.sector_of[sup]])

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
    lam_d = np.where(d_ess, d_w / pair_sum[pair_inv], d_w / net.s_in[d_buy])

    # constraint groups: one per (buyer, essential sector), one pooled per buyer
    gkey = d_buy * np.int64(n_sectors + 1) + np.where(d_ess, 1 + d_sector, 0)
    guniq, d_group = np.unique(gkey, return_inverse=True)
    return d_sup, lam_d, d_group, guniq


def _group_slots(present_buyers: np.ndarray, seg_starts: np.ndarray, n_groups: int) -> GroupSlots:
    """Rank-slot layout of the constraint groups (see GroupSlots)."""
    counts = np.diff(seg_starts, append=n_groups)
    k_max = int(counts.max()) if len(counts) else 0
    # in the smallest integer type that holds them, numpy radix-sorts the keys
    order = np.argsort((-counts).astype(np.min_scalar_type(-k_max)), kind="stable")
    rank = np.argsort(order)  # position of each present buyer in that order
    sizes = np.searchsorted(-counts[order], -np.arange(k_max), side="left").tolist()
    head = next((k for k in range(1, k_max) if sizes[k] <= TAIL_ROWS), k_max)
    tail_rows = sizes[head] if head < k_max else 0
    slot_start = np.cumsum([0] + sizes[:head] + [tail_rows] * (k_max - head - 1))
    # group g is the k-th group of the buyer at rank p: row p of slot k
    buyer = np.repeat(np.arange(len(counts)), counts)
    rows = slot_start[np.arange(n_groups) - seg_starts[buyer]] + rank[buyer]
    return GroupSlots(buyers=present_buyers[order], rows=rows, sizes=tuple(sizes[:head]),
                      tail_slots=k_max - head, tail_rows=tail_rows)


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
    row_fac = np.ones(matrices.down_op.shape[0])  # pad rows are empty
    row_fac[matrices.slots.rows] = fac_d[matrices.group_buyer]
    down_op = _scale_rows(matrices.down_op, row_fac)
    return dataclasses.replace(matrices, up_op=up_op, down_op=down_op,
                               u_resid=_residual_demand(up_op))


def _sigma(s_out: np.ndarray, denom: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Replaceability factors: own out-strength over surviving sector output, capped at 1.

    denom is the surviving output of each firm's sector. Where none survives,
    x / 0 gives inf or nan, and fmin maps both to 1; callers silence the
    division warnings.
    """
    np.divide(s_out, denom, out=out)
    return np.fmin(out, 1.0, out=out)


def replaceability(h_d: np.ndarray, net: ProductionNetwork) -> np.ndarray:
    """Replaceability factor of every firm given downstream levels h_d.

    A firm's factor is its baseline out-strength divided by the surviving
    output of its whole sector (itself included), capped at 1. A sector with
    no surviving output gives factor 1: nothing is left to substitute with.
    Upstream levels play no role.
    """
    h_d = np.asarray(h_d, dtype=np.float64)
    live = np.bincount(net.sector_of, weights=net.s_out * h_d, minlength=len(net.sectors))
    with np.errstate(divide="ignore", invalid="ignore"):
        return _sigma(net.s_out, live[net.sector_of], np.empty(net.n))


def _column_max(a: np.ndarray) -> np.ndarray:
    """Largest entry of every column of a (overwritten).

    A reduction along axis 0 loops over rows only as wide as the block, so
    for a block of several columns the bottom half of the rows is first
    folded onto the top half, each fold one long elementwise maximum.
    """
    rows = a.shape[0]
    while rows > 64 and a.shape[1] > 1:
        half = rows // 2
        np.maximum(a[:half], a[rows - half:rows], out=a[:half])
        rows -= half
    return np.maximum.reduce(a[:rows], axis=0)


def _group_max(y: np.ndarray, slots: GroupSlots) -> np.ndarray:
    """Largest y over the constraint groups of each present buyer, in place.

    y holds the downstream product in down_op's rank-slot row order. Each
    further head slot is folded onto the first rows of slot 0, then the tail
    is reduced as one (tail_slots, tail_rows, width) block onto its first
    rows; the result is slot 0, in slots.buyers order. Every entry of y is
    >= +0.0 (sigma * (1 - h_d) >= 0 times positive shares, summed into a
    zeroed output), so the 0.0 of an empty pad row changes no maximum.
    """
    top = y[:len(slots.buyers)]
    start = len(top)
    for size in slots.sizes[1:]:
        np.maximum(top[:size], y[start:start + size], out=top[:size])
        start += size
    if slots.tail_slots:
        tail = y[start:].reshape(slots.tail_slots, slots.tail_rows, -1)
        head = top[:slots.tail_rows]
        np.maximum(tail[0], head, out=tail[0])
        np.maximum.reduce(tail, axis=0, out=head)
    return top


class _Workspace:
    """Every buffer of a block of up to `width` columns, for blocks run one after another.

    A run takes no memory of its own beyond small per-column vectors, so a
    worker that scores many blocks touches the same pages throughout instead
    of faulting in fresh ones every iteration. The result rows out_d and
    out_u are overwritten by the next block.
    """

    def __init__(self, m: ImpactMatrices, width: int):
        # h_d, its successor, scratch, h_u, its successor
        self.levels = [np.empty(m.n * width) for _ in range(5)]
        self.down = np.empty(m.down_op.shape[0] * width)  # in down_op's row order
        self.sector = np.empty(m.sector_op.shape[0] * width)
        self.out_d, self.out_u = np.empty((width, m.n)), np.empty((width, m.n))


def _spmm(op: sparse.csr_array, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """op @ x written into out; x and out are C-contiguous (rows, width) arrays.

    These are the kernels scipy's own product runs (a matvec for one column),
    on a zeroed output, so every entry sums in the same order; only the
    allocation of a new result per call is saved.
    """
    out.fill(0.0)
    if x.shape[1] == 1:
        _sparsetools.csr_matvec(op.shape[0], op.shape[1], op.indptr, op.indices, op.data,
                                x.reshape(-1), out.reshape(-1))
    else:
        _sparsetools.csr_matvecs(op.shape[0], op.shape[1], x.shape[1], op.indptr, op.indices,
                                 op.data, x.reshape(-1), out.reshape(-1))
    return out


def _iterate(m: ImpactMatrices, caps: tuple[np.ndarray, np.ndarray, np.ndarray], width: int,
             epsilon: float, max_iter: int, sigma_fixed: np.ndarray | None = None,
             trace: list | None = None, ws: _Workspace | None = None):
    """Run `width` cascades side by side as the columns of one (n, width) state.

    caps = (rows, cols, values) lists every production cap below 1: firm
    rows[k] of column cols[k] is held at or below values[k]. Each column
    stops at its first iteration whose largest level decrement is at most
    epsilon, or at max_iter unconverged, and its levels, T and converged flag
    are taken there. Finished columns ride along until at least half of the
    live ones are done; then the live columns are compacted. Every operator
    is applied once per iteration as a sparse x dense product, whose rows
    accumulate in the same order as a matvec, so a column's result is
    bit-identical whatever block it runs in. All state lives in ws (a new
    workspace if none is given), which must be at least `width` wide.

    Returns (h_d, h_u, T, converged), with one row of h_d and h_u per column.
    A list passed as trace receives the CascadeState of every iteration of a
    one-column run, t = 0 included.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if ws is None:
        ws = _Workspace(m, width)
    n, n_sectors = m.n, m.sector_op.shape[0]
    rows, cols, vals = caps
    capped = rows * width + cols  # flat positions in the (n, width) state
    s_out, u_resid = m.s_out[:, None], m.u_resid[:, None]
    sigma = None if sigma_fixed is None else sigma_fixed[:, None]
    flats = list(ws.levels)
    n_rows = m.down_op.shape[0]

    def views(w):
        """The state at width w; after a compaction the same memory is viewed narrower."""
        return ([f[:n * w].reshape(n, w) for f in flats]
                + [ws.down[:n_rows * w].reshape(-1, w), ws.sector[:n_sectors * w].reshape(-1, w)])

    w = width
    h_d, hd_new, work, h_u, hu_new, y, sector = views(w)
    h_d.fill(1.0)
    h_u.fill(1.0)
    out_d, out_u = ws.out_d[:width], ws.out_u[:width]
    T = np.full(width, max_iter, dtype=np.int64)
    converged = np.zeros(width, dtype=bool)
    col_of = np.arange(width)
    done = np.zeros(width, dtype=bool)

    # _sigma divides by zero where a whole sector has stopped
    with np.errstate(divide="ignore", invalid="ignore"):
        if trace is not None:
            ones = np.ones(n)
            sigma0 = sigma_fixed if sigma_fixed is not None else _sigma(
                m.s_out, (m.sector_op @ ones)[m.sector_of], np.empty(n))
            trace.append(CascadeState(t=0, h_d=ones, h_u=ones, sigma=sigma0,
                                      pi_tilde=np.ones(m.n_groups)))

        for t in range(1, max_iter + 1):
            if sigma_fixed is None:
                _spmm(m.sector_op, h_d, sector).take(m.sector_of, axis=0, out=work, mode="clip")
                sigma = _sigma(s_out, work, work)
            # the per-firm weighted drop is folded before the product, so
            # every edge costs one multiply-add per column; hd_new is free
            # until the group maximum fills it
            np.subtract(1.0, h_d, out=hd_new)
            np.multiply(sigma, hd_new, out=hd_new)
            _spmm(m.down_op, hd_new, y)
            if trace is not None:
                pi_tilde = np.subtract(1.0, y[m.slots.rows, 0])
                np.minimum(np.maximum(pi_tilde, 0.0, out=pi_tilde), 1.0, out=pi_tilde)

            # min over a buyer's groups of clip(1 - y, 0, 1) is clip(1 - max y, 0, 1)
            # bit for bit, as both maps are monotone
            top = _group_max(y, m.slots)
            np.subtract(1.0, top, out=top)
            np.minimum(np.maximum(top, 0.0, out=top), 1.0, out=top)
            hd_new.fill(1.0)
            hd_new[m.slots.buyers] = top

            # upstream: demand-weighted buyer levels plus the unobserved remainder
            _spmm(m.up_op, h_u, hu_new)
            np.add(hu_new, u_resid, out=hu_new)
            np.minimum(np.maximum(hu_new, 0.0, out=hu_new), 1.0, out=hu_new)
            for h in (hd_new.reshape(-1), hu_new.reshape(-1)):
                h[capped] = np.minimum(h[capped], vals)

            if trace is not None:
                trace.append(CascadeState(t=t, h_d=hd_new[:, 0].copy(), h_u=hu_new[:, 0].copy(),
                                          sigma=sigma[:, 0].copy(), pi_tilde=pi_tilde))
            np.subtract(h_d, hd_new, out=work)
            np.subtract(h_u, hu_new, out=h_u)  # the old upstream levels are done with
            np.maximum(work, h_u, out=work)
            ok = _column_max(work) <= epsilon

            h_d, hd_new, h_u, hu_new = hd_new, h_d, hu_new, h_u
            flats[0], flats[1], flats[3], flats[4] = flats[1], flats[0], flats[4], flats[3]
            if t < max_iter and not ok.any():
                continue
            finished = ~done if t == max_iter else ~done & ok
            for j in np.flatnonzero(finished):
                c = col_of[j]
                out_d[c], out_u[c] = h_d[:, j], h_u[:, j]
                if ok[j]:
                    T[c], converged[c] = t, True
            done |= finished
            n_done = np.count_nonzero(done)
            if n_done == w:
                break
            if 2 * n_done >= w:
                keep = np.flatnonzero(~done)
                pos = np.full(w, -1)
                pos[keep] = np.arange(len(keep))
                w = len(keep)
                # the successor buffers are free: the live columns move there
                for src, dst in ((h_d, 1), (h_u, 4)):
                    np.take(src, keep, axis=1, out=flats[dst][:n * w].reshape(n, w), mode="clip")
                flats[0], flats[1], flats[3], flats[4] = flats[1], flats[0], flats[4], flats[3]
                h_d, hd_new, work, h_u, hu_new, y, sector = views(w)
                live = pos[cols] >= 0
                rows, cols, vals = rows[live], pos[cols[live]], vals[live]
                capped = rows * w + cols
                col_of, done = col_of[keep], done[keep]
    return out_d, out_u, T, converged


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
    This is the one-column case of the batch kernel.
    """
    if matrices.n == 0:
        raise ValueError("cannot run a cascade on an empty network")
    psi = ExogenousShock(psi).psi
    if len(psi) != matrices.n:
        raise ValueError(f"psi has length {len(psi)}, expected {matrices.n}")
    if sigma_fixed is not None:
        # a copy: a recorded trace freezes it, never the caller's array
        sigma_fixed = np.array(sigma_fixed, dtype=np.float64)

    capped = np.flatnonzero(psi < 1.0)
    trace: list[CascadeState] | None = [] if record_trace else None
    h_d, h_u, T, converged = _iterate(
        matrices, (capped, np.zeros_like(capped), psi[capped]), 1, epsilon, max_iter,
        sigma_fixed=sigma_fixed, trace=trace)
    h_d, h_u = h_d[0], h_u[0]
    h_final = np.minimum(h_d, h_u)
    for a in (h_final, h_d, h_u):
        a.flags.writeable = False
    return CascadeResult(
        h_final=h_final, h_d_final=h_d, h_u_final=h_u, T=int(T[0]),
        converged=bool(converged[0]), trace=tuple(trace) if trace is not None else None,
    )
