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
from scipy.sparse._sputils import get_index_dtype

from .netcore import ProductionNetwork
from .prodfun import ScenarioSpec, inputs_are_essential


# rank slots of at most this many buyers are padded and reduced in one call,
# which costs about as much as one elementwise call per slot at a block of 16
TAIL_ROWS = 64

# the cost rule of the row-subset step (_subset_budget), in one-column
# multiply-adds, fitted to 16-wide blocks at 5k firms and one-column cascades
# at 5k and 100k firms: loading the index and coefficient of one nonzero;
# copying it out and marking what it feeds; and the bookkeeping of one step
LOAD_COST = 1
GATHER_COST = 6
STEP_COST = 200_000


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
    counts[p] and in_deg[p] are the group count and the in-degree (the
    nonzeros of its rows) of buyers[p], which has a row in slots 0 to
    counts[p] - 1; rank[i] is the position of firm i in buyers, -1 for a
    firm without suppliers.
    """

    buyers: np.ndarray
    counts: np.ndarray
    in_deg: np.ndarray
    rank: np.ndarray
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
    form one contiguous segment starting at seg_starts. down_op has one
    column per supplier and one row per group, but its rows are in the
    rank-slot order the kernel reduces them in, with empty pad rows in the
    tail (see GroupSlots); slots.rows maps each group to its row. up_op maps
    (supplier, buyer) to the buyer's share of the supplier's sales; u_resid
    is the demand share of each supplier not covered by observed buyers,
    held at full level during the iteration. The shares of both operators
    are shrunk for income-statement coverage (see build_impact_matrices).
    sector_op sums out-strength-weighted levels per sector. Every row
    accumulates over ascending column indices. down_op and up_op are
    compiled from the canonical (supplier, buyer) edges as they are: these
    list each buyer's inputs by ascending supplier, and an essential group
    is one (buyer, supplier sector) pair, whose input total is its entries'
    denominator. The operators, slots.rank and slots.rows share one index type: int32
    where scipy's index-dtype rule allows it for the largest down_op the
    network could give, int64 beyond.
    """

    n: int
    s_out: np.ndarray
    sector_of: np.ndarray
    n_groups: int
    seg_starts: np.ndarray       # first group index per present buyer
    slots: GroupSlots
    u_resid: np.ndarray
    down_op: sparse.csr_array    # (slots.rows[group], supplier) -> downstream share
    up_op: sparse.csr_array      # (supplier, buyer) -> upstream share
    sector_op: sparse.csr_array  # (sector, firm) -> s_out


@dataclass(frozen=True)
class CascadeState:
    """Snapshot of one iteration; its arrays are frozen.

    A trace holds the state after iteration t at position t. sigma and
    pi_tilde are the substitution factors and per-group input availabilities
    applied in the step that produced these levels; for the initial state
    they are the no-shock values. pi_tilde is in the group order of the
    matrices that produced the state (not down_op's row order).
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
    """
    n, n_sectors = net.n, len(net.sectors)
    # down_op has a nonzero per edge, a row per group and under TAIL_ROWS pad rows per slot
    idx = get_index_dtype(maxval=max(n, net.n_edges + TAIL_ROWS * (n_sectors + 1)))
    # row pointer of the canonical edges as a supplier-major CSR
    sup_ptr = np.searchsorted(net.sup, np.arange(n + 1)).astype(idx)
    d_sup, lam_d, d_group, guniq = _downstream_entries(net, spec, idx)
    present_buyers, seg_starts = np.unique(guniq // (n_sectors + 1), return_index=True)
    slots = _group_slots(present_buyers, seg_starts, np.bincount(d_group, minlength=len(guniq)),
                         n, idx)

    n_rows = sum(slots.sizes) + slots.tail_slots * slots.tail_rows
    down_op = sparse.csr_array((lam_d, (slots.rows[d_group], d_sup)), shape=(n_rows, n))
    del d_sup, lam_d, d_group
    lam_u = net.w / net.s_out[net.sup]
    lam_u *= _coverage_factor(net.s_out, net.revenue)[net.sup]
    up_op = sparse.csr_array((lam_u, net.buy.astype(idx), sup_ptr), shape=(n, n))
    sector_op = sparse.csr_array((net.s_out, (net.sector_of.astype(idx), np.arange(n, dtype=idx))),
                                 shape=(n_sectors, n))
    for op in (down_op, up_op, sector_op):
        op.sort_indices()
    for a in (seg_starts, slots.buyers, slots.counts, slots.in_deg, slots.rank, slots.rows):
        a.flags.writeable = False
    return ImpactMatrices(
        n=n, s_out=net.s_out, sector_of=net.sector_of, n_groups=len(guniq),
        seg_starts=seg_starts, slots=slots, u_resid=_residual_demand(up_op),
        down_op=down_op, up_op=up_op, sector_op=sector_op,
    )


def _downstream_entries(net: ProductionNetwork, spec: ScenarioSpec, idx: np.dtype
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Downstream share and constraint group of every edge, in canonical order.

    Returns the supplier (as idx), coverage-shrunk share and group index of
    each edge, and the sorted group keys buyer * (n_sectors + 1) + (1 +
    sector, or 0 for the pooled group). No reordering is needed: the
    canonical order lists each buyer's inputs by ascending supplier, and an
    essential group is one (buyer, supplier sector) pair, whose input total
    is its denominator.
    """
    n_sectors = len(net.sectors)
    d_sup, d_buy, d_w = net.sup.astype(idx), net.buy, net.w
    d_sector = net.sector_of.astype(idx)[d_sup]
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


def _group_slots(present_buyers: np.ndarray, seg_starts: np.ndarray, group_nnz: np.ndarray,
                 n: int, idx) -> GroupSlots:
    """Rank-slot layout of the constraint groups (see GroupSlots); group_nnz counts each one's edges."""
    n_groups = len(group_nnz)
    counts = np.diff(seg_starts, append=n_groups)
    k_max = int(counts.max()) if len(counts) else 0
    # in the smallest integer type that holds them, numpy radix-sorts the keys
    order = np.argsort((-counts).astype(np.min_scalar_type(-k_max)), kind="stable")
    rank = np.argsort(order).astype(idx)  # position of each present buyer in that order
    sizes = np.searchsorted(-counts[order], -np.arange(k_max), side="left").tolist()
    head = next((k for k in range(1, k_max) if sizes[k] <= TAIL_ROWS), k_max)
    tail_rows = sizes[head] if head < k_max else 0
    slot_start = np.cumsum([0] + sizes[:head] + [tail_rows] * (k_max - head - 1), dtype=idx)
    # group g is the k-th group of the buyer at rank p: row p of slot k
    buyer = np.repeat(np.arange(len(counts)), counts)
    rows = slot_start[np.arange(n_groups) - seg_starts[buyer]] + rank[buyer]
    in_deg = np.add.reduceat(group_nnz, seg_starts) if n_groups else group_nnz
    firm_rank = np.full(n, -1, dtype=idx)
    firm_rank[present_buyers] = rank
    return GroupSlots(buyers=present_buyers[order], counts=counts[order], in_deg=in_deg[order],
                      rank=firm_rank, rows=rows, sizes=tuple(sizes[:head]),
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


def _sigma(s_out: np.ndarray, denom: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Substitution factors: own out-strength over surviving sector output, capped at 1.

    denom is the surviving output of each firm's sector. Where none survives,
    x / 0 gives inf or nan, and where little does the ratio may overflow to
    inf; fmin maps all of them to 1, and callers silence the warnings.
    """
    np.divide(s_out, denom, out=out)
    return np.fmin(out, 1.0, out=out)


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


def _fold_slots(y: np.ndarray, top_rows: int, sizes) -> tuple[np.ndarray, int]:
    """Fold the slots of sizes[k] rows that follow y's first top_rows rows onto them, in place.

    Row p of every slot belongs to the same buyer. Returns the top rows,
    each now the maximum over its slots, and the row after the last slot.
    """
    top = y[:top_rows]
    start = top_rows
    for size in sizes:
        np.maximum(top[:size], y[start:start + size], out=top[:size])
        start += size
    return top, start


def _group_max(y: np.ndarray, slots: GroupSlots) -> np.ndarray:
    """Largest y over the constraint groups of each present buyer, in place.

    y holds the downstream product in down_op's rank-slot row order. Each
    further head slot is folded onto the first rows of slot 0, then the tail
    is reduced as one (tail_slots, tail_rows, width) block onto its first
    rows; the result is slot 0, in slots.buyers order. Every entry of y is
    >= +0.0 (sigma * (1 - h_d) >= 0 times positive shares, summed into a
    zeroed output), so the 0.0 of an empty pad row changes no maximum.
    """
    top, start = _fold_slots(y, len(slots.buyers), slots.sizes[1:])
    if slots.tail_slots:
        tail = y[start:].reshape(slots.tail_slots, slots.tail_rows, -1)
        head = top[:slots.tail_rows]
        np.maximum(tail[0], head, out=tail[0])
        np.maximum.reduce(tail, axis=0, out=head)
    return top


def _subset_budget(m: ImpactMatrices, width: int) -> float:
    """Most nonzeros of down_op and up_op a row-subset step may recompute at this width.

    A product costs width + LOAD_COST one-column multiply-adds per nonzero.
    A step pays that for each nonzero it recomputes, plus GATHER_COST for
    copying the nonzero out and marking what it feeds, plus STEP_COST for its
    bookkeeping; it pays off while that stays below the full products.
    """
    full = (width + LOAD_COST) * (m.down_op.nnz + m.up_op.nnz)
    return (full - STEP_COST) / (width + LOAD_COST + GATHER_COST)


class _Workspace:
    """Every buffer of a block of up to `width` columns, for blocks run one after another.

    A run takes no memory of its own beyond small per-column vectors and
    index lists, so a worker that scores many blocks touches the same pages
    throughout instead of faulting in fresh ones every iteration. The result
    rows out_d and out_u are overwritten by the next block. s_out and u_resid
    hold the matrices' vectors once per column, so the division and the add
    of a full iteration run as one long loop rather than n loops of width.
    subset holds the buffers of the row-subset iterations, where the cost
    rule admits any at this width.
    """

    def __init__(self, m: ImpactMatrices, width: int):
        n = m.n
        self.width = width
        # h_d, its successor, scratch, h_u, its successor
        self.levels = [np.empty(n * width) for _ in range(5)]
        self.down = np.empty(m.down_op.shape[0] * width)  # in down_op's row order
        self.sector = np.empty(m.sector_op.shape[0] * width)
        self.out_d, self.out_u = np.empty((width, n)), np.empty((width, n))
        self.s_out, self.u_resid = (v[:, None] if width == 1 else np.repeat(v[:, None], width, axis=1)
                                    for v in (m.s_out, m.u_resid))
        self.subset = _RowSubset(m, self) if _subset_budget(m, width) >= 0 else None


def _row_nnz(indptr: np.ndarray, rows: np.ndarray) -> int:
    """Nonzeros in the given rows of a CSR structure."""
    return int((indptr[rows + 1] - indptr[rows]).sum())


def _spmm(op: sparse.csr_array, x: np.ndarray, out: np.ndarray, part=None) -> np.ndarray:
    """op @ x written into out; x and out are C-contiguous (rows, width) arrays.

    These are the kernels scipy's own product runs (a matvec for one column),
    on a zeroed output, so every entry sums in the same order; only the
    allocation of a new result per call is saved. part = (indptr, indices,
    data) of rows copied out of op (_RowSubset._gather) puts only those rows
    into out.
    """
    ptr, idx, data = (op.indptr, op.indices, op.data) if part is None else part
    out.fill(0.0)
    if x.shape[1] == 1:
        _sparsetools.csr_matvec(len(ptr) - 1, op.shape[1], ptr, idx, data,
                                x.reshape(-1), out.reshape(-1))
    else:
        _sparsetools.csr_matvecs(len(ptr) - 1, op.shape[1], x.shape[1], ptr, idx, data,
                                 x.reshape(-1), out.reshape(-1))
    return out


def _cap_rows(h: np.ndarray, keys: np.ndarray, cap_keys: np.ndarray, cols: np.ndarray,
              vals: np.ndarray) -> None:
    """Apply the caps to a compact block whose row p holds the state row keyed keys[p].

    keys ascend; cap_keys are the keys of the capped state rows, and caps of
    rows outside the block are skipped.
    """
    pos = np.searchsorted(keys, cap_keys)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == cap_keys[hit]
    p, c = pos[hit], cols[hit]
    h[p, c] = np.minimum(h[p, c], vals[hit])


def _clip01(a: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(a, 0.0, out=a), 1.0, out=a)


class _RowSubset:
    """Iterations of a block that recompute only the rows whose inputs changed.

    One instance per workspace holds the buffers; start() begins a block,
    whose levels step() then updates in place. changed_d and changed_u hold
    the firms whose h_d and h_u changed in the last iteration in a live
    column. Between iterations, q == sigma * (1 - h_d) and sector ==
    sector_op @ h_d hold for the current levels, so an iteration recomputes:
      - the sums of the sectors of changed_d, and q of the damaged firms
        (h_d < 1 somewhere) of those sectors, changed_d among them; where
        h_d == 1, q is +0.0 whatever sigma is, so no other firm's q moves;
      - every group of every buyer of a firm whose q was recomputed, found
        through up_op's supplier -> buyer index;
      - the up_op rows of the suppliers of changed_u: the columns of their
        down_op rows.
    A row computed again from bitwise-equal inputs gives the same bits, so
    every other row keeps its value, and its decrement is exactly 0.

    damaged marks the firms whose h_d has moved in the block; mark and
    sector_mark are all-False scratch. ptr, idx and vals take the operator
    rows that _gather copies out: any rows of up_op or down_op, or as many
    nonzeros as the cost rule admits; rows takes a list of down_op rows.
    These, ids and every row list passed to _gather are in the operators'
    index type, so no gather casts; ids[mask] lists a mask's set entries in
    that type. slot_start[k] is the first down_op row of slot k. Compact
    results and old levels go to the workspace's free level buffers.
    """

    def __init__(self, m: ImpactMatrices, ws: _Workspace):
        n, n_rows, width = m.n, m.down_op.shape[0], ws.width
        self.m, self.ws = m, ws
        self.q_buf = np.empty(n * width)
        self.damaged = np.zeros(n, dtype=bool)
        self.mark = np.zeros(n, dtype=bool)
        self.sector_mark = np.zeros(m.sector_op.shape[0], dtype=bool)
        # the up_op rows of q_rows and the down_op rows of changed_u's groups
        # are copied out before the count can decline a step; down_op holds
        # one entry per edge, as many as up_op
        nnz = max(n, m.up_op.nnz, int(_subset_budget(m, width)))
        idx = m.up_op.indices.dtype
        self.ptr = np.empty(max(n_rows, n) + 1, dtype=idx)
        self.idx = np.empty(nnz, dtype=idx)
        self.vals = np.empty(nnz)
        self.rows = np.empty(n_rows, dtype=idx)
        self.ids = np.arange(n, dtype=idx)  # no more sectors than firms
        slots = m.slots
        self.slot_start = np.cumsum([0, *slots.sizes, *[slots.tail_rows] * slots.tail_slots])

    def start(self, h_d: np.ndarray) -> "_RowSubset":
        """Begin a block at all-ones levels h_d."""
        m = self.m
        n, w = h_d.shape
        self.q = self.q_buf[:n * w].reshape(n, w)
        self.q.fill(0.0)  # sigma * (1 - 1)
        self.sector = self.ws.sector[:m.sector_op.shape[0] * w].reshape(-1, w)
        _spmm(m.sector_op, h_d, self.sector)
        self.damaged.fill(False)
        self.budget = _subset_budget(m, w)
        self.changed_d = self.changed_u = None
        return self

    def _gather(self, op: sparse.csr_array, rows: np.ndarray):
        """The given rows of op, in that order, copied out.

        Returns the (indptr, indices, data) of the len(rows)-row CSR they
        form; every row keeps its entries in their order.
        """
        ptr = self.ptr[:len(rows) + 1]
        ptr[0] = 0
        np.take(op.indptr[1:], rows, out=ptr[1:], mode="clip")
        ptr[1:] -= op.indptr[rows]
        np.cumsum(ptr[1:], out=ptr[1:])
        idx, data = self.idx[:ptr[-1]], self.vals[:ptr[-1]]
        if len(data) < ptr[-1]:  # the copy writes through raw pointers
            raise RuntimeError(f"{ptr[-1]} nonzeros exceed the row-subset buffers")
        _sparsetools.csr_row_index(len(rows), rows, op.indptr, op.indices, op.data, idx, data)
        return ptr, idx, data

    def _marked(self, op: sparse.csr_array, rows: np.ndarray) -> np.ndarray:
        """The distinct columns with an entry in the given rows of op, ascending."""
        _, idx, _ = self._gather(op, rows)
        self.mark[idx] = True
        found = self.ids[self.mark]
        self.mark[found] = False
        return found

    def _buyer_rows(self, ranks: np.ndarray):
        """down_op rows of every group of the buyers at ascending ranks, slot after slot.

        Returns the rows and, per slot k, how many of the buyers have a row
        there: ranks[:in_slot[k]], as they have the most groups.
        """
        counts = self.m.slots.counts[ranks]
        in_slot = np.searchsorted(-counts, -np.arange(counts[0] if len(counts) else 0))
        rows = self.rows[:counts.sum()]
        start = 0
        for k, c in enumerate(in_slot.tolist()):
            np.add(ranks[:c], self.slot_start[k], out=rows[start:start + c])
            start += c
        return rows, in_slot

    def _first(self, h_d: np.ndarray, h_u: np.ndarray, caps) -> np.ndarray:
        """Iteration 1 from all-ones levels: only the capped rows move.

        From all-ones, q = sigma * 0 = +0.0, every downstream product is 0 and
        h_d = clip(1 - 0) = 1. Upstream, the product is the observed share s
        that u_resid = clip(1 - s, 0, 1) was formed from by the same matvec,
        and clip(s + clip(1 - s, 0, 1), 0, 1) is exactly 1.0 under
        round-to-nearest: for s >= 0.5, 1 - s is exact (Sterbenz); for
        s < 0.5 its rounding error e is at most 2**-54, and 1 + e rounds back
        to 1.0; for s > 1 the remainder is 0 and the clip gives 1. So every
        uncapped row stays at 1.0 bit for bit, as the full iteration leaves it.
        """
        rows, cols, vals = caps
        capped = rows * h_d.shape[1] + cols
        for h in (h_d.reshape(-1), h_u.reshape(-1)):
            h[capped] = np.minimum(h[capped], vals)
        level = h_d.reshape(-1)[capped]
        dec = np.zeros(h_d.shape[1])
        np.maximum.at(dec, cols, 1.0 - level)
        self.changed_d = self.changed_u = np.unique(rows[level != 1.0])
        self.damaged[self.changed_d] = True
        return dec

    def step(self, h_d: np.ndarray, h_u: np.ndarray, caps, done: np.ndarray) -> np.ndarray | None:
        """One iteration in place; the per-column largest decrement.

        Returns None, with nothing changed, when the rows to recompute hold
        more nonzeros than the cost rule admits (_subset_budget).
        """
        if self.changed_d is None:
            return self._first(h_d, h_u, caps)
        m, ws = self.m, self.ws
        w = h_d.shape[1]
        rows, cols, vals = caps
        changed_d, changed_u = self.changed_d, self.changed_u
        marked = self.sector_mark
        marked[m.sector_of[changed_d]] = True
        sectors = self.ids[:len(marked)][marked]
        damaged = self.ids[self.damaged]
        q_rows = damaged[marked[m.sector_of[damaged]]]
        marked[sectors] = False
        # the down_op nonzeros of changed_u's rows: their columns are the up_op rows to recompute
        slots = m.slots
        u_ranks = slots.rank[changed_u]
        u_ranks = np.sort(u_ranks[u_ranks >= 0])
        ranks = np.sort(slots.rank[self._marked(m.up_op, q_rows)])
        nnz_down = slots.in_deg[ranks].sum()
        up_rows = self._marked(m.down_op, self._buyer_rows(u_ranks)[0])
        if nnz_down + _row_nnz(m.up_op.indptr, up_rows) > self.budget:
            return None
        down_rows, in_slot = self._buyer_rows(ranks)

        def compact(buf, k):
            return buf[:k * w].reshape(k, w)

        if len(sectors):
            self.sector[sectors] = _spmm(m.sector_op, h_d, compact(ws.levels[4], len(sectors)),
                                         self._gather(m.sector_op, sectors))
        if len(q_rows):
            hq = np.take(h_d, q_rows, axis=0, out=compact(ws.levels[1], len(q_rows)), mode="clip")
            np.subtract(1.0, hq, out=hq)
            sig = np.take(self.sector, m.sector_of[q_rows], axis=0,
                          out=compact(ws.levels[2], len(q_rows)), mode="clip")
            np.multiply(_sigma(m.s_out[q_rows, None], sig, sig), hq, out=hq)
            self.q[q_rows] = hq

        buyers, d_new, d_dec = slots.buyers[ranks], None, None
        if len(ranks):
            y = _spmm(m.down_op, self.q, compact(ws.down, len(down_rows)),
                      self._gather(m.down_op, down_rows))
            # ranks[:in_slot[k]] have a row in slot k
            d_new, _ = _fold_slots(y, len(ranks), in_slot[1:].tolist())
            _clip01(np.subtract(1.0, d_new, out=d_new))
            _cap_rows(d_new, ranks, slots.rank[rows], cols, vals)
            d_dec = np.take(h_d, buyers, axis=0, out=compact(ws.levels[1], len(ranks)), mode="clip")
            np.subtract(d_dec, d_new, out=d_dec)

        u_new, u_dec = None, None
        if len(up_rows):
            u_new = _spmm(m.up_op, h_u, compact(ws.levels[4], len(up_rows)),
                          self._gather(m.up_op, up_rows))
            _clip01(np.add(u_new, m.u_resid[up_rows, None], out=u_new))
            _cap_rows(u_new, up_rows, rows, cols, vals)
            u_dec = np.take(h_u, up_rows, axis=0, out=compact(ws.levels[2], len(up_rows)), mode="clip")
            np.subtract(u_dec, u_new, out=u_dec)

        dec = np.zeros(w)
        moved = []
        for at, new, diff, h in ((buyers, d_new, d_dec, h_d), (up_rows, u_new, u_dec, h_u)):
            if diff is None:
                moved.append(at)
                continue
            diff[:, done] = 0.0  # a finished column's levels no longer matter
            moved.append(at[(diff != 0.0).any(axis=1)])
            np.maximum(dec, _column_max(diff), out=dec)
            h[at] = new
        self.changed_d, self.changed_u = moved
        self.damaged[self.changed_d] = True
        return dec


def _iterate(m: ImpactMatrices, caps: tuple[np.ndarray, np.ndarray, np.ndarray], width: int,
             epsilon: float, max_iter: int, trace: list | None = None,
             ws: _Workspace | None = None):
    """Run `width` cascades side by side as the columns of one (n, width) state.

    caps = (rows, cols, values) lists every production cap below 1: firm
    rows[k] of column cols[k] is held at or below values[k]. Each column
    stops at its first iteration whose largest level decrement is at most
    epsilon, or at max_iter unconverged, and its levels, T and converged flag
    are taken there. Finished columns ride along until at least half of the
    live ones are done; then the live columns are compacted. All state lives
    in ws (a new workspace if none is given), which must be at least `width`
    wide.

    An iteration recomputes only the rows whose inputs changed in the one
    before, in place (_RowSubset); every other row keeps its bits and a
    decrement of exactly 0, so T, converged, finishing and compaction are
    those of recomputing every row. Once the rows to recompute pass the cost
    rule (_subset_budget), or the block is compacted, every row is recomputed
    from then on: each operator is applied whole, as a sparse x dense product
    into the successor buffers. Either way every row accumulates in the same
    order as a matvec, so a column's result is bit-identical whatever block
    it runs in and whichever rows are recomputed.

    Returns (h_d, h_u, T, converged), with one row of h_d and h_u per column.
    A list passed as trace receives the CascadeState of every iteration of a
    one-column run, t = 0 included; a traced run recomputes every row from
    t = 1, as it records pi_tilde for every group.
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
    flats = list(ws.levels)
    n_rows = m.down_op.shape[0]

    def views(w):
        """The state at width w; after a compaction the same memory is viewed narrower."""
        return ([f[:n * w].reshape(n, w) for f in flats]
                + [ws.down[:n_rows * w].reshape(-1, w), ws.sector[:n_sectors * w].reshape(-1, w),
                   ws.s_out[:, :w], ws.u_resid[:, :w]])

    w = width
    h_d, hd_new, work, h_u, hu_new, y, sector, s_out, u_resid = views(w)
    h_d.fill(1.0)
    h_u.fill(1.0)
    out_d, out_u = ws.out_d[:width], ws.out_u[:width]
    T = np.full(width, max_iter, dtype=np.int64)
    converged = np.zeros(width, dtype=bool)
    col_of = np.arange(width)
    done = np.zeros(width, dtype=bool)
    subset = None  # every row: traced, or no row subset pays at this size
    if trace is None and ws.subset is not None and _subset_budget(m, width) >= 0:
        subset = ws.subset.start(h_d)

    # _sigma divides by zero where a whole sector has stopped, and may overflow
    # where little of it survives
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if trace is not None:
            ones = np.ones(n)
            sigma0 = _sigma(m.s_out, (m.sector_op @ ones)[m.sector_of], np.empty(n))
            trace.append(CascadeState(h_d=ones, h_u=ones, sigma=sigma0,
                                      pi_tilde=np.ones(m.n_groups)))

        for t in range(1, max_iter + 1):
            dec = None if subset is None else subset.step(h_d, h_u, (rows, cols, vals), done)
            if dec is None:
                subset = None
                _spmm(m.sector_op, h_d, sector).take(m.sector_of, axis=0, out=work, mode="clip")
                sigma = _sigma(s_out, work, work)
                # the per-firm weighted drop is folded before the product, so
                # every edge costs one multiply-add per column; hd_new is free
                # until the group maximum fills it
                np.subtract(1.0, h_d, out=hd_new)
                np.multiply(sigma, hd_new, out=hd_new)
                _spmm(m.down_op, hd_new, y)
                if trace is not None:
                    pi_tilde = _clip01(np.subtract(1.0, y[m.slots.rows, 0]))

                # min over a buyer's groups of clip(1 - y, 0, 1) is clip(1 - max y, 0, 1)
                # bit for bit, as both maps are monotone
                top = _group_max(y, m.slots)
                _clip01(np.subtract(1.0, top, out=top))
                hd_new.fill(1.0)
                hd_new[m.slots.buyers] = top

                # upstream: demand-weighted buyer levels plus the unobserved remainder
                _spmm(m.up_op, h_u, hu_new)
                _clip01(np.add(hu_new, u_resid, out=hu_new))
                for h in (hd_new.reshape(-1), hu_new.reshape(-1)):
                    h[capped] = np.minimum(h[capped], vals)

                if trace is not None:
                    trace.append(CascadeState(h_d=hd_new[:, 0].copy(), h_u=hu_new[:, 0].copy(),
                                              sigma=sigma[:, 0].copy(), pi_tilde=pi_tilde))
                np.subtract(h_d, hd_new, out=work)
                np.subtract(h_u, hu_new, out=h_u)  # the old upstream levels are done with
                np.maximum(work, h_u, out=work)
                dec = _column_max(work)
                h_d, hd_new, h_u, hu_new = hd_new, h_d, hu_new, h_u
                flats[0], flats[1], flats[3], flats[4] = flats[1], flats[0], flats[4], flats[3]

            ok = dec <= epsilon
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
                h_d, hd_new, work, h_u, hu_new, y, sector, s_out, u_resid = views(w)
                live = pos[cols] >= 0
                rows, cols, vals = rows[live], pos[cols[live]], vals[live]
                capped = rows * w + cols
                col_of, done = col_of[keep], done[keep]
                subset = None  # its q and sector sums are not compacted
    return out_d, out_u, T, converged


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
        firms = np.arange(matrices.n, dtype=matrices.up_op.indices.dtype)
        matrices = dataclasses.replace(matrices, sector_of=firms, sector_op=sparse.csr_array(
            (matrices.s_out, (firms, firms)), shape=(matrices.n, matrices.n)))

    capped = np.flatnonzero(psi < 1.0)
    trace: list[CascadeState] | None = [] if record_trace else None
    h_d, h_u, T, converged = _iterate(
        matrices, (capped, np.zeros_like(capped), psi[capped]), 1, epsilon, max_iter, trace=trace)
    h_d, h_u = h_d[0], h_u[0]
    h_final = np.minimum(h_d, h_u)
    for a in (h_final, h_d, h_u):
        a.flags.writeable = False
    return CascadeResult(
        h_final=h_final, h_d_final=h_d, h_u_final=h_u, T=int(T[0]),
        converged=bool(converged[0]), trace=tuple(trace) if trace is not None else None,
    )
