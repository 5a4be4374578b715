"""Slow dense re-implementation of the cascade used as a test oracle.

Everything here is written from the model rules directly: plain loops,
dense matrices, dictionaries keyed by firm id. No code is shared with the
package beyond the input dataclasses, so agreement between the two is
meaningful evidence rather than a tautology.

The network builder and the coverage rescaling at the end are the
package's earlier per-edge and per-firm loops, kept as references for the
columnar versions that replaced them. They fill the package's own result
classes, so the two can be compared field by field. The row-by-row CSV
reader of the command line is kept the same way, for its block reader, and
so is the impact-operator build that ordered the edges with np.lexsort. That
build leaves its shares unscaled and keeps each group's buyer and sector
(ReferenceMatrices); the rescaling then scales the operators' rows in a
second pass, where the package shrinks each share as it forms it. The
sector shock experiment at the end is the earlier one, which ran its
sector-wide shock apart from the firm scenarios; the package runs them all
as the rows of one shock matrix.

reference_whole_step is the numpy iteration of every row that the
compiled kernel replaced, kept as the oracle its bytes are checked against;
so are reference_subset_step, the numpy row-subset step, and
reference_finish, the numpy finishing and compaction of a block's columns.

The generalized-Leontief production function (its calibration from the
observed inputs and its evaluation) lives only here: the cascade reads the
firms' production functions only through the impact operators, so the
package never calibrates one.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from scipy import sparse

from prodrisk.analysis import SectorShockReport, _pearson
from prodrisk.cascade import ImpactMatrices, _residual_demand, run_cascade
from prodrisk.cli import EDGES_HEADER, FIRMS_HEADER, _parse_amount, _parse_income
from prodrisk.netcore import (DataError, FirmRecord, NetworkError, ProductionNetwork,
                              normalize_nace4)
from prodrisk.prodfun import ESS_ALL, ESS_NONE, ScenarioSpec, inputs_are_essential

PHYS = {f"{p:02d}" for p in range(1, 46)}
SENTINEL = "unclassified"


def is_physical(code: str) -> bool:
    return code != SENTINEL and code[:2] in PHYS


def essential_lookup(scenario: str, buyer_code: str, supplier_code: str) -> bool:
    """Is an input from supplier_code essential for a buyer in buyer_code?"""
    if scenario == "lin":
        return False
    if scenario == "leo":
        return True
    if scenario == "mix":
        return is_physical(buyer_code)
    if scenario == "gl":
        return is_physical(buyer_code) and is_physical(supplier_code)
    raise AssertionError(scenario)


class DenseNet:
    """Dense W[j, i] = volume from supplier j to buyer i, plus firm metadata."""

    def __init__(self, firms, edges):
        self.ids = [f.firm_id for f in firms]
        self.code = {f.firm_id: (f.nace4 if f.nace4 else SENTINEL) for f in firms}
        self.revenue = {f.firm_id: f.revenue for f in firms}
        self.material_cost = {f.firm_id: f.material_cost for f in firms}
        self.pos = {fid: k for k, fid in enumerate(self.ids)}
        n = len(self.ids)
        W = np.zeros((n, n))
        for sid, bid, w in edges:
            if sid == bid:
                continue
            W[self.pos[sid], self.pos[bid]] += w
        self.W = W
        self.n = n
        self.s_out = W.sum(axis=1)
        self.s_in = W.sum(axis=0)


def dense_net(net) -> DenseNet:
    """Rebuild the dense view from a package network object."""
    edges = []
    for e in range(net.n_edges):
        edges.append((net.firm_ids[net.sup[e]],
                      net.firm_ids[net.buy[e]],
                      float(net.w[e])))
    firms = [FirmRecord(fid, net.sectors[k], *(None if math.isnan(x) else x for x in figures))
             for fid, k, *figures in zip(net.firm_ids, net.sector_of,
                                         net.revenue.tolist(), net.material_cost.tolist())]
    return DenseNet(firms, edges)


def impact_coefficients(dn: DenseNet, scenario: str):
    """Per-edge downstream/upstream coefficients before coverage scaling.

    Returns (lam_d, essential mask, lam_u, list of sector codes per firm).
    lam_d[j, i]: essential edges carry j's share among i's inputs from j's
    sector, others j's share of all of i's inputs. lam_u[j, i]: buyer j's
    share of supplier i's sales.
    """
    n, W = dn.n, dn.W
    codes = [dn.code[fid] for fid in dn.ids]
    lam_d = np.zeros((n, n))
    ess = np.zeros((n, n), dtype=bool)
    for i in range(n):
        by_sector: dict[str, float] = {}
        for j in range(n):
            if W[j, i] > 0:
                by_sector[codes[j]] = by_sector.get(codes[j], 0.0) + W[j, i]
        total = sum(by_sector.values())
        for j in range(n):
            if W[j, i] <= 0:
                continue
            if essential_lookup(scenario, codes[i], codes[j]):
                ess[j, i] = True
                lam_d[j, i] = W[j, i] / by_sector[codes[j]]
            else:
                lam_d[j, i] = W[j, i] / total
    lam_u = np.zeros((n, n))
    for i in range(n):
        if dn.s_out[i] > 0:
            for j in range(n):
                if W[i, j] > 0:
                    lam_u[j, i] = W[i, j] / dn.s_out[i]
    return lam_d, ess, lam_u, codes


def coverage_factors(dn: DenseNet):
    """Receiver-side shrink factors from income-statement figures."""
    fu = np.ones(dn.n)
    fd = np.ones(dn.n)
    for k, fid in enumerate(dn.ids):
        rev = dn.revenue[fid]
        cost = dn.material_cost[fid]
        if rev is not None and rev > 0:
            fu[k] = min(1.0, dn.s_out[k] / rev)
        if cost is not None and cost > 0:
            fd[k] = min(1.0, dn.s_in[k] / cost)
    return fd, fu


def reference_cascade(dn: DenseNet, scenario: str, psi, epsilon=1e-2, max_iter=1000,
                      apply_coverage=True, sigma_fixed=None):
    """Run the synchronous recursion with explicit loops.

    Returns a dict with the per-iteration history of h_d, h_u and sigma plus
    the final levels, T and the convergence flag.
    """
    n = dn.n
    lam_d, ess, lam_u, codes = impact_coefficients(dn, scenario)
    if apply_coverage:
        fd, fu = coverage_factors(dn)
        lam_d = lam_d * fd[np.newaxis, :]
        lam_u = lam_u * fu[np.newaxis, :]
    resid = np.array([max(0.0, 1.0 - lam_u[:, i].sum()) for i in range(n)])

    psi = np.asarray(psi, dtype=float)
    h_d = np.ones(n)
    h_u = np.ones(n)
    hist_d, hist_u, hist_sigma = [h_d.copy()], [h_u.copy()], []

    def sigma_of(hd):
        if sigma_fixed is not None:
            return np.asarray(sigma_fixed, dtype=float).copy()
        out = np.ones(n)
        for k in range(n):
            alive = 0.0
            for l in range(n):
                if codes[l] == codes[k]:
                    alive += dn.s_out[l] * hd[l]
            if alive > 0:
                out[k] = min(1.0, dn.s_out[k] / alive)
        return out

    hist_sigma.append(sigma_of(np.ones(n)))
    T, converged = max_iter, False
    for t in range(1, max_iter + 1):
        sigma = sigma_of(h_d)
        hd_new = np.empty(n)
        for i in range(n):
            candidates = [1.0]
            sectors_here = {codes[j] for j in range(n) if ess[j, i]}
            for sec in sorted(sectors_here):
                pen = 0.0
                for j in range(n):
                    if ess[j, i] and codes[j] == sec:
                        pen += sigma[j] * lam_d[j, i] * (1.0 - h_d[j])
                candidates.append(1.0 - pen)
            pen = 0.0
            pooled = False
            for j in range(n):
                if lam_d[j, i] > 0 and not ess[j, i]:
                    pen += sigma[j] * lam_d[j, i] * (1.0 - h_d[j])
                    pooled = True
            if pooled:
                candidates.append(1.0 - pen)
            hd_new[i] = min(max(min(candidates), 0.0), psi[i])
        hu_new = np.empty(n)
        for i in range(n):
            acc = 0.0
            for j in range(n):
                acc += lam_u[j, i] * h_u[j]
            level = acc + resid[i]
            hu_new[i] = min(max(min(level, psi[i]), 0.0), 1.0)
        dec = max(np.max(h_d - hd_new), np.max(h_u - hu_new))
        h_d, h_u = hd_new, hu_new
        hist_d.append(h_d.copy())
        hist_u.append(h_u.copy())
        hist_sigma.append(sigma)
        if dec <= epsilon:
            T, converged = t, True
            break
    return {
        "h_d": hist_d, "h_u": hist_u, "sigma": hist_sigma,
        "h_final": np.minimum(h_d, h_u), "T": T, "converged": converged,
    }


def reference_esri(dn: DenseNet, scenario: str, epsilon=1e-2, max_iter=1000,
                   apply_coverage=True):
    """Index of every firm: total out-strength-weighted loss after its failure."""
    total = dn.s_out.sum()
    out = np.empty(dn.n)
    for k in range(dn.n):
        psi = np.ones(dn.n)
        psi[k] = 0.0
        res = reference_cascade(dn, scenario, psi, epsilon=epsilon,
                                max_iter=max_iter, apply_coverage=apply_coverage)
        out[k] = float(np.sum(dn.s_out * (1.0 - res["h_final"])) / total)
    return out


def reference_filter(events):
    """Long-term link filter done with dictionaries: >= 2 events, >= 90 days."""
    seen: dict[tuple[str, str], list] = {}
    for ev in events:
        if ev.supplier_id == ev.buyer_id:
            continue
        key = (ev.supplier_id, ev.buyer_id)
        if key not in seen:
            seen[key] = [0, ev.date, ev.date, 0.0]
        rec = seen[key]
        rec[0] += 1
        rec[1] = min(rec[1], ev.date)
        rec[2] = max(rec[2], ev.date)
        rec[3] += float(ev.amount)
    out = []
    for (sid, bid), (cnt, lo, hi, total) in sorted(seen.items()):
        if cnt >= 2 and (hi - lo).days >= 90:
            out.append((sid, bid, total))
    return out


def edge_blocks(triples, cuts=()):
    """build_network's column blocks of a list of edge triples, cut before
    each index in cuts; one block when there is no cut."""
    bounds = [0, *sorted(cuts), len(triples)]
    return [([s for s, _, _ in part], [b for _, b, _ in part], [w for _, _, w in part])
            for part in (triples[a:b] for a, b in zip(bounds, bounds[1:]))]


def reference_read_table(path, header):
    """Rows of a CSV file with the given header, as (line number, fields),
    one csv.reader row at a time; the header row is optional. A row
    csv.reader rejects is a DataError naming its line."""
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"{path}: no such file")
    header = list(header)
    with open(p, encoding="utf-8", newline="") as fh:
        lineno = 0
        try:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                if lineno == 1 and row == header:
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"{path} line {lineno}: expected {len(header)} fields, got {len(row)}")
                yield lineno, row
        except csv.Error as exc:
            raise DataError(f"{path} line {lineno + 1}: {exc}") from None


def reference_read_firms(path) -> list[FirmRecord]:
    return [FirmRecord(fid, nace, _parse_income(path, lineno, "revenue", rev),
                       _parse_income(path, lineno, "material_cost", cost))
            for lineno, (fid, nace, rev, cost) in reference_read_table(path, FIRMS_HEADER)]


def reference_read_edges(path):
    """Edge triples streamed from the file; weights must be finite and >= 0."""
    return ((sid, bid, _parse_amount(path, lineno, "weight", w))
            for lineno, (sid, bid, w) in reference_read_table(path, EDGES_HEADER))


def reference_build_network(firms, raw_edges) -> ProductionNetwork:
    """Per-edge dictionary build: sum parallel edges into a dict keyed by
    (supplier, buyer) in input order, then sort the keys."""
    seen: set[str] = set()
    cleaned = []
    for f in firms:
        if f.firm_id in seen:
            raise NetworkError(f"duplicate firm_id {f.firm_id!r}")
        seen.add(f.firm_id)
        for label, value in (("revenue", f.revenue), ("material_cost", f.material_cost)):
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise NetworkError(
                    f"firm {f.firm_id!r} has {label} {value!r}: expected None or finite and >= 0")
        code = normalize_nace4(f.nace4)
        if code != f.nace4:
            f = FirmRecord(f.firm_id, code, f.revenue, f.material_cost)
        cleaned.append(f)
    index = {f.firm_id: i for i, f in enumerate(cleaned)}

    acc: dict[tuple[int, int], float] = {}
    self_loops = 0
    for sid, bid, weight in raw_edges:
        if sid not in index:
            raise NetworkError(f"edge references unknown firm_id {sid!r}")
        if bid not in index:
            raise NetworkError(f"edge references unknown firm_id {bid!r}")
        weight = float(weight)
        if weight < 0 or not math.isfinite(weight):
            raise NetworkError(f"edge ({sid!r}, {bid!r}) has invalid weight {weight}")
        if weight == 0:
            continue
        i, j = index[sid], index[bid]
        if i == j:
            self_loops += 1
            continue
        acc[(i, j)] = acc.get((i, j), 0.0) + weight

    pairs = sorted(acc)
    sup = np.array([p[0] for p in pairs], dtype=np.int64)
    buy = np.array([p[1] for p in pairs], dtype=np.int64)
    w = np.array([acc[p] for p in pairs], dtype=np.float64)
    return ProductionNetwork([f.firm_id for f in cleaned], index, [f.nace4 for f in cleaned],
                             [f.revenue for f in cleaned], [f.material_cost for f in cleaned],
                             sup, buy, w, self_loops_dropped=self_loops)


def reference_input_matrix(net) -> list[dict[str, float]]:
    """Per-edge loop: row j adds each edge into j under its supplier's sector."""
    rows: list[dict[str, float]] = [dict() for _ in range(net.n)]
    for e in range(net.n_edges):
        row = rows[net.buy[e]]
        code = net.sectors[net.sector_of[net.sup[e]]]
        row[code] = row.get(code, 0.0) + net.w[e]
    return rows


def input_is_essential(spec: ScenarioSpec, firm: int, sector_code: str) -> bool:
    """Does firm treat inputs from the given sector as essential?"""
    c = int(spec.essential_class[firm])
    if c == ESS_ALL:
        return True
    if c == ESS_NONE:
        return False
    return is_physical(sector_code)


@dataclass(frozen=True)
class GLParams:
    """Calibrated generalized-Leontief parameters for every firm.

    alpha[i] maps each essential input sector with observed volume to its
    technical coefficient (input per unit of output). beta_tilde[i] is the
    fraction of output attainable with essential inputs alone, 1 for firms
    without inputs. Firms with zero baseline output keep empty alpha maps.
    """

    spec: ScenarioSpec
    x0: np.ndarray
    beta_tilde: np.ndarray
    alpha: tuple[dict[str, float], ...]
    input_total: np.ndarray


def reference_calibrate(net, spec: ScenarioSpec) -> GLParams:
    """Read technical coefficients off the observed network, one firm at a time.

    Baseline output x0 is the firm's out-strength. For each essential sector
    with observed input volume, alpha is that volume divided by x0. beta_tilde
    is the essential share of total input value, with the convention 1 for
    firms that buy nothing.
    """
    rows = reference_input_matrix(net)
    n = net.n
    x0 = np.array(net.s_out, dtype=np.float64)
    beta = np.ones(n)
    alphas = []
    in_total = np.zeros(n)
    for i in range(n):
        ess: dict[str, float] = {}
        ess_sum = 0.0
        total = 0.0
        for code, val in rows[i].items():
            total += val
            if input_is_essential(spec, i, code):
                ess[code] = val
                ess_sum += val
        in_total[i] = total
        if total > 0:
            beta[i] = ess_sum / total
        alphas.append({code: val / x0[i] for code, val in ess.items()} if x0[i] > 0 else {})
    return GLParams(spec=spec, x0=x0, beta_tilde=beta, alpha=tuple(alphas),
                    input_total=in_total)


def evaluate_gl(params: GLParams, firm: int, available: Mapping[str, float]) -> float:
    """Output of one firm given available input volumes per sector.

    Output is the minimum of the Leontief branch (scarcest essential input
    over its coefficient) and the linear branch (base level plus the summed
    non-essential inputs scaled by the overall input intensity). Evaluated at
    the observed inputs this reproduces the baseline output.
    """
    x0 = float(params.x0[firm])
    if x0 == 0:
        return 0.0

    ess_branch = np.inf
    for code, a in params.alpha[firm].items():
        ess_branch = min(ess_branch, float(available.get(code, 0.0)) / a)

    total = float(params.input_total[firm])
    if total == 0:
        lin_branch = x0
    else:
        ne_avail = 0.0
        for code, val in available.items():
            if not input_is_essential(params.spec, firm, code):
                ne_avail += float(val)
        lin_branch = params.beta_tilde[firm] * x0 + ne_avail * x0 / total

    return float(min(ess_branch, lin_branch))


def replaceability(h_d: np.ndarray, net) -> np.ndarray:
    """Replaceability factor of every firm given downstream levels h_d.

    A firm's factor is its baseline out-strength divided by the surviving
    output of its whole sector (itself included), capped at 1. A sector with
    no surviving output gives factor 1: nothing is left to substitute with.
    The kernel's traced factors must agree with these bit for bit, so the
    sector sums run in firm order and the division comes before the cap.
    """
    h_d = np.asarray(h_d, dtype=np.float64)
    live = np.bincount(net.sector_of, weights=net.s_out * h_d, minlength=len(net.sectors))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.fmin(net.s_out / live[net.sector_of], 1.0)


def _scale_rows(op: sparse.csr_array, fac: np.ndarray) -> sparse.csr_array:
    """op with row r multiplied by fac[r]; shares the index arrays of op."""
    data = op.data * np.repeat(fac, np.diff(op.indptr))
    return sparse.csr_array((data, op.indices, op.indptr), shape=op.shape)


def reference_rescale_for_coverage(matrices: ReferenceMatrices, firms) -> ReferenceMatrices:
    """Per-firm loop over the income figures, then a scaling of the operators' rows.

    The package shrinks each share as it forms it; this is the earlier
    second pass over the unscaled operators of reference_build_impact_matrices.
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


def reference_downstream_entries(net, spec: ScenarioSpec):
    """Downstream share and constraint group of every edge, by (buyer, supplier).

    The earlier build: the edge order comes from np.lexsort, and every index
    is int64. Returns the supplier, share and group index of each edge, and
    the sorted group keys buyer * (n_sectors + 1) + (1 + sector, or 0 for the
    pooled group).
    """
    n_sectors = len(net.sectors)
    d_ord = np.lexsort((net.sup, net.buy))
    d_sup = net.sup[d_ord]
    d_buy = net.buy[d_ord]
    d_w = net.w[d_ord]
    d_sector = net.sector_of[d_sup]
    d_ess = inputs_are_essential(net, spec, d_buy, d_sector)

    # denominators of essential entries: same-sector input totals per buyer
    pair_key = d_buy * n_sectors + d_sector
    pair_uniq, pair_inv = np.unique(pair_key, return_inverse=True)
    pair_sum = np.bincount(pair_inv, weights=d_w)
    lam_d = np.where(d_ess, d_w / pair_sum[pair_inv], d_w / net.s_in[d_buy])

    # constraint groups: one per (buyer, essential sector), one pooled per buyer
    gkey = d_buy * np.int64(n_sectors + 1) + np.where(d_ess, 1 + d_sector, 0)
    guniq, d_group = np.unique(gkey, return_inverse=True)
    return d_sup, lam_d, d_group, guniq


@dataclass(frozen=True)
class ReferenceMatrices(ImpactMatrices):
    """ImpactMatrices with the per-group keys and in-strengths the package no longer keeps.

    group_buyer and group_sector are in group order; group_sector is -1 for
    a buyer's pooled group.
    """

    s_in: np.ndarray
    group_buyer: np.ndarray
    group_sector: np.ndarray


def reference_build_impact_matrices(net, spec: ScenarioSpec) -> ReferenceMatrices:
    """The earlier build_impact_matrices, with int64 coordinates for all three operators.

    Its shares are not shrunk for coverage: reference_rescale_for_coverage
    does that in a second pass.
    """
    n, n_sectors = net.n, len(net.sectors)
    d_sup, lam_d, d_group, guniq = reference_downstream_entries(net, spec)
    group_buyer = guniq // (n_sectors + 1)
    group_sector = guniq % (n_sectors + 1) - 1
    _, seg_starts = np.unique(group_buyer, return_index=True)
    group_ptr = np.searchsorted(group_buyer, np.arange(n + 1))
    down_op = sparse.csr_array((lam_d, (d_group, d_sup)), shape=(len(guniq), n))
    up_op = sparse.csr_array((net.w / net.s_out[net.sup], (net.sup, net.buy)), shape=(n, n))
    sector_op = sparse.csr_array((net.s_out, (net.sector_of, np.arange(n))), shape=(n_sectors, n))
    for op in (down_op, up_op, sector_op):
        op.sort_indices()
    return ReferenceMatrices(
        n=n, s_out=net.s_out, sector_of=net.sector_of, n_groups=len(guniq),
        seg_starts=seg_starts, group_ptr=group_ptr, u_resid=_residual_demand(up_op),
        down_op=down_op, up_op=up_op, sector_op=sector_op,
        s_in=net.s_in, group_buyer=group_buyer, group_sector=group_sector,
    )


def _clip01(a: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(a, 0.0), 1.0)


def _downstream(m: ImpactMatrices, q: np.ndarray) -> np.ndarray:
    """Every firm's clip(1 - its largest downstream product), 1 without groups."""
    y = m.down_op @ q
    hd_new = np.ones_like(q)
    buyers = np.flatnonzero(np.diff(m.group_ptr))
    if len(buyers):
        hd_new[buyers] = _clip01(1.0 - np.maximum.reduceat(y, m.seg_starts, axis=0))
    return hd_new


def _sigma(m: ImpactMatrices, sector: np.ndarray, firms) -> np.ndarray:
    """fmin(s_out / the sector sum, 1) of the given firms, from (n_sectors, width) sums."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.fmin(m.s_out[firms, None] / sector[m.sector_of[firms]], 1.0)


def reference_whole_step(m: ImpactMatrices, h_d: np.ndarray, h_u: np.ndarray):
    """One iteration of every row in numpy and scipy calls: the step kernel.c replaced.

    h_d and h_u are (n, width) levels. Returns the new levels hd_new and
    hu_new, each column's largest decrement over both recursions, q = sigma
    (1 - h_d) and the (n_sectors, width) sector sums. The products are
    scipy's, which sum from 0.0 in stored column order; each buyer's group
    maximum is np.maximum.reduceat over its contiguous groups. The compiled
    kernel must give these arrays bit for bit.
    """
    sector = m.sector_op @ h_d
    q = _sigma(m, sector, slice(None)) * (1.0 - h_d)
    hd_new = _downstream(m, q)
    hu_new = _clip01(m.up_op @ h_u + m.u_resid[:, None])
    dec = np.maximum(h_d - hd_new, h_u - hu_new).max(axis=0)
    return hd_new, hu_new, dec, q, sector


@dataclass
class SubsetState:
    """The state a row-subset step starts from (the compiled kernel's Block, in numpy).

    h_d and h_u are the (n, width) capped levels; q and sector hold q and
    the sector sums of the levels the last step started from; damaged marks
    the firms whose h_d has moved; changed_d and changed_u list, ascending,
    the firms whose levels fell in the last step in a live column; done marks
    the finished columns.
    """

    h_d: np.ndarray
    h_u: np.ndarray
    q: np.ndarray
    sector: np.ndarray
    damaged: np.ndarray
    changed_d: np.ndarray
    changed_u: np.ndarray
    done: np.ndarray


def subset_counts(m: ImpactMatrices, s: SubsetState) -> tuple[int, int]:
    """The down_op and up_op nonzeros a row-subset step from s recomputes."""
    in_ptr = m.down_op.indptr[m.group_ptr]
    return (int(np.diff(in_ptr)[_q_buyers(m, s)[2]].sum()),
            int(np.diff(m.up_op.indptr)[_suppliers(m, in_ptr, s.changed_u)].sum()))


def _q_buyers(m: ImpactMatrices, s: SubsetState):
    """The sectors of changed_d, the damaged firms in them, and the buyers of those firms."""
    sectors = np.unique(m.sector_of[s.changed_d]).astype(np.intp)
    q_rows = np.flatnonzero(s.damaged & np.isin(m.sector_of, sectors))
    buyers = np.unique(m.up_op[q_rows].indices).astype(np.intp)
    return sectors, q_rows, buyers


def _suppliers(m: ImpactMatrices, in_ptr: np.ndarray, buyers: np.ndarray) -> np.ndarray:
    """The distinct suppliers of the given buyers, ascending."""
    nz = [m.down_op.indices[in_ptr[b]:in_ptr[b + 1]] for b in buyers]
    return np.unique(np.concatenate(nz) if nz else np.empty(0, np.intp)).astype(np.intp)


def reference_subset_step(m: ImpactMatrices, s: SubsetState, budget: int, caps=None):
    """The row-subset step of the compiled kernel in numpy and scipy calls, on a copy of s.

    This is the numpy glue of the earlier row-subset step: it recomputes the
    sums of the sectors of changed_d, q of the damaged firms of those sectors,
    every buyer of those firms and the up_op rows of the suppliers of
    changed_u, and nothing else. It declines, returning None, where those
    rows hold more than budget nonzeros of down_op and up_op together.
    Otherwise it returns the state after the step and the caps (flat
    positions, values), with changed_d and changed_u the firms whose level
    fell in a live column, and each column's largest decrement, 0 in a done
    column.
    """
    if sum(subset_counts(m, s)) > budget:
        return None
    s = SubsetState(*(np.copy(a) for a in dataclasses.astuple(s)))
    sectors, q_rows, buyers = _q_buyers(m, s)
    up_rows = _suppliers(m, m.down_op.indptr[m.group_ptr], s.changed_u)
    s.sector[sectors] = m.sector_op[sectors] @ s.h_d
    s.q[q_rows] = _sigma(m, s.sector, q_rows) * (1.0 - s.h_d[q_rows])
    hd_rows = _downstream(m, s.q)[buyers]
    hu_rows = _clip01(m.up_op[up_rows] @ s.h_u + m.u_resid[up_rows, None])
    live = ~s.done
    dec = np.zeros(s.h_d.shape[1])
    moved = []
    for h, rows, new in ((s.h_d, buyers, hd_rows), (s.h_u, up_rows, hu_rows)):
        d = np.where(live, h[rows] - new, 0.0)
        if len(rows):
            dec = np.maximum(dec, d.max(axis=0))
        moved.append(rows[(d > 0.0).any(axis=1)])
        h[rows] = new
    s.changed_d, s.changed_u = moved
    s.damaged[s.changed_d] = True
    if caps is not None:
        at, vals = caps
        for h in (s.h_d.reshape(-1), s.h_u.reshape(-1)):
            h[at] = np.minimum(h[at], vals)
    return s, dec


def reference_finish(h_d, h_u, dec, done, col_of, T, converged, out_d, out_u, caps, t, max_iter,
                     epsilon):
    """The numpy finishing and compaction of the earlier cascade loop, after iteration t.

    A live column stops where its decrement is at most epsilon, or at t =
    max_iter: its levels go to its rows of out_d and out_u, and its T and
    converged flag to its place in T and converged (which start at max_iter
    and False), all in place. Once at least half of the columns are done,
    the live ones are compacted. Returns the levels, col_of, done and caps
    (rows, cols, values) after that.
    """
    rows, cols, vals = caps
    w = h_d.shape[1]
    ok = dec <= epsilon
    if t < max_iter and not ok.any():
        return h_d, h_u, col_of, done, caps
    finished = ~done if t == max_iter else ~done & ok
    for j in np.flatnonzero(finished):
        c = col_of[j]
        out_d[c], out_u[c] = h_d[:, j], h_u[:, j]
        if ok[j]:
            T[c], converged[c] = t, True
    done = done | finished
    n_done = np.count_nonzero(done)
    if n_done == w or 2 * n_done < w:
        return h_d, h_u, col_of, done, caps
    keep = np.flatnonzero(~done)
    pos = np.full(w, -1)
    pos[keep] = np.arange(len(keep))
    live = pos[cols] >= 0
    return (np.take(h_d, keep, axis=1), np.take(h_u, keep, axis=1), col_of[keep], done[keep],
            (rows[live], pos[cols[live]], vals[live]))


def _received_by_sector(net: ProductionNetwork, h_final: np.ndarray) -> np.ndarray:
    """Fraction of each sector's out-strength lost at the fixed point."""
    loss = net.s_out * (1.0 - h_final)
    num = np.bincount(net.sector_of, weights=loss, minlength=len(net.sectors))
    den = np.bincount(net.sector_of, weights=net.s_out, minlength=len(net.sectors))
    out = np.zeros(len(net.sectors))
    np.divide(num, den, out=out, where=den > 0)
    return out


def reference_sector_shock_experiment(net: ProductionNetwork, matrices: ImpactMatrices,
                                      sector: str, magnitude: float,
                                      firm_scenarios: Sequence[Mapping[str, float]],
                                      labels: Sequence[str] | None = None,
                                      epsilon: float = 1e-2,
                                      max_iter: int = 1000) -> SectorShockReport:
    """The earlier sector_shock_experiment: the reference run on a path of its
    own, and deviations and correlations one scenario at a time.

    Compares a sector-wide shock against size-equivalent firm-level shocks.

    The reference run shocks every firm of the sector by the given magnitude.
    Each firm scenario maps firm ids to remaining capacities psi and must
    remove the same total strength, magnitude times the sector's combined
    in- plus out-strength, within 1e-9 relative; anything else is rejected
    because the whole point is comparing equally sized shocks. The report
    collects per-sector received shocks, their ratios to the reference, and
    the correlation matrix of the scenario deviation vectors.
    """
    sector_id = net.sectors.index(sector) if sector in net.sectors else -1
    member_idx = np.flatnonzero(net.sector_of == sector_id)
    if not len(member_idx):
        raise DataError(f"sector {sector!r} has no firms in this network")
    if not 0.0 < magnitude <= 1.0:
        raise ValueError("magnitude must lie in (0, 1]")

    s_total = net.s_in + net.s_out
    required = magnitude * float(np.sum(s_total[member_idx]))

    if labels is None:
        labels = tuple(f"scenario_{k + 1}" for k in range(len(firm_scenarios)))
    else:
        labels = tuple(labels)
        if len(labels) != len(firm_scenarios):
            raise ValueError("need exactly one label per scenario")

    psi_runs: list[np.ndarray] = []
    for label, assignment in zip(labels, firm_scenarios):
        psi = np.ones(net.n)
        for fid, p in assignment.items():
            idx = net.index_of.get(fid)
            if idx is None:
                raise ValueError(f"{label}: unknown firm id {fid!r}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label}: psi for {fid!r} must lie in [0, 1]")
            psi[idx] = p
        size = float(np.sum((1.0 - psi) * s_total))
        if abs(size - required) > 1e-9 * required or (required == 0.0 and size != 0.0):
            raise ValueError(
                f"{label}: initial shock removes strength {size!r}, the experiment "
                f"requires {required!r} (magnitude {magnitude} of sector {sector})")
        psi_runs.append(psi)

    psi_ref = np.ones(net.n)
    psi_ref[member_idx] = 1.0 - magnitude

    ref_res = run_cascade(net, matrices, None, psi_ref, epsilon=epsilon, max_iter=max_iter)
    received_ref = _received_by_sector(net, ref_res.h_final)
    converged = ref_res.converged

    k = len(psi_runs)
    n_sec = len(net.sectors)
    received = np.empty((k, n_sec))
    for row, psi in enumerate(psi_runs):
        res = run_cascade(net, matrices, None, psi, epsilon=epsilon, max_iter=max_iter)
        converged = converged and res.converged
        received[row] = _received_by_sector(net, res.h_final)

    # ratio to the reference; an untouched sector staying untouched counts as 1
    rel_dev = np.empty((k, n_sec))
    ref_pos = received_ref > 0
    for row in range(k):
        np.divide(received[row], received_ref, out=rel_dev[row], where=ref_pos)
        rel_dev[row, ~ref_pos] = np.where(received[row, ~ref_pos] > 0, math.inf, 1.0)

    if k > 0:
        sort_key = rel_dev[0]
    else:
        sort_key = received_ref
    order = sorted(range(n_sec), key=lambda s: (-sort_key[s], net.sectors[s]))
    order_idx = np.asarray(order, dtype=np.intp)

    correlation = None
    if k > 0:
        correlation = np.empty((k, k))
        for a in range(k):
            for b in range(k):
                correlation[a, b] = _pearson(rel_dev[a, ref_pos], rel_dev[b, ref_pos])

    return SectorShockReport(
        sectors=tuple(net.sectors[s] for s in order),
        received_ref=received_ref[order_idx],
        received=received[:, order_idx],
        rel_dev=rel_dev[:, order_idx],
        labels=labels,
        deviation_correlation=correlation,
        converged=converged,
    )
