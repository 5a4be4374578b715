"""Production-network core: build, validate, filter, synthesize, aggregate.

A production network is a directed graph of firms where an edge (i -> j)
carries the annual monetary volume supplier i delivers to buyer j. Firms
carry a 4-digit industry code (nace4) that defines the product category;
firms without a code fall into a sentinel category.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from datetime import date as _date
from typing import Iterable, Mapping, Sequence

import numpy as np

SENTINEL_SECTOR = "unclassified"

# 2-digit prefixes 01-45 mark physical production, 46-99 trade and services.
PHYSICAL_PREFIX_MAX = 45


class NetworkError(Exception):
    """Raised when input data cannot form a valid production network."""


class DataError(Exception):
    """Raised when input data is structurally valid but unusable."""


@dataclass(frozen=True)
class FirmRecord:
    """One firm: opaque id, industry code, optional income-statement data.

    revenue and material_cost are totals from outside the observed network;
    None means the figure is unavailable.
    """

    firm_id: str
    nace4: str = SENTINEL_SECTOR
    revenue: float | None = None
    material_cost: float | None = None


@dataclass(frozen=True)
class TransactionEvent:
    """A single dated trade event between two firms."""

    supplier_id: str
    buyer_id: str
    date: _date
    amount: float


def normalize_nace4(code: str | None) -> str:
    """Map empty/missing codes to the sentinel category, validate the rest."""
    if code is None:
        return SENTINEL_SECTOR
    code = code.strip()
    if code == "" or code == SENTINEL_SECTOR:
        return SENTINEL_SECTOR
    if len(code) != 4 or not code.isdigit():
        raise NetworkError(f"invalid industry code {code!r}: expected 4 digits or {SENTINEL_SECTOR!r}")
    return code


def sector_is_physical(code: str) -> bool:
    """True for 2-digit prefixes 01-45; the sentinel counts as service."""
    if code == SENTINEL_SECTOR:
        return False
    return 1 <= int(code[:2]) <= PHYSICAL_PREFIX_MAX


class ProductionNetwork:
    """Immutable firm-level supplier-buyer graph.

    Edges are stored as parallel arrays (supplier index, buyer index, weight)
    in canonical order, sorted by (supplier, buyer). All arrays are read-only;
    the object is safe to share across threads and forked processes.
    """

    def __init__(self, firms: Sequence[FirmRecord], sup: np.ndarray, buy: np.ndarray,
                 w: np.ndarray, self_loops_dropped: int = 0):
        self.firms: tuple[FirmRecord, ...] = tuple(firms)
        self.n: int = len(self.firms)
        self.index_of: dict[str, int] = {f.firm_id: i for i, f in enumerate(self.firms)}
        self.sup = np.ascontiguousarray(sup, dtype=np.int64)
        self.buy = np.ascontiguousarray(buy, dtype=np.int64)
        self.w = np.ascontiguousarray(w, dtype=np.float64)
        self.self_loops_dropped = int(self_loops_dropped)

        # sector bookkeeping: stable sorted code list, integer code per firm
        self.sectors: tuple[str, ...] = tuple(sorted({f.nace4 for f in self.firms}))
        sector_id = {c: k for k, c in enumerate(self.sectors)}
        self.sector_of = np.array([sector_id[f.nace4] for f in self.firms], dtype=np.int64)
        members: dict[str, list[int]] = {c: [] for c in self.sectors}
        for i, f in enumerate(self.firms):
            members[f.nace4].append(i)
        self.sector_index: dict[str, tuple[int, ...]] = {c: tuple(v) for c, v in members.items()}

        # strengths, fixed accumulation order over the canonical edge arrays
        self.s_in = np.bincount(self.buy, weights=self.w, minlength=self.n)
        self.s_out = np.bincount(self.sup, weights=self.w, minlength=self.n)

        for a in (self.sup, self.buy, self.w, self.sector_of, self.s_in, self.s_out):
            a.flags.writeable = False
        self._fingerprint: str | None = None  # filled in by fingerprint()

    @property
    def n_edges(self) -> int:
        return int(self.sup.shape[0])

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.w))

    def sector_code(self, firm: int) -> str:
        return self.firms[firm].nace4


def build_network(firms: Sequence[FirmRecord],
                  raw_edges: Iterable[tuple[str, str, float]]) -> ProductionNetwork:
    """Validate firm and edge lists and assemble a ProductionNetwork.

    Parallel edges are summed, zero-weight edges dropped, self-loops dropped
    with a count kept on the result. Firms with a missing industry code are
    assigned the sentinel category.

    Raises NetworkError on duplicate firm ids, revenue or material cost that
    is NaN, infinite or negative, unknown edge endpoints, negative weights,
    or malformed industry codes.
    """
    seen: set[str] = set()
    cleaned: list[FirmRecord] = []
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
    return ProductionNetwork(cleaned, sup, buy, w, self_loops_dropped=self_loops)


def filter_long_term_links(events: Iterable[TransactionEvent]) -> list[tuple[str, str, float]]:
    """Keep only stable supplier relations and sum their traded amounts.

    A (supplier, buyer) pair survives iff it has at least two events and the
    span between its first and last event is at least 90 days. The annual
    weight of a kept pair is the sum of all its event amounts. Self-pairs are
    cleaned out. Output is sorted by (supplier_id, buyer_id).
    """
    stats: dict[tuple[str, str], list] = {}
    for ev in events:
        if ev.supplier_id == ev.buyer_id:
            continue
        amount = float(ev.amount)
        if amount <= 0 or not math.isfinite(amount):
            raise NetworkError(
                f"transaction ({ev.supplier_id!r}, {ev.buyer_id!r}) has non-positive amount {amount}")
        key = (ev.supplier_id, ev.buyer_id)
        rec = stats.get(key)
        if rec is None:
            stats[key] = [1, ev.date, ev.date, amount]
        else:
            rec[0] += 1
            if ev.date < rec[1]:
                rec[1] = ev.date
            if ev.date > rec[2]:
                rec[2] = ev.date
            rec[3] += amount

    kept = []
    for (sid, bid), (count, first, last, total) in stats.items():
        if count >= 2 and (last - first).days >= 90:
            kept.append((sid, bid, total))
    kept.sort(key=lambda t: (t[0], t[1]))
    return kept


def strengths(net: ProductionNetwork) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-firm (in-strength, out-strength, total strength)."""
    return net.s_in, net.s_out, net.s_in + net.s_out


def input_matrix(net: ProductionNetwork) -> list[dict[str, float]]:
    """Per-firm input totals grouped by the supplier's industry code.

    Row j maps each sector code to the total weight flowing into firm j from
    suppliers of that sector; row sums equal in-strengths.
    """
    rows: list[dict[str, float]] = [dict() for _ in range(net.n)]
    codes = net.sectors
    sec = net.sector_of
    for e in range(net.n_edges):
        row = rows[net.buy[e]]
        code = codes[sec[net.sup[e]]]
        row[code] = row.get(code, 0.0) + net.w[e]
    return rows


def market_shares(net: ProductionNetwork) -> np.ndarray:
    """Each firm's share of out-strength within its own sector.

    Firms in a sector with zero total out-strength get share 0.
    """
    sector_out = np.bincount(net.sector_of, weights=net.s_out, minlength=len(net.sectors))
    denom = sector_out[net.sector_of]
    shares = np.zeros(net.n)
    np.divide(net.s_out, denom, out=shares, where=denom > 0)
    return shares


def aggregate_to_sectors(net: ProductionNetwork) -> "SectorNetwork":
    """Collapse firm-level edges onto the sector-by-sector volume matrix."""
    s = len(net.sectors)
    key = net.sector_of[net.sup] * s + net.sector_of[net.buy]
    flat = np.bincount(key, weights=net.w, minlength=s * s)
    weights = flat.reshape(s, s)
    weights.flags.writeable = False
    return SectorNetwork(sectors=net.sectors, weights=weights)


@dataclass(frozen=True)
class SectorNetwork:
    """Sector-aggregated view of a production network."""

    sectors: tuple[str, ...]
    weights: np.ndarray

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic network generator.

    mean_out_degree controls edge count (approximately n_firms * mean_out_degree
    after deduplication). Weights are log-normal with parameters weight_mu and
    weight_sigma. share_physical_sectors of the sector codes get prefixes 01-45,
    the rest 46-99. Synthesized revenue is s_out / coverage and material cost
    s_in / coverage, so coverage = 1 means the network explains every figure.
    """

    n_firms: int
    n_sectors: int = 50
    mean_out_degree: float = 5.0
    weight_mu: float = 0.0
    weight_sigma: float = 1.0
    share_physical_sectors: float = 0.5
    coverage: float = 1.0

    def validate(self) -> None:
        if self.n_firms < 1:
            raise ValueError("n_firms must be >= 1")
        if self.n_sectors < 1:
            raise ValueError("n_sectors must be >= 1")
        if not self.mean_out_degree > 0:
            raise ValueError("mean_out_degree must be > 0")
        if not 0 <= self.share_physical_sectors <= 1:
            raise ValueError("share_physical_sectors must be in [0, 1]")
        if not 0 < self.coverage <= 1:
            raise ValueError("coverage must be in (0, 1]")
        if not self.weight_sigma >= 0:
            raise ValueError("weight_sigma must be >= 0")


def _sector_codes(n_sectors: int, share_physical: float) -> list[str]:
    """Distinct 4-digit codes with the requested physical/service split."""
    n_phys = int(round(n_sectors * share_physical))
    codes = []
    for t in range(n_sectors):
        if t < n_phys:
            prefix = 1 + t % PHYSICAL_PREFIX_MAX
            suffix = 10 + t // PHYSICAL_PREFIX_MAX
        else:
            u = t - n_phys
            prefix = 46 + u % 54
            suffix = 10 + u // 54
        codes.append(f"{prefix:02d}{suffix:02d}")
    return codes


def generate_synthetic(config: SyntheticConfig, seed: int) -> tuple[list[FirmRecord], list[tuple[str, str, float]]]:
    """Deterministic synthetic firm network with heavy-tailed degrees.

    Suppliers and buyers of each edge are drawn with probability proportional
    to per-firm Pareto fitness, which produces heavy-tailed in- and
    out-degrees. Self-loops are discarded, parallel draws are summed, and
    the returned edge list is sorted by (supplier_id, buyer_id).
    """
    config.validate()
    rng = np.random.default_rng(seed)
    n = config.n_firms
    ids = [f"F{i:06d}" for i in range(n)]

    codes = _sector_codes(config.n_sectors, config.share_physical_sectors)
    firm_sector = rng.integers(0, config.n_sectors, size=n)

    m = int(round(n * config.mean_out_degree))
    fit_out = rng.pareto(2.0, size=n) + 1.0
    fit_in = rng.pareto(2.0, size=n) + 1.0
    p_out = fit_out / fit_out.sum()
    p_in = fit_in / fit_in.sum()
    sup = rng.choice(n, size=m, p=p_out)
    buy = rng.choice(n, size=m, p=p_in)
    w = rng.lognormal(mean=config.weight_mu, sigma=config.weight_sigma, size=m)

    keep = sup != buy
    sup, buy, w = sup[keep], buy[keep], w[keep]

    # sum parallel draws into unique (supplier, buyer) pairs
    key = sup.astype(np.int64) * n + buy.astype(np.int64)
    uniq, inv = np.unique(key, return_inverse=True)
    weight = np.bincount(inv, weights=w)
    usup, ubuy = uniq // n, uniq % n

    s_out = np.bincount(usup, weights=weight, minlength=n)
    s_in = np.bincount(ubuy, weights=weight, minlength=n)

    firms = [
        FirmRecord(
            ids[i],
            codes[firm_sector[i]],
            revenue=float(s_out[i] / config.coverage),
            material_cost=float(s_in[i] / config.coverage),
        )
        for i in range(n)
    ]
    edges = [(ids[usup[e]], ids[ubuy[e]], float(weight[e])) for e in range(len(uniq))]
    return firms, edges


def fingerprint(net: ProductionNetwork) -> str:
    """Content hash of firms and edges, stable across runs and platforms.

    Computed once per network and kept on it; the network is immutable.
    """
    if net._fingerprint is None:
        net._fingerprint = _content_hash(net)
    return net._fingerprint


def _content_hash(net: ProductionNetwork) -> str:
    h = hashlib.sha256()
    for f in net.firms:
        h.update(f"{f.firm_id},{f.nace4},{f.revenue!r},{f.material_cost!r}\n".encode())
    for e in range(net.n_edges):
        sid = net.firms[net.sup[e]].firm_id
        bid = net.firms[net.buy[e]].firm_id
        h.update(f"{sid},{bid},{net.w[e]!r}\n".encode())
    return h.hexdigest()[:16]
