"""Production-network core: build, validate, filter, synthesize.

A production network is a directed graph of firms where an edge (i -> j)
carries the annual monetary volume supplier i delivers to buyer j. Firms
carry a 4-digit industry code (nace4) that defines the product category;
firms without a code fall into a sentinel category.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass
from datetime import date as _date
from itertools import repeat
from operator import is_not
from typing import Iterable, NamedTuple, Sequence

import numpy as np

SENTINEL_SECTOR = "unclassified"

# 2-digit prefixes 01-45 mark physical production, 46-99 trade and services.
PHYSICAL_PREFIX_MAX = 45
# synthetic sector codes are a prefix and a suffix 10-99, so each side has 90 per prefix
PHYSICAL_CODES = PHYSICAL_PREFIX_MAX * 90
SERVICE_CODES = (99 - PHYSICAL_PREFIX_MAX) * 90


class NetworkError(Exception):
    """Raised when input data cannot form a valid production network."""


class DataError(Exception):
    """Raised when input data is structurally valid but unusable."""


class FirmRecord(NamedTuple):
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

    Firms are columns in index order: firm_ids, revenue and material_cost
    (float64, NaN where not reported) and sector_of, an index into sectors.
    Edges are parallel arrays (supplier index, buyer index, weight) in
    canonical order, sorted by (supplier, buyer). All arrays are read-only;
    the object is safe to share across threads and forked processes.
    """

    def __init__(self, firm_ids: Sequence[str], index_of: dict[str, int], nace4: Sequence[str],
                 revenue: np.ndarray, material_cost: np.ndarray, sup: np.ndarray,
                 buy: np.ndarray, w: np.ndarray, self_loops_dropped: int = 0):
        self.firm_ids: tuple[str, ...] = tuple(firm_ids)
        self.n: int = len(self.firm_ids)
        self.index_of = index_of  # firm id -> index
        self.revenue = np.ascontiguousarray(revenue, dtype=np.float64)
        self.material_cost = np.ascontiguousarray(material_cost, dtype=np.float64)
        self.sup = np.ascontiguousarray(sup, dtype=np.int64)
        self.buy = np.ascontiguousarray(buy, dtype=np.int64)
        self.w = np.ascontiguousarray(w, dtype=np.float64)
        self.self_loops_dropped = int(self_loops_dropped)

        # sector bookkeeping: stable sorted code list, integer code per firm
        self.sectors: tuple[str, ...] = tuple(sorted(set(nace4)))
        sector_id = dict(zip(self.sectors, range(len(self.sectors))))
        self.sector_of = np.fromiter(map(sector_id.__getitem__, nace4), dtype=np.int64,
                                     count=self.n)

        # strengths, fixed accumulation order over the canonical edge arrays;
        # without edges bincount returns int64, hence the cast
        self.s_in = np.bincount(self.buy, weights=self.w,
                                minlength=self.n).astype(np.float64, copy=False)
        self.s_out = np.bincount(self.sup, weights=self.w,
                                 minlength=self.n).astype(np.float64, copy=False)

        for a in (self.revenue, self.material_cost, self.sup, self.buy, self.w,
                  self.sector_of, self.s_in, self.s_out):
            a.flags.writeable = False
        self._fingerprint: str | None = None  # filled in by fingerprint()

    @property
    def n_edges(self) -> int:
        return int(self.sup.shape[0])


def build_network(firms: Iterable[FirmRecord | tuple],
                  edge_blocks: Iterable[tuple[Sequence[str], Sequence[str], Sequence[float]]]
                  ) -> ProductionNetwork:
    """Validate firms and edge column blocks and assemble a ProductionNetwork.

    Each firm is a FirmRecord or a plain 4-tuple in its field order. Each
    block of edge_blocks is three equally long columns: supplier ids,
    buyer ids and weights (a list or an array). A non-empty list of
    (supplier, buyer, weight) triples is the one block ``zip(*triples)``.
    Parallel edges are summed in input order, zero-weight edges dropped,
    self-loops dropped with a count kept on the result. Firms with a missing
    industry code are assigned the sentinel category. edge_blocks is read
    once, in full, before anything is checked, so it may be a stream.

    Raises NetworkError on the first firm in list order with a duplicate id,
    revenue or material cost that is NaN, infinite or negative, or a
    malformed industry code, and then on the first edge in input order with
    an unknown endpoint or a weight that is negative, NaN or infinite.
    """
    ids, codes, revenue, cost = tuple(zip(*firms)) or ((), (), (), ())
    n = len(ids)
    index = dict(zip(ids, range(n)))
    sup_col, buy_col, w_col = array("q"), array("q"), array("d")
    first_unknown = None
    for sids, bids, weights in edge_blocks:
        sup = np.fromiter(map(index.get, sids, repeat(-1)), dtype=np.int64, count=len(sids))
        buy = np.fromiter(map(index.get, bids, repeat(-1)), dtype=np.int64, count=len(bids))
        w = np.asarray(weights, dtype=np.float64)
        if not sup.shape == buy.shape == w.shape:
            raise ValueError(f"edge block columns of lengths {len(sup)}, {len(buy)} and "
                             f"{len(w)}: expected three equal lengths")
        unknown = (sup < 0) | (buy < 0)
        if first_unknown is None and unknown.any():
            e = int(np.argmax(unknown))
            first_unknown = sids[e] if sup[e] < 0 else bids[e]
        sup_col.frombytes(sup.tobytes())
        buy_col.frombytes(buy.tobytes())
        w_col.frombytes(w.tobytes())

    codes, revenue, cost = _checked_firms(ids, codes, revenue, cost,
                                          duplicates=len(index) < n)
    sup = np.frombuffer(sup_col, dtype=np.int64)
    buy = np.frombuffer(buy_col, dtype=np.int64)
    w = np.frombuffer(w_col, dtype=np.float64)
    bad = (sup < 0) | (buy < 0) | (w < 0) | ~np.isfinite(w)
    if bad.any():
        e = int(np.argmax(bad))
        if sup[e] < 0 or buy[e] < 0:
            raise NetworkError(f"edge references unknown firm_id {first_unknown!r}")
        raise NetworkError(f"edge ({ids[sup[e]]!r}, {ids[buy[e]]!r}) "
                           f"has invalid weight {float(w[e])}")

    nonzero = w != 0
    loop = sup == buy
    keep = nonzero & ~loop
    # sorting the (supplier, buyer) keys gives the canonical order; bincount
    # adds the weights of each pair in input order
    keys, pair = np.unique(sup[keep] * n + buy[keep], return_inverse=True)
    merged = np.bincount(pair, weights=w[keep], minlength=len(keys))
    return ProductionNetwork(ids, index, codes, revenue, cost, keys // n, keys % n, merged,
                             self_loops_dropped=int(np.count_nonzero(nonzero & loop)))


def _figures(values: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The figures as float64, None as NaN, and a mask of those neither None nor finite and >= 0."""
    given = np.fromiter(map(is_not, values, repeat(None)), dtype=bool, count=len(values))
    x = np.array(values, dtype=np.float64)  # None reads as NaN
    return x, given & ~((x >= 0) & np.isfinite(x))


def _checked_firms(ids: Sequence[str], codes: Sequence[str], revenue: Sequence, cost: Sequence,
                   duplicates: bool) -> tuple[Sequence[str], np.ndarray, np.ndarray]:
    """Normalized industry codes and float64 figures of the firm columns;
    NetworkError on the first bad firm.

    A firm is checked for a duplicate id, then its revenue, material cost and
    code; normalize_nace4 runs once per distinct code.
    """
    n = len(ids)
    normal: dict = {}
    errors: dict = {}
    for code in set(codes):
        try:
            normal[code] = normalize_nace4(code)
        except NetworkError as exc:
            errors[code] = exc

    dup = np.zeros(n, dtype=bool)
    if duplicates:  # the first firm of each id keeps its position
        first = dict(zip(reversed(ids), range(n - 1, -1, -1)))
        dup = np.fromiter(map(first.__getitem__, ids), dtype=np.int64, count=n) != np.arange(n)
    revenue_x, bad_revenue = _figures(revenue)
    cost_x, bad_cost = _figures(cost)
    bad_code = np.fromiter(map(errors.__contains__, codes), dtype=bool, count=n)
    bad = dup | bad_revenue | bad_cost | bad_code
    if bad.any():
        i = int(np.argmax(bad))
        if dup[i]:
            raise NetworkError(f"duplicate firm_id {ids[i]!r}")
        for label, value in (("revenue", revenue[i]), ("material_cost", cost[i])):
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise NetworkError(
                    f"firm {ids[i]!r} has {label} {value!r}: expected None or finite and >= 0")
        raise errors[codes[i]]

    if any(norm != code for code, norm in normal.items()):
        codes = list(map(normal.__getitem__, codes))
    return codes, revenue_x, cost_x


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

    @property
    def physical_sectors(self) -> int:
        """How many of the sector codes are physical."""
        return int(round(self.n_sectors * self.share_physical_sectors))

    def validate(self) -> None:
        if self.n_firms < 1:
            raise ValueError("n_firms must be >= 1")
        if self.n_sectors < 1:
            raise ValueError("n_sectors must be >= 1")
        if not 0 < self.mean_out_degree < math.inf:
            raise ValueError("mean_out_degree must be finite and > 0")
        if not 0 <= self.share_physical_sectors <= 1:
            raise ValueError("share_physical_sectors must be in [0, 1]")
        if not 0 < self.coverage <= 1:
            raise ValueError("coverage must be in (0, 1]")
        if not math.isfinite(self.weight_mu):
            raise ValueError("weight_mu must be finite")
        if not 0 <= self.weight_sigma < math.inf:
            raise ValueError("weight_sigma must be finite and >= 0")
        n_phys = self.physical_sectors
        if n_phys > PHYSICAL_CODES or self.n_sectors - n_phys > SERVICE_CODES:
            raise ValueError(
                f"n_sectors {self.n_sectors} at share_physical_sectors "
                f"{self.share_physical_sectors} needs {n_phys} physical and "
                f"{self.n_sectors - n_phys} service codes; 4-digit codes allow at most "
                f"{PHYSICAL_CODES} and {SERVICE_CODES}")


def _sector_codes(n_sectors: int, n_phys: int) -> list[str]:
    """Distinct 4-digit codes, the first n_phys of them physical."""
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
    the returned edge list is sorted by (supplier_id, buyer_id). Raises
    ValueError when an edge weight or a synthesized figure overflows, or
    when the total weight is zero.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    n = config.n_firms
    ids = [f"F{i:06d}" for i in range(n)]

    codes = _sector_codes(config.n_sectors, config.physical_sectors)
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

    with np.errstate(over="ignore"):  # checked below
        revenue = np.bincount(usup, weights=weight, minlength=n) / config.coverage
        material_cost = np.bincount(ubuy, weights=weight, minlength=n) / config.coverage
    if not all(np.isfinite(a).all() for a in (weight, revenue, material_cost)):
        raise ValueError(f"weight_mu {config.weight_mu}, weight_sigma {config.weight_sigma} and "
                         f"coverage {config.coverage} give edge weights or income figures "
                         "that are not finite")
    if not weight.sum() > 0:
        raise ValueError(f"n_firms {n}, mean_out_degree {config.mean_out_degree}, weight_mu "
                         f"{config.weight_mu} and weight_sigma {config.weight_sigma} give a "
                         "network whose total weight is zero, so no loss can be scored")

    firms = list(map(FirmRecord, ids, map(codes.__getitem__, firm_sector.tolist()),
                     revenue.tolist(), material_cost.tolist()))
    edges = [(ids[usup[e]], ids[ubuy[e]], float(weight[e])) for e in range(len(uniq))]
    return firms, edges


def fingerprint(net: ProductionNetwork) -> str:
    """Content hash of firms and edges, stable across runs and platforms.

    The first 16 hex digits of the sha256 of one text line per firm,
    ``firm_id,nace4,revenue,material_cost`` with the figures as Python
    ``repr`` (``None`` when missing), then one line per edge in canonical
    order, ``supplier_id,buyer_id,np.float64(weight)`` with the weight as
    Python ``repr``. The digest depends on these records alone, not on the
    installed numpy. Computed once per network and kept on it; the network
    is immutable.
    """
    if net._fingerprint is None:
        net._fingerprint = _content_hash(net)
    return net._fingerprint


_HASH_CHUNK = 1 << 16  # edges per hashed text block


def _content_hash(net: ProductionNetwork) -> str:
    h = hashlib.sha256()
    codes = np.array(net.sectors, dtype=object)[net.sector_of].tolist()
    revenue, cost = (np.where(np.isnan(x), None, x).tolist()
                     for x in (net.revenue, net.material_cost))
    h.update("".join(map("{},{},{!r},{!r}\n".format, net.firm_ids, codes, revenue, cost)).encode())
    ids = np.array(net.firm_ids, dtype=object)
    line = "{},{},np.float64({!r})\n".format
    for a in range(0, net.n_edges, _HASH_CHUNK):
        b = a + _HASH_CHUNK
        text = "".join(map(line, ids[net.sup[a:b]].tolist(), ids[net.buy[a:b]].tolist(),
                           net.w[a:b].tolist()))
        h.update(text.encode())
    return h.hexdigest()[:16]
