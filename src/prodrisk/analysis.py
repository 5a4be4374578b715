"""Statistics over risk vectors: rank profiles, tail fits, shock experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .netcore import DataError, ProductionNetwork
from .cascade import ImpactMatrices, run_cascade
from .esri import EsriVector

# threshold ladder used for the "large observations" counts
DEFAULT_THRESHOLDS = (0.41, 0.22, 0.1, 0.05, 1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class RankProfile:
    """Risk values sorted descending, rank 1 first."""

    firm_ids: tuple[str, ...]
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.firm_ids)

    @property
    def ranks(self) -> np.ndarray:
        return np.arange(1, len(self.firm_ids) + 1)


@dataclass(frozen=True)
class Plateau:
    size: int
    level: float


@dataclass(frozen=True)
class PowerlawFit:
    alpha_hat: float
    x_min: float
    x_max: float
    n_used: int
    coverage: float


@dataclass(frozen=True)
class YearComparison:
    pearson_raw: float
    pearson_log: float
    n_matched: int
    n_log_excluded: int


@dataclass(frozen=True)
class LogLogFit:
    slope: float
    intercept: float
    r_squared: float
    n_used: int


@dataclass(frozen=True)
class SectorShockReport:
    """Per-sector received shocks for a reference run and alternative scenarios.

    Sectors are listed in report order: descending relative deviation of the
    first scenario (descending reference shock when there is none), ties by
    sector code. received has one row per scenario, aligned with labels;
    rel_dev holds ratios to the reference run.
    """

    shocked_sector: str
    magnitude: float
    sectors: tuple[str, ...]
    received_ref: np.ndarray
    received: np.ndarray
    rel_dev: np.ndarray
    labels: tuple[str, ...]
    deviation_correlation: np.ndarray | None
    converged: bool


def _values_of(esri) -> np.ndarray:
    vals = esri.values if isinstance(esri, EsriVector) else np.asarray(esri, dtype=float)
    if vals.ndim != 1:
        raise ValueError("expected a 1-d value vector")
    return vals


def rank_profile(esri: EsriVector) -> RankProfile:
    """Sort firms by descending risk value, ties broken by firm id."""
    n = len(esri.firm_ids)
    if n == 0:
        raise ValueError("cannot rank an empty vector")
    order = sorted(range(n), key=lambda i: (-esri.values[i], esri.firm_ids[i]))
    ids = tuple(esri.firm_ids[i] for i in order)
    return RankProfile(ids, esri.values[np.asarray(order, dtype=np.intp)])


def detect_plateau(profile: RankProfile, rel_tol: float = 0.05) -> Plateau:
    """Maximal prefix of the profile within rel_tol of the top value.

    Returns the prefix length and its mean level. The top firm always
    qualifies, so the size is at least 1.
    """
    if len(profile) == 0:
        raise ValueError("cannot detect a plateau on an empty profile")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    cut = (1.0 - rel_tol) * float(profile.values[0])
    inside = profile.values >= cut
    size = len(profile) if bool(inside.all()) else int(np.argmin(inside))
    return Plateau(size, float(np.mean(profile.values[:size])))


def count_above_thresholds(esri, thresholds: Sequence[float] = DEFAULT_THRESHOLDS) -> tuple[int, ...]:
    """Number of values strictly above each finite threshold of a descending ladder."""
    vals = _values_of(esri)
    thresholds = tuple(float(t) for t in thresholds)
    if not all(math.isfinite(t) for t in thresholds):
        raise ValueError("thresholds must be finite")
    for a, b in zip(thresholds, thresholds[1:]):
        if a < b:
            raise ValueError("thresholds must be sorted in descending order")
    return tuple(int(np.sum(vals > t)) for t in thresholds)


def fit_powerlaw_mle(values, x_min: float, x_max: float) -> PowerlawFit:
    """Hill-type tail exponent over the values inside [x_min, x_max].

    alpha_hat = 1 + n / sum(ln(x / x_min)). coverage is the fraction of all
    values that fell inside the window. The matching exponent of the
    cumulative distribution is alpha_hat - 1.
    """
    vals = _values_of(values)
    if not (math.isfinite(x_min) and x_min > 0):
        raise ValueError("x_min must be positive and finite")
    if not (math.isfinite(x_max) and x_max > x_min):
        raise ValueError("x_max must be finite and greater than x_min")
    window = vals[(vals >= x_min) & (vals <= x_max)]
    n = int(window.size)
    if n < 2:
        raise DataError(f"only {n} values inside [{x_min}, {x_max}], need at least 2")
    log_sum = float(np.sum(np.log(window / x_min)))
    if log_sum == 0.0:
        raise DataError("every in-window value equals x_min, the estimate diverges")
    return PowerlawFit(1.0 + n / log_sum, float(x_min), float(x_max), n, n / vals.size)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; nan when either side has zero variance."""
    if x.size != y.size:
        raise ValueError("length mismatch")
    if x.size < 2:
        return math.nan
    xc = x - x.mean()
    yc = y - y.mean()
    den = math.sqrt(float(np.sum(xc * xc)) * float(np.sum(yc * yc)))
    if den == 0.0:
        return math.nan
    return float(np.sum(xc * yc) / den)


def year_over_year(esri_a: EsriVector, esri_b: EsriVector) -> YearComparison:
    """Correlate two risk vectors over their shared firms.

    Reports the Pearson correlation of the raw values and of their natural
    logs; firms at exactly zero in either vector are dropped from the log
    variant and counted in n_log_excluded.
    """
    pos = {fid: j for j, fid in enumerate(esri_b.firm_ids)}
    ia: list[int] = []
    ib: list[int] = []
    for i, fid in enumerate(esri_a.firm_ids):
        j = pos.get(fid)
        if j is not None:
            ia.append(i)
            ib.append(j)
    if len(ia) < 3:
        raise DataError(f"only {len(ia)} firms appear in both vectors, need at least 3")
    va = esri_a.values[np.asarray(ia, dtype=np.intp)]
    vb = esri_b.values[np.asarray(ib, dtype=np.intp)]
    raw = _pearson(va, vb)
    positive = (va > 0) & (vb > 0)
    kept = int(np.sum(positive))
    log_r = _pearson(np.log(va[positive]), np.log(vb[positive])) if kept >= 2 else math.nan
    return YearComparison(raw, log_r, len(ia), len(ia) - kept)


def strength_esri_fit(esri: EsriVector, strengths) -> LogLogFit:
    """Least-squares fit of ln(risk) against ln(strength).

    strengths must be aligned with esri.firm_ids, one entry per firm. Firms
    with a zero on either axis cannot be logged and are dropped first.
    """
    vals = esri.values
    s = np.asarray(strengths, dtype=float)
    if s.shape != vals.shape:
        raise ValueError("need exactly one strength per firm, in vector order")
    keep = (vals > 0) & (s > 0)
    n = int(np.sum(keep))
    if n < 3:
        raise DataError(f"only {n} firms with positive risk and strength, need at least 3")
    x = np.log(s[keep])
    y = np.log(vals[keep])
    xc = x - x.mean()
    s_xx = float(np.sum(xc * xc))
    if s_xx == 0.0:
        raise DataError("all qualifying strengths are equal, the regressor is degenerate")
    slope = float(np.sum(xc * (y - y.mean()))) / s_xx
    intercept = float(y.mean()) - slope * float(x.mean())
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid * resid))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LogLogFit(slope, intercept, r_squared, n)


def _received_by_sector(net: ProductionNetwork, h_final: np.ndarray) -> np.ndarray:
    """Fraction of each sector's out-strength lost at the fixed point."""
    loss = net.s_out * (1.0 - h_final)
    num = np.bincount(net.sector_of, weights=loss, minlength=len(net.sectors))
    den = np.bincount(net.sector_of, weights=net.s_out, minlength=len(net.sectors))
    out = np.zeros(len(net.sectors))
    np.divide(num, den, out=out, where=den > 0)
    return out


def sector_shock_experiment(net: ProductionNetwork, matrices: ImpactMatrices, sector: str,
                            magnitude: float, firm_scenarios: Sequence[Mapping[str, float]],
                            labels: Sequence[str] | None = None,
                            epsilon: float = 1e-2, max_iter: int = 1000) -> SectorShockReport:
    """Compare a sector-wide shock against size-equivalent firm-level shocks.

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
        shocked_sector=sector,
        magnitude=magnitude,
        sectors=tuple(net.sectors[s] for s in order),
        received_ref=received_ref[order_idx],
        received=received[:, order_idx],
        rel_dev=rel_dev[:, order_idx],
        labels=labels,
        deviation_correlation=correlation,
        converged=converged,
    )

