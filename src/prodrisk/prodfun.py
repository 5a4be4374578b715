"""Production-function scenarios and generalized-Leontief calibration.

Every firm gets a partition of input categories into an essential set
(Leontief behaviour, output limited by the scarcest one) and a non-essential
set (linear behaviour, output proportional to their sum). Four stylized
scenarios fix that partition network-wide; parameters are then read off the
observed input volumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .netcore import ProductionNetwork, input_columns, sector_is_physical, split_rows


class Scenario(enum.Enum):
    """Network-wide input-partition rule."""

    LIN = "lin"   # every input non-essential for every firm
    LEO = "leo"   # every input essential for every firm
    MIX = "mix"   # physical firms all-essential, service firms all-non-essential
    GL = "gl"     # physical firms: physical inputs essential, service inputs linear


# per-firm essential-set classes
ESS_NONE = 0       # no essential inputs
ESS_PHYSICAL = 1   # input categories with prefixes 01-45 are essential
ESS_ALL = 2        # every input category is essential


@dataclass(frozen=True)
class ScenarioSpec:
    """Per-firm essential/non-essential partition of input categories.

    essential_class holds one of ESS_NONE, ESS_PHYSICAL, ESS_ALL per firm.
    """

    scenario: Scenario
    essential_class: np.ndarray

    def input_is_essential(self, firm: int, sector_code: str) -> bool:
        """Does firm treat inputs from the given sector as essential?"""
        c = int(self.essential_class[firm])
        if c == ESS_ALL:
            return True
        if c == ESS_NONE:
            return False
        return sector_is_physical(sector_code)


def _physical_sectors(net: ProductionNetwork) -> np.ndarray:
    """Per sector index, True for a physical industry code."""
    return np.array([sector_is_physical(c) for c in net.sectors], dtype=bool)


def inputs_are_essential(net: ProductionNetwork, spec: ScenarioSpec, buyer: np.ndarray,
                         sector: np.ndarray) -> np.ndarray:
    """ScenarioSpec.input_is_essential for every (buyer, supplier sector index) pair."""
    cls = spec.essential_class[buyer]
    return (cls == ESS_ALL) | ((cls == ESS_PHYSICAL) & _physical_sectors(net)[sector])


def assign_scenario(net: ProductionNetwork, scenario: Scenario) -> ScenarioSpec:
    """Apply one of the four partition rules to every firm.

    Physical firms are those with a 2-digit industry prefix in 01-45; the
    sentinel category counts as service.
    """
    physical = _physical_sectors(net)[net.sector_of]
    cls = np.zeros(net.n, dtype=np.uint8)
    if scenario is Scenario.LIN:
        cls[:] = ESS_NONE
    elif scenario is Scenario.LEO:
        cls[:] = ESS_ALL
    elif scenario is Scenario.MIX:
        cls[physical] = ESS_ALL
    elif scenario is Scenario.GL:
        cls[physical] = ESS_PHYSICAL
    else:  # pragma: no cover
        raise ValueError(f"unknown scenario {scenario!r}")
    cls.flags.writeable = False
    return ScenarioSpec(scenario=scenario, essential_class=cls)


@dataclass(frozen=True)
class ProductionParams:
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


def calibrate(net: ProductionNetwork, spec: ScenarioSpec) -> ProductionParams:
    """Read technical coefficients off the observed network.

    Baseline output x0 is the firm's out-strength. For each essential sector
    with observed input volume, alpha is that volume divided by x0. beta_tilde
    is the essential share of total input value, with the convention 1 for
    firms that buy nothing. Per-firm totals add the sector volumes in the
    order of input_columns.
    """
    n = net.n
    buyer, sector, volume = input_columns(net)
    ess = inputs_are_essential(net, spec, buyer, sector)

    x0 = np.array(net.s_out, dtype=np.float64)
    in_total, ess_total = np.zeros(n), np.zeros(n)
    np.add.at(in_total, buyer, volume)
    np.add.at(ess_total, buyer[ess], volume[ess])
    beta = np.ones(n)
    np.divide(ess_total, in_total, out=beta, where=in_total > 0)

    codes = np.array(net.sectors, dtype=object)[sector]
    has_alpha = ess & (x0[buyer] > 0)
    alphas = split_rows(n, buyer[has_alpha], codes[has_alpha].tolist(),
                        volume[has_alpha] / x0[buyer[has_alpha]])

    for a in (x0, beta, in_total):
        a.flags.writeable = False
    return ProductionParams(spec=spec, x0=x0, beta_tilde=beta, alpha=tuple(alphas),
                            input_total=in_total)


def evaluate_gl(params: ProductionParams, firm: int, available: Mapping[str, float]) -> float:
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
            if not params.spec.input_is_essential(firm, code):
                ne_avail += float(val)
        lin_branch = params.beta_tilde[firm] * x0 + ne_avail * x0 / total

    return float(min(ess_branch, lin_branch))
