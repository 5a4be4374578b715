"""Production-function scenarios: which inputs each firm cannot do without.

Every firm gets a partition of input categories into an essential set
(Leontief behaviour, output limited by the scarcest one) and a non-essential
set (linear behaviour, output proportional to their sum). Four stylized
scenarios fix that partition network-wide. The cascade reads the partition
only through the impact operators that build_impact_matrices compiles from
inputs_are_essential; the calibrated generalized-Leontief function itself is
stated in tests/reference.py, as the tests' oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .netcore import ProductionNetwork, sector_is_physical


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


def _physical_sectors(net: ProductionNetwork) -> np.ndarray:
    """Per sector index, True for a physical industry code."""
    return np.array([sector_is_physical(c) for c in net.sectors], dtype=bool)


def inputs_are_essential(net: ProductionNetwork, spec: ScenarioSpec, buyer: np.ndarray,
                         sector: np.ndarray) -> np.ndarray:
    """Does each buyer treat inputs from the supplier sector (an index) as essential?"""
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
    """The scenario whose label a scoring run puts on its results."""

    spec: ScenarioSpec


def calibrate(net: ProductionNetwork, spec: ScenarioSpec) -> ProductionParams:
    """Wrap spec for the scoring entry points, without computing anything.

    The name and the params arguments stay until perfbench/job.py, which wraps
    calibrate and reads params.spec.scenario from the scoring calls, no longer
    binds them.
    """
    return ProductionParams(spec=spec)
