"""Production-function scenarios: which inputs each firm cannot do without.

A scenario is a network-wide rule that splits each buyer's input categories
into an essential set (Leontief behaviour, output limited by the scarcest
one) and a non-essential set (linear behaviour, output proportional to their
sum). A firm or sector is physical if its industry code has a 2-digit prefix
in 01-45; the sentinel category counts as service. The four rules:

- lin: no input is essential
- leo: every input is essential
- mix: every input of a physical buyer is essential
- gl: a physical buyer's physical inputs are essential

The cascade reads the rule only through the impact operators that
build_impact_matrices compiles from inputs_are_essential; the calibrated
generalized-Leontief function itself is stated in tests/reference.py, as the
tests' oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .netcore import ProductionNetwork, sector_is_physical


class Scenario(enum.Enum):
    """Network-wide input-partition rule."""

    LIN = "lin"
    LEO = "leo"
    MIX = "mix"
    GL = "gl"


@dataclass(frozen=True)
class ScenarioSpec:
    """The input-partition rule that scenario preparation applies."""

    scenario: Scenario


def inputs_are_essential(net: ProductionNetwork, spec: ScenarioSpec, buyer: np.ndarray,
                         sector: np.ndarray) -> np.ndarray:
    """Does each buyer treat inputs from the supplier sector (an index) as essential?"""
    if spec.scenario is Scenario.LIN:
        return np.zeros(len(buyer), dtype=bool)
    if spec.scenario is Scenario.LEO:
        return np.ones(len(buyer), dtype=bool)
    physical = np.array([sector_is_physical(c) for c in net.sectors], dtype=bool)
    ess = physical[net.sector_of][buyer]
    if spec.scenario is Scenario.GL:
        ess &= physical[sector]
    return ess


def assign_scenario(net: ProductionNetwork, scenario: Scenario) -> ScenarioSpec:
    """The rule of one scenario, which must be a Scenario member; net is not read."""
    if not isinstance(scenario, Scenario):
        raise ValueError(f"unknown scenario {scenario!r}")
    return ScenarioSpec(scenario)


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
