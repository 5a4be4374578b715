"""Firm-level production networks: shock cascades and systemic-risk scores."""

from .netcore import (
    DataError,
    FirmRecord,
    NetworkError,
    ProductionNetwork,
    SyntheticConfig,
    TransactionEvent,
    build_network,
    filter_long_term_links,
    fingerprint,
    generate_synthetic,
)
from .prodfun import (
    ProductionParams,
    Scenario,
    ScenarioSpec,
    assign_scenario,
    calibrate,
)
from .cascade import (
    CascadeResult,
    CascadeState,
    ImpactMatrices,
    build_impact_matrices,
    rescale_for_coverage,
    run_cascade,
)
from .esri import EsriVector, esri_all, esri_single, scenario_suite
from .analysis import (
    DEFAULT_THRESHOLDS,
    Plateau,
    PowerlawFit,
    RankProfile,
    SectorShockReport,
    YearComparison,
    count_above_thresholds,
    detect_plateau,
    fit_powerlaw_mle,
    rank_profile,
    sector_shock_experiment,
    year_over_year,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
