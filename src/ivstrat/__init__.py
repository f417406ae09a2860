"""Post-stratified instrumental-variable estimation of complier effects.

The package splits into observed-data estimators (estimators, variance),
finite-population analytics over complete potential-outcome tables
(theory), a deterministic Monte Carlo engine (simulation), and dataset /
report / CLI plumbing (io_cli). data_model holds the shared types.
`import ivstrat` loads data_model, estimators and variance; io_cli,
simulation and theory, and the names they export here, load on first use.
"""

import importlib

from .data_model import (
    ALWAYS_TAKER,
    COMPLIER,
    NEVER_TAKER,
    AllStrataDropped,
    DefierPresent,
    EmptyBin,
    EmptyFile,
    EstimateReport,
    EstimationError,
    ExclusionViolation,
    Infeasible,
    MalformedRow,
    MissingColumn,
    NoCompliers,
    ObservedSample,
    ScienceTable,
    ZeroCompliance,
    science_to_observed,
    validate,
)
from .estimators import (
    METHODS,
    EstimatorConfig,
    estimate,
    first_stage_f,
    oracle_complier_dim,
)
# each lazy module's exported names, resolved by __getattr__ on first use
_LAZY = {
    "io_cli": (
        "DatasetSchema",
        "ReportRow",
        "ReportTable",
        "StratumRow",
        "analyze",
        "cli_main",
        "load_csv",
        "load_science_csv",
        "read_metrics_csv",
        "save_csv",
        "stratum_report",
        "write_metrics_csv",
    ),
    "simulation": (
        "RNG_FAMILY",
        "ConcentrationConfig",
        "EstimatorMetrics",
        "ScenarioConfig",
        "ScenarioMetrics",
        "default_grid",
        "generate_concentration_table",
        "generate_random_strata",
        "generate_science_table",
        "run_concentration",
        "run_grid",
        "run_scenario",
    ),
    "theory": (
        "ENUMERATION_CAP",
        "EnumerationResult",
        "PopulationMoments",
        "asyvar_iv",
        "asyvar_iv_ps",
        "bias_one_sided_exact",
        "bias_one_sided_taylor",
        "bias_two_sided_taylor",
        "enumerate_expectation",
        "moments",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__version__ = "0.1.0"

__all__ = [
    "ALWAYS_TAKER",
    "COMPLIER",
    "NEVER_TAKER",
    "AllStrataDropped",
    "DefierPresent",
    "EmptyBin",
    "EmptyFile",
    "EstimateReport",
    "EstimationError",
    "ExclusionViolation",
    "Infeasible",
    "MalformedRow",
    "MissingColumn",
    "NoCompliers",
    "ObservedSample",
    "ScienceTable",
    "ZeroCompliance",
    "science_to_observed",
    "validate",
    "METHODS",
    "EstimatorConfig",
    "estimate",
    "first_stage_f",
    "oracle_complier_dim",
    *(name for names in _LAZY.values() for name in names),
]


def __getattr__(name: str):
    """Import the module that holds name, and keep name bound here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME[name]}", __name__)
    value = module if name in _LAZY else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
