"""Country-level techno-economic model for agricultural residue pellets."""

from .dataio import (
    CROPS,
    FUELS,
    CropCoefficients,
    CountryProfile,
    DataError,
    Dataset,
    FuelProperties,
    LivestockRates,
    ModelConfig,
    UnresolvableFieldError,
    load_dataset,
    resolve,
)
from .pipeline import CountryReport, GlobalReport, PipelineResult, run_pipeline, yoy_growth
from .pricing import BreakEvenInputs, MspResult, solve_msp
from .reporting import save_dataset
from .replacement import FuelEconomics, ReplacementPlan, build_plan
from .residues import ResidueAssessment
from .sensitivity import SensitivityGrid, sweep

__version__ = "0.1.0"

__all__ = [
    "CROPS",
    "FUELS",
    "BreakEvenInputs",
    "CountryProfile",
    "CountryReport",
    "CropCoefficients",
    "DataError",
    "Dataset",
    "FuelEconomics",
    "FuelProperties",
    "GlobalReport",
    "LivestockRates",
    "ModelConfig",
    "MspResult",
    "PipelineResult",
    "ReplacementPlan",
    "ResidueAssessment",
    "SensitivityGrid",
    "UnresolvableFieldError",
    "build_plan",
    "load_dataset",
    "resolve",
    "run_pipeline",
    "save_dataset",
    "solve_msp",
    "sweep",
    "yoy_growth",
]
