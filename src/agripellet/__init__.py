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
from .pricing import BreakEvenInputs
from .reporting import save_dataset
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
    "FuelProperties",
    "GlobalReport",
    "LivestockRates",
    "ModelConfig",
    "PipelineResult",
    "SensitivityGrid",
    "UnresolvableFieldError",
    "load_dataset",
    "resolve",
    "run_pipeline",
    "save_dataset",
    "sweep",
    "yoy_growth",
]
