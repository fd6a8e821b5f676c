"""Country-level techno-economic model for agricultural residue pellets."""

from .dataio import (
    CROPS,
    FUELS,
    CropCoefficients,
    DataError,
    Dataset,
    FuelProperties,
    ModelConfig,
    load_dataset,
)
from .pipeline import GlobalReport, PipelineResult, run_pipeline
from .sensitivity import SensitivityGrid, sweep
from .yoy import yoy_growth

__version__ = "0.1.0"

__all__ = [
    "CROPS",
    "FUELS",
    "CropCoefficients",
    "DataError",
    "Dataset",
    "FuelProperties",
    "GlobalReport",
    "ModelConfig",
    "PipelineResult",
    "SensitivityGrid",
    "load_dataset",
    "run_pipeline",
    "sweep",
    "yoy_growth",
]
