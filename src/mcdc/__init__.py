"""Multichannel consecutive dissolved-gas diagnosis: model, pipeline, evaluation."""

# evaluation exports nothing here, but `import mcdc` loads it with the other
# modules, so tools that patch functions by module (perfbench/tracing.py) find it
from . import evaluation  # noqa: F401
from .baselines import make_model
from .checkpoint import load_checkpoint, save_checkpoint
from .data import GasSeries, NormStats, load_series, normalize, split
from .model import McdcModel
from .synth import load_recipe, synth_generate
from .training import TrainConfig

__version__ = "0.1.0"

__all__ = [
    "GasSeries",
    "McdcModel",
    "NormStats",
    "TrainConfig",
    "load_checkpoint",
    "load_recipe",
    "load_series",
    "make_model",
    "normalize",
    "save_checkpoint",
    "split",
    "synth_generate",
]
