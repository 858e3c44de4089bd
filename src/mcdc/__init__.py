"""Multichannel consecutive dissolved-gas diagnosis: model, pipeline, evaluation."""

import os

# One BLAS thread unless the user sets a count, set before numpy loads its
# BLAS: OpenBLAS splits a large product across threads in an order that
# depends on their number, so only one thread gives the pinned trained bytes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

# evaluation exports nothing here, but `import mcdc` loads it with the other
# modules, so tools that patch functions by module (perfbench/tracing.py) find it
from . import evaluation  # noqa: E402, F401
from .baselines import make_model  # noqa: E402
from .checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from .data import GasSeries, NormStats, load_series, normalize, split  # noqa: E402
from .model import McdcModel  # noqa: E402
from .synth import load_recipe, synth_generate  # noqa: E402
from .training import TrainConfig  # noqa: E402

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
