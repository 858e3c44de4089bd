"""Synthetic gas-series generator standing in for field data.

Each condition class gets a distinct signature on both axes the model
exploits: which gases sit high or climb (channel emphasis, mimicking fault
chemistry such as acetylene-heavy discharges or hydrogen-heavy partial
discharge) and how they move in time (slope plus a class-specific sinusoid
period). Recipes are plain JSON shipped with the package so experiments and
tests can pin them.
"""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np

from .conditions import by_name
from .data import GasSeries, VOLTAGE_LEVELS

__all__ = ["RecipeError", "load_recipe", "synth_generate"]


class RecipeError(ValueError):
    """Raised for structurally invalid generator recipes."""


_CHANNEL_FIELDS = ("base", "slope", "sin_amp")


def load_recipe(name_or_path: str) -> dict:
    """Load a recipe by packaged name ("default", "facility_shift", ...) or path."""
    shipped = resources.files("mcdc").joinpath("recipes")
    packaged = shipped.joinpath(f"{name_or_path}.json")
    if packaged.is_file():
        text = packaged.read_text(encoding="utf-8")
    else:
        try:
            with open(name_or_path, encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            names = ", ".join(sorted(p.name[:-5] for p in shipped.iterdir() if p.name.endswith(".json")))
            raise RecipeError(
                f"--recipe {name_or_path!r} is neither a shipped recipe ({names}) nor a recipe file"
            ) from None
    return _validate(json.loads(text))


def _validate(recipe: dict) -> dict:
    classes = recipe.get("classes")
    if not classes:
        raise RecipeError("recipe has an empty class set")
    for name, profile in classes.items():
        by_name(name)  # raises on unknown condition
        for field in _CHANNEL_FIELDS:
            if len(profile.get(field, ())) != 5:
                raise RecipeError(f"class {name}: {field} must list 5 channel values")
        if profile.get("sin_period", 0) <= 0:
            raise RecipeError(f"class {name}: sin_period must be positive")
    lo, hi = recipe.get("length_range", (0, 0))
    if not 2 <= lo <= hi:
        raise RecipeError(f"length_range {recipe.get('length_range')} invalid")
    per_class = recipe.get("transformers_per_class", 0)
    if not isinstance(per_class, (int, np.integer)) or per_class < 1:
        raise RecipeError(f"transformers_per_class must be an integer >= 1, got {per_class!r}")
    if not recipe.get("noise_level", 0) >= 0:  # NaN fails too
        raise RecipeError(f"noise_level must be >= 0, got {recipe.get('noise_level')!r}")
    return recipe


def synth_generate(
    recipe: dict,
    seed: int,
    transformers_per_class: int | None = None,
    length_range: tuple[int, int] | None = None,
    noise_level: float | None = None,
) -> list[GasSeries]:
    """Generate one series per (class, transformer index), bit-reproducible per seed.

    Keyword overrides that are not None replace the matching recipe fields
    and are checked as the recipe's own are. Negative draws are clamped to
    zero, keeping concentrations physical.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    overrides = {
        "transformers_per_class": transformers_per_class,
        "length_range": length_range,
        "noise_level": noise_level,
    }
    recipe = _validate({**recipe, **{k: v for k, v in overrides.items() if v is not None}})
    n_per_class = recipe["transformers_per_class"]
    lo, hi = recipe["length_range"]
    noise = recipe["noise_level"]
    level_spread = recipe.get("level_spread", 0.0)
    channel_spread = recipe.get("channel_spread", 0.0)
    voltage_scale = recipe.get("voltage_scale", [1.0, 1.0, 1.0, 1.0])

    series = []
    for name in sorted(recipe["classes"]):
        profile = recipe["classes"][name]
        label = by_name(name)
        base = np.asarray(profile["base"], dtype=np.float64)
        slope = np.asarray(profile["slope"], dtype=np.float64)
        amp = np.asarray(profile["sin_amp"], dtype=np.float64)
        period = float(profile["sin_period"])
        for idx in range(n_per_class):
            rng = np.random.default_rng([seed, label.code, idx])
            voltage_pos = idx % len(VOLTAGE_LEVELS)
            length = int(rng.integers(lo, hi + 1))
            level = math.exp(rng.normal(0.0, level_spread)) if level_spread else 1.0
            chan = np.exp(rng.normal(0.0, channel_spread, size=5)) if channel_spread else np.ones(5)
            phase = rng.uniform(0.0, 2.0 * math.pi, size=5)
            scale = voltage_scale[voltage_pos] * level * chan
            t = np.arange(length, dtype=np.float64)
            clean = scale[:, None] * (
                base[:, None]
                + slope[:, None] * t[None, :]
                + amp[:, None] * np.sin(2.0 * math.pi * t[None, :] / period + phase[:, None])
            )
            noisy = clean + noise * (scale * base)[:, None] * rng.standard_normal((5, length))
            series.append(
                GasSeries(
                    transformer_id=f"{name}-{idx:02d}",
                    voltage_kv=VOLTAGE_LEVELS[voltage_pos],
                    condition=label,
                    days=np.arange(1, length + 1),
                    readings=np.maximum(noisy, 0.0),
                )
            )
    return series
