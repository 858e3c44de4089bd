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
import reprlib
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .conditions import by_name
from .data import GasSeries, VOLTAGE_LEVELS
from .model import AT_LEAST_1, check_fields, list_of, setting

__all__ = ["RecipeError", "load_recipe", "synth_generate"]


class RecipeError(ValueError):
    """Raised for structurally invalid generator recipes."""


_SPREAD = ((">= 0", lambda v: v >= 0), ("finite", math.isfinite))
_LENGTHS = ("two integers [lo, hi] with 2 <= lo <= hi", lambda v: list_of(v, 2, int) and 2 <= v[0] <= v[1])
_SCALES = (
    f"{len(VOLTAGE_LEVELS)} finite numbers > 0, one per voltage level",
    lambda v: list_of(v, len(VOLTAGE_LEVELS), int, float) and all(0 < x < math.inf for x in v),
)


@dataclass(frozen=True)
class _Settings:
    """Each top-level key synth_generate reads, classes aside, and its rules; a None default marks a required key."""

    transformers_per_class: int = setting(AT_LEAST_1, default=None)
    length_range: tuple[int, int] = setting(_LENGTHS, default=None)
    noise_level: float = setting(*_SPREAD, default=None)
    level_spread: float = setting(*_SPREAD, default=0.0)
    channel_spread: float = setting(*_SPREAD, default=0.0)
    voltage_scale: tuple[float, ...] = setting(_SCALES, default=(1.0,) * len(VOLTAGE_LEVELS))

    __post_init__ = check_fields


_CHANNELS = ("5 finite numbers", lambda v: list_of(v, 5, int, float) and all(map(math.isfinite, v)))


@dataclass(frozen=True)
class _Profile:
    """The keys synth_generate reads from one class's profile, and their rules; each is required."""

    base: tuple[float, ...] = setting(_CHANNELS, default=None)
    slope: tuple[float, ...] = setting(_CHANNELS, default=None)
    sin_amp: tuple[float, ...] = setting(_CHANNELS, default=None)
    sin_period: float = setting(("finite", math.isfinite), ("> 0", lambda v: v > 0), default=None)

    __post_init__ = check_fields


def _checked(cls, block: dict, prefix: str = ""):
    """`cls` built from the keys of `block` that it holds; a refusal is a RecipeError led by `prefix`."""
    try:
        return cls(**{key: block[key] for key in cls.__dataclass_fields__ if key in block})
    except ValueError as exc:
        raise RecipeError(f"{prefix}{exc}") from None


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
    try:
        recipe = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecipeError(f"{name_or_path}: {exc}") from None
    return _validate(recipe)


def _validate(recipe) -> dict:
    """The recipe with _Settings' defaults filled in, once every key synth_generate reads passes its rules."""
    if not isinstance(recipe, dict):
        raise RecipeError(f"a recipe must be a JSON object, got {reprlib.repr(recipe)}")
    classes = recipe.get("classes")
    if not isinstance(classes, dict) or not classes:
        raise RecipeError(f"classes must be a non-empty object of condition profiles, got {reprlib.repr(classes)}")
    for name, profile in classes.items():
        by_name(name)  # raises on unknown condition
        if not isinstance(profile, dict):
            raise RecipeError(f"class {name}: profile must be an object, got {reprlib.repr(profile)}")
        _checked(_Profile, profile, f"class {name}: ")
    return {**recipe, **vars(_checked(_Settings, recipe))}


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
    level_spread = recipe["level_spread"]
    channel_spread = recipe["channel_spread"]
    voltage_scale = recipe["voltage_scale"]

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
