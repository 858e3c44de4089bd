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
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .conditions import by_name
from .data import GasSeries, VOLTAGE_LEVELS
from .model import AT_LEAST_1, check_fields, list_of, read_object, setting

__all__ = ["RecipeError", "load_recipe", "synth_generate"]


class RecipeError(ValueError):
    """Raised for structurally invalid generator recipes."""


_SPREAD = ((">= 0", lambda v: v >= 0), ("finite", math.isfinite))
_LENGTHS = ("two integers [lo, hi] with 2 <= lo <= hi", lambda v: list_of(v, 2, int) and 2 <= v[0] <= v[1])
_SCALES = (
    f"{len(VOLTAGE_LEVELS)} finite numbers > 0, one per voltage level",
    lambda v: list_of(v, len(VOLTAGE_LEVELS), int, float) and all(0 < x < math.inf for x in v),
)
_CHANNELS = ("5 finite numbers", lambda v: list_of(v, 5, int, float) and all(map(math.isfinite, v)))


@dataclass(frozen=True)
class _Profile:
    """The keys of one class's profile, and their rules; each is required."""

    base: tuple[float, ...] = setting(_CHANNELS)
    slope: tuple[float, ...] = setting(_CHANNELS)
    sin_amp: tuple[float, ...] = setting(_CHANNELS)
    sin_period: float = setting(("finite", math.isfinite), ("> 0", lambda v: v > 0))

    __post_init__ = check_fields


@dataclass(frozen=True)
class _Settings:
    """Each top-level key of a recipe, and its rules; a key without a default is required."""

    transformers_per_class: int = setting(AT_LEAST_1)
    length_range: tuple[int, int] = setting(_LENGTHS)
    noise_level: float = setting(*_SPREAD)
    classes: dict = setting(("a non-empty object of condition profiles", bool))
    name: str | None = None
    level_spread: float = setting(*_SPREAD, default=0.0)
    channel_spread: float = setting(*_SPREAD, default=0.0)
    voltage_scale: tuple[float, ...] = setting(_SCALES, default=(1.0,) * len(VOLTAGE_LEVELS))

    def __post_init__(self):
        check_fields(self)
        for name, profile in self.classes.items():
            by_name(name)  # raises on unknown condition
            try:
                read_object(_Profile, profile, "profile")
            except ValueError as exc:
                raise ValueError(f"class {name}: {exc}") from None


def load_recipe(name_or_path: str) -> dict:
    """Load a recipe by packaged name ("default", "facility_shift", ...) or
    path; a refusal leads with that name or path."""
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
        return vars(read_object(_Settings, json.loads(text), "recipe"))
    except ValueError as exc:
        raise RecipeError(f"{name_or_path}: {exc}") from None


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
    try:
        recipe = vars(read_object(_Settings, recipe, "recipe", **{k: v for k, v in overrides.items() if v is not None}))
    except ValueError as exc:
        raise RecipeError(str(exc)) from None
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
