"""Staged forward pass: shapes, residual wiring, probabilities, gradients."""

import dataclasses
import importlib
import inspect
import itertools
import math
import pkgutil

import numpy as np
import pytest

import mcdc
from mcdc.baselines import MODEL_KINDS, kind_of, make_model
from mcdc.conditions import N_CONDITIONS
from mcdc.model import _TYPE_RULES, McdcModel, ModelHyper, check_fields, positional_encoding
from mcdc.pipeline import DEFAULT_SWEEP_GRID
from mcdc.tensor import DimensionError, Tape, add, backward, cross_entropy, grad_check, tensor

TINY = ModelHyper(temporal_len=8, heads=2, kernel_temporal=3, kernel_channel=4, ffn_hidden=6)


def zeroed(model):
    for _, p in model.parameters():
        p.data[...] = 0.0
    return model


class TestPositionalEncoding:
    def test_column_zero(self):
        pe = positional_encoding(5, 8)
        assert np.array_equal(pe[:, 0], [0.0, 1.0, 0.0, 1.0, 0.0])

    def test_first_row_is_sin_t(self):
        pe = positional_encoding(5, 8)
        assert pe[0, 1] == pytest.approx(math.sin(1.0), abs=1e-15)
        assert pe[1, 1] == pytest.approx(math.cos(1.0), abs=1e-15)

    def test_scaled_rows(self):
        pe = positional_encoding(5, 4)
        assert pe[2, 3] == pytest.approx(math.sin(3.0 / 10000.0 ** (2.0 / 5.0)), abs=1e-15)
        assert pe[4, 2] == pytest.approx(math.sin(2.0 / 10000.0 ** (4.0 / 5.0)), abs=1e-15)

    def test_range(self):
        pe = positional_encoding(5, 50)
        assert np.all(pe >= -1.0) and np.all(pe <= 1.0)


class TestHyper:
    @pytest.mark.parametrize("value", [0, -2])
    @pytest.mark.parametrize("name", ["temporal_len", "heads", "kernel_temporal", "kernel_channel", "ffn_hidden"])
    def test_sizes_below_one_refused(self, name, value):
        # heads=0 used to build a model whose first forward failed
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
            ModelHyper(**{name: value})


    @pytest.mark.parametrize(
        "overrides,message",
        [
            # the temporal route's kernels slide along the 5 channels
            ({"kernel_temporal": 6}, "kernel_temporal must be <= 5"),
            ({"kernel_temporal": 50}, "kernel_temporal must be <= 5"),
            # the channel route's kernels slide along the temporal_len time steps
            ({"temporal_len": 8, "kernel_channel": 9}, "kernel_channel must be <= 8"),
        ],
    )
    def test_kernel_longer_than_its_route_refused(self, overrides, message):
        # a longer kernel has taps that only ever see padding
        with pytest.raises(ValueError, match=f"^{message}, the feature length its route slides along, got "):
            ModelHyper(**overrides)

    def test_kernels_as_long_as_their_route_accepted(self):
        ModelHyper(temporal_len=8, kernel_temporal=5, kernel_channel=8, attention="matrix")
        for cell in itertools.product(*DEFAULT_SWEEP_GRID.values()):
            ModelHyper(**dict(zip(DEFAULT_SWEEP_GRID, cell)))


def _checked_classes() -> list[type]:
    """Each dataclass of a package module whose __post_init__ runs check_fields."""
    found = []
    for info in pkgutil.iter_modules(mcdc.__path__):
        module = importlib.import_module(f"mcdc.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                post = getattr(cls, "__post_init__", None)
                if post is check_fields or (post is not None and "check_fields(self)" in inspect.getsource(post)):
                    found.append(cls)
    return found


class TestFieldRules:
    def test_every_checked_field_has_a_rule(self):
        # a field without a type rule or one of its own takes any value, e.g. a plan's folds as "abc"
        classes = _checked_classes()
        assert {"ModelHyper", "TrainConfig", "RunConfig", "SplitPlan", "_Settings"} <= {c.__name__ for c in classes}
        bare = [
            f"{cls.__name__}.{f.name}"
            for cls in classes
            for f in dataclasses.fields(cls)
            if f.type not in _TYPE_RULES and not f.metadata.get("rules")
        ]
        assert bare == []


class TestEmbed:
    def test_zero_input_yields_pe(self):
        model = McdcModel(TINY, seed=0)
        out = model.embed(tensor(np.zeros((5, 8))))
        assert np.array_equal(out.data, positional_encoding(5, 8))

    def test_embedding_is_additive(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 8))
        model = McdcModel(TINY, seed=0)
        out = model.embed(tensor(x))
        assert np.allclose(out.data - x, positional_encoding(5, 8), atol=1e-15)
        assert out.shape == (5, 8)

    def test_wrong_length_rejected(self):
        model = McdcModel(TINY, seed=0)
        from mcdc.tensor import DimensionError

        with pytest.raises(DimensionError):
            model.embed(tensor(np.zeros((5, 9))))


class TestStages:
    @pytest.mark.parametrize("heads", [1, 2, 4, 6])
    def test_temporal_output_shape(self, heads):
        hyper = ModelHyper(temporal_len=8, heads=heads, kernel_temporal=3, kernel_channel=4, ffn_hidden=6)
        model = McdcModel(hyper, seed=2)
        x = tensor(np.random.default_rng(3).normal(size=(5, 8)))
        assert model.temporal_interaction(model.embed(x)).shape == (5, 8)

    def test_channel_output_shape(self):
        model = McdcModel(TINY, seed=4)
        x = tensor(np.random.default_rng(5).normal(size=(5, 8)))
        assert model.channel_interaction(x).shape == (5, 8)

    def test_channel_attention_map_is_5x5(self):
        from mcdc.attention import attention_map, cnn_qkv
        from mcdc.tensor import transpose

        model = McdcModel(TINY, seed=6)
        x = tensor(np.random.default_rng(7).normal(size=(5, 8)))
        q, k, _ = cnn_qkv(transpose(x), model.params["channel_qkv"])
        assert attention_map(q, k).shape == (TINY.heads, 5, 5)

    def test_single_head_with_identity_mix_equals_head_output(self):
        from mcdc.attention import cnn_attention

        hyper = ModelHyper(temporal_len=8, heads=1, kernel_temporal=3, kernel_channel=4, ffn_hidden=6)
        model = McdcModel(hyper, seed=40)
        model.params["temporal_mix"].data[...] = np.eye(5)
        x = tensor(np.random.default_rng(41).normal(size=(5, 8)))
        embedded = model.embed(x)
        stage = model.temporal_interaction(embedded)
        head_out = cnn_attention(embedded, model.params["temporal_qkv"])
        assert head_out.shape == (1, 5, 8)
        assert np.allclose(stage.data, head_out.data[0], atol=1e-12)

    def test_dead_temporal_stage_passes_embedding_through(self):
        model = McdcModel(TINY, seed=8)
        for name, p in model.parameters():
            if name.startswith("temporal"):
                p.data[...] = 0.0
        x = tensor(np.random.default_rng(9).normal(size=(5, 8)))
        embedded = model.embed(x)
        temporal = model.temporal_interaction(embedded)
        assert np.all(temporal.data == 0.0)
        mixed = temporal.data + embedded.data
        assert np.array_equal(mixed, embedded.data)


class TestForward:
    @pytest.mark.parametrize("t_len", [8, 12])
    def test_supported_lengths(self, t_len):
        hyper = ModelHyper(temporal_len=t_len, heads=2, kernel_temporal=5, kernel_channel=6, ffn_hidden=8)
        model = McdcModel(hyper, seed=10)
        probs = model.predict_proba(np.random.default_rng(11).normal(size=(5, t_len)))
        assert probs.shape == (N_CONDITIONS,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_parameters_give_uniform(self):
        model = zeroed(McdcModel(TINY, seed=12))
        probs = model.predict_proba(np.random.default_rng(13).normal(size=(5, 8)))
        assert np.allclose(probs, 1.0 / N_CONDITIONS, atol=1e-12)

    def test_probability_vector_over_1000_draws(self):
        rng = np.random.default_rng(14)
        for trial in range(1000):
            model = McdcModel(TINY, seed=int(rng.integers(0, 2**31)))
            probs = model.predict_proba(rng.normal(size=(5, 8)))
            assert np.all(probs >= 0.0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_forward_deterministic(self):
        model = McdcModel(TINY, seed=15)
        x = np.random.default_rng(16).normal(size=(5, 8))
        assert np.array_equal(model.predict_proba(x), model.predict_proba(x))


class TestPredict:
    def test_argmax(self):
        model = McdcModel(TINY, seed=17)
        x = np.random.default_rng(18).normal(size=(5, 8))
        probs = model.predict_proba(x)
        assert model.predict(x).code == int(np.argmax(probs))

    def test_stack_refused(self):
        model = McdcModel(TINY, seed=17)
        with pytest.raises(DimensionError, match="not a stack of 3"):
            model.predict(np.zeros((3, 5, 8)))

    def test_tie_breaks_to_lowest_code(self):
        tied = np.array([0.1, 0.3, 0.3, 0.1, 0.1, 0.05, 0.05])
        assert int(np.argmax(tied)) == 1

    def test_monotone_transform_invariance(self):
        model = McdcModel(TINY, seed=19)
        x = np.random.default_rng(20).normal(size=(5, 8))
        probs = model.forward(x).data.ravel()
        pred = model.predict(x).code
        for transform in (lambda v: 3.0 * v + 2.0, np.tanh, lambda v: v**3):
            assert int(np.argmax(transform(probs))) == pred


class TestGradients:
    def test_full_model_gradient_check(self):
        model = McdcModel(
            ModelHyper(temporal_len=6, heads=2, kernel_temporal=3, kernel_channel=3, ffn_hidden=4),
            seed=21,
        )
        x = np.random.default_rng(22).normal(size=(5, 6))
        params = [p for _, p in model.parameters()]
        err = grad_check(lambda: cross_entropy(model.forward(x), 3), params)
        assert err < 1e-4

    def test_gradient_reaches_every_parameter_group(self):
        rng = np.random.default_rng(23)
        groups = ("temporal_qkv", "temporal_mix", "channel_qkv", "channel_mix", "ffn")
        hits = {g: 0 for g in groups}
        trials = 100
        model = McdcModel(TINY, seed=24)
        for trial in range(trials):
            x = rng.normal(size=(5, 8))
            with Tape() as tape:
                loss = cross_entropy(model.forward(x), trial % N_CONDITIONS)
                backward(tape, loss)
            for name, p in model.parameters():
                if p.grad is not None and np.any(p.grad != 0.0):
                    for g in groups:
                        if name.startswith(g):
                            hits[g] += 1
                            break
        for g in groups:
            # each group gathers hits from several parameters, so compare per-trial
            assert hits[g] >= 99 * sum(1 for n, _ in model.parameters() if n.startswith(g))


class TestMatrixVariantSwap:
    def test_shapes_identical_everywhere(self):
        conv = McdcModel(TINY, seed=25)
        mat = McdcModel(
            ModelHyper(temporal_len=8, heads=2, kernel_temporal=3, kernel_channel=4, ffn_hidden=6, attention="matrix"),
            seed=25,
        )
        x = tensor(np.random.default_rng(26).normal(size=(5, 8)))
        for model in (conv, mat):
            embedded = model.embed(x)
            temporal = model.temporal_interaction(embedded)
            channel = model.channel_interaction(add(temporal, embedded))
            assert embedded.shape == temporal.shape == channel.shape == (5, 8)
            probs = model.project(add(channel, temporal))
            assert probs.shape == (1, N_CONDITIONS)
            assert np.array_equal(probs.data, model.forward(x.data).data)
        assert kind_of(mat) == "mcdc-matrix"


class TestParameterRoundTrip:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_arrays_round_trip_bit_exact(self, kind):
        src = make_model(kind, temporal_len=8, seed=33)
        dst = make_model(kind, temporal_len=8, seed=99)
        dst.load_parameter_arrays(src.parameter_arrays())
        for (name_a, a), (name_b, b) in zip(src.parameters(), dst.parameters()):
            assert name_a == name_b
            assert np.array_equal(a.data, b.data)
