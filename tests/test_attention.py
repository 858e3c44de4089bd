"""Attention-map contracts for both projection variants."""

import math

import numpy as np
import pytest

from mcdc.attention import (
    CnnAttentionHead,
    attend,
    attention_map,
    cnn_attention,
    cnn_qkv,
    head_parameter_count,
    matrix_attention,
    new_cnn_head,
    new_matrix_head,
    same_padding,
)
from mcdc import attention, tensor as tz
from mcdc.baselines import make_model
from mcdc.conditions import by_code
from mcdc.data import CdgdWindow
from mcdc.tensor import (
    DimensionError,
    Tape,
    add,
    backward,
    concat_cols,
    concat_rows,
    conv1d,
    cross_entropy,
    matmul,
    tensor,
    transpose,
)
from mcdc.training import _batch_loss


def naive_attention_map(q, k):
    d, n = q.shape
    scores = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            scores[i, j] = np.dot(k[:, i], q[:, j]) / math.sqrt(d)
    out = np.zeros_like(scores)
    for j in range(n):
        col = scores[:, j]
        e = np.exp(col - col.max())
        out[:, j] = e / e.sum()
    return out


def _head_from_kernels(kq, kk, kv):
    size = len(kq)
    return CnnAttentionHead(tensor([kq]), tensor([kk]), tensor([kv]), size)


class TestSamePadding:
    @pytest.mark.parametrize("k,expected", [(1, (0, 0)), (3, (1, 1)), (5, (2, 2)), (6, (2, 3)), (8, (3, 4))])
    def test_pairs(self, k, expected):
        assert same_padding(k) == expected

    @pytest.mark.parametrize("k", range(1, 9))
    def test_preserves_length(self, k):
        left, right = same_padding(k)
        length = 10
        assert (length + left + right - k) + 1 == length


class TestCnnQkv:
    def test_temporal_route_shapes(self):
        rng = np.random.default_rng(0)
        head = new_cnn_head(5, rng)
        # temporal route feeds the gas map transposed: tokens=time on rows
        q, k, v = cnn_qkv(tensor(rng.normal(size=(8, 5))), [head])
        assert q.shape == k.shape == v.shape == (1, 5, 8)

    def test_channel_route_shapes(self):
        # channel route feeds the gas map as it is: tokens=channels on rows
        rng = np.random.default_rng(1)
        head = new_cnn_head(6, rng)
        q, k, v = cnn_qkv(tensor(rng.normal(size=(5, 8))), [head])
        assert q.shape == k.shape == v.shape == (1, 8, 5)

    def test_identity_and_zero_kernels(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 8))
        head = _head_from_kernels([1.0], [0.0], [0.0])
        q, k, v = cnn_qkv(tensor(x.T), [head])
        assert np.array_equal(q.data[0], x)
        assert np.all(k.data == 0.0)
        assert np.all(v.data == 0.0)


class TestAttentionMap:
    def test_identical_tokens_give_uniform_map(self):
        col = np.array([[1.0], [2.0], [0.5]])
        x = np.tile(col, (1, 4))
        amap = attention_map(tensor(x), tensor(x))
        assert np.allclose(amap.data, 0.25, atol=1e-12)

    def test_single_token(self):
        amap = attention_map(tensor([[1.0], [2.0]]), tensor([[0.3], [0.7]]))
        assert np.array_equal(amap.data, [[1.0]])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.normal(size=(3, 4))
            k = rng.normal(size=(3, 4))
            amap = attention_map(tensor(q), tensor(k))
            assert np.allclose(amap.data, naive_attention_map(q, k), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            attention_map(tensor(np.zeros((3, 4))), tensor(np.zeros((4, 3))))

    def test_columns_stochastic_many_draws(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            amap = attention_map(tensor(rng.normal(size=(d, n)) * 10), tensor(rng.normal(size=(d, n)) * 10))
            assert np.allclose(amap.data.sum(axis=0), 1.0, atol=1e-9)
            assert np.all(amap.data >= 0.0) and np.all(amap.data <= 1.0)


class TestAttend:
    def test_identity_map(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(3, 4))
        out = attend(tensor(v), tensor(np.eye(4)))
        assert np.allclose(out.data, v, atol=1e-15)

    def test_uniform_map_gives_mean_token(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(3, 4))
        out = attend(tensor(v), tensor(np.full((4, 4), 0.25)))
        mean = v.mean(axis=1, keepdims=True)
        assert np.allclose(out.data, np.tile(mean, (1, 4)), atol=1e-12)

    def test_output_in_convex_hull(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.normal(size=(3, 5))
            amap = attention_map(tensor(rng.normal(size=(3, 5))), tensor(rng.normal(size=(3, 5))))
            out = attend(tensor(v), amap)
            lo = v.min(axis=1, keepdims=True) - 1e-12
            hi = v.max(axis=1, keepdims=True) + 1e-12
            assert np.all(out.data >= lo) and np.all(out.data <= hi)


class TestVariants:
    def test_cnn_attention_shape_and_determinism(self):
        rng = np.random.default_rng(8)
        head = new_cnn_head(5, np.random.default_rng(42))
        x = rng.normal(size=(5, 8))
        a = cnn_attention(tensor(x.T), [head])
        b = cnn_attention(tensor(x.T), [head])
        assert a.shape == (1, 5, 8)
        assert np.array_equal(a.data, b.data)

    def test_zero_kernels_give_zero_output(self):
        head = _head_from_kernels([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        out = cnn_attention(tensor(np.random.default_rng(9).normal(size=(5, 8))), [head])
        assert np.all(out.data == 0.0)

    def test_identity_matrix_projections(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5, 8))
        eye = tensor(np.eye(5))
        from mcdc.attention import MatrixAttentionHead

        out = matrix_attention(tensor(x), [MatrixAttentionHead(eye, eye, eye)])
        assert out.shape == (1, 5, 8)
        expected = attend(tensor(x), attention_map(tensor(x), tensor(x)))
        assert np.allclose(out.data[0], expected.data, atol=1e-12)

    def test_drop_in_shapes_match(self):
        rng = np.random.default_rng(11)
        x = tensor(rng.normal(size=(5, 8)))
        conv_out = cnn_attention(transpose(x), [new_cnn_head(5, rng)])
        mat_out = matrix_attention(x, [new_matrix_head(5, rng)])
        assert conv_out.shape == mat_out.shape

    def test_parameter_counts(self):
        rng = np.random.default_rng(12)
        assert head_parameter_count(new_cnn_head(5, rng)) == 15
        assert head_parameter_count(new_matrix_head(5, rng)) == 75

    @pytest.mark.parametrize("feature_dim,kernel", [(5, 5), (5, 6), (8, 6), (12, 8)])
    def test_conv_has_fewer_parameters_when_kernel_below_dim_squared(self, feature_dim, kernel):
        rng = np.random.default_rng(13)
        assert kernel < feature_dim**2
        assert head_parameter_count(new_cnn_head(kernel, rng)) < head_parameter_count(
            new_matrix_head(feature_dim, rng)
        )


# The per-head computation the stacked routes replaced, kept as the
# independent reference: one conv1d (or matmul) per head and projection.


def reference_cnn_head(inp, head):
    tokens_rows = transpose(inp)
    pad = same_padding(head.kernel_size)
    kernels = (head.kernel_q, head.kernel_k, head.kernel_v)
    q, k, v = (transpose(conv1d(tokens_rows, kern, padding=pad)) for kern in kernels)
    return attend(v, attention_map(q, k))


def reference_matrix_head(inp, head):
    q, k, v = (matmul(w, inp) for w in (head.w_q, head.w_k, head.w_v))
    return attend(v, attention_map(q, k))


def reference_forward(model, x):
    head_fn = reference_cnn_head if model.hyper.attention == "conv" else reference_matrix_head
    embedded = model.embed(tensor(x))
    temporal = matmul(model.mix_temporal, concat_rows([head_fn(embedded, h) for h in model.temporal_heads]))
    mixed = add(temporal, embedded)
    tokens_channels = transpose(mixed)
    outs = [transpose(head_fn(tokens_channels, h)) for h in model.channel_heads]
    channel = matmul(concat_cols(outs), model.mix_channel)
    return model.project(add(channel, temporal))


ROUTE_CASES = [(kind, heads) for kind in ("mcdc", "mcdc-matrix") for heads in (1, 2, 4)]


def _route_model(kind, heads, seed=31):
    return make_model(kind, 8, seed, heads=heads, kernel_temporal=3, kernel_channel=4, ffn_hidden=8)


class TestStackedRoutes:
    """All heads of a route as one stack, against the per-head reference."""

    @pytest.mark.parametrize("kind,heads", ROUTE_CASES)
    def test_route_output_equals_each_head_alone(self, kind, heads):
        model = _route_model(kind, heads)
        if kind == "mcdc":
            route, head_fn = attention.cnn_attention, reference_cnn_head
        else:
            route, head_fn = attention.matrix_attention, reference_matrix_head
        rng = np.random.default_rng(32)
        for x in (rng.normal(size=(5, 8)), rng.normal(size=(6, 5, 8))):
            routes = ((tensor(x), model.temporal_heads), (tensor(x.swapaxes(-1, -2)), model.channel_heads))
            for inp, route_heads in routes:
                # the conv route takes its d x n input transposed, tokens on rows
                out = route(transpose(inp) if kind == "mcdc" else inp, route_heads)
                assert out.shape == inp.shape[:-2] + (heads,) + inp.shape[-2:]
                for h, head in enumerate(route_heads):
                    assert np.array_equal(out.data[..., h, :, :], head_fn(inp, head).data)

    @pytest.mark.parametrize("kind,heads", ROUTE_CASES)
    def test_predict_proba_equals_per_head_reference(self, kind, heads):
        model = _route_model(kind, heads)
        rng = np.random.default_rng(33)
        x = rng.normal(scale=2.0, size=(9, 5, 8))
        assert model.predict_proba(x).tobytes() == reference_forward(model, x).data[:, 0, :].tobytes()
        assert model.predict_proba(x[0]).tobytes() == reference_forward(model, x[0]).data[0].tobytes()

    @pytest.mark.parametrize("kind,heads", ROUTE_CASES)
    def test_batch_loss_gradients_match_per_head_reference(self, kind, heads):
        model = _route_model(kind, heads)
        rng = np.random.default_rng(34)
        batch = [CdgdWindow("t", i, rng.normal(scale=2.0, size=(5, 8)), by_code(i % 7)) for i in range(20)]

        def grads(loss_fn):
            with Tape() as tape:
                loss = loss_fn()
                backward(tape, loss)
            return loss.item(), {name: p.grad.copy() for name, p in model.parameters()}

        loss, got = grads(lambda: _batch_loss(model, batch))
        x = np.stack([w.values for w in batch])
        labels = np.array([w.label.code for w in batch])
        ref_loss, ref = grads(lambda: cross_entropy(reference_forward(model, x), labels))
        assert loss == ref_loss
        for name, g in ref.items():
            assert np.abs(got[name] - g).max() <= 1e-12 * np.abs(g).max(), name


class TestStockModelOpCount:
    """Guard: a route is one stack, so a per-head loop would show here."""

    @pytest.mark.parametrize("kind,nodes", [("mcdc", 38), ("mcdc-matrix", 40)])
    def test_tape_nodes_per_batch(self, kind, nodes):
        model = make_model(kind, 12, 0)
        rng = np.random.default_rng(35)
        batch = [CdgdWindow("t", i, rng.normal(size=(5, 12)), by_code(i % 7)) for i in range(8)]
        with Tape() as tape:
            _batch_loss(model, batch)
        assert len(tape.nodes) == nodes

    def test_two_conv1d_calls_per_forward(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return tz.conv1d(*args, **kwargs)

        monkeypatch.setattr(attention, "conv1d", counted)
        model = make_model("mcdc", 12, 0)
        assert model.hyper.heads == 4
        model.predict_proba(np.random.default_rng(36).normal(size=(5, 12)))
        assert calls == [(12, 1, 5), (12, 1, 6)]
