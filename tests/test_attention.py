"""Attention-map contracts for both projection variants."""

import math
import tracemalloc

import numpy as np
import pytest

from mcdc.attention import cnn_attention, matrix_attention, new_qkv
from mcdc import attention, tensor as tz
from mcdc.baselines import make_model
from mcdc.conditions import by_code
from mcdc.data import CdgdWindow
from mcdc.tensor import (
    DimensionError,
    Tape,
    add,
    backward,
    conv1d,
    cross_entropy,
    glorot,
    matmul,
    reshape,
    scaled_dot_softmax,
    split,
    tensor,
    transpose,
)
from mcdc.training import _batch_loss
from reference_ops import concat_cols, concat_rows


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


def _one_head_bank(kq, kk, kv):
    return tensor([[kq], [kk], [kv]])


class TestNewQkv:
    @pytest.mark.parametrize("heads,rows,cols", [(1, 1, 5), (4, 1, 6), (2, 5, 5), (3, 12, 12)])
    def test_equals_per_head_draws_restacked_projection_major(self, heads, rows, cols):
        stacked = new_qkv(np.random.default_rng(14), heads, rows, cols)
        rng = np.random.default_rng(14)
        drawn = [[glorot(rng, rows, cols).data for _ in "qkv"] for _ in range(heads)]
        expected = np.array([drawn[h][p] for p in range(3) for h in range(heads)])
        assert stacked.requires_grad
        assert stacked.data.tobytes() == expected.tobytes()
        assert stacked.shape == (3 * heads, rows, cols)


class TestCnnQkv:
    """A conv route's Q, K and V: split(conv1d(inp, bank), 3)."""

    def test_temporal_route_shapes(self):
        rng = np.random.default_rng(0)
        bank = new_qkv(rng, 1, 1, 5)
        # temporal route feeds the gas map as it is: tokens=time on columns
        q, k, v = split(conv1d(tensor(rng.normal(size=(5, 8))), bank), 3)
        assert q.shape == k.shape == v.shape == (1, 5, 8)

    def test_channel_route_shapes(self):
        # channel route feeds the gas map transposed: tokens=channels on columns
        rng = np.random.default_rng(1)
        bank = new_qkv(rng, 1, 1, 6)
        q, k, v = split(conv1d(tensor(rng.normal(size=(8, 5))), bank), 3)
        assert q.shape == k.shape == v.shape == (1, 8, 5)

    def test_identity_and_zero_kernels(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 8))
        bank = _one_head_bank([1.0], [0.0], [0.0])
        q, k, v = split(conv1d(tensor(x), bank), 3)
        assert np.array_equal(q.data[0], x)
        assert np.all(k.data == 0.0)
        assert np.all(v.data == 0.0)


class TestAttentionMap:
    """The attention map: scaled_dot_softmax(q, k)."""

    def test_identical_tokens_give_uniform_map(self):
        col = np.array([[1.0], [2.0], [0.5]])
        x = np.tile(col, (1, 4))
        amap = scaled_dot_softmax(tensor(x), tensor(x))
        assert np.allclose(amap.data, 0.25, atol=1e-12)

    def test_single_token(self):
        amap = scaled_dot_softmax(tensor([[1.0], [2.0]]), tensor([[0.3], [0.7]]))
        assert np.array_equal(amap.data, [[1.0]])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.normal(size=(3, 4))
            k = rng.normal(size=(3, 4))
            amap = scaled_dot_softmax(tensor(q), tensor(k))
            assert np.allclose(amap.data, naive_attention_map(q, k), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            scaled_dot_softmax(tensor(np.zeros((3, 4))), tensor(np.zeros((4, 3))))

    def test_columns_stochastic_many_draws(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            amap = scaled_dot_softmax(tensor(rng.normal(size=(d, n)) * 10), tensor(rng.normal(size=(d, n)) * 10))
            assert np.allclose(amap.data.sum(axis=0), 1.0, atol=1e-9)
            assert np.all(amap.data >= 0.0) and np.all(amap.data <= 1.0)


class TestAttend:
    """The weighted sum of value tokens: matmul(v, map)."""

    def test_identity_map(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(3, 4))
        out = matmul(tensor(v), tensor(np.eye(4)))
        assert np.allclose(out.data, v, atol=1e-15)

    def test_uniform_map_gives_mean_token(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(3, 4))
        out = matmul(tensor(v), tensor(np.full((4, 4), 0.25)))
        mean = v.mean(axis=1, keepdims=True)
        assert np.allclose(out.data, np.tile(mean, (1, 4)), atol=1e-12)

    def test_output_in_convex_hull(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.normal(size=(3, 5))
            amap = scaled_dot_softmax(tensor(rng.normal(size=(3, 5))), tensor(rng.normal(size=(3, 5))))
            out = matmul(tensor(v), amap)
            lo = v.min(axis=1, keepdims=True) - 1e-12
            hi = v.max(axis=1, keepdims=True) + 1e-12
            assert np.all(out.data >= lo) and np.all(out.data <= hi)


class TestVariants:
    def test_cnn_attention_shape_and_determinism(self):
        rng = np.random.default_rng(8)
        bank = new_qkv(np.random.default_rng(42), 1, 1, 5)
        x = rng.normal(size=(5, 8))
        a = cnn_attention(tensor(x), bank)
        b = cnn_attention(tensor(x), bank)
        assert a.shape == (1, 5, 8)
        assert np.array_equal(a.data, b.data)

    def test_zero_kernels_give_zero_output(self):
        bank = _one_head_bank([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        out = cnn_attention(tensor(np.random.default_rng(9).normal(size=(5, 8))), bank)
        assert np.all(out.data == 0.0)

    def test_identity_matrix_projections(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5, 8))
        out = matrix_attention(tensor(x), tensor([np.eye(5)] * 3))
        assert out.shape == (1, 5, 8)
        expected = matmul(tensor(x), scaled_dot_softmax(tensor(x), tensor(x)))
        assert np.allclose(out.data[0], expected.data, atol=1e-12)

    def test_drop_in_shapes_match(self):
        rng = np.random.default_rng(11)
        x = tensor(rng.normal(size=(5, 8)))
        conv_out = cnn_attention(x, new_qkv(rng, 1, 1, 5))
        mat_out = matrix_attention(x, new_qkv(rng, 1, 5, 5))
        assert conv_out.shape == mat_out.shape

    def test_parameter_counts(self):
        rng = np.random.default_rng(12)
        assert new_qkv(rng, 1, 1, 5).data.size == 15
        assert new_qkv(rng, 1, 5, 5).data.size == 75

    @pytest.mark.parametrize("feature_dim,kernel", [(5, 5), (5, 6), (8, 6), (12, 8)])
    def test_conv_has_fewer_parameters_when_kernel_below_dim_squared(self, feature_dim, kernel):
        rng = np.random.default_rng(13)
        assert kernel < feature_dim**2
        assert new_qkv(rng, 1, 1, kernel).data.size < new_qkv(rng, 1, feature_dim, feature_dim).data.size


# The per-head computation the stacked routes replaced, kept as the
# independent reference: one conv1d (or matmul) per head and projection.


def heads_of(qkv):
    """Each head's (q, k, v) entries of a route's (3H, rows, cols) stack, as
    (1, rows, cols) parts, so a gradient through any of them reaches the stack."""
    parts = split(qkv, qkv.shape[0])
    heads = len(parts) // 3
    return [(parts[h], parts[heads + h], parts[2 * heads + h]) for h in range(heads)]


def reference_cnn_head(inp, kernels):
    # each kernel alone as a one-kernel bank; reshape drops the bank axis
    q, k, v = (reshape(conv1d(inp, kern), inp.shape) for kern in kernels)
    return matmul(v, scaled_dot_softmax(q, k))


def reference_matrix_head(inp, matrices):
    # reshape turns each (1, d, d) part into its d x d matrix
    q, k, v = (matmul(reshape(w, w.shape[1:]), inp) for w in matrices)
    return matmul(v, scaled_dot_softmax(q, k))


def reference_forward(model, x):
    head_fn = reference_cnn_head if model.hyper.attention == "conv" else reference_matrix_head
    embedded = model.embed(tensor(x))
    p = model.params
    temporal = matmul(p["temporal_mix"], concat_rows([head_fn(embedded, h) for h in heads_of(p["temporal_qkv"])]))
    mixed = add(temporal, embedded)
    tokens_channels = transpose(mixed)
    outs = [transpose(head_fn(tokens_channels, h)) for h in heads_of(p["channel_qkv"])]
    channel = matmul(concat_cols(outs), p["channel_mix"])
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
            p = model.params
            routes = ((tensor(x), p["temporal_qkv"]), (tensor(x.swapaxes(-1, -2)), p["channel_qkv"]))
            for inp, qkv in routes:
                out = route(inp, qkv)
                assert out.shape == inp.shape[:-2] + (heads,) + inp.shape[-2:]
                for h, entries in enumerate(heads_of(qkv)):
                    assert np.array_equal(out.data[..., h, :, :], head_fn(inp, entries).data)

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


class TestConvRouteBuffers:
    def test_qkv_share_the_one_buffer_of_the_conv_result(self):
        # on a tape, conv1d's result and the q, k and v splits of it are
        # views of one buffer the size of that result
        rng = np.random.default_rng(37)
        bank = new_qkv(rng, 4, 1, 5)
        with Tape() as tape:
            q, k, v = split(conv1d(tensor(rng.normal(size=(6, 5, 12))), bank), 3)
        conv = tape.nodes[0]
        assert len(tape.nodes) == 4 and conv.shape == (6, 12, 5, 12)
        buffer = conv.data.base
        assert buffer.nbytes == conv.data.nbytes
        assert all(node.data.base is buffer for node in tape.nodes)

    def test_map_node_reads_the_block_views_and_keeps_no_scores(self):
        # on a stock conv step, each route's map node has the q and k splits
        # of its conv1d block as its parents, and no tape node holds k^T or
        # the scores before the softmax, scaled or not
        model = make_model("mcdc", 12, 0)
        rng = np.random.default_rng(38)
        batch = [CdgdWindow("t", i, rng.normal(size=(5, 12)), by_code(i % 7)) for i in range(8)]
        with Tape() as tape:
            _batch_loss(model, batch)

        def made_by(op):
            return [i for i, node in enumerate(tape.nodes) if node._backward.__qualname__.startswith(op + ".")]

        convs, maps = made_by("conv1d"), made_by("scaled_dot_softmax")
        assert len(convs) == len(maps) == 2
        for i, m in zip(convs, maps):
            amap = tape.nodes[m]
            conv, q, k = tape.nodes[i], tape.nodes[i + 1], tape.nodes[i + 2]
            assert amap._parents == (q, k)
            assert q._parents == k._parents == (conv,)
            assert q.data.base is conv.data.base and k.data.base is conv.data.base
            k_t = k.data.swapaxes(-1, -2)
            scores = k_t @ q.data
            for held in (k_t, scores, scores * (1.0 / math.sqrt(q.shape[-2]))):
                assert not any(node.shape == held.shape and np.array_equal(node.data, held) for node in tape.nodes)

    def test_block_and_its_gradient_keep_the_tap_sums_layout(self, monkeypatch):
        # on a stock conv step, each conv1d block is a (B, 3H, d, n) view of
        # one C-contiguous (3H, d, B, n) buffer, split hands the conv rule a
        # gradient of the block's strides, and the rule's (3H, d, B, n)
        # transpose of it is that gradient's memory, not a copy
        model = make_model("mcdc", 12, 0)
        rng = np.random.default_rng(40)
        batch = [CdgdWindow("t", i, rng.normal(size=(5, 12)), by_code(i % 7)) for i in range(8)]
        with Tape() as tape:
            loss = _batch_loss(model, batch)
        convs = [node for node in tape.nodes if node._backward.__qualname__.startswith("conv1d.")]
        assert len(convs) == 2
        seen = {}
        for conv in convs:
            sums_order = conv.data.transpose((1, 2, 0, 3))
            assert sums_order.flags.c_contiguous and conv.data.base.nbytes == conv.data.nbytes
            assert np.shares_memory(sums_order, conv.data.base)
            rule = conv._backward

            def watched(g, conv=conv, rule=rule):
                seen[id(conv)] = g
                rule(g)

            conv._backward = watched
        copies = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def ascontiguousarray(self, a):
                copies.append((a, np.ascontiguousarray(a)))
                return copies[-1][1]

        monkeypatch.setattr(tz, "np", RecordingNumpy())
        backward(tape, loss)
        for conv in convs:
            g = seen[id(conv)]
            assert g.strides == conv.data.strides
            in_sums_order = [out for a, out in copies if a.shape == conv.data.transpose((1, 2, 0, 3)).shape
                             and np.shares_memory(a, g)]
            # the temporal route's input is a constant, so only the channel
            # route's rule makes a signal gradient
            assert len(in_sums_order) == (1 if conv is convs[1] else 0)
            assert all(np.shares_memory(out, g) for out in in_sums_order)


class TestStepMemory:
    def test_traced_peak_of_a_200_window_conv_step(self):
        # tracemalloc peak of one B = 200, T = 12 stock-conv forward plus
        # backward, numpy's buffers included: 9.58 MB measured (numpy 2.4),
        # in the channel route's conv1d rule, pinned at 10.2 MB, a 6 %
        # margin. Copying the conv block out of its tap sums' buffer in the
        # forward, or its gradient into the (K, L, B, n) order in the
        # backward (10.73 MB either way), holding a C-contiguous copy of
        # each route's k^T, the unnormalized scores in a buffer of their own
        # or the conv routes' q/k/v apart from the conv result takes it past
        # the pin.
        model = make_model("mcdc", 12, 0)
        rng = np.random.default_rng(39)
        batch = [CdgdWindow("t", i, rng.normal(size=(5, 12)), by_code(i % 7)) for i in range(200)]
        tracemalloc.start()
        try:
            with Tape() as tape:
                backward(tape, _batch_loss(model, batch))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10.2e6, f"traced peak {peak / 1e6:.2f} MB"


class TestStockModelOpCount:
    """Guard: a route is one stack, so a per-head loop would show here."""

    @pytest.mark.parametrize("kind,nodes", [("mcdc", 29), ("mcdc-matrix", 34)])
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
