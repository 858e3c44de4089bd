"""Core tensor ops against naive oracles and finite differences.

The naive oracles (`naive_matmul`, and conv1d's tap loops `naive_correlate`,
`naive_conv` and `naive_conv_grads`) live once, in `mcdc.verify`, which the
`mcdc verify` checks and the acceptance suite read too."""

import math
import warnings

import numpy as np
import pytest

from mcdc import tensor as tz
from mcdc.attention import new_qkv
from mcdc.tensor import (
    DimensionError,
    Tape,
    Tensor,
    add,
    add_n,
    backward,
    conv1d,
    cross_entropy,
    grad_check,
    matmul,
    mul,
    parameter,
    reshape,
    scaled_dot_softmax,
    sigmoid,
    softmax_cols,
    split,
    sum_all,
    tensor,
    transpose,
)
from mcdc.verify import naive_conv, naive_conv_grads, naive_correlate, naive_matmul
from reference_ops import concat_rows, scale


class TestMatmul:
    def test_identity(self):
        a = tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(tensor(np.eye(2)), a)
        assert np.array_equal(out.data, a.data)

    def test_row_times_col(self):
        out = matmul(tensor([[1.0, 2.0]]), tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.item() == 11.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(4, 2))
            out = matmul(tensor(a), tensor(b))
            assert np.allclose(out.data, naive_matmul(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 3))))


class TestConv1d:
    def test_hand_example(self):
        sig = tensor([[1.0], [2.0], [3.0], [4.0], [5.0]])
        kern = tensor([[[1.0, 0.0, -1.0]]])
        out = conv1d(sig, kern)
        assert np.allclose(out.data, [[[-2.0], [-2.0], [-2.0], [-2.0], [4.0]]])

    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        sig = rng.normal(size=(4, 9))
        out = conv1d(tensor(sig), tensor([[[1.0]]]))
        assert np.array_equal(out.data[0], sig)

    def test_same_padding_length(self):
        out = conv1d(tensor(np.ones((5, 1))), tensor(np.ones((1, 1, 5))))
        assert out.shape == (1, 5, 1)

    @pytest.mark.parametrize("k,pads", [(1, (0, 0)), (3, (1, 1)), (5, (2, 2)), (6, (2, 3)), (8, (3, 4))])
    def test_same_length_padding(self, k, pads):
        # an even kernel takes one more zero below each column than above it;
        # the oracle pads and slides along rows, so it reads the signal transposed
        rng = np.random.default_rng(3)
        sig = rng.normal(size=(2, 10))
        kern = rng.normal(size=k)
        out = conv1d(tensor(sig.T), tensor(kern.reshape(1, 1, k)))
        assert out.shape == (1, 10, 2)
        assert np.array_equal(out.data[0].T, naive_correlate(np.pad(sig, ((0, 0), pads)), kern))

    @pytest.mark.parametrize("shape", [(5,), (1, 5), (3, 2, 2), (2, 1, 0)])
    def test_refuses_anything_but_a_k_by_1_by_taps_bank(self, shape):
        with pytest.raises(DimensionError, match=r"\(K, 1, k\)"):
            conv1d(tensor(np.ones((2, 6))), tensor(np.ones(shape)))

    def test_matches_naive_oracle_on_random_geometries(self):
        # odd cases: a stack of 12 kernels, a route's 3H bank at H = 4, over a
        # (B, L, cols) stack of signals, every (kernel, column) pair; the
        # oracle slides along rows, so it reads the signal transposed
        rng = np.random.default_rng(2)
        for case in range(200):
            length = int(rng.integers(1, 12))
            k = int(rng.integers(1, 7))
            rows = int(rng.integers(1, 6))
            if case % 2 == 0:
                sig = rng.normal(size=(rows, length))
                kern = rng.normal(size=k)
                out = conv1d(tensor(sig.T), tensor(kern.reshape(1, 1, k)))
                assert np.array_equal(out.data[0].T, naive_conv(sig, kern))
                continue
            sig = rng.normal(size=(int(rng.integers(1, 5)), rows, length))
            bank = rng.normal(size=(12, 1, k))
            out = conv1d(tensor(sig.swapaxes(-1, -2)), tensor(bank)).data
            for b in range(sig.shape[0]):
                for i in range(12):
                    assert np.array_equal(out[b, i].T, naive_conv(sig[b], bank[i, 0]))

    def test_gradients_bit_exact_against_tap_loops(self):
        # both gradients byte for byte against naive_conv_grads' tap loops,
        # which add tap by tap and then kernel by kernel. Zeros and signed
        # zeros check that padding terms leave every bit, zero signs included,
        # unchanged. Every other case is a 12-kernel stack, a route's 3H bank
        # at H = 4, over a (B, L, cols) stack of signals; the rest are
        # one-kernel banks. The tap loops slide along rows, so they read the
        # signal and the output gradient transposed.
        rng = np.random.default_rng(4)
        for case in range(400):
            length = int(rng.integers(1, 14))
            k = int(rng.integers(1, 8))
            rows = int(rng.integers(1, 13))
            stacked = case % 2 == 1
            lead = (int(rng.integers(1, 5)),) if stacked else ()
            sig = rng.normal(size=lead + (rows, length))
            kern = rng.normal(size=(12 if stacked else 1, 1, k))
            if case % 3 == 1:
                sig[rng.random(sig.shape) < 0.5] = -0.0
                kern[rng.random(kern.shape) < 0.3] = -0.0
            s, kt = parameter(sig.swapaxes(-1, -2)), parameter(kern)
            with Tape() as tape:
                out = conv1d(s, kt)
                g = rng.normal(size=out.shape)
                if case % 3 == 2:
                    g[rng.random(g.shape) < 0.5] = 0.0
                backward(tape, sum_all(mul(out, tensor(g))))
            dsig, dk = naive_conv_grads(sig, kern, np.ascontiguousarray(g.swapaxes(-1, -2)))
            assert kt.grad.tobytes() == dk.tobytes()
            assert s.grad.swapaxes(-1, -2).tobytes() == dsig.tobytes()

    @pytest.mark.parametrize("lead", [(), (1,)])
    def test_signal_gradient_of_a_lone_sample_adds_the_kernels_in_order(self, lead):
        # a 1 x 1 signal under twelve 1-tap kernels: the signal's gradient is
        # one element, the kernels' products added one after another from
        # zero, as the tap loops add them; a pairwise sum rounds otherwise
        taps = np.array([1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1e16])
        s, kt = parameter(np.ones(lead + (1, 1))), parameter(taps.reshape(12, 1, 1))
        with Tape() as tape:
            backward(tape, sum_all(conv1d(s, kt)))
        expected = 0.0
        for tap in taps:
            expected += tap
        assert s.grad.tobytes() == np.full(lead + (1, 1), expected).tobytes()


class TestSoftmax:
    def test_equal_scores(self):
        out = softmax_cols(tensor([[0.0], [0.0]]))
        assert np.allclose(out.data, [[0.5], [0.5]])

    def test_shift_stability_no_overflow(self):
        big = 1e6
        out = softmax_cols(tensor([[big], [big - 20.0]]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert out.data[1, 0] == pytest.approx(math.exp(-20.0), rel=1e-6)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.uniform(-100, 100, size=(4, 4))
            out = softmax_cols(tensor(x))
            assert np.allclose(out.data.sum(axis=0), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 4))
        a = softmax_cols(tensor(x))
        b = softmax_cols(tensor(x + 7.25))
        assert np.allclose(a.data, b.data, atol=1e-12)

    @pytest.mark.parametrize("t_len", [12, 48])
    def test_same_bytes_as_the_out_of_place_formula(self, t_len):
        # the forward and backward written with a fresh buffer per step, on
        # temporal-map stacks with entries at +-700, where exp(x - max) ranges
        # from 1 down past underflow; the in-place ones must match them bit for bit
        rng = np.random.default_rng(t_len)
        x = rng.normal(scale=5.0, size=(200, 4, t_len, t_len))
        x.flat[::97] = 700.0
        x.flat[5::89] = -700.0
        x[3, 2] = -700.0  # every entry of some columns at the floor
        g = rng.normal(size=x.shape)
        e = np.exp(x - x.max(axis=-2, keepdims=True))
        y = e / e.sum(axis=-2, keepdims=True)
        dx = y * (g - (y * g).sum(axis=-2, keepdims=True))
        xp = parameter(x)
        with Tape() as tape:
            out = softmax_cols(xp)
            backward(tape, sum_all(mul(out, tensor(g))))  # hands softmax_cols exactly g
        assert out.data.tobytes() == y.tobytes()
        assert xp.grad.tobytes() == dx.tobytes()


def _unfused_map(q, k):
    """The attention map as the chain of nodes it was: transpose, matmul,
    a scale node and softmax_cols."""
    return softmax_cols(scale(matmul(transpose(k), q), 1.0 / math.sqrt(q.shape[-2])))


def _map_inputs(case):
    """(q, k) data of one layout the models feed the map."""
    rng = np.random.default_rng(41)
    if case == "2-D":
        return rng.normal(scale=2.0, size=(5, 12)), rng.normal(scale=2.0, size=(5, 12))
    if case.startswith("conv-block-views"):
        # the q and k splits of one conv1d block, a (B, 12, 5, T) temporal
        # stack: views whose matrices are C-contiguous, whose stack is not
        batch, length = {"conv-block-views": (8, 12), "conv-block-views-B200": (200, 12),
                         "conv-block-views-T48": (8, 48)}[case]
        q, k, _ = split(conv1d(tensor(rng.normal(scale=2.0, size=(batch, 5, length))), new_qkv(rng, 4, 1, 5)), 3)
        assert q.data.base is k.data.base
        return q.data, k.data
    # the matrix route: (4, 5, 5) head matrices broadcast over a (8, 1, 5, 12) batch
    w = rng.normal(size=(3, 4, 5, 5))
    x = rng.normal(scale=2.0, size=(8, 1, 5, 12))
    return w[0] @ x, w[1] @ x


class TestScaledDotSoftmax:
    @pytest.mark.parametrize(
        "case", ["2-D", "conv-block-views", "conv-block-views-B200", "conv-block-views-T48", "matrix-head-stack"])
    def test_same_bytes_as_the_unfused_chain(self, case):
        # the map and both input gradients, bit for bit, against transpose,
        # matmul, scale and softmax_cols as separate nodes; q and k keep the
        # layout the route hands the map
        q_data, k_data = _map_inputs(case)
        n = q_data.shape[-1]
        g = tensor(np.random.default_rng(42).normal(size=q_data.shape[:-2] + (n, n)))
        results = []
        for fn in (scaled_dot_softmax, _unfused_map):
            q, k = parameter(q_data), parameter(k_data)
            assert q.data is q_data and k.data is k_data
            with Tape() as tape:
                out = fn(q, k)
                backward(tape, sum_all(mul(out, g)))
            results.append((out.data.tobytes(), q.grad.tobytes(), k.grad.tobytes(), len(tape.nodes)))
        (out, dq, dk, nodes), (ref_out, ref_dq, ref_dk, ref_nodes) = results
        assert out == ref_out and dq == ref_dq and dk == ref_dk
        assert nodes == ref_nodes - 3  # transpose, matmul and scale

    def test_keeps_only_the_map(self):
        # the node's rule reads q, k and its own result: no copy of k^T and
        # no unnormalized scores are kept for the backward
        q, k = (parameter(a) for a in _map_inputs("conv-block-views"))
        with Tape() as tape:
            out = scaled_dot_softmax(q, k)
        assert tape.nodes == [out] and out._parents == (q, k)
        kept = [c.cell_contents for c in out._backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        assert len(kept) == 1 and kept[0] is out.data

    @pytest.mark.parametrize("case", ["2-D", "conv-block-views", "matrix-head-stack"])
    def test_the_map_is_keys_first(self, case):
        # the map's base buffer is one C-contiguous (n_key, ..., n_query)
        # array, so the softmax reduces along its leading axis
        q_data, k_data = _map_inputs(case)
        out = scaled_dot_softmax(tensor(q_data), tensor(k_data)).data
        n, s = q_data.shape[-1], q_data.ndim - 2
        assert out.shape == q_data.shape[:-2] + (n, n)
        buffer = out.base
        assert buffer.shape == (n,) + q_data.shape[:-2] + (n,) and buffer.flags.c_contiguous
        assert out.transpose((s, *range(s), s + 1)).strides == buffer.strides

    def test_matmul_hands_a_keys_first_operand_a_keys_first_gradient(self):
        # matmul writes the gradient of a strided, unbroadcast operand in the
        # operand's own layout, here a keys-first (n, B, H, n) buffer's
        # (B, H, n, n) view as the routes' map, with the bytes of the C-layout
        # product; so does the conv block's v split, a view of conv1d's
        # (K, L, B, n) buffer
        rng = np.random.default_rng(43)
        _, _, v = split(conv1d(tensor(rng.normal(size=(8, 5, 12))), new_qkv(rng, 4, 1, 5)), 3)
        v = Tensor(v.data, requires_grad=True)
        amap = Tensor(rng.normal(size=(12, 8, 4, 12)).transpose((1, 2, 0, 3)), requires_grad=True)
        g = rng.normal(size=v.shape)
        with Tape() as tape:
            out = matmul(v, amap)
        out._backward(g)
        assert tape.nodes == [out] and amap.grad.strides == amap.data.strides
        assert amap.grad.tobytes() == (v.data.swapaxes(-1, -2) @ g).tobytes()
        assert v.grad.strides == v.data.strides and v.grad.tobytes() == (g @ amap.data.swapaxes(-1, -2)).tobytes()


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(tensor([[0.0]])).item() == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        x = rng.normal(scale=3.0, size=(2, 5))
        s = sigmoid(tensor(x)).data + sigmoid(tensor(-x)).data
        assert np.allclose(s, 1.0, atol=1e-15)

    def test_log3(self):
        assert sigmoid(tensor([[math.log(3.0)]])).item() == pytest.approx(0.75, abs=1e-15)

    def test_extreme_inputs_stay_finite(self):
        out = sigmoid(tensor([[-1000.0, 1000.0]]))
        assert np.all(np.isfinite(out.data))
        assert 0.0 <= out.data[0, 0] <= 1.0

    def test_same_bytes_as_the_masked_two_branch_form(self):
        # exp(-x) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere, each
        # branch on its own masked entries; RuntimeWarning is an error here
        def masked(d):
            y = np.empty_like(d)
            pos = d >= 0
            y[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
            ex = np.exp(d[~pos])
            y[~pos] = ex / (1.0 + ex)
            return y

        edges = np.array([0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0, -745.0, 1e308, -1e308])
        rng = np.random.default_rng(22)
        matrix = np.concatenate([edges, rng.normal(scale=5.0, size=30)]).reshape(5, 8)
        batch = np.concatenate([edges, rng.normal(size=50)]).reshape(3, 4, 5)
        for d in (matrix, batch):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = sigmoid(tensor(d)).data
            assert out.shape == d.shape
            assert out.tobytes() == masked(d).tobytes()


class TestCrossEntropy:
    def test_perfect_prediction(self):
        probs = np.zeros(5)
        probs[0] = 1.0
        assert cross_entropy(tensor(probs), 0).item() == 0.0

    def test_uniform_seven(self):
        out = cross_entropy(tensor(np.full(7, 1.0 / 7.0)), 3)
        assert out.item() == pytest.approx(math.log(7.0), abs=1e-12)

    def test_half_half(self):
        out = cross_entropy(tensor([0.5, 0.5]), 1)
        assert out.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(tensor([0.5, 0.5]), 2)

    def test_floor_prevents_inf(self):
        out = cross_entropy(tensor([1.0, 0.0]), 1)
        assert np.isfinite(out.item())


class TestBackward:
    def test_sum_gives_ones(self):
        x = parameter(np.arange(6.0).reshape(2, 3))
        with Tape() as tape:
            loss = sum_all(x)
            backward(tape, loss)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_at_three(self):
        x = parameter([[3.0]])
        with Tape() as tape:
            loss = mul(x, x)
            backward(tape, loss)
        assert x.grad[0, 0] == 6.0

    def test_non_scalar_seed_rejected(self):
        x = parameter(np.ones((2, 2)))
        with Tape() as tape:
            y = add(x, x)
            with pytest.raises(ValueError):
                backward(tape, y)

    def test_repeat_backward_bit_identical(self):
        rng = np.random.default_rng(8)
        x = parameter(rng.normal(size=(3, 3)))
        w = parameter(rng.normal(size=(3, 3)))
        with Tape() as tape:
            loss = sum_all(sigmoid(matmul(w, x)))
            backward(tape, loss)
            g1 = (x.grad.copy(), w.grad.copy())
            backward(tape, loss)
            g2 = (x.grad, w.grad)
        assert np.array_equal(g1[0], g2[0])
        assert np.array_equal(g1[1], g2[1])

    def test_releases_every_tape_gradient_and_keeps_the_leaves(self):
        from mcdc.model import McdcModel, ModelHyper

        model = McdcModel(ModelHyper(temporal_len=8, heads=2, kernel_temporal=3, kernel_channel=4, ffn_hidden=6), 3)
        rng = np.random.default_rng(12)
        for _ in range(2):  # a repeat backward on the same tape releases as well
            with Tape() as tape:
                loss = cross_entropy(model.forward(rng.normal(size=(4, 5, 8))), np.array([0, 3, 6, 3]))
                backward(tape, loss)
            assert loss in tape.nodes
            assert [n for n in tape.nodes if n.grad is not None] == []
            assert all(p.grad is not None and p.grad.shape == p.shape for _, p in model.parameters())

    def test_shared_subexpression(self):
        # q = (x + y) * (x + 1) exercises fan-out accumulation
        x = parameter([[2.0]])
        y = parameter([[-4.0]])
        one = tensor([[1.0]])
        with Tape() as tape:
            q = mul(add(x, y), add(x, one))
            backward(tape, q)
        assert q.item() == -6.0
        assert x.grad[0, 0] == 1.0
        assert y.grad[0, 0] == 3.0


def _fd_case(op_builder, shapes, seed):
    rng = np.random.default_rng(seed)
    params = [parameter(rng.normal(size=s)) for s in shapes]
    return grad_check(lambda: op_builder(*params), params)


class TestFiniteDifferences:
    """Each op's recorded gradient vs central differences, 10 draws each."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matmul(self, seed):
        err = _fd_case(lambda a, b: sum_all(sigmoid(matmul(a, b))), [(3, 4), (4, 2)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_conv(self, seed):
        err = _fd_case(lambda s, k: sum_all(sigmoid(conv1d(s, k))), [(7, 3), (1, 1, 3)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_conv_even_kernel(self, seed):
        # k = 4 pads one zero above each column and two below
        err = _fd_case(lambda s, k: sum_all(mul(conv1d(s, k), conv1d(s, k))), [(8, 2), (1, 1, 4)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_softmax_col(self, seed):
        err = _fd_case(lambda x: sum_all(mul(softmax_cols(x), x)), [(4, 3)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_scaled_dot_softmax(self, seed):
        # d = 7 scales the scores by 0.378 before the softmax
        err = _fd_case(
            lambda q, k: sum_all(mul(scaled_dot_softmax(q, k), matmul(transpose(k), q))), [(7, 3), (7, 3)], seed
        )
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_sigmoid(self, seed):
        err = _fd_case(lambda x: sum_all(mul(sigmoid(x), sigmoid(x))), [(3, 3)], seed)
        assert err < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_cross_entropy_through_softmax(self, seed):
        err = _fd_case(
            lambda x: cross_entropy(transpose(softmax_cols(x)), seed % 4),
            [(4, 1)],
            seed,
        )
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_scale_add_n(self, seed):
        err = _fd_case(
            lambda a, b: scale(add_n([sum_all(a), sum_all(mul(a, b)), sum_all(b)]), 0.25),
            [(2, 2), (2, 2)],
            seed,
        )
        assert err < 1e-6


class TestStackFiniteDifferences:
    """Ops on 3-D stacks, with 2-D parameters broadcast over the stack, vs
    central differences; every stacked input is a parameter too."""

    @pytest.mark.parametrize("seed", range(5))
    def test_add_broadcast_both_sides(self, seed):
        err = _fd_case(
            lambda s, w: sum_all(mul(sigmoid(add(s, w)), sigmoid(add(w, s)))), [(3, 4, 5), (4, 5)], seed
        )
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_parameter_on_the_left(self, seed):
        err = _fd_case(lambda w, s: sum_all(sigmoid(matmul(w, s))), [(4, 3), (3, 3, 5)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_parameter_on_the_right(self, seed):
        err = _fd_case(lambda s, w: sum_all(sigmoid(matmul(s, w))), [(3, 4, 3), (3, 2)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_stack_by_stack(self, seed):
        err = _fd_case(lambda a, b: sum_all(sigmoid(matmul(a, b))), [(3, 4, 3), (3, 3, 2)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_conv_kernel(self, seed):
        err = _fd_case(
            lambda s, k: sum_all(sigmoid(conv1d(s, k))), [(3, 7, 4), (1, 1, 4)], seed
        )
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_softmax_per_sample(self, seed):
        err = _fd_case(lambda s, w: sum_all(mul(softmax_cols(add(s, w)), s)), [(3, 4, 3), (4, 3)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_cross_entropy_label_vector(self, seed):
        labels = np.random.default_rng(seed).integers(0, 4, size=3)
        err = _fd_case(
            lambda w, s: cross_entropy(transpose(softmax_cols(matmul(w, s))), labels), [(4, 5), (3, 5, 1)], seed
        )
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_conv_kernel_stack_and_signal(self, seed):
        err = _fd_case(lambda sig, bank: sum_all(sigmoid(conv1d(sig, bank))), [(2, 7, 3), (3, 1, 4)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("batch", [(), (2,)])
    def test_head_stack_broadcast_over_a_batch(self, seed, batch):
        # an (H, d, d) stack of parameters times the (..., 1, d, n) unit-axis
        # reshape of one window or a batch, then the head axis joined into
        # rows, as the temporal route does, and transposed, as the channel
        # route does
        def f(w, x):
            heads = matmul(w, reshape(x, x.shape[:-2] + (1,) + x.shape[-2:]))
            merged = reshape(heads, heads.shape[:-3] + (-1, heads.shape[-1]))
            cols = transpose(merged)
            return add(sum_all(sigmoid(merged)), sum_all(mul(cols, cols)))

        err = _fd_case(f, [(2, 4, 4), batch + (4, 5)], seed)
        assert err < 1e-4


    @pytest.mark.parametrize("seed", range(5))
    def test_split_parts(self, seed):
        # three parts used differently, one of them also through the whole
        # stack, so the parts' gradients land in a buffer x already fills
        def f(x, w):
            a, b, c = split(x, 3)
            return add_n([sum_all(sigmoid(matmul(a, w))), sum_all(mul(b, c)), sum_all(mul(x, x))])

        err = _fd_case(f, [(2, 6, 3, 4), (4, 2)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_split_part_without_gradient(self, seed):
        # the middle part never reaches the loss: its run of the gradient is zero
        def f(x):
            a, _, c = split(x, 3)
            return add(sum_all(sigmoid(a)), sum_all(mul(c, c)))

        err = _fd_case(f, [(3, 2, 4)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_split_input_shared_with_a_later_op(self, seed):
        # add(x, y), taped after the split, hands x and y one gradient array;
        # the split must add its parts into a buffer of its own, not into that
        # array, or y's gradient takes in the parts' too
        def f(x, y):
            a, b = split(x, 2)
            return add(add(sum_all(sigmoid(add(x, y))), sum_all(mul(a, a))), sum_all(sigmoid(b)))

        err = _fd_case(f, [(2, 4, 3, 2), (2, 4, 3, 2)], seed)
        assert err < 1e-4


def _matmul_grads(a, b, g):
    """Both operands' gradients from matmul's backward, seeded with g."""
    with Tape() as tape:
        loss = sum_all(mul(matmul(a, b), tensor(g)))
        backward(tape, loss)
    return a.grad, b.grad


class TestBroadcastParameterGradient:
    """A 2-D operand broadcast over the other's stack gets its gradient as one
    product over the stack and the inner axis, not as a stack of per-sample
    products summed."""

    # the 2-D parameter's side, and the columns of the product
    CASES = [("left", 1), ("left", 4), ("right", 1), ("right", 5)]

    @staticmethod
    def _operands(batch, side, cols, seed):
        rng = np.random.default_rng(seed)
        if side == "left":
            a, b = rng.normal(size=(6, 5)), rng.normal(size=(batch, 5, cols))
        else:
            a, b = rng.normal(size=(batch, 4, 6)), rng.normal(size=(6, cols))
        g = rng.normal(size=np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1]))
        return a, b, g

    @pytest.mark.parametrize("batch", [2, 8, 200])
    @pytest.mark.parametrize("side,cols", CASES)
    def test_matches_the_per_sample_products_summed(self, batch, side, cols):
        a, b, g = self._operands(batch, side, cols, seed=batch)
        da, db = _matmul_grads(parameter(a), parameter(b), g)
        # the broadcast operand's gradient sums the per-sample products; the
        # stacked operand keeps one per sample
        if a.ndim == 2:
            expect_a = sum(g[s] @ b[s].T for s in range(batch))
            expect_b = np.stack([a.T @ g[s] for s in range(batch)])
        else:
            expect_a = np.stack([g[s] @ b.T for s in range(batch)])
            expect_b = sum(a[s].T @ g[s] for s in range(batch))
        for got, expect in ((da, expect_a), (db, expect_b)):
            assert got.shape == expect.shape
            assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()

    @pytest.mark.parametrize("side,cols", CASES)
    def test_one_sample_is_byte_identical_to_the_stacked_product(self, side, cols):
        a, b, g = self._operands(1, side, cols, seed=5)
        da, db = _matmul_grads(parameter(a), parameter(b), g)
        # the formula before the fold: one product per sample, then the sum over the stack
        assert da.tobytes() == (g @ b.swapaxes(-1, -2)).sum(axis=0).reshape(a.shape).tobytes()
        assert db.tobytes() == (a.swapaxes(-1, -2) @ g).sum(axis=0).reshape(b.shape).tobytes()

    def test_no_gradient_for_an_operand_that_tracks_none(self):
        rng = np.random.default_rng(6)
        w, x = parameter(rng.normal(size=(3, 4))), tensor(rng.normal(size=(5, 4, 2)))
        da, dx = _matmul_grads(w, x, rng.normal(size=(5, 3, 2)))
        assert da.shape == (3, 4) and dx is None


class TestStacks:
    def test_conv_rows_bit_exact_against_naive_loop(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            length = int(rng.integers(1, 12))
            k = int(rng.integers(1, 7))
            sig = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 5)), length))
            kern = rng.normal(size=k)
            out = conv1d(tensor(sig.swapaxes(-1, -2)), tensor(kern.reshape(1, 1, k))).data
            assert out.shape == sig.shape[:1] + (1,) + sig.shape[:0:-1]
            for b in range(sig.shape[0]):
                assert np.array_equal(out[b, 0].T, naive_conv(sig[b], kern))

    def test_conv_kernel_stack_bit_exact_against_naive_loop(self):
        # every (kernel, column) pair of a kernel stack over a signal stack,
        # odd and even kernels; each kernel's gradient is also the one that
        # kernel gets when convolved on its own, as a one-kernel bank
        rng = np.random.default_rng(17)
        for case in range(60):
            length = int(rng.integers(1, 12))
            k = int(rng.integers(1, 7))
            lead = (int(rng.integers(1, 4)),) * (case % 2)
            sig = rng.normal(size=lead + (int(rng.integers(1, 5)), length))
            bank = rng.normal(size=(int(rng.integers(1, 5)), 1, k))
            s, kt = parameter(sig.swapaxes(-1, -2)), parameter(bank)
            with Tape() as tape:
                out = conv1d(s, kt)
                g = rng.normal(size=out.shape)
                backward(tape, sum_all(mul(out, tensor(g))))
            assert out.shape == lead + (bank.shape[0],) + s.shape[-2:]
            for i in range(bank.shape[0]):
                for b in np.ndindex(*lead):
                    assert np.array_equal(out.data[b + (i,)].T, naive_conv(sig[b], bank[i, 0]))
                alone = parameter(bank[i:i + 1])
                with Tape() as tape:
                    one = conv1d(tensor(s.data), alone)
                    backward(tape, sum_all(mul(one, tensor(g[..., i:i + 1, :, :]))))
                assert kt.grad[i].tobytes() == alone.grad[0].tobytes()

    def test_stack_join_reshape_equals_concat_of_the_parts(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(4, 3, 2, 5))
        rows = reshape(tensor(x), x.shape[:-3] + (-1, x.shape[-1])).data
        assert rows.tobytes() == concat_rows([tensor(x[:, h]) for h in range(3)]).data.tobytes()
        assert rows.flags.c_contiguous and rows.shape == (4, 6, 5)

    def test_bad_reshape_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"cannot reshape \(2, 3\) to \(4, -1\)"):
            reshape(tensor(np.zeros((2, 3))), (4, -1))
        with pytest.raises(DimensionError, match=r"cannot reshape \(2, 3\) to \(-1, -1\)"):
            reshape(tensor(np.zeros((2, 3))), (-1, -1))

    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    def test_unit_axis_reshape_is_a_view_before_the_matrix_axes(self, lead):
        x = tensor(np.random.default_rng(19).normal(size=lead + (2, 3)))
        out = reshape(x, x.shape[:-2] + (1,) + x.shape[-2:]).data
        assert out.shape == lead + (1, 2, 3)
        assert np.shares_memory(out, x.data) and np.array_equal(out[..., 0, :, :], x.data)

    def test_split_cuts_the_stack_axis_into_equal_runs(self):
        rng = np.random.default_rng(20)
        parts = [rng.normal(size=(4, 2, 2, 3)) for _ in range(3)]
        whole = np.concatenate(parts, axis=-3)
        out = split(tensor(whole), 3)
        assert [p.shape for p in out] == [(4, 2, 2, 3)] * 3
        assert all(np.array_equal(p.data, q) for p, q in zip(out, parts))

    def test_split_records_one_node_per_part_and_one_gradient_buffer(self):
        x = parameter(np.random.default_rng(21).normal(size=(2, 6, 3, 3)))
        with Tape() as tape:
            parts = split(x, 3)
            loss = add_n([sum_all(scale(p, float(i + 1))) for i, p in enumerate(parts)])
            backward(tape, loss)
        assert tape.nodes[:3] == parts
        assert x.grad.shape == x.shape
        assert np.array_equal(x.grad, np.repeat([1.0, 2.0, 3.0], 2)[None, :, None, None] * np.ones(x.shape))

    def test_split_rules_hold_no_gradient_buffer_after_backward(self):
        # split a tape node, as the conv route does: once backward has cleared
        # the node's gradient, no split rule keeps that buffer alive
        rng = np.random.default_rng(22)
        with Tape() as tape:
            conv = conv1d(tensor(rng.normal(size=(2, 4, 5))), parameter(rng.normal(size=(6, 1, 3))))
            parts = split(conv, 3)
            backward(tape, add_n([sum_all(mul(p, p)) for p in parts]))
        assert conv.grad is None
        held = [c.cell_contents for p in parts for c in p._backward.__closure__]
        assert any(h is conv for h in held) and not any(isinstance(h, np.ndarray) for h in held)

    def test_split_shape_errors(self):
        with pytest.raises(DimensionError, match="stack"):
            split(tensor(np.zeros((6, 3))), 3)
        with pytest.raises(DimensionError, match="7 stacked matrices into 3"):
            split(tensor(np.zeros((7, 2, 2))), 3)
        with pytest.raises(DimensionError, match="into 0"):
            split(tensor(np.zeros((6, 2, 2))), 0)

    def test_label_vector_cross_entropy_is_the_mean(self):
        rng = np.random.default_rng(16)
        probs = rng.dirichlet(np.ones(5), size=4)[:, None, :]
        labels = np.array([0, 3, 3, 4])
        out = cross_entropy(tensor(probs), labels)
        expected = np.mean([-np.log(probs[i, 0, c]) for i, c in enumerate(labels)])
        assert out.shape == (1, 1)
        assert out.item() == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("label", range(4))
    def test_row_is_a_stack_of_one(self, label):
        rng = np.random.default_rng(22)
        row = rng.dirichlet(np.ones(4))[None, :]
        losses, grads = [], []
        for probs, labels in ((row, label), (row[None], np.array([label]))):
            p = parameter(probs)
            with Tape() as tape:
                loss = cross_entropy(p, labels)
                backward(tape, loss)
            losses.append(loss.data.tobytes())
            grads.append(p.grad.tobytes())
        assert losses[0] == losses[1] and grads[0] == grads[1]
        with pytest.raises(DimensionError, match=r"\(0, 1, 4\).*\(0,\)"):
            cross_entropy(tensor(np.zeros((0, 1, 4))), np.array([], dtype=int))
        with pytest.raises(DimensionError, match=r"\(4, 1\)"):
            cross_entropy(tensor(row.T), label)

    def test_label_vector_must_match_the_stack(self):
        probs = tensor(np.full((3, 1, 2), 0.5))
        with pytest.raises(DimensionError):
            cross_entropy(probs, np.array([0, 1]))
        with pytest.raises(DimensionError):
            cross_entropy(tensor(np.full((3, 2), 0.5)), np.array([0, 1, 1]))
        with pytest.raises(IndexError):
            cross_entropy(probs, np.array([0, 1, 2]))

    def test_mismatched_stacks_rejected(self):
        with pytest.raises(DimensionError):
            add(tensor(np.zeros((2, 3, 3))), tensor(np.zeros((4, 3, 3))))
        with pytest.raises(DimensionError):
            matmul(tensor(np.zeros((2, 3, 3))), tensor(np.zeros((4, 3, 3))))


def _layouts():
    """One (3, 4, 5) value in three memory layouts: C-contiguous, the
    swapaxes view of a C-contiguous (3, 5, 4) array, and a strided slice."""
    rng = np.random.default_rng(20)
    return {
        "contiguous": rng.normal(size=(3, 4, 5)),
        "swapped": rng.normal(size=(3, 5, 4)).swapaxes(-1, -2),
        "strided": rng.normal(size=(3, 4, 10))[..., ::2],
    }


class TestLayoutOps:
    """transpose and reshape hand out C-contiguous data, and share memory
    with their input exactly when the input already holds the result's
    layout; on a tape or off it. reshape is taken at each shape the models
    give it: each matrix flattened to a column, a unit axis before the
    matrix axes, and a stack's matrices joined along the rows."""

    CASES = {
        "transpose": (transpose, lambda x: x.swapaxes(-1, -2), "swapped"),
        "reshape[column]": (lambda t: reshape(t, t.shape[:-2] + (-1, 1)), lambda x: x.reshape(3, 20, 1), "contiguous"),
        "reshape[unit-axis]": (
            lambda t: reshape(t, t.shape[:-2] + (1,) + t.shape[-2:]), lambda x: x.reshape(3, 1, 4, 5), "contiguous"
        ),
        "reshape[stack-join]": (
            lambda t: reshape(t, t.shape[:-3] + (-1, t.shape[-1])), lambda x: x.reshape(12, 5), "contiguous"
        ),
    }

    @pytest.mark.parametrize("leaf", [tensor, parameter])
    @pytest.mark.parametrize("name", CASES)
    def test_contiguous_and_a_view_only_of_the_layout_it_hands_out(self, name, leaf):
        op, expected, shared_from = self.CASES[name]
        for layout, x in _layouts().items():
            with Tape():
                out = op(leaf(x)).data
            assert out.flags.c_contiguous, layout
            assert np.array_equal(out, expected(x)), layout
            assert np.shares_memory(out, x) == (layout == shared_from), layout


class TestGradCheck:
    def test_quadratic_is_exact(self):
        x = parameter([[3.0]])
        assert grad_check(lambda: mul(x, x), [x]) < 1e-10

    def test_sigmoid_sum(self):
        rng = np.random.default_rng(11)
        x = parameter(rng.normal(size=(2, 4)))
        assert grad_check(lambda: sum_all(sigmoid(x)), [x]) < 1e-6


class TestFiniteness:
    def test_forward_ops_finite_on_finite_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.uniform(-100, 100, size=(4, 5))
            k = rng.uniform(-5, 5, size=(1, 1, 3))
            assert np.all(np.isfinite(softmax_cols(tensor(x)).data))
            assert np.all(np.isfinite(sigmoid(tensor(x)).data))
            assert np.all(np.isfinite(conv1d(tensor(x), tensor(k)).data))
            assert np.all(np.isfinite(matmul(tensor(x), tensor(x.T)).data))


class TestTapeOrder:
    def test_inputs_precede_their_consumers(self):
        rng = np.random.default_rng(14)
        w = parameter(rng.normal(size=(3, 3)))
        x = parameter(rng.normal(size=(3, 2)))
        with Tape() as tape:
            sum_all(sigmoid(matmul(w, x)))
        position = {id(node): i for i, node in enumerate(tape.nodes)}
        for i, node in enumerate(tape.nodes):
            for parent in node._parents:
                if id(parent) in position:
                    assert position[id(parent)] < i


def _uniform(leaf, *shape):
    return leaf(np.full(shape, 1.0 / shape[-1]))


# every op of tensor.__all__ that returns tensors, called on operands that `leaf`
# (parameter or tensor) makes; cross_entropy once in each of its two forms
OPS = {
    "add": lambda leaf: add(leaf(np.ones((2, 3))), leaf(np.ones((4, 2, 3)))),
    "add_n": lambda leaf: add_n([leaf(np.ones((2, 3))), leaf(np.ones((2, 3)))]),
    "conv1d": lambda leaf: conv1d(leaf(np.ones((2, 6))), leaf(np.ones((2, 1, 3)))),
    "cross_entropy": lambda leaf: cross_entropy(_uniform(leaf, 1, 4), 1),
    "cross_entropy[batch]": lambda leaf: cross_entropy(_uniform(leaf, 3, 1, 4), [0, 1, 2]),
    "matmul": lambda leaf: matmul(leaf(np.ones((2, 3))), leaf(np.ones((4, 3, 5)))),
    "mul": lambda leaf: mul(leaf(np.ones((2, 3))), leaf(np.ones((2, 3)))),
    "reshape": lambda leaf: reshape(leaf(np.ones((2, 3))), (3, 2)),
    "scaled_dot_softmax": lambda leaf: scaled_dot_softmax(leaf(np.ones((2, 3))), leaf(np.ones((2, 3)))),
    "sigmoid": lambda leaf: sigmoid(leaf(np.ones((2, 3)))),
    "softmax_cols": lambda leaf: softmax_cols(leaf(np.ones((2, 3)))),
    "split": lambda leaf: split(leaf(np.ones((4, 2, 3))), 2),
    "sum_all": lambda leaf: sum_all(leaf(np.ones((2, 3)))),
    "transpose": lambda leaf: transpose(leaf(np.ones((2, 3)))),
}


def _results(out):
    return out if isinstance(out, list) else [out]


class TestNoGradMode:
    def test_every_op_is_covered(self):
        not_ops = {"DimensionError", "Tape", "Tensor", "backward", "glorot", "grad_check", "parameter", "tensor"}
        assert {name.split("[")[0] for name in OPS} == set(tz.__all__) - not_ops

    @pytest.mark.parametrize("name", OPS)
    def test_no_tape_records_nothing(self, name):
        for out in _results(OPS[name](parameter)):
            assert out._backward is None
            assert out._parents == ()
            assert not out.requires_grad

    @pytest.mark.parametrize("name", OPS)
    def test_constants_not_recorded(self, name):
        with Tape() as tape:
            outs = _results(OPS[name](tensor))
            assert tape.nodes == []
        for out in outs:
            assert out._backward is None
            assert out._parents == ()

    @pytest.mark.parametrize("name", OPS)
    def test_tracked_operands_recorded(self, name):
        with Tape() as tape:
            outs = _results(OPS[name](parameter))
        assert tape.nodes == outs
        assert all(out.requires_grad and out._backward is not None for out in outs)


class TestFaultInjection:
    def test_corrupted_conv_gradient_is_caught(self):
        rng = np.random.default_rng(13)
        s = parameter(rng.normal(size=(2, 6)))
        k = parameter(rng.normal(size=(1, 1, 3)))
        tz.set_fault_injection("conv-kernel-grad")
        try:
            err = grad_check(lambda: sum_all(sigmoid(conv1d(s, k))), [s, k])
        finally:
            tz.set_fault_injection(None)
        assert err > 1e-4
