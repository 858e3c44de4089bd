"""Core tensor ops against naive oracles and finite differences."""

import math

import numpy as np
import pytest

from mcdc import tensor as tz
from mcdc.tensor import (
    DimensionError,
    Tape,
    add,
    add_n,
    backward,
    concat_cols,
    concat_rows,
    conv1d,
    cross_entropy,
    grad_check,
    matmul,
    merge_stack,
    mul,
    parameter,
    reshape,
    scale,
    sigmoid,
    softmax_axis,
    split,
    stack,
    sum_all,
    tensor,
    transpose,
)


def naive_matmul(a, b):
    r, k = a.shape
    k2, c = b.shape
    out = np.zeros((r, c))
    for i in range(r):
        for j in range(c):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def naive_conv1d(signal, kernel, pad_left, pad_right):
    rows, length = signal.shape
    padded = np.zeros((rows, length + pad_left + pad_right))
    padded[:, pad_left:pad_left + length] = signal
    k = len(kernel)
    out_len = padded.shape[1] - k + 1
    out = np.zeros((rows, out_len))
    for r in range(rows):
        for j in range(out_len):
            for t in range(k):
                out[r, j] += padded[r, j + t] * kernel[t]
    return out


def naive_same(signal, kernel):
    """naive_conv1d with conv1d's padding: (k - 1) // 2 left, k // 2 right."""
    return naive_conv1d(signal, kernel, (len(kernel) - 1) // 2, len(kernel) // 2)


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
        sig = tensor([[1.0, 2.0, 3.0, 4.0, 5.0]])
        kern = tensor([[[1.0, 0.0, -1.0]]])
        out = conv1d(sig, kern)
        assert np.allclose(out.data, [[[-2.0, -2.0, -2.0, -2.0, 4.0]]])

    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        sig = rng.normal(size=(4, 9))
        out = conv1d(tensor(sig), tensor([[[1.0]]]))
        assert np.array_equal(out.data[0], sig)

    def test_same_padding_length(self):
        out = conv1d(tensor(np.ones((1, 5))), tensor(np.ones((1, 1, 5))))
        assert out.shape == (1, 1, 5)

    @pytest.mark.parametrize("k,pads", [(1, (0, 0)), (3, (1, 1)), (5, (2, 2)), (6, (2, 3)), (8, (3, 4))])
    def test_same_length_padding(self, k, pads):
        # an even kernel takes one more zero on the right than on the left
        rng = np.random.default_rng(3)
        sig = rng.normal(size=(2, 10))
        kern = rng.normal(size=k)
        out = conv1d(tensor(sig), tensor(kern.reshape(1, 1, k)))
        assert out.shape == (1, 2, 10)
        assert np.array_equal(out.data[0], naive_conv1d(sig, kern, *pads))

    @pytest.mark.parametrize("shape", [(5,), (1, 5), (3, 2, 2), (2, 1, 0)])
    def test_refuses_anything_but_a_k_by_1_by_taps_bank(self, shape):
        with pytest.raises(DimensionError, match=r"\(K, 1, k\)"):
            conv1d(tensor(np.ones((2, 6))), tensor(np.ones(shape)))

    def test_matches_naive_oracle_on_random_geometries(self):
        # odd cases: a stack of 12 kernels, a route's 3H bank at H = 4, over a
        # (B, rows, L) stack of signals, every (kernel, row) pair
        rng = np.random.default_rng(2)
        for case in range(200):
            length = int(rng.integers(1, 12))
            k = int(rng.integers(1, 7))
            rows = int(rng.integers(1, 6))
            if case % 2 == 0:
                sig = rng.normal(size=(rows, length))
                kern = rng.normal(size=k)
                out = conv1d(tensor(sig), tensor(kern.reshape(1, 1, k)))
                assert np.array_equal(out.data[0], naive_same(sig, kern))
                continue
            sig = rng.normal(size=(int(rng.integers(1, 5)), rows, length))
            bank = rng.normal(size=(12, 1, k))
            out = conv1d(tensor(sig), tensor(bank)).data
            for b in range(sig.shape[0]):
                for i in range(12):
                    assert np.array_equal(out[b, i], naive_same(sig[b], bank[i, 0]))

    def test_gradients_bit_exact_against_tap_loops(self):
        # dkernel[i, t] is the whole-array sum of g[..., i, :, :] times tap t's
        # window; dsignal adds g * kernel[i, t] tap by tap from zero for each
        # kernel, then the kernels in order. Zeros and signed zeros check that
        # padding terms leave every bit, zero signs included, unchanged. Every
        # other case is a 12-kernel stack, a route's 3H bank at H = 4, over a
        # (B, rows, L) stack of signals; the rest are one-kernel banks.
        rng = np.random.default_rng(4)
        for case in range(400):
            length = int(rng.integers(1, 14))
            k = int(rng.integers(1, 8))
            left, right = (k - 1) // 2, k // 2
            rows = int(rng.integers(1, 13))
            stacked = case % 2 == 1
            lead = (int(rng.integers(1, 5)),) if stacked else ()
            sig = rng.normal(size=lead + (rows, length))
            kern = rng.normal(size=(12 if stacked else 1, 1, k))
            if case % 3 == 1:
                sig[rng.random(sig.shape) < 0.5] = -0.0
                kern[rng.random(kern.shape) < 0.3] = -0.0
            s, kt = parameter(sig), parameter(kern)
            with Tape() as tape:
                out = conv1d(s, kt)
                g = rng.normal(size=out.shape)
                if case % 3 == 2:
                    g[rng.random(g.shape) < 0.5] = 0.0
                backward(tape, sum_all(mul(out, tensor(g))))
            bank = kern.reshape(-1, k)
            padded = np.zeros(lead + (rows, length + left + right))
            padded[..., left:left + length] = sig
            dk = np.array([
                [(g[..., i, :, :] * padded[..., t:t + length]).sum() for t in range(k)]
                for i in range(bank.shape[0])
            ])
            dsig = np.zeros_like(padded)
            for i in range(bank.shape[0]):
                dpad = np.zeros_like(padded)
                for t in range(k):
                    dpad[..., t:t + length] += g[..., i, :, :] * bank[i, t]
                dsig += dpad
            assert kt.grad.tobytes() == dk.reshape(kern.shape).tobytes()
            assert s.grad.tobytes() == dsig[..., left:left + length].tobytes()


class TestSoftmax:
    def test_equal_scores(self):
        out = softmax_axis(tensor([[0.0], [0.0]]), axis="col")
        assert np.allclose(out.data, [[0.5], [0.5]])

    def test_shift_stability_no_overflow(self):
        big = 1e6
        out = softmax_axis(tensor([[big], [big - 20.0]]), axis="col")
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert out.data[1, 0] == pytest.approx(math.exp(-20.0), rel=1e-6)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.uniform(-100, 100, size=(4, 4))
            out = softmax_axis(tensor(x), axis="col")
            assert np.allclose(out.data.sum(axis=0), 1.0, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 5))
        out = softmax_axis(tensor(x), axis="row")
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 4))
        a = softmax_axis(tensor(x), axis="col")
        b = softmax_axis(tensor(x + 7.25), axis="col")
        assert np.allclose(a.data, b.data, atol=1e-12)


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
        err = _fd_case(lambda s, k: sum_all(sigmoid(conv1d(s, k))), [(3, 7), (1, 1, 3)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_conv_even_kernel(self, seed):
        # k = 4 pads one zero on the left and two on the right
        err = _fd_case(lambda s, k: sum_all(mul(conv1d(s, k), conv1d(s, k))), [(2, 8), (1, 1, 4)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_softmax_col(self, seed):
        err = _fd_case(lambda x: sum_all(mul(softmax_axis(x, "col"), x)), [(4, 3)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_softmax_row(self, seed):
        err = _fd_case(lambda x: sum_all(mul(softmax_axis(x, "row"), x)), [(3, 4)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_sigmoid(self, seed):
        err = _fd_case(lambda x: sum_all(mul(sigmoid(x), sigmoid(x))), [(3, 3)], seed)
        assert err < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_cross_entropy_through_softmax(self, seed):
        err = _fd_case(
            lambda x: cross_entropy(transpose(softmax_axis(x, "col")), seed % 4),
            [(4, 1)],
            seed,
        )
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_structural_ops(self, seed):
        def f(a, b):
            cat = concat_rows([a, b])
            flat = reshape(cat, (1, cat.data.size))
            side = concat_cols([transpose(a), transpose(b)])
            return add(sum_all(sigmoid(flat)), sum_all(mul(side, side)))

        err = _fd_case(f, [(2, 3), (2, 3)], seed)
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
            lambda s, k: sum_all(sigmoid(conv1d(s, k))), [(3, 4, 7), (1, 1, 4)], seed
        )
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("axis", ["col", "row"])
    def test_softmax_per_sample(self, seed, axis):
        err = _fd_case(lambda s, w: sum_all(mul(softmax_axis(add(s, w), axis), s)), [(3, 4, 3), (4, 3)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_cross_entropy_label_vector(self, seed):
        labels = np.random.default_rng(seed).integers(0, 4, size=3)
        err = _fd_case(
            lambda w, s: cross_entropy(transpose(softmax_axis(matmul(w, s), "col")), labels), [(4, 5), (3, 5, 1)], seed
        )
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_structural_ops(self, seed):
        def f(a, b):
            cat = concat_rows([a, b])
            flat = reshape(cat, (1, 18))
            side = concat_cols([transpose(a), transpose(b)])
            return add(sum_all(sigmoid(flat)), sum_all(mul(side, side)))

        err = _fd_case(f, [(2, 2, 3), (2, 4, 3)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_conv_kernel_stack_and_signal(self, seed):
        def f(sig, k0, k1, k2):
            return sum_all(sigmoid(conv1d(sig, stack([k0, k1, k2]))))

        err = _fd_case(f, [(2, 3, 7), (1, 4), (1, 4), (1, 4)], seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_head_stack_broadcast_over_a_batch(self, seed):
        # an (H, r, c) stack of parameters times a (B, 1, c, n) batch, then
        # the head axis merged into rows and into columns
        def f(w0, w1, x):
            heads = matmul(stack([w0, w1]), stack([x]))
            cols = merge_stack(heads, "cols")
            return add(sum_all(sigmoid(merge_stack(heads, "rows"))), sum_all(mul(cols, cols)))

        err = _fd_case(f, [(3, 4), (3, 4), (2, 4, 5)], seed)
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


class TestStacks:
    def test_conv_rows_bit_exact_against_naive_loop(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            length = int(rng.integers(1, 12))
            k = int(rng.integers(1, 7))
            sig = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 5)), length))
            kern = rng.normal(size=k)
            out = conv1d(tensor(sig), tensor(kern.reshape(1, 1, k))).data
            assert out.shape == sig.shape[:1] + (1,) + sig.shape[1:]
            for b in range(sig.shape[0]):
                assert np.array_equal(out[b, 0], naive_same(sig[b], kern))

    def test_conv_kernel_stack_bit_exact_against_naive_loop(self):
        # every (kernel, row) pair of a kernel stack over a signal stack, odd
        # and even kernels; each kernel's gradient is also the one that
        # kernel gets when convolved on its own, as a one-kernel bank
        rng = np.random.default_rng(17)
        for case in range(60):
            length = int(rng.integers(1, 12))
            k = int(rng.integers(1, 7))
            lead = (int(rng.integers(1, 4)),) * (case % 2)
            sig = rng.normal(size=lead + (int(rng.integers(1, 5)), length))
            bank = rng.normal(size=(int(rng.integers(1, 5)), 1, k))
            s, kt = parameter(sig), parameter(bank)
            with Tape() as tape:
                out = conv1d(s, kt)
                g = rng.normal(size=out.shape)
                backward(tape, sum_all(mul(out, tensor(g))))
            assert out.shape == lead + (bank.shape[0],) + sig.shape[-2:]
            for i in range(bank.shape[0]):
                for b in np.ndindex(*lead):
                    assert np.array_equal(out.data[b + (i,)], naive_same(sig[b], bank[i, 0]))
                alone = parameter(bank[i:i + 1])
                with Tape() as tape:
                    one = conv1d(tensor(sig), alone)
                    backward(tape, sum_all(mul(one, tensor(g[..., i:i + 1, :, :]))))
                assert kt.grad[i].tobytes() == alone.grad[0].tobytes()

    def test_merge_stack_equals_concat_of_the_parts(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(4, 3, 2, 5))
        parts = [tensor(x[:, h]) for h in range(3)]
        rows = merge_stack(tensor(x), "rows").data
        cols = merge_stack(tensor(x), "cols").data
        assert rows.tobytes() == concat_rows(parts).data.tobytes() and rows.flags.c_contiguous
        assert cols.tobytes() == concat_cols(parts).data.tobytes() and cols.flags.c_contiguous
        assert rows.shape == (4, 6, 5) and cols.shape == (4, 2, 15)
        with pytest.raises(DimensionError):
            merge_stack(tensor(np.zeros((2, 3))), "rows")

    def test_stack_puts_the_new_axis_before_the_matrix(self):
        rng = np.random.default_rng(19)
        a, b = rng.normal(size=(4, 2, 3)), rng.normal(size=(4, 2, 3))
        out = stack([tensor(a), tensor(b)]).data
        assert out.shape == (4, 2, 2, 3) and out.flags.c_contiguous
        assert np.array_equal(out[:, 0], a) and np.array_equal(out[:, 1], b)
        assert stack([tensor(a[0]), tensor(b[0])]).shape == (2, 2, 3)
        with pytest.raises(DimensionError):
            stack([tensor(a), tensor(b[0])])

    def test_split_is_the_inverse_of_stack(self):
        rng = np.random.default_rng(20)
        parts = [rng.normal(size=(4, 2, 2, 3)) for _ in range(3)]
        whole = np.concatenate(parts, axis=-3)
        out = split(tensor(whole), 3)
        assert [p.shape for p in out] == [(4, 2, 2, 3)] * 3
        assert all(np.array_equal(p.data, q) for p, q in zip(out, parts))
        assert [p.data.tobytes() for p in split(stack([tensor(q[0, 0]) for q in parts]), 3)] == [
            q[0, :1].tobytes() for q in parts
        ]

    def test_split_records_one_node_per_part_and_one_gradient_buffer(self):
        x = parameter(np.random.default_rng(21).normal(size=(2, 6, 3, 3)))
        with Tape() as tape:
            parts = split(x, 3)
            loss = add_n([sum_all(scale(p, float(i + 1))) for i, p in enumerate(parts)])
            backward(tape, loss)
        assert tape.nodes[:3] == parts
        assert x.grad.shape == x.shape
        assert np.array_equal(x.grad, np.repeat([1.0, 2.0, 3.0], 2)[None, :, None, None] * np.ones(x.shape))

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
        with pytest.raises(DimensionError):
            concat_rows([tensor(np.zeros((2, 3, 3))), tensor(np.zeros((3, 3)))])


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
            assert np.all(np.isfinite(softmax_axis(tensor(x), "col").data))
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


class TestNoGradMode:
    def test_no_tape_records_nothing(self):
        x = parameter(np.ones((2, 2)))
        y = add(x, x)
        assert y._backward is None
        assert not y.requires_grad

    def test_constants_not_recorded(self):
        with Tape() as tape:
            add(tensor(np.ones((2, 2))), tensor(np.ones((2, 2))))
            assert tape.nodes == []


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
