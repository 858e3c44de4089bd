"""Core tensor ops against naive oracles and finite differences."""

import math

import numpy as np
import pytest

from mcdc import tensor as tz
from mcdc.tensor import (
    DimensionError,
    GeometryError,
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
    mul,
    parameter,
    reshape,
    scale,
    sigmoid,
    softmax_axis,
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


def naive_conv1d(signal, kernel, stride, pad_left, pad_right):
    rows, length = signal.shape
    padded = np.zeros((rows, length + pad_left + pad_right))
    padded[:, pad_left:pad_left + length] = signal
    k = len(kernel)
    out_len = (padded.shape[1] - k) // stride + 1
    out = np.zeros((rows, out_len))
    for r in range(rows):
        for j in range(out_len):
            for t in range(k):
                out[r, j] += padded[r, j * stride + t] * kernel[t]
    return out


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
        kern = tensor([[1.0, 0.0, -1.0]])
        out = conv1d(sig, kern, stride=1, padding=1)
        assert np.allclose(out.data, [[-2.0, -2.0, -2.0, -2.0, 4.0]])

    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        sig = rng.normal(size=(4, 9))
        out = conv1d(tensor(sig), tensor([[1.0]]), stride=1, padding=0)
        assert np.array_equal(out.data, sig)

    def test_same_padding_length(self):
        out = conv1d(tensor(np.ones((1, 5))), tensor(np.ones((1, 5))), stride=1, padding=2)
        assert out.shape == (1, 5)

    def test_matches_naive_oracle_on_random_geometries(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            length = int(rng.integers(1, 12))
            k = int(rng.integers(1, 7))
            stride = int(rng.integers(1, 4))
            pad = int(rng.integers(0, 4))
            if length + 2 * pad < k:
                continue
            rows = int(rng.integers(1, 6))
            sig = rng.normal(size=(rows, length))
            kern = rng.normal(size=k)
            out = conv1d(tensor(sig), tensor(kern), stride=stride, padding=pad)
            assert np.array_equal(out.data, naive_conv1d(sig, kern, stride, pad, pad))

    def test_asymmetric_padding(self):
        rng = np.random.default_rng(3)
        sig = rng.normal(size=(2, 8))
        kern = rng.normal(size=6)
        out = conv1d(tensor(sig), tensor(kern), stride=1, padding=(2, 3))
        assert out.shape == (2, 8)
        assert np.array_equal(out.data, naive_conv1d(sig, kern, 1, 2, 3))

    def test_invalid_geometry(self):
        with pytest.raises(GeometryError):
            conv1d(tensor(np.ones((1, 2))), tensor(np.ones((1, 5))), stride=1, padding=1)

    def test_gradients_bit_exact_against_tap_loops(self):
        # dkernel[t] is the whole-array sum of g times tap t's window; dsignal
        # adds g * kernel[t] tap by tap from zero. Zeros and signed zeros check
        # that padding terms leave every bit, zero signs included, unchanged.
        rng = np.random.default_rng(4)
        for case in range(300):
            length = int(rng.integers(1, 14))
            k = int(rng.integers(1, 8))
            stride = int(rng.integers(1, 4))
            left, right = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            if length + left + right < k:
                continue
            rows = int(rng.integers(1, 13))
            sig = rng.normal(size=(rows, length))
            kern = rng.normal(size=(1, k))
            if case % 3 == 1:
                sig[rng.random(sig.shape) < 0.5] = -0.0
                kern[rng.random(kern.shape) < 0.3] = -0.0
            s, kt = parameter(sig), parameter(kern)
            with Tape() as tape:
                out = conv1d(s, kt, stride=stride, padding=(left, right))
                g = rng.normal(size=out.shape)
                if case % 3 == 2:
                    g[rng.random(g.shape) < 0.5] = 0.0
                backward(tape, sum_all(mul(out, tensor(g))))
            padded = np.zeros((rows, length + left + right))
            padded[:, left:left + length] = sig
            stop = stride * (out.shape[1] - 1) + 1
            dk = np.array([(g * padded[:, t:t + stop:stride]).sum() for t in range(k)])
            dpad = np.zeros_like(padded)
            for t in range(k):
                dpad[:, t:t + stop:stride] += g * kern[0, t]
            assert kt.grad.tobytes() == dk.reshape(1, k).tobytes()
            assert s.grad.tobytes() == dpad[:, left:left + length].tobytes()


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
        err = _fd_case(
            lambda s, k: sum_all(sigmoid(conv1d(s, k, stride=1, padding=1))),
            [(3, 7), (1, 3)],
            seed,
        )
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_conv_strided_asymmetric(self, seed):
        err = _fd_case(
            lambda s, k: sum_all(mul(conv1d(s, k, stride=2, padding=(1, 2)), conv1d(s, k, stride=2, padding=(1, 2)))),
            [(2, 8), (1, 4)],
            seed,
        )
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
            k = rng.uniform(-5, 5, size=3)
            assert np.all(np.isfinite(softmax_axis(tensor(x), "col").data))
            assert np.all(np.isfinite(sigmoid(tensor(x)).data))
            assert np.all(np.isfinite(conv1d(tensor(x), tensor(k), 1, 1).data))
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
        k = parameter(rng.normal(size=(1, 3)))
        tz.set_fault_injection("conv-kernel-grad")
        try:
            err = grad_check(lambda: sum_all(sigmoid(conv1d(s, k, 1, 1))), [s, k])
        finally:
            tz.set_fault_injection(None)
        assert err > 1e-4
