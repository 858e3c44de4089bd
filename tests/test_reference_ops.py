"""The reference joins of reference_ops.py against finite differences, and
their shape checks."""

import numpy as np
import pytest

from mcdc.tensor import (
    DimensionError,
    add,
    grad_check,
    mul,
    parameter,
    reshape,
    sigmoid,
    sum_all,
    tensor,
    transpose,
)
from reference_ops import concat_cols, concat_rows


def _fd_case(op_builder, shapes, seed):
    rng = np.random.default_rng(seed)
    params = [parameter(rng.normal(size=s)) for s in shapes]
    return grad_check(lambda: op_builder(*params), params)


class TestFiniteDifferences:
    @pytest.mark.parametrize("seed", range(10))
    def test_structural_ops(self, seed):
        def f(a, b):
            cat = concat_rows([a, b])
            flat = reshape(cat, (1, cat.data.size))
            side = concat_cols([transpose(a), transpose(b)])
            return add(sum_all(sigmoid(flat)), sum_all(mul(side, side)))

        err = _fd_case(f, [(2, 3), (2, 3)], seed)
        assert err < 1e-4


class TestStackFiniteDifferences:
    @pytest.mark.parametrize("seed", range(5))
    def test_structural_ops(self, seed):
        def f(a, b):
            cat = concat_rows([a, b])
            flat = reshape(cat, (2, 1, 18))
            side = concat_cols([transpose(a), transpose(b)])
            return add(sum_all(sigmoid(flat)), sum_all(mul(side, side)))

        err = _fd_case(f, [(2, 2, 3), (2, 4, 3)], seed)
        assert err < 1e-4


class TestStacks:
    def test_mismatched_stacks_rejected(self):
        with pytest.raises(DimensionError):
            concat_rows([tensor(np.zeros((2, 3, 3))), tensor(np.zeros((3, 3)))])
