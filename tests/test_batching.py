"""A batch is one graph: the stacked forward pass, batch loss and gradients
against the per-window path they replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdc.baselines import MODEL_KINDS, make_model
from mcdc.conditions import N_CONDITIONS, by_code
from mcdc.data import CdgdWindow
from mcdc.tensor import Tape, add_n, backward, cross_entropy
from mcdc.training import SCORE_CHUNK, _batch_loss, score_windows
from reference_ops import scale

T_LEN = 8
# Deterministic draws keep the suite reproducible; no example database is written.
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _model(kind, seed):
    small = {} if kind == "ann" else {"heads": 2, "kernel_temporal": 3, "kernel_channel": 4, "ffn_hidden": 8}
    return make_model(kind, T_LEN, seed, **small)


def _windows(seed, n):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, N_CONDITIONS, size=n)
    return [CdgdWindow(f"t{i}", i, rng.normal(scale=2.0, size=(5, T_LEN)), by_code(int(c))) for i, c in enumerate(codes)]


def _per_window_loss(model, batch):
    """The reference: one graph per window, joined by add_n and scaled by 1/B."""
    losses = [cross_entropy(model.forward(w.values), w.label.code) for w in batch]
    return scale(add_n(losses), 1.0 / len(losses))


def _loss_and_grads(model, loss_fn):
    with Tape() as tape:
        loss = loss_fn()
        backward(tape, loss)
    return loss.item(), {name: p.grad.copy() for name, p in model.parameters()}, len(tape.nodes)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@SETTINGS
@given(n=st.integers(1, 17), seed=st.integers(0, 2**16))
def test_stack_rows_equal_windows_scored_alone(kind, n, seed):
    model = _model(kind, seed)
    windows = _windows(seed + 1, n)
    stacked = model.predict_proba(np.stack([w.values for w in windows]))
    alone = np.array([model.predict_proba(w.values) for w in windows])
    assert stacked.shape == (n, N_CONDITIONS)
    assert stacked.tobytes() == alone.tobytes()
    # one full scoring chunk plus a ragged one of n windows
    many = _windows(seed + 2, SCORE_CHUNK + n)
    assert score_windows(model, many).tobytes() == np.array([model.predict_proba(w.values) for w in many]).tobytes()


@pytest.mark.parametrize("kind", MODEL_KINDS)
@SETTINGS
@given(n=st.integers(1, 17), batch_size=st.integers(1, 17), seed=st.integers(0, 2**16))
def test_batch_loss_and_gradients_match_per_window_reference(kind, n, batch_size, seed):
    model = _model(kind, seed)
    windows = _windows(seed + 1, n)
    # cut as train_fold cuts: the last batch is ragged when batch_size does not divide n
    for lo in range(0, n, batch_size):
        batch = windows[lo:lo + batch_size]
        loss, grads, _ = _loss_and_grads(model, lambda: _batch_loss(model, batch))
        ref_loss, ref_grads, _ = _loss_and_grads(model, lambda: _per_window_loss(model, batch))
        assert abs(loss - ref_loss) <= 1e-12
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(grads[name], ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max(), err_msg=name)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_tape_size_does_not_grow_with_the_batch(kind):
    model = _model(kind, 3)
    windows = _windows(4, 200)
    _, _, one = _loss_and_grads(model, lambda: _batch_loss(model, windows[:1]))
    _, _, full = _loss_and_grads(model, lambda: _batch_loss(model, windows))
    assert full == one
