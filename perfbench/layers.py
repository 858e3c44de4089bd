"""Per-stage timings on one 200-window batch, run without the tracer.

Each stage runs once per window on a tape that holds only that stage (its
input is a fresh leaf, so the stage's ops record), then one backward pass
walks that tape. The batch loss is add_n over a sum_all per window, the
same shape of graph training builds, so the tape also holds those 201
nodes. Each timing is the fastest of its repeats.
"""

from __future__ import annotations

import time

import mcdc
import mcdc.tensor as T
import mcdc.training

from tracing import Tracer

clock = time.perf_counter
BATCH = 200
REPEATS = 3
ADAM_REPEATS = 20


def _batch(windows):
    return [windows[i % len(windows)] for i in range(BATCH)]


def _stage_inputs(model, batch):
    """Tape-free stage outputs of every window: the inputs of the next stage."""
    xs = [w.values for w in batch]
    embedded = [model.embed(T.tensor(x)) for x in xs]
    temporal = [model.temporal_interaction(e) for e in embedded]
    mixed = [T.add(t, e) for t, e in zip(temporal, embedded)]
    channel = [model.channel_interaction(m) for m in mixed]
    final = [T.add(c, t) for c, t in zip(channel, temporal)]
    probs = [model.project(f) for f in final]
    labels = [w.label.code for w in batch]
    return {
        "model.embed": (model.embed, xs),
        "model.temporal_interaction": (model.temporal_interaction, [e.data for e in embedded]),
        "model.channel_interaction": (model.channel_interaction, [m.data for m in mixed]),
        "model.project": (model.project, [f.data for f in final]),
        "tensor.cross_entropy": (None, [(p.data, label) for p, label in zip(probs, labels)]),
    }


def _time_stage(fn, inputs) -> tuple[float, float]:
    if fn is None:  # cross_entropy: (probabilities, label) pairs
        leaves = [(T.parameter(p.copy()), label) for p, label in inputs]
        call = lambda leaf: T.cross_entropy(*leaf)  # noqa: E731
    else:
        leaves = [T.parameter(x.copy()) for x in inputs]
        call = fn
    with T.Tape() as tape:
        started = clock()
        outs = [call(leaf) for leaf in leaves]
        forward = clock() - started
        loss = T.add_n([T.sum_all(o) for o in outs])
    started = clock()
    T.backward(tape, loss)
    return forward, clock() - started


def _clone(model):
    twin = mcdc.McdcModel(model.hyper, model.seed)
    twin.load_parameter_arrays(model.parameter_arrays())
    return twin


def stage_metrics(model, windows) -> dict[str, float]:
    """fwd/bwd ms per stage, the whole-batch loss and backward, one Adam step,
    tape nodes per batch and conv1d calls per window."""
    model = _clone(model)
    batch = _batch(windows)
    out: dict[str, float] = {}
    for name, (fn, inputs) in _stage_inputs(model, batch).items():
        times = [_time_stage(fn, inputs) for _ in range(REPEATS)]
        out[f"{name}.fwd_ms"] = 1e3 * min(t[0] for t in times)
        out[f"{name}.bwd_ms"] = 1e3 * min(t[1] for t in times)

    forward, backward = [], []
    for _ in range(REPEATS):
        with T.Tape() as tape:
            started = clock()
            loss = mcdc.training._batch_loss(model, batch)
            forward.append(clock() - started)
        started = clock()
        T.backward(tape, loss)
        backward.append(clock() - started)
        nodes = len(tape.nodes)
    out["training.batch_loss.ms"] = 1e3 * min(forward)
    out["tensor.backward.batch_ms"] = 1e3 * min(backward)
    out["tensor.tape_nodes_per_batch"] = float(nodes)

    params = model.parameters()
    grads = {name: p.grad if p.grad is not None else p.data * 0.0 for name, p in params}
    config = mcdc.TrainConfig(seed=0)
    state = mcdc.training.AdamState()
    steps = []
    for _ in range(ADAM_REPEATS):
        started = clock()
        mcdc.training.adam_step(params, grads, state, config.lr0, config)
        steps.append(clock() - started)
    out["training.adam_step.ms"] = 1e3 * min(steps)

    counter = Tracer()
    with counter.install([("tensor.conv1d", "mcdc.tensor", "conv1d")]):
        for w in batch:
            model.predict_proba(w.values)
    out["tensor.conv1d.calls_per_window"] = counter.count("tensor.conv1d") / BATCH
    return out
