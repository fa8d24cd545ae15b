import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from loopscope.autograd import Tensor2, finite_diff_check
from loopscope.layers import NormGrads, layer_norm_backward, layer_norm_into
from loopscope.model import LoopedConfig, cross_entropy, init_params, loss_and_grads
from loopscope.training import AdamW, TrainConfig, train_step


def test_finite_diff_square():
    w = Tensor2([[3.0]])
    err = finite_diff_check(lambda: (w.data[0, 0] ** 2, [2 * w.data]), [w],
                            eps=1e-5)
    assert err <= 1e-8


def test_finite_diff_linear_exact():
    w = Tensor2(np.arange(4.0).reshape(2, 2))
    for eps in (1e-6, 1e-3, 1e-1):
        err = finite_diff_check(lambda: (w.data.sum(), [np.ones((2, 2))]),
                                [w], eps=eps)
        assert err <= 1e-10


def test_matmul_and_takerows_grads():
    """The embedding's two uses, the row gather at the input (token ids
    repeat) and the tied head, with identity layers in between."""
    config = LoopedConfig(vocab_size=7, d_model=4, n_heads=1, prelude_layers=1,
                          recurrent_layers=1, coda_layers=1, max_seq=3, k_max=2)
    params = init_params(config, seed=2, dtype=np.float64)
    params.embedding.data *= 50.0
    params.pos.data *= 50.0
    for layer in params.prelude + params.recurrent + params.coda:
        for name in ("w_out", "b_out", "w_mlp2", "b_mlp2"):
            getattr(layer, name).data[...] = 0.0
    weights = [params.embedding, params.pos]

    def f():
        for _, t in params.named_tensors():
            t.grad = None
        loss = loss_and_grads([[0, 2, 2], [2, 0, 5]], [1, 2], params, 1)
        return loss, [t.grad for t in weights]

    assert finite_diff_check(f, weights, eps=1e-6) <= 1e-7


def test_fused_ops_grads_match_finite_diff():
    """layernorm, row gather, tied-head matmul and cross-entropy: the
    backward of the model's final norm and LM head."""
    rng = np.random.default_rng(3)
    x = Tensor2(rng.normal(size=(6, 8)))
    g = Tensor2(rng.normal(size=(1, 8)))
    b = Tensor2(rng.normal(size=(1, 8)))
    emb = Tensor2(rng.normal(size=(9, 8)))
    rows, targets = [2, 5], [1, 3]

    def f():
        for t in (g, b):
            t.grad = None
        h = np.empty_like(x.data)
        mean, rstd = np.empty((6, 1)), np.empty((6, 1))
        layer_norm_into(x.data, g.data, b.data, h, np.empty_like(h), mean,
                        rstd)
        loss, dlogits = cross_entropy(h[rows] @ emb.data.T, targets)
        dh = np.zeros_like(h)
        np.add.at(dh, rows, dlogits @ emb.data)
        dx = layer_norm_backward(x.data, mean, rstd, g, b, dh,
                                 NormGrads(6, 8, np.float64))
        return loss, [dx, g.grad, b.grad, dlogits.T @ h[rows]]

    err = finite_diff_check(f, [x, g, b, emb], eps=1e-5, max_coords=12)
    assert err <= 1e-4


def test_cross_entropy_matches_log():
    loss, dlogits = cross_entropy(np.array([[0.0, np.log(3.0)]]), [1])
    assert loss == pytest.approx(-np.log(0.75), abs=1e-12)
    assert np.allclose(dlogits, [[0.25, -0.25]], atol=1e-12)
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), [0])
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((1, 3)), [3])
    with pytest.raises(ValueError, match="integers"):
        cross_entropy(np.zeros((2, 3)), [0.5, 1.9])


def test_float32_activations_stay_float32(monkeypatch):
    """Every matmul of a float32 train_step, forward and backward, takes and
    gives float32: a NumPy float64 scalar in the attention scaling once
    promoted every activation after the first attention layer of a float32
    model to float64."""
    config = LoopedConfig(vocab_size=11, d_model=8, n_heads=2,
                          prelude_layers=1, recurrent_layers=1, coda_layers=1,
                          max_seq=6, k_max=3)
    params = init_params(config, seed=22)
    rng = np.random.default_rng(22)
    batch = (rng.integers(0, 11, size=(4, 6)), rng.integers(0, 11, size=4))
    seen = set()
    matmul = np.matmul

    def spy(*args, **kwargs):
        out = matmul(*args, **kwargs)
        seen.update(a.dtype for a in args)
        seen.add(out.dtype)
        return out

    monkeypatch.setattr(np, "matmul", spy)
    train_step(params, batch, 3, AdamW(params, TrainConfig()))
    monkeypatch.undo()
    assert seen == {np.dtype(np.float32)}
    for name, t in params.named_tensors():
        assert t.data.dtype == t.grad.dtype == np.float32, name


def test_every_module_the_benchmark_traces_imports():
    """perfbench/spans.py resolves each traced name by importing
    loopscope.<module>, so `perfbench/run.py --trace 1` crashes if one of
    those modules is gone. The benchmark's file is loaded, not edited."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = sorted({module for module, _ in spans.TRACED.values()})
    assert modules
    for module in modules:
        importlib.import_module(f"loopscope.{module}")
