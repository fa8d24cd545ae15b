import numpy as np
import pytest

from loopscope.autograd import ShapeError, Tensor2, finite_diff_check
from loopscope.layers import init_layer, layer_param_count, stack_backward, stack_forward
from loopscope.model import cross_entropy


def naive_layer_forward(x, p, n_heads, causal=True, eps=1e-5):
    """Independent per-position, per-head re-implementation (plain loops)."""
    seq, d = x.shape
    dh = d // n_heads

    def ln(v, g, b):
        mu = v.mean()
        var = ((v - mu) ** 2).mean()
        return g * (v - mu) / np.sqrt(var + eps) + b

    normed = np.stack([ln(x[t], p.ln1_g.data[0], p.ln1_b.data[0]) for t in range(seq)])
    qkv = normed @ p.w_qkv.data
    q, k, v = qkv[:, :d], qkv[:, d:2 * d], qkv[:, 2 * d:]
    ctx = np.zeros((seq, d))
    for t in range(seq):
        for h in range(n_heads):
            sl = slice(h * dh, (h + 1) * dh)
            limit = t + 1 if causal else seq
            scores = np.array([q[t, sl] @ k[u, sl] / np.sqrt(dh) for u in range(limit)])
            w = np.exp(scores - scores.max())
            w = w / w.sum()
            for u in range(limit):
                ctx[t, sl] += w[u] * v[u, sl]
    x = x + ctx @ p.w_out.data + p.b_out.data
    normed2 = np.stack([ln(x[t], p.ln2_g.data[0], p.ln2_b.data[0]) for t in range(seq)])
    h1 = normed2 @ p.w_mlp1.data + p.b_mlp1.data
    c = np.sqrt(2.0 / np.pi)
    h1 = 0.5 * h1 * (1.0 + np.tanh(c * (h1 + 0.044715 * h1 ** 3)))
    return x + h1 @ p.w_mlp2.data + p.b_mlp2.data


def forward(x, layer, n_heads, seq_len):
    return stack_forward(x, [layer], n_heads, seq_len)[0][-1]


def random_layer(seed, d=8, d_mlp=16, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return init_layer(d, d_mlp, rng, proj_std=0.3, dtype=dtype)


def test_matches_naive_oracle():
    rng = np.random.default_rng(10)
    layer = random_layer(11)
    x = rng.normal(size=(5, 8))
    got = forward(x, layer, n_heads=2, seq_len=5)
    want = naive_layer_forward(x, layer, n_heads=2)
    assert np.max(np.abs(got - want)) < 1e-6


def test_zero_weight_layer_is_identity():
    layer = random_layer(12)
    for name in ("w_qkv", "w_out", "b_out", "w_mlp1", "b_mlp1",
                 "w_mlp2", "b_mlp2"):
        t = getattr(layer, name)
        t.data[...] = 0.0
    x = np.random.default_rng(13).normal(size=(4, 8))
    out = forward(x, layer, n_heads=2, seq_len=4)
    # residual wiring: zero attention/mlp contributions leave the input intact
    assert np.array_equal(out, x)


def test_causal_masking_prefix_invariance():
    rng = np.random.default_rng(14)
    for trial in range(20):
        layer = random_layer(100 + trial)
        x = rng.normal(size=(6, 8))
        base = forward(x, layer, n_heads=2, seq_len=6)
        t = int(rng.integers(0, 5))
        x2 = x.copy()
        x2[t + 1:] = rng.normal(size=x2[t + 1:].shape)
        out = forward(x2, layer, n_heads=2, seq_len=6)
        assert np.array_equal(out[:t + 1], base[:t + 1])


def test_output_shape_and_finiteness():
    layer = random_layer(15)
    x = np.random.default_rng(16).normal(size=(7, 8)) * 1e2
    out = forward(x, layer, n_heads=4, seq_len=7)
    assert out.shape == (7, 8)
    assert np.all(np.isfinite(out))


def test_shape_mismatch_rejected():
    layer = random_layer(17)
    with pytest.raises(ShapeError):
        forward(np.zeros((4, 6)), layer, n_heads=2, seq_len=4)


def test_two_layer_stack_gradcheck():
    rng = np.random.default_rng(18)
    l1, l2 = random_layer(19), random_layer(20)
    emb = Tensor2(rng.normal(size=(10, 8)) * 0.5)
    x = Tensor2(rng.normal(size=(4, 8)))
    weights = [t for _, t in l1.tensors()] + [t for _, t in l2.tensors()]

    def f():
        for t in weights:
            t.grad = None
        states, caches = stack_forward(x.data, [l1, l2], n_heads=2, seq=4)
        h = states[-1][[3]]
        loss, dlogits = cross_entropy(h @ emb.data.T, [4])
        dh = np.zeros_like(states[-1])
        dh[3] = dlogits @ emb.data
        dx = stack_backward(dh, states, caches)
        return loss, [dx, dlogits.T @ h] + [t.grad for t in weights]

    err = finite_diff_check(f, [x, emb] + weights, eps=1e-5, max_coords=4,
                            seed=0)
    assert err <= 1e-4


def test_param_count_formula():
    layer = random_layer(21, d=8, d_mlp=16)
    total = sum(t.data.size for _, t in layer.tensors())
    assert total == layer_param_count(8, 16)
