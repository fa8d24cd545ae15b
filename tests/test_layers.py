import math

import numpy as np
import pytest

from loopscope import layers
from loopscope.autograd import ShapeError, Tensor2, finite_diff_check
from loopscope.layers import (
    Workspace,
    init_layer,
    layer_param_count,
    stack_backward,
    stack_forward,
)
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
    return stack_forward(x, [layer], n_heads, seq_len, Workspace())[0][-1]


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
        workspace = Workspace()
        workspace.bind_grads(weights)
        states, caches = stack_forward(x.data, [l1, l2], 2, 4, workspace)
        h = states[-1][[3]]
        loss, dlogits = cross_entropy(h @ emb.data.T, [4])
        dh = np.zeros_like(states[-1])
        dh[3] = dlogits @ emb.data
        dx = stack_backward(dh, states, caches, workspace)
        return loss, [dx, dlogits.T @ h] + [t.grad for t in weights]

    err = finite_diff_check(f, [x, emb] + weights, eps=1e-5, max_coords=4,
                            seed=0)
    assert err <= 1e-4


def test_param_count_formula():
    layer = random_layer(21, d=8, d_mlp=16)
    total = sum(t.data.size for _, t in layer.tensors())
    assert total == layer_param_count(8, 16)


def test_two_workspaces_share_no_array():
    """Two calls compare as two results only if their workspaces share no
    buffer (test_causal_masking_prefix_invariance compares two calls)."""
    layer = random_layer(22)
    x = np.random.default_rng(23).normal(size=(8, 8))
    (s1, c1), (s2, c2) = (stack_forward(x, [layer, layer], 2, 4, Workspace())
                          for _ in range(2))
    for a, b in zip(s1[1:], s2[1:]):
        assert not np.shares_memory(a, b)
    for (_, keys1, buf1), (_, keys2, buf2) in zip(c1, c2):
        for name in layers._CACHED_KEYS:
            assert not np.shares_memory(getattr(keys1, name),
                                        getattr(keys2, name))
        for name in layers._CACHED:
            assert not np.shares_memory(getattr(buf1, name),
                                        getattr(buf2, name))


def attend_with_np_max(q, k, v, buf):
    """_attend's ops with the softmax row max taken by np.max."""
    np.matmul(q, k.swapaxes(2, 3), out=buf.scores)
    buf.scores *= 1.0 / math.sqrt(q.shape[-1])
    if buf.mask is not None:
        np.copyto(buf.scores, buf.neg, where=buf.mask)
    np.max(buf.scores, axis=-1, keepdims=True, out=buf.smax)
    buf.scores -= buf.smax
    np.exp(buf.scores, out=buf.scores)
    np.sum(buf.scores, axis=-1, keepdims=True, out=buf.smax)
    buf.scores /= buf.smax
    np.matmul(buf.scores, v, out=buf.heads(buf.ctx, buf.shape[1]))
    return buf.ctx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_q", [9, 1])     # causal mask; one query, no mask
def test_attend_row_max_methods_give_the_same_bits(dtype, n_q, monkeypatch):
    """Below _RUNNING_MAX_BATCH sequences _attend takes np.maximum.reduce,
    from it on a running np.maximum; either way, and with the running max
    forced at every batch, the weights and context match the np.max formula
    bit for bit. _attend reads q, k and v through the views its Buffers
    bound when made; the formula reads its own views of the same arrays."""
    rng = np.random.default_rng(24)
    n_k, d, n_heads = 9, 16, 4
    threshold = layers._RUNNING_MAX_BATCH
    for batch in (1, threshold - 1, threshold, 3 * threshold + 1):
        keys = layers.KeyBuffers(batch, n_k, n_k, d, dtype)
        buf = layers.Buffers(keys, n_q, 4 * d, n_heads)
        assert (buf.mask is None) == (n_q == 1)
        buf.q[...] = rng.normal(0, 3, buf.q.shape)
        keys.kv[...] = rng.normal(0, 3, keys.kv.shape)
        q = buf.heads(buf.q, n_q)
        k, v = (buf.heads(keys.kv[:, :, i * d:(i + 1) * d], n_k)
                for i in range(2))
        want = attend_with_np_max(q, k, v, buf).copy()
        want_scores = buf.scores.copy()
        for forced in (threshold, 1):
            monkeypatch.setattr(layers, "_RUNNING_MAX_BATCH", forced)
            buf.ctx[...] = np.nan
            buf.scores[...] = np.nan
            assert np.array_equal(layers._attend(buf), want)
            assert np.array_equal(buf.scores, want_scores)


def plain_layer_norm_backward(x, gain, bias, g):
    """The layernorm backward as plain formulas, x-hat recomputed."""
    mean = x.mean(axis=1, keepdims=True)
    xc = x - mean
    xhat = xc * (1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True)
                               + 1e-5))
    gdy = g * gain.data
    dx = (1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + 1e-5)) * (
        gdy - gdy.mean(axis=1, keepdims=True)
        - xhat * (gdy * xhat).mean(axis=1, keepdims=True))
    return dx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0,
                                                             keepdims=True)


def plain_layer_norm(x, gain, bias):
    """The layernorm's output as a plain formula."""
    xc = x - x.mean(axis=1, keepdims=True)
    rstd = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + 1e-5)
    return gain.data * (xc * rstd) + bias.data


def plain_rebuilt(x, p, keys, buf):
    """What one application's forward leaves in shared scratch and its
    backward rebuilds, as plain formulas of its input x and its cache: the
    outputs of LN1 and LN2, GELU's input, tanh and output, and the
    attention context."""
    batch, seq, _, _ = buf.shape
    d = x.shape[1]
    ln2 = plain_layer_norm(buf.mid, p.ln2_g, p.ln2_b)
    h = np.matmul(ln2, p.w_mlp1.data) + p.b_mlp1.data
    t = np.tanh(math.sqrt(2.0 / math.pi) * (h + 0.044715 * (h * h * h)))
    ctx = np.matmul(buf.scores, buf.heads(keys.kv[:, :, d:], seq))
    return (plain_layer_norm(x, p.ln1_g, p.ln1_b), ln2, h, t,
            0.5 * h * (1.0 + t),
            ctx.transpose(0, 2, 1, 3).reshape(batch * seq, d))


def plain_layer_backward(dout, x, p, keys, buf, ln1, ln2, h, t, act, ctx):
    """layer_backward as plain formulas that allocate every temporary;
    returns dx and {weight name: gradient}. Reads the cache and the
    outputs of LN1 and LN2, GELU's input, tanh and output and the
    attention context, changes nothing."""
    batch, seq, n_heads, dh = buf.shape
    d = x.shape[1]
    grads = {"b_mlp2": dout.sum(axis=0, keepdims=True),
             "w_mlp2": np.matmul(act.T, dout)}
    dact = np.matmul(dout, p.w_mlp2.data.T)
    dinner = math.sqrt(2.0 / math.pi) * (1.0 + 3.0 * 0.044715 * (h * h))
    dh1 = dact * (0.5 * (1.0 + t) + 0.5 * h * (1.0 - t * t) * dinner)
    grads["b_mlp1"] = dh1.sum(axis=0, keepdims=True)
    grads["w_mlp1"] = np.matmul(ln2.T, dh1)
    dln, grads["ln2_g"], grads["ln2_b"] = plain_layer_norm_backward(
        buf.mid, p.ln2_g, p.ln2_b, np.matmul(dh1, p.w_mlp1.data.T))
    dmid = dout + dln
    grads["w_out"] = np.matmul(ctx.T, dmid)
    grads["b_out"] = dmid.sum(axis=0, keepdims=True)
    dctx = buf.heads(np.matmul(dmid, p.w_out.data.T), seq)
    q = buf.heads(buf.q, seq)
    k, v = (buf.heads(keys.kv[:, :, i * d:(i + 1) * d], seq) for i in range(2))
    w = buf.scores
    dw = np.matmul(dctx, v.swapaxes(2, 3))
    dv = np.matmul(w.swapaxes(2, 3), dctx)
    dscores = w * (dw - (dw * w).sum(axis=-1, keepdims=True))
    dq = np.matmul(dscores, k) * (1.0 / math.sqrt(dh))
    dk = np.matmul(dscores.swapaxes(2, 3), q) * (1.0 / math.sqrt(dh))
    dqkv = np.concatenate([b.transpose(0, 2, 1, 3).reshape(batch * seq, d)
                           for b in (dq, dk, dv)], axis=1)
    grads["w_qkv"] = np.matmul(ln1.T, dqkv)
    dln, grads["ln1_g"], grads["ln1_b"] = plain_layer_norm_backward(
        x, p.ln1_g, p.ln1_b, np.matmul(dqkv, p.w_qkv.data.T))
    return dmid + dln, grads


def perturbed_layer(seed, rng, dtype):
    """A layer whose layernorm affines and biases are not 1 and 0."""
    layer = random_layer(seed, d=16, d_mlp=64, dtype=dtype)
    for _, t in layer.tensors():
        t.data += rng.normal(0.0, 0.3, t.data.shape).astype(dtype)
    return layer


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_backward_matches_the_plain_formulas_bit_for_bit(dtype):
    """layer_backward's in-place GELU, softmax and layernorm backward, with
    x-hat re-formed from the kept mean and 1/sigma and the layernorm and
    GELU outputs rebuilt from the cache, give the bits of the plain
    formulas."""
    rng = np.random.default_rng(25)
    layer = perturbed_layer(26, rng, dtype)
    x = rng.normal(size=(6 * 5, 16)).astype(dtype)
    dout = rng.normal(size=x.shape).astype(dtype)
    workspace = Workspace()
    workspace.bind_grads([t for _, t in layer.tensors()])
    states, caches = stack_forward(x, [layer], 4, 5, workspace)
    want_dx, want = plain_layer_backward(
        dout, x, *caches[0], *plain_rebuilt(x, *caches[0]))
    got_dx = stack_backward(dout, states, caches, workspace)
    assert got_dx.dtype == dtype
    assert np.array_equal(got_dx, want_dx)
    for name, t in layer.tensors():
        assert np.array_equal(t.grad, want[name]), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_shared_weights_backward_matches_each_application_alone(dtype):
    """A stack that applies the same weights three times, as the recurrent
    block does, gets the plain formulas' gradients bit for bit. Each
    application's reference reads only that application re-run alone in a
    fresh Workspace, so a backward that took an array from another
    application's forward, such as one left in the shared scratch, fails."""
    rng = np.random.default_rng(27)
    first, *shared = (perturbed_layer(28 + i, rng, dtype) for i in range(3))
    stack = [first] + shared * 3
    x = rng.normal(size=(6 * 5, 16)).astype(dtype)
    dout = rng.normal(size=x.shape).astype(dtype)
    workspace = Workspace()
    workspace.bind_grads([t for layer in [first] + shared
                          for _, t in layer.tensors()])
    states, caches = stack_forward(x, stack, 4, 5, workspace)
    got_dx = stack_backward(dout, states, caches, workspace)

    # the backward's order: last application first, each weight's
    # gradients summed in that order
    want_dx, want = dout, {id(layer): {} for layer in [first] + shared}
    for x_i, p in zip(reversed(states[:-1]), reversed(stack)):
        _, alone = stack_forward(x_i, [p], 4, 5, Workspace())
        want_dx, grads = plain_layer_backward(
            want_dx, x_i, *alone[0], *plain_rebuilt(x_i, *alone[0]))
        total = want[id(p)]
        for name, g in grads.items():
            total[name] = total[name] + g if name in total else g
    assert np.array_equal(got_dx, want_dx)
    for layer in [first] + shared:
        for name, t in layer.tensors():
            assert np.array_equal(t.grad, want[id(layer)][name]), name
