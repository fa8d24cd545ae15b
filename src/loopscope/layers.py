"""Pre-norm transformer layers on raw arrays: one forward that training and
inference share, and the backward of a full-sequence forward."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .autograd import GELU_COEF, LN_EPS, ShapeError, Tensor2


@dataclass
class LayerParams:
    """Weights of one pre-norm block: attention sublayer + 2-layer GELU MLP."""

    ln1_g: Tensor2
    ln1_b: Tensor2
    w_qkv: Tensor2
    w_out: Tensor2
    b_out: Tensor2
    ln2_g: Tensor2
    ln2_b: Tensor2
    w_mlp1: Tensor2
    b_mlp1: Tensor2
    w_mlp2: Tensor2
    b_mlp2: Tensor2

    def tensors(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def init_layer(d_model: int, d_mlp: int, rng: np.random.Generator,
               proj_std: float, resid_std: float | None = None,
               dtype=np.float32) -> LayerParams:
    """Scaled-normal init. `resid_std` (default: proj_std) applies to the two
    projections that write into the residual stream (attention output, second
    MLP matmul), so deep unrolls keep a stable residual scale."""
    if resid_std is None:
        resid_std = proj_std

    def w(shape, std):
        return Tensor2(rng.normal(0.0, std, size=shape).astype(dtype))

    def zeros(n):
        return Tensor2(np.zeros((1, n), dtype=dtype))

    def ones(n):
        return Tensor2(np.ones((1, n), dtype=dtype))

    return LayerParams(
        ln1_g=ones(d_model), ln1_b=zeros(d_model),
        w_qkv=w((d_model, 3 * d_model), proj_std),
        w_out=w((d_model, d_model), resid_std), b_out=zeros(d_model),
        ln2_g=ones(d_model), ln2_b=zeros(d_model),
        w_mlp1=w((d_model, d_mlp), proj_std), b_mlp1=zeros(d_mlp),
        w_mlp2=w((d_mlp, d_model), resid_std), b_mlp2=zeros(d_model),
    )


def layer_param_count(d_model: int, d_mlp: int) -> int:
    """Closed-form parameter count of one block."""
    return (
        2 * 2 * d_model                         # two layernorm affines
        + d_model * 3 * d_model                 # qkv projection (bias-free)
        + d_model * d_model + d_model           # attention output projection
        + d_model * d_mlp + d_mlp               # mlp in
        + d_mlp * d_model + d_model             # mlp out
    )


# -- forward --------------------------------------------------------------------
#
# The block on raw arrays: every temporary lives in buffers that the caller
# allocates. Inference reuses one set of buffers for every layer and step.
# Training gives each layer application its own set, and those buffers are
# the cache that layer_backward reads.
#
# One call runs the block for `batch` sequences of n_k positions. It holds the
# states x of each sequence's last n_x positions and queries the last n_q of
# them (n_q <= n_x <= n_k). The keys and values of the first n_k - n_x
# positions are the caller's to put into KeyBuffers.kv: a prefix that many
# sequences share is computed once and gathered there. Training runs whole
# sequences, n_q = n_x = n_k.


class KeyBuffers:
    """Keys and values of `batch` sequences of n_k positions, and the
    layernormed states of their last n_x positions, in one dtype."""

    def __init__(self, batch: int, n_x: int, n_k: int, d_model: int, dtype):
        rows = batch * n_x
        self.n_x = n_x
        self.ln = np.empty((rows, d_model), dtype)
        self.scratch = np.empty((rows, d_model), dtype)
        self.stat = np.empty((rows, 1), dtype)
        self.kv = np.empty((batch, n_k, 2 * d_model), dtype)   # keys | values


class Buffers:
    """Query-side activation buffers for `batch` sequences queried at the
    last n_q of their n_k positions, in one dtype."""

    def __init__(self, batch: int, n_q: int, n_k: int, d_model: int,
                 d_mlp: int, n_heads: int, dtype):
        rows = batch * n_q
        dh = d_model // n_heads
        self.shape = (batch, n_q, n_heads, dh)
        self.q = np.empty((rows, d_model), dtype)
        self.mid = np.empty((rows, d_model), dtype)     # state after attention
        self.ln = np.empty((rows, d_model), dtype)      # normed MLP input
        self.proj = np.empty((rows, d_model), dtype)    # sublayer output
        self.stat = np.empty((rows, 1), dtype)          # per-row mean, variance
        self.hidden = np.empty((rows, d_mlp), dtype)    # GELU input
        self.tmp = np.empty((rows, d_mlp), dtype)       # 1 + tanh
        # GELU's tanh and output overwrite tmp and its input; a layer cache
        # gives them their own arrays (see stack_forward)
        self.t = self.tmp
        self.act = self.hidden
        self.scores = np.empty((batch, n_heads, n_q, n_k), dtype)
        self.smax = np.empty((batch, n_heads, n_q, 1), dtype)
        self.ctx = np.empty((rows, d_model), dtype)     # (batch, n_q, heads, dh)
        # query t sits at position n_k - n_q + t and sees the keys up to it
        mask = np.triu(np.ones((n_q, n_k), dtype=bool), k=n_k - n_q + 1)
        self.mask = mask if mask.any() else None
        self.neg = np.finfo(dtype).min

    def heads(self, block: np.ndarray, n_pos: int):
        """(batch, heads, n_pos, dh) view of a (batch*n_pos, heads*dh) or
        (batch, n_pos, heads*dh) block."""
        batch, _, n_heads, dh = self.shape
        return block.reshape(batch, n_pos, n_heads, dh).transpose(0, 2, 1, 3)


def _normalize(x, out, scratch, stat) -> None:
    """out = (x - mean) / sqrt(var + eps) row-wise, with stat = 1/sqrt(var + eps)."""
    n = x.shape[1]
    # np.mean's arithmetic (sum, then divide) without its Python wrapper
    np.add.reduce(x, axis=1, keepdims=True, out=stat)
    stat /= n
    np.subtract(x, stat, out=out)
    np.multiply(out, out, out=scratch)
    np.add.reduce(scratch, axis=1, keepdims=True, out=stat)
    stat /= n
    stat += LN_EPS
    np.sqrt(stat, out=stat)
    np.divide(1.0, stat, out=stat)
    out *= stat


def layer_norm_into(x, gain, bias, out, scratch, stat) -> None:
    """out = gain * (x - mean) / sqrt(var + eps) + bias, row-wise."""
    _normalize(x, out, scratch, stat)
    out *= gain
    out += bias


_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _gelu(x, t, tmp, out) -> None:
    """Tanh-form GELU (Hendrycks & Gimpel 2016) of x into out:
    out = x/2 (1 + t), with t = tanh(c (x + a x^3)) left in t. t may be
    tmp, and out may be x."""
    np.multiply(x, x, out=tmp)
    tmp *= x
    tmp *= GELU_COEF
    tmp += x
    tmp *= _SQRT_2_OVER_PI
    np.tanh(tmp, out=t)
    np.add(t, 1.0, out=tmp)
    np.multiply(x, 0.5, out=out)
    out *= tmp


def _attend(q, k, v, buf: Buffers) -> np.ndarray:
    """Softmax(q k^T / sqrt(dh)) v for (batch, heads, pos, dh) blocks, into
    buf.ctx; returns buf.ctx as (batch*n_q, d_model) rows."""
    np.matmul(q, k.swapaxes(2, 3), out=buf.scores)
    buf.scores *= 1.0 / math.sqrt(q.shape[-1])   # a Python float keeps the dtype
    if buf.mask is not None:
        np.copyto(buf.scores, buf.neg, where=buf.mask)
    np.max(buf.scores, axis=-1, keepdims=True, out=buf.smax)
    buf.scores -= buf.smax
    np.exp(buf.scores, out=buf.scores)
    np.sum(buf.scores, axis=-1, keepdims=True, out=buf.smax)
    buf.scores /= buf.smax
    np.matmul(buf.scores, v, out=buf.heads(buf.ctx, buf.shape[1]))
    return buf.ctx


def _last(rows: np.ndarray, batch: int, n_x: int, n_q: int) -> np.ndarray:
    """The last n_q of each sequence's n_x rows (a view for n_q 1 or n_x)."""
    d = rows.shape[1]
    return rows.reshape(batch, n_x, d)[:, n_x - n_q:].reshape(batch * n_q, d)


def keys_values(x: np.ndarray, p: LayerParams, keys: KeyBuffers) -> None:
    """LN1 of the rows x into keys.ln, and their keys and values into the
    last n_x positions of keys.kv."""
    d = x.shape[1]
    batch, n_k, _ = keys.kv.shape
    layer_norm_into(x, p.ln1_g.data, p.ln1_b.data, keys.ln, keys.scratch,
                    keys.stat)
    np.matmul(keys.ln.reshape(batch, keys.n_x, d), p.w_qkv.data[:, d:],
              out=keys.kv[:, n_k - keys.n_x:])


def layer_forward(x: np.ndarray, p: LayerParams, keys: KeyBuffers,
                  buf: Buffers, out: np.ndarray | None = None) -> None:
    """One pre-norm causal block: queries at the last n_q positions over the
    keys at all n_k (see the comment above KeyBuffers). x is the
    (batch*n_x, d_model) state of the last n_x positions. With `out` None,
    n_q = n_x and x is updated in place; otherwise x is left unchanged and
    the (batch*n_q, d_model) result is written to `out`."""
    d, n_x = x.shape[1], keys.n_x
    if p.w_qkv.data.shape != (d, 3 * d):
        raise ShapeError(f"layer built for d_model={p.w_qkv.data.shape[0]}, "
                         f"state has d_model={d}")
    keys_values(x, p, keys)
    batch, n_q = buf.shape[:2]
    n_k = keys.kv.shape[1]
    np.matmul(_last(keys.ln, batch, n_x, n_q), p.w_qkv.data[:, :d], out=buf.q)
    k, v = (buf.heads(keys.kv[:, :, i * d:(i + 1) * d], n_k) for i in range(2))
    np.matmul(_attend(buf.heads(buf.q, n_q), k, v, buf), p.w_out.data,
              out=buf.proj)
    buf.proj += p.b_out.data
    np.add(_last(x, batch, n_x, n_q), buf.proj, out=buf.mid)
    # MLP sublayer: W2 gelu(LN2(mid) W1 + b1) + b2
    layer_norm_into(buf.mid, p.ln2_g.data, p.ln2_b.data, buf.ln, buf.proj,
                    buf.stat)
    np.matmul(buf.ln, p.w_mlp1.data, out=buf.hidden)
    buf.hidden += p.b_mlp1.data
    _gelu(buf.hidden, buf.t, buf.tmp, buf.act)
    np.matmul(buf.act, p.w_mlp2.data, out=buf.proj)
    buf.proj += p.b_mlp2.data
    np.add(buf.mid, buf.proj, out=x if out is None else out)


# -- backward -------------------------------------------------------------------
#
# Where a state feeds both a residual skip and a layernorm, its gradient is
# the skip's gradient with the layernorm branch's added to it. Each weight
# adds its gradient into .grad, so a weight that several layer applications
# share sums their gradients in the order the backward visits them. Products
# are spelled np.matmul, not @, so a test can watch every operand's dtype.


def layer_norm_backward(x, gain: Tensor2, bias: Tensor2, g) -> np.ndarray:
    """Gradient with respect to x of layer_norm(x) given g, the gradient
    with respect to its output. Adds the affine's gradients into gain.grad
    and bias.grad. x-hat is recomputed from x with the forward's ops."""
    xhat, stat = np.empty_like(x), np.empty((x.shape[0], 1), x.dtype)
    _normalize(x, xhat, np.empty_like(x), stat)
    gdy = g * gain.data
    dx = stat * (gdy - gdy.mean(axis=1, keepdims=True)
                 - xhat * (gdy * xhat).mean(axis=1, keepdims=True))
    gain.add_grad((g * xhat).sum(axis=0, keepdims=True))
    bias.add_grad(g.sum(axis=0, keepdims=True))
    return dx


def layer_backward(dout: np.ndarray, x: np.ndarray, p: LayerParams,
                   keys: KeyBuffers, buf: Buffers) -> np.ndarray:
    """Backward of the whole-sequence layer_forward(x, p, keys, buf, out)
    (n_q = n_x = n_k): returns the gradient with respect to x given dout,
    the gradient with respect to out, and adds each weight's gradient into
    its .grad. keys and buf must still hold that forward's values."""
    batch, seq, n_heads, dh = buf.shape
    # MLP sublayer
    dmid = dout.copy()
    p.b_mlp2.add_grad(dout.sum(axis=0, keepdims=True))
    dact = np.matmul(dout, p.w_mlp2.data.T)
    p.w_mlp2.add_grad(np.matmul(buf.act.T, dout))
    h, t = buf.hidden, buf.t
    dinner = _SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEF * (h * h))
    dh1 = dact * (0.5 * (1.0 + t) + 0.5 * h * (1.0 - t * t) * dinner)
    p.b_mlp1.add_grad(dh1.sum(axis=0, keepdims=True))
    dln = np.matmul(dh1, p.w_mlp1.data.T)
    p.w_mlp1.add_grad(np.matmul(buf.ln.T, dh1))
    dmid += layer_norm_backward(buf.mid, p.ln2_g, p.ln2_b, dln)

    # attention sublayer
    dx = dmid.copy()
    p.w_out.add_grad(np.matmul(buf.ctx.T, dmid))
    p.b_out.add_grad(dmid.sum(axis=0, keepdims=True))
    dctx = buf.heads(np.matmul(dmid, p.w_out.data.T), seq)
    d = x.shape[1]
    q = buf.heads(buf.q, seq)
    k, v = (buf.heads(keys.kv[:, :, i * d:(i + 1) * d], seq) for i in range(2))
    w = buf.scores
    dw = np.matmul(dctx, v.swapaxes(2, 3))
    dv = np.matmul(w.swapaxes(2, 3), dctx)
    dscores = w * (dw - (dw * w).sum(axis=-1, keepdims=True))
    inv_sqrt = 1.0 / math.sqrt(dh)
    dq = np.matmul(dscores, k) * inv_sqrt
    dk = np.matmul(dscores.swapaxes(2, 3), q) * inv_sqrt

    def flat(block):
        return block.transpose(0, 2, 1, 3).reshape(batch * seq, d)

    dqkv = np.concatenate([flat(dq), flat(dk), flat(dv)], axis=1)
    dln = np.matmul(dqkv, p.w_qkv.data.T)
    p.w_qkv.add_grad(np.matmul(keys.ln.T, dqkv))
    dx += layer_norm_backward(x, p.ln1_g, p.ln1_b, dln)
    return dx


def stack_forward(x: np.ndarray, layers, n_heads: int, seq: int):
    """Whole-sequence layer_forward of (batch*seq, d_model) rows through
    `layers`, each layer application with its own buffers. Returns the
    states (the input first, the output last) and the per-layer caches that
    stack_backward reads."""
    rows, d = x.shape
    states, caches = [x], []
    for p in layers:
        keys = KeyBuffers(rows // seq, seq, seq, d, x.dtype)
        buf = Buffers(rows // seq, seq, seq, d, p.w_mlp1.data.shape[1],
                      n_heads, x.dtype)
        buf.t, buf.act = np.empty_like(buf.tmp), np.empty_like(buf.hidden)
        states.append(np.empty_like(x))
        layer_forward(states[-2], p, keys, buf, states[-1])
        caches.append((p, keys, buf))
    return states, caches


def stack_backward(dout: np.ndarray, states, caches) -> np.ndarray:
    """Gradient with respect to the input of stack_forward, given dout with
    respect to its output; each weight's gradient goes into its .grad."""
    for x, (p, keys, buf) in zip(reversed(states[:-1]), reversed(caches)):
        dout = layer_backward(dout, x, p, keys, buf)
    return dout
