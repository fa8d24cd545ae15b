"""Pre-norm transformer layers: a taped forward built on the autograd core,
and a cache-free forward on raw arrays for inference."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .autograd import (
    GELU_COEF,
    LN_EPS,
    Tensor2,
    ShapeError,
    add,
    attention,
    gelu,
    layer_norm,
    matmul,
)


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


def transformer_layer_forward(state: Tensor2, params: LayerParams, n_heads: int,
                              seq_len: int, causal: bool = True) -> Tensor2:
    """One pre-norm residual block over a (batch*seq, d_model) state."""
    d = state.cols
    if params.w_qkv.shape != (d, 3 * d):
        raise ShapeError(
            f"layer built for d_model={params.w_qkv.rows}, state has d_model={d}"
        )
    a = attention(layer_norm(state, params.ln1_g, params.ln1_b),
                  params.w_qkv, params.w_out, params.b_out,
                  n_heads=n_heads, seq_len=seq_len, causal=causal)
    state = state + a
    h = layer_norm(state, params.ln2_g, params.ln2_b)
    h = add(matmul(h, params.w_mlp1), params.b_mlp1)
    h = gelu(h)
    h = add(matmul(h, params.w_mlp2), params.b_mlp2)
    return state + h


def layer_param_count(d_model: int, d_mlp: int) -> int:
    """Closed-form parameter count of one block."""
    return (
        2 * 2 * d_model                         # two layernorm affines
        + d_model * 3 * d_model                 # qkv projection (bias-free)
        + d_model * d_model + d_model           # attention output projection
        + d_model * d_mlp + d_mlp               # mlp in
        + d_mlp * d_model + d_model             # mlp out
    )


# -- cache-free inference forward -----------------------------------------------
#
# The same block as transformer_layer_forward, on raw arrays and in place: no
# graph, no cache, and every temporary lives in a Buffers set allocated once
# per forward pass. Each operation matches the taped op's arithmetic in the
# same order, so a float64 model agrees with the tape to rounding.


class Buffers:
    """Activation buffers for `batch` sequences with `n_q` query positions
    attending over `n_k` key positions, in one dtype."""

    def __init__(self, batch: int, n_q: int, n_k: int, d_model: int,
                 d_mlp: int, n_heads: int, dtype):
        rows = batch * n_q
        dh = d_model // n_heads
        self.shape = (batch, n_q, n_heads, dh)
        self.ln = np.empty((rows, d_model), dtype)      # normed sublayer input
        self.proj = np.empty((rows, d_model), dtype)    # sublayer output
        self.stat = np.empty((rows, 1), dtype)          # per-row mean, variance
        self.qkv = np.empty((rows, 3 * d_model), dtype)
        self.hidden = np.empty((rows, d_mlp), dtype)
        self.tmp = np.empty((rows, d_mlp), dtype)
        self.scores = np.empty((batch, n_heads, n_q, n_k), dtype)
        self.smax = np.empty((batch, n_heads, n_q, 1), dtype)
        self.ctx = np.empty((rows, d_model), dtype)     # (batch, n_q, heads, dh)
        self.mask = (np.triu(np.ones((n_q, n_k), dtype=bool), k=1)
                     if n_q > 1 else None)
        self.neg = np.finfo(dtype).min

    def heads(self, flat: np.ndarray, n_pos: int):
        """(batch, heads, n_pos, dh) view of a (batch*n_pos, heads*dh) block."""
        batch, _, n_heads, dh = self.shape
        return flat.reshape(batch, n_pos, n_heads, dh).transpose(0, 2, 1, 3)


def layer_norm_into(x, gain, bias, out, scratch, stat) -> None:
    """out = gain * (x - mean) / sqrt(var + eps) + bias, row-wise."""
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
    out *= gain
    out += bias


_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _gelu_inplace(x, tmp) -> None:
    """Tanh-form GELU (Hendrycks & Gimpel 2016): x <- x/2 (1 + tanh(c (x + a x^3)))."""
    np.multiply(x, x, out=tmp)
    tmp *= x
    tmp *= GELU_COEF
    tmp += x
    tmp *= _SQRT_2_OVER_PI
    np.tanh(tmp, out=tmp)
    tmp += 1.0
    x *= 0.5
    x *= tmp


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


def _mlp_residual(x, p: LayerParams, buf: Buffers) -> None:
    """x <- x + W2 gelu(LN2(x) W1 + b1) + b2."""
    layer_norm_into(x, p.ln2_g.data, p.ln2_b.data, buf.ln, buf.proj, buf.stat)
    np.matmul(buf.ln, p.w_mlp1.data, out=buf.hidden)
    buf.hidden += p.b_mlp1.data
    _gelu_inplace(buf.hidden, buf.tmp)
    np.matmul(buf.hidden, p.w_mlp2.data, out=buf.proj)
    buf.proj += p.b_mlp2.data
    x += buf.proj


def layer_forward_inplace(x: np.ndarray, p: LayerParams, buf: Buffers) -> None:
    """One pre-norm causal block over the (batch*seq, d_model) state x, in
    place; buf is sized for (batch, seq, seq)."""
    d = x.shape[1]
    layer_norm_into(x, p.ln1_g.data, p.ln1_b.data, buf.ln, buf.proj, buf.stat)
    np.matmul(buf.ln, p.w_qkv.data, out=buf.qkv)
    n = buf.shape[1]
    q, k, v = (buf.heads(buf.qkv[:, i * d:(i + 1) * d], n) for i in range(3))
    np.matmul(_attend(q, k, v, buf), p.w_out.data, out=buf.proj)
    buf.proj += p.b_out.data
    x += buf.proj
    _mlp_residual(x, p, buf)


def answer_layer_forward(x: np.ndarray, p: LayerParams, buf: Buffers,
                         ans: Buffers, out: np.ndarray) -> np.ndarray:
    """The block of layer_forward_inplace at the last position of each
    sequence only: keys and values come from every row of x, the query,
    attention output and MLP from the answer rows. x is left unchanged; the
    (batch, d_model) result is written to `out` and returned. buf is sized
    for (batch, seq, seq) and ans for (batch, 1, seq)."""
    d = x.shape[1]
    batch, seq = buf.shape[0], buf.shape[1]
    layer_norm_into(x, p.ln1_g.data, p.ln1_b.data, buf.ln, buf.proj, buf.stat)
    w = p.w_qkv.data
    kv = buf.qkv[:, :2 * d]
    np.matmul(buf.ln, w[:, d:], out=kv)
    k, v = (buf.heads(kv[:, i * d:(i + 1) * d], seq) for i in range(2))
    q = ans.qkv[:, :d]
    np.matmul(buf.ln.reshape(batch, seq, d)[:, -1], w[:, :d], out=q)
    # the last position attends to every key, so nothing is masked
    np.matmul(_attend(ans.heads(q, 1), k, v, ans), p.w_out.data, out=ans.proj)
    ans.proj += p.b_out.data
    np.add(x.reshape(batch, seq, d)[:, -1], ans.proj, out=out)
    _mlp_residual(out, p, ans)
    return out
