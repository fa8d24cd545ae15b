"""Pre-norm transformer layers on raw arrays: one forward that training and
inference share, and the backward of a full-sequence forward."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .autograd import ShapeError, Tensor2

GELU_COEF = 0.044715    # cubic term of the tanh-form GELU
LN_EPS = 1e-5           # layernorm variance floor


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
# allocates, each on a 64-byte boundary when made (_empty). Buffers and
# GradBuffers carry in `views` the views of their arrays, and of the keys',
# that a layer call reads (per head, per block, the queried rows), built
# once rather than at every call. Inference reuses one
# set of buffers for every layer and step. Training keeps its buffers in a
# Workspace that the training loop creates once and reuses at every step.
# Each layer application has its own copy of what a GEMM or a reduction
# produced and layer_backward reads (its cache): the keys and values,
# queries, attention weights, the state after attention, the row mean and
# 1/sigma of both layernorms, and its output. The elementwise results, both
# layernorm outputs and GELU's tanh and output, go to forward scratch that
# every application shares, and so do two products that are cheap to form
# again: GELU's input and the attention context. layer_backward rebuilds
# all of them from the cache by the forward's own ops, so they come back
# bit for bit. The forward scratch and the backward's GradBuffers are one
# set that every application shares.
#
# One call runs the block for `batch` sequences of n_k positions. It holds the
# states x of each sequence's last n_x positions and queries all of them or
# only the last (n_q = n_x or 1). The keys and values of the first n_k - n_x
# positions are the caller's to put into KeyBuffers.kv: a prefix that many
# sequences share is computed once and gathered there. Training runs whole
# sequences, n_q = n_x = n_k.


def _empty(shape, dtype) -> np.ndarray:
    """np.empty(shape, dtype) whose data starts on a 64-byte boundary.
    NumPy's large arrays start 16 bytes past one, and its elementwise loops
    ran about twice as fast on aligned rows: 9.4 against 22 us for a
    288 x 256 float32 multiply on an AVX-512 x86 box."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype).reshape(shape)


class KeyBuffers:
    """Keys and values of `batch` sequences of n_k positions, and the
    layernormed states of their last n_x positions, in one dtype."""

    def __init__(self, batch: int, n_x: int, n_k: int, d_model: int, dtype):
        rows = batch * n_x
        self.n_x = n_x
        self.ln = _empty((rows, d_model), dtype)
        self.scratch = _empty((rows, d_model), dtype)
        self.mean = _empty((rows, 1), dtype)        # per-row mean of LN1
        self.stat = _empty((rows, 1), dtype)        # per-row 1/sigma of LN1
        self.kv = _empty((batch, n_k, 2 * d_model), dtype)     # keys | values


class Buffers:
    """Query-side activation buffers of the sequences of `keys` queried at
    the last n_q of their n_x positions, n_q being n_x or 1, in keys' dtype.

    The sequences may be `blocks` equal runs of batch / blocks sequences,
    such as the states of several recurrence steps that inference decodes
    in one pass. layer_forward then issues each of its four row-wise
    products (queries, W_out, W_mlp1, W_mlp2) through a leading block axis,
    so NumPy makes one BLAS call per block, with the rows, strides and
    gemm/gemv choice that block alone would get, and every row keeps the
    bits it has when its block runs by itself. Every other op of the layer
    is elementwise, a reduction along a row, or a product per sequence or
    per (sequence, head), and computes each row the same way in any
    batch. `views` holds the views of these arrays and of keys' (_bind)."""

    def __init__(self, keys: KeyBuffers, n_q: int, d_mlp: int, n_heads: int,
                 blocks: int = 1):
        batch, n_k, d2 = keys.kv.shape
        d_model, dtype = d2 // 2, keys.kv.dtype
        rows, dh = batch * n_q, d_model // n_heads
        self.shape = (batch, n_q, n_heads, dh)
        self.blocks = blocks
        self.scale = 1.0 / math.sqrt(dh)    # a Python float keeps the dtype
        self.q = _empty((rows, d_model), dtype)
        self.mid = _empty((rows, d_model), dtype)       # state after attention
        self.ln = _empty((rows, d_model), dtype)        # normed MLP input
        self.proj = _empty((rows, d_model), dtype)      # sublayer output
        self.mean = _empty((rows, 1), dtype)            # per-row mean of LN2
        self.stat = _empty((rows, 1), dtype)            # per-row 1/sigma of LN2
        self.hidden = _empty((rows, d_mlp), dtype)      # GELU input
        self.tmp = _empty((rows, d_mlp), dtype)         # 1 + tanh
        self.act = self.hidden      # GELU's output overwrites its input
        self.scores = _empty((batch, n_heads, n_q, n_k), dtype)
        self.smax = _empty((batch, n_heads, n_q, 1), dtype)
        self.ctx = _empty((rows, d_model), dtype)       # (batch, n_q, heads, dh)
        # query t sits at position n_k - n_q + t and sees the keys up to it
        mask = np.triu(np.ones((n_q, n_k), dtype=bool), k=n_k - n_q + 1)
        self.mask = mask if mask.any() else None
        self.neg = np.finfo(dtype).min
        self._bind(keys)

    def _bind(self, keys: KeyBuffers) -> None:
        """Build `views`, and again once Workspace.prepare swaps an array."""
        batch, n_q, n_heads, dh = self.shape

        def blk(rows):      # (rows, width) as (blocks, rows/blocks, width)
            return rows if self.blocks == 1 else rows.reshape(
                self.blocks, -1, rows.shape[1])
        last = _last(keys.n_x, n_q)
        k, v = keys.kv.reshape(*keys.kv.shape[:2], 2, n_heads, dh).transpose(2, 0, 3, 1, 4)
        self.views = SimpleNamespace(
            last=last, rows=blk(keys.ln[last]), q=blk(self.q),
            ctx=blk(self.ctx), ln=blk(self.ln), act=blk(self.act),
            proj=blk(self.proj), q_heads=self.heads(self.q, n_q),
            ctx_heads=self.heads(self.ctx, n_q), k=k, v=v, kT=k.swapaxes(2, 3),
            cols=[self.scores[..., j:j + 1] for j in range(k.shape[2])])

    def heads(self, block: np.ndarray, n_pos: int):
        """(batch, heads, n_pos, dh) view of a (batch*n_pos, heads*dh) or
        (batch, n_pos, heads*dh) block."""
        batch, _, n_heads, dh = self.shape
        return block.reshape(batch, n_pos, n_heads, dh).transpose(0, 2, 1, 3)


def layer_norm_into(x, gain, bias, out, scratch, mean, rstd) -> None:
    """out = gain * (x - mean) / sqrt(var + eps) + bias, row-wise. Leaves
    the row means in `mean` and 1/sqrt(var + eps) in `rstd`, (rows, 1)
    columns."""
    n = x.shape[1]
    # np.mean's arithmetic (sum, then divide) without its Python wrapper
    np.add.reduce(x, axis=1, keepdims=True, out=mean)
    mean /= n
    np.subtract(x, mean, out=out)
    np.multiply(out, out, out=scratch)
    np.add.reduce(scratch, axis=1, keepdims=True, out=rstd)
    rstd /= n
    rstd += LN_EPS
    np.sqrt(rstd, out=rstd)
    np.divide(1.0, rstd, out=rstd)
    out *= rstd
    _affine(out, gain, bias, out)


def _affine(xhat, gain, bias, out) -> None:
    """out = xhat * gain + bias, layer_norm_into's last two ops, so that
    layer_backward rebuilds a layernorm's output bit for bit from the x-hat
    layer_norm_backward re-forms. out may be xhat."""
    np.multiply(xhat, gain, out=out)
    out += bias


_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _gelu(x, sq, t, tp1, half, out) -> None:
    """Tanh-form GELU (Hendrycks & Gimpel 2016) of x into out:
    out = half * tp1, with half = x/2, tp1 = 1 + t, t = tanh(c (x + a x^3))
    and sq = x^2 left in their arrays for _gelu_backward. sq, t and tp1 may
    be one array, which then ends holding 1 + t; half may be out, and out
    may be x."""
    np.multiply(x, x, out=sq)
    np.multiply(sq, x, out=tp1)
    tp1 *= GELU_COEF
    tp1 += x
    tp1 *= _SQRT_2_OVER_PI
    np.tanh(tp1, out=t)
    np.add(t, 1.0, out=tp1)
    np.multiply(x, 0.5, out=half)
    np.multiply(half, tp1, out=out)


# Score blocks of at least this many sequences take the softmax's row max as
# a running np.maximum over the bound key columns, smaller ones with
# np.maximum.reduce: same bits. With 4 heads and 9 x 9 float32 scores the
# reduce took 4.3, 25, 93 and 1440 us at batch 1, 8, 32 and 504, the running
# max 8.7, 9, 13 and 81 us (one query row at batch 1: 1.4 against 7.7 us).
_RUNNING_MAX_BATCH = 8


def _attend(buf: Buffers) -> np.ndarray:
    """Softmax(q k^T / sqrt(dh)) v per head, from buf.q and the keys and
    values buf was made on, into buf.ctx; returns buf.ctx per block."""
    scores, smax, views = buf.scores, buf.smax, buf.views
    np.matmul(views.q_heads, views.kT, out=scores)
    scores *= buf.scale
    if buf.mask is not None:
        np.copyto(scores, buf.neg, where=buf.mask)
    if len(scores) >= _RUNNING_MAX_BATCH:
        np.copyto(smax, views.cols[0])
        for col in views.cols[1:]:
            np.maximum(smax, col, out=smax)
    else:
        np.maximum.reduce(scores, axis=-1, keepdims=True, out=smax)
    scores -= smax
    np.exp(scores, out=scores)
    np.add.reduce(scores, axis=-1, keepdims=True, out=smax)
    scores /= smax
    np.matmul(scores, views.v, out=views.ctx_heads)
    return views.ctx


def _last(n_x: int, n_q: int) -> slice:
    """The queried rows of batch*n_x rows: all, or each sequence's last."""
    return slice(None) if n_q == n_x else slice(n_x - 1, None, n_x)


def keys_values(x: np.ndarray, p: LayerParams, keys: KeyBuffers) -> None:
    """LN1 of the rows x into keys.ln, and their keys and values into the
    last n_x positions of keys.kv."""
    d = x.shape[1]
    batch, n_k, _ = keys.kv.shape
    layer_norm_into(x, p.ln1_g.data, p.ln1_b.data, keys.ln, keys.scratch,
                    keys.mean, keys.stat)
    np.matmul(keys.ln.reshape(batch, keys.n_x, d), p.w_qkv.data[:, d:],
              out=keys.kv[:, n_k - keys.n_x:])


def layer_forward(x: np.ndarray, p: LayerParams, keys: KeyBuffers,
                  buf: Buffers, out: np.ndarray | None = None) -> None:
    """One pre-norm causal block: queries at the last n_q positions over the
    keys at all n_k (see the comment above KeyBuffers), buf made on keys.
    x is the (batch*n_x, d_model) state of the last n_x positions. With
    `out` None, n_q = n_x and x is updated in place; otherwise x is left
    unchanged and the (batch*n_q, d_model) result is written to `out`."""
    d = x.shape[1]
    if p.w_qkv.data.shape != (d, 3 * d):
        raise ShapeError(f"layer built for d_model={p.w_qkv.data.shape[0]}, "
                         f"state has d_model={d}")
    keys_values(x, p, keys)
    views = buf.views
    np.matmul(views.rows, p.w_qkv.data[:, :d], out=views.q)
    np.matmul(_attend(buf), p.w_out.data, out=views.proj)
    buf.proj += p.b_out.data
    np.add(x[views.last], buf.proj, out=buf.mid)
    # MLP sublayer: W2 gelu(LN2(mid) W1 + b1) + b2
    layer_norm_into(buf.mid, p.ln2_g.data, p.ln2_b.data, buf.ln, buf.proj,
                    buf.mean, buf.stat)
    np.matmul(views.ln, p.w_mlp1.data, out=views.act)   # act is hidden
    buf.hidden += p.b_mlp1.data
    _gelu(buf.hidden, buf.tmp, buf.tmp, buf.tmp, buf.act, buf.act)
    np.matmul(views.act, p.w_mlp2.data, out=views.proj)
    buf.proj += p.b_mlp2.data
    np.add(buf.mid, buf.proj, out=x if out is None else out)


# -- backward -------------------------------------------------------------------
#
# Where a state feeds both a residual skip and a layernorm, its gradient is
# the skip's gradient with the layernorm branch's added to it. Each weight's
# .grad is its zeroed slice of the Workspace's gradient vector (bind_grads)
# and every backward site adds into it with +=, so a weight that several
# layer applications share sums their gradients in the order the backward
# visits them. Products are spelled np.matmul, not @, so a test can watch
# every operand's dtype. Every activation gradient lives in GradBuffers and
# is computed in place, with the op sequence, and so the rounding, of the
# plain formula beside it.


class NormGrads:
    """Scratch of layer_norm_backward for `rows` rows of d_model."""

    def __init__(self, rows: int, d_model: int, dtype):
        self.xhat = _empty((rows, d_model), dtype)
        self.gdy = _empty((rows, d_model), dtype)       # gain * g, then dx
        self.prod = _empty((rows, d_model), dtype)
        self.mean_gdy = _empty((rows, 1), dtype)
        self.mean_prod = _empty((rows, 1), dtype)


class GradBuffers(NormGrads):
    """Backward scratch of whole-sequence layer applications on `batch`
    sequences of `seq` positions. The backward visits one application at a
    time, so all of them share one set."""

    def __init__(self, batch: int, seq: int, d_model: int, d_mlp: int,
                 n_heads: int, dtype):
        rows = batch * seq
        super().__init__(rows, d_model, dtype)
        # the forward's elementwise results, rebuilt from the cache: a
        # layernorm's output, and the pieces of GELU's output that its
        # backward reads (see _gelu)
        self.ln = _empty((rows, d_model), dtype)
        self.sq, self.t, self.half = (
            _empty((rows, d_mlp), dtype) for _ in range(3))
        self.dres = _empty((rows, d_model), dtype)      # residual stream
        self.dln = _empty((rows, d_model), dtype)       # at a layernorm's output
        self.dctx = _empty((rows, d_model), dtype)
        self.dact = _empty((rows, d_mlp), dtype)        # at GELU's output, then input
        self.dqkv = _empty((rows, 3 * d_model), dtype)
        self.dw = _empty((batch, n_heads, seq, seq), dtype)     # then dscores
        self.wdw = _empty(self.dw.shape, dtype)
        self.wdw_sum = _empty((batch, n_heads, seq, 1), dtype)
        dh = d_model // n_heads     # layer_backward's views: dq, dk, dv, dctx
        self.views = (
            *self.dqkv.reshape(batch, seq, 3, n_heads, dh).transpose(2, 0, 3, 1, 4),
            self.dctx.reshape(batch, seq, n_heads, dh).transpose(0, 2, 1, 3))


def layer_norm_backward(x, mean, rstd, gain: Tensor2, bias: Tensor2, g,
                        work: NormGrads) -> np.ndarray:
    """Gradient with respect to x of layer_norm_into(x, gain, bias, ...)
    given g, the gradient with respect to its output, and the row `mean`
    and 1/sigma (`rstd`) that forward left. Adds the affine's gradients into
    gain.grad and bias.grad, which must be bound (Workspace.bind_grads or
    zeroed arrays). x-hat is re-formed with the forward's two ops
    and left in work.xhat. Returns work.gdy, which the next call on `work`
    overwrites."""
    n = x.shape[1]
    xhat, gdy, prod = work.xhat, work.gdy, work.prod
    np.subtract(x, mean, out=xhat)
    xhat *= rstd
    np.multiply(g, xhat, out=prod)
    gain.grad += np.add.reduce(prod, axis=0, keepdims=True)
    bias.grad += np.add.reduce(g, axis=0, keepdims=True)
    # dx = rstd * (gdy - mean(gdy) - xhat * mean(gdy * xhat)), gdy = g * gain
    np.multiply(g, gain.data, out=gdy)
    np.add.reduce(gdy, axis=1, keepdims=True, out=work.mean_gdy)
    work.mean_gdy /= n
    np.multiply(gdy, xhat, out=prod)
    np.add.reduce(prod, axis=1, keepdims=True, out=work.mean_prod)
    work.mean_prod /= n
    gdy -= work.mean_gdy
    np.multiply(xhat, work.mean_prod, out=prod)
    gdy -= prod
    gdy *= rstd
    return gdy


def _gelu_backward(dy, sq, t, tp1, half, b) -> None:
    """dy *= GELU'(x) in place, given the x^2, t = tanh(c (x + a x^3)),
    1 + t and x/2 that _gelu left in separate arrays:
    dy * (0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2)). Overwrites sq,
    tp1 and half; b is scratch of their shape."""
    sq *= 3.0 * GELU_COEF
    sq += 1.0
    sq *= _SQRT_2_OVER_PI       # derivative of tanh's argument
    np.multiply(t, t, out=b)
    np.subtract(1.0, b, out=b)
    half *= b
    half *= sq
    tp1 *= 0.5
    tp1 += half
    dy *= tp1


def layer_backward(dout: np.ndarray, x: np.ndarray, p: LayerParams,
                   keys: KeyBuffers, buf: Buffers,
                   grads: GradBuffers) -> np.ndarray:
    """Backward of the whole-sequence layer_forward(x, p, keys, buf, out)
    (n_q = n_x = n_k): returns the gradient with respect to x given dout,
    the gradient with respect to out, and adds each weight's gradient into
    its bound .grad (Workspace.bind_grads). The fields of keys and buf that
    a Workspace cache keeps (_CACHED_KEYS, _CACHED) must still hold that
    forward's values, and stay unchanged; both layernorm outputs, GELU's
    input, tanh and output and the attention context are rebuilt from them,
    and buf.hidden (which is buf.act) and buf.tmp are scratch. The result
    is grads.dres, which dout may be."""
    dres = grads.dres
    if dout is not dres:
        np.copyto(dres, dout)
    # MLP sublayer. LN2's x-hat, re-formed as layer_norm_backward does,
    # gives LN2's output and GELU's input by the forward's ops; GELU's
    # output overwrites its input and is free once W2's gradient is taken
    p.b_mlp2.grad += np.add.reduce(dres, axis=0, keepdims=True)
    np.matmul(dres, p.w_mlp2.data.T, out=grads.dact)
    np.subtract(buf.mid, buf.mean, out=grads.xhat)
    grads.xhat *= buf.stat
    _affine(grads.xhat, p.ln2_g.data, p.ln2_b.data, grads.ln)
    np.matmul(grads.ln, p.w_mlp1.data, out=buf.hidden)
    buf.hidden += p.b_mlp1.data
    _gelu(buf.hidden, grads.sq, grads.t, buf.tmp, grads.half, buf.act)
    p.w_mlp2.grad += np.matmul(buf.act.T, dres)
    _gelu_backward(grads.dact, grads.sq, grads.t, buf.tmp, grads.half,
                   buf.act)
    p.b_mlp1.grad += np.add.reduce(grads.dact, axis=0, keepdims=True)
    np.matmul(grads.dact, p.w_mlp1.data.T, out=grads.dln)
    dres += layer_norm_backward(buf.mid, buf.mean, buf.stat, p.ln2_g,
                                p.ln2_b, grads.dln, grads)
    p.w_mlp1.grad += np.matmul(grads.ln.T, grads.dact)

    # attention sublayer; the context is rebuilt by the forward's product
    # into grads.dctx, which its gradient overwrites once W_out's is taken
    dq, dk, dv, dctx = grads.views
    np.matmul(buf.scores, buf.views.v, out=dctx)
    p.w_out.grad += np.matmul(grads.dctx.T, dres)
    p.b_out.grad += np.add.reduce(dres, axis=0, keepdims=True)
    np.matmul(dres, p.w_out.data.T, out=grads.dctx)
    w, dw = buf.scores, grads.dw
    np.matmul(dctx, buf.views.v.swapaxes(2, 3), out=dw)
    np.matmul(w.swapaxes(2, 3), dctx, out=dv)
    # dscores = w * (dw - sum(dw * w)) over the keys
    np.multiply(dw, w, out=grads.wdw)
    np.add.reduce(grads.wdw, axis=-1, keepdims=True, out=grads.wdw_sum)
    dw -= grads.wdw_sum
    dw *= w
    np.matmul(dw, buf.views.k, out=dq)
    dq *= buf.scale
    np.matmul(dw.swapaxes(2, 3), buf.views.q_heads, out=dk)
    dk *= buf.scale
    np.matmul(grads.dqkv, p.w_qkv.data.T, out=grads.dln)
    dres += layer_norm_backward(x, keys.mean, keys.stat, p.ln1_g, p.ln1_b,
                                grads.dln, grads)
    _affine(grads.xhat, p.ln1_g.data, p.ln1_b.data, grads.ln)
    p.w_qkv.grad += np.matmul(grads.ln.T, grads.dqkv)
    return dres


# the arrays of a layer application's cache, which layer_backward reads:
# its own copies of these Buffers and KeyBuffers fields. Every other field
# is forward scratch that all applications share.
_CACHED = ("q", "scores", "mid", "mean", "stat")
_CACHED_KEYS = ("kv", "mean", "stat")


class Workspace:
    """The buffers of whole-sequence training steps, for a caller that
    keeps them from step to step: the output and cache of each layer
    application (_CACHED, _CACHED_KEYS), made when a step first needs them,
    the forward scratch that all applications share (Buffers.ln, .proj,
    .hidden, .tmp, .ctx and .smax, KeyBuffers.ln and .scratch) and one
    GradBuffers, and the weights' gradients (bind_grads). The backward
    rebuilds the layernorm outputs, GELU's input, tanh and output and the
    attention context from the cache into the scratch. Like every layer
    buffer, each array is 64-byte aligned when it is made (_empty). A step
    overwrites the previous step's states, caches and gradients. A step
    whose batch shape, width or dtype differs from the previous step's
    starts over with new buffers; in training that is an epoch's smaller
    last batch and the step after it."""

    def __init__(self):
        self.key = None
        self.grad = np.empty(0)

    def bind_grads(self, tensors) -> None:
        """Zero the one gradient vector, made again only when the parameter
        count or dtype changes, and point the .grad of each of the list
        `tensors` at its own slice of it, in order."""
        size = sum(t.data.size for t in tensors)
        dtype = np.result_type(*(t.data.dtype for t in tensors))
        if (self.grad.size, self.grad.dtype) != (size, dtype):
            self.grad = _empty((size,), dtype)
        self.grad.fill(0)
        start = 0
        for t in tensors:
            t.grad = self.grad[start:start + t.data.size].reshape(t.data.shape)
            start += t.data.size

    def prepare(self, x: np.ndarray, seq: int, d_mlp: int, n_heads: int,
                n_layers: int) -> None:
        """Buffers for n_layers applications to the (batch*seq, d_model)
        rows x."""
        rows, d = x.shape
        key = (rows, seq, d, d_mlp, n_heads, x.dtype)
        if key != self.key:
            batch = rows // seq
            self.key = key
            keys = KeyBuffers(batch, seq, seq, d, x.dtype)
            buf = Buffers(keys, seq, d_mlp, n_heads)
            self.grads = GradBuffers(batch, seq, d, d_mlp, n_heads, x.dtype)
            self.outs = [_empty(x.shape, x.dtype)]
            self.caches = [(keys, buf)]
        while len(self.caches) < n_layers:
            keys, buf = (copy.copy(obj) for obj in self.caches[0])
            for obj, names in ((keys, _CACHED_KEYS), (buf, _CACHED)):
                for name in names:
                    a = getattr(obj, name)
                    setattr(obj, name, _empty(a.shape, a.dtype))
            buf._bind(keys)
            self.caches.append((keys, buf))
            self.outs.append(_empty(x.shape, x.dtype))


def stack_forward(x: np.ndarray, layers, n_heads: int, seq: int,
                  workspace: Workspace):
    """Whole-sequence layer_forward of (batch*seq, d_model) rows through
    `layers`. Returns the states (the input first, the output last) and the
    per-layer caches that stack_backward reads, both held by `workspace`."""
    workspace.prepare(x, seq, layers[0].w_mlp1.data.shape[1], n_heads,
                      len(layers))
    states, caches = [x], []
    for p, (keys, buf), out in zip(layers, workspace.caches, workspace.outs):
        layer_forward(states[-1], p, keys, buf, out)
        states.append(out)
        caches.append((p, keys, buf))
    return states, caches


def stack_backward(dout: np.ndarray, states, caches,
                   workspace: Workspace) -> np.ndarray:
    """Gradient with respect to the input of stack_forward, given dout with
    respect to its output; each weight's gradient is added into its .grad,
    which the caller binds first (Workspace.bind_grads). The scratch, and
    the returned array, are the GradBuffers of `workspace`, the one
    stack_forward filled."""
    for x, (p, keys, buf) in zip(reversed(states[:-1]), reversed(caches)):
        dout = layer_backward(dout, x, p, keys, buf, workspace.grads)
    return dout
