"""Dense 2-D tensors with reverse-mode automatic differentiation.

Everything is a row-major (rows, cols) float array. Ops that are hot in a
transformer (attention, layernorm, cross-entropy) are fused with hand-written
backward passes; the rest are micrograd-style primitives. float64 is used for
gradient checking, float32 for training.
"""

from __future__ import annotations

import math

import numpy as np


# shared by the taped forward here and the inference forward in layers.py
GELU_COEF = 0.044715    # cubic term of the tanh-form GELU
LN_EPS = 1e-5           # layernorm variance floor

_GRAD_ENABLED = [True]


class no_grad:
    """Context manager: ops inside build no backward graph (inference mode)."""

    def __enter__(self):
        self._prev = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED[0] = self._prev
        return False


def _attach(out: "Tensor2", bwd) -> None:
    if _GRAD_ENABLED[0]:
        out._backward = bwd


class NumericError(ValueError):
    """Non-finite values where finite ones are required."""


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class GraphError(RuntimeError):
    """Malformed computation graph (e.g. a cycle)."""


def _as_2d(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"expected at most 2 dimensions, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    return arr


class Tensor2:
    """A 2-D tensor that records the ops applied to it.

    `backward()` on a scalar (1x1) tensor fills `.grad` for every tensor the
    scalar depends on. Graph construction is single-threaded; forward reads
    of `.data` are safe from anywhere.
    """

    __slots__ = ("data", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, parents=(), op="leaf", dtype=None):
        self.data = _as_2d(data, dtype)
        self.grad = None
        self._parents = tuple(parents) if _GRAD_ENABLED[0] else ()
        self._backward = None
        self._op = op

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor2(shape={self.data.shape}, op={self._op!r})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(())[()])

    def _accum(self, g: np.ndarray):
        if g.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} != value shape {self.data.shape} (op={self._op})"
            )
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self):
        """Reverse-mode sweep from this scalar through the whole graph."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar (1x1) loss")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    def zero_grad(self):
        self.grad = None

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1.0))


def _toposort(root: Tensor2):
    """DFS topological order; raises GraphError on a cycle."""
    order = []
    state = {}  # id -> 1 (on stack) / 2 (done)
    stack = [(root, iter(root._parents))]
    state[id(root)] = 1
    keep = {id(root): root}
    while stack:
        node, it = stack[-1]
        advanced = False
        for parent in it:
            s = state.get(id(parent))
            if s == 1:
                raise GraphError("cycle detected in computation graph")
            if s is None:
                state[id(parent)] = 1
                keep[id(parent)] = parent
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            state[id(node)] = 2
            order.append(node)
            stack.pop()
    return order


def _lift(x) -> Tensor2:
    return x if isinstance(x, Tensor2) else Tensor2(x)


# -- primitives ---------------------------------------------------------


def add(a, b) -> Tensor2:
    """Elementwise add; b may be a 1xN row broadcast over a's rows."""
    a, b = _lift(a), _lift(b)
    broadcast = b.shape != a.shape
    if broadcast and not (b.rows == 1 and b.cols == a.cols):
        raise ShapeError(f"cannot add {a.shape} and {b.shape}")
    out = Tensor2(a.data + b.data, (a, b), "add")

    def bwd(g):
        a._accum(g)
        b._accum(g.sum(axis=0, keepdims=True) if broadcast else g)

    _attach(out, bwd)
    return out


def mul(a, b) -> Tensor2:
    a, b = _lift(a), _lift(b)
    if a.shape != b.shape:
        raise ShapeError(f"cannot multiply {a.shape} and {b.shape} elementwise")
    out = Tensor2(a.data * b.data, (a, b), "mul")

    def bwd(g):
        a._accum(g * b.data)
        b._accum(g * a.data)

    _attach(out, bwd)
    return out


def scale(a, c: float) -> Tensor2:
    a = _lift(a)
    out = Tensor2(a.data * c, (a,), "scale")
    _attach(out, lambda g: a._accum(g * c))
    return out


def matmul(a, b) -> Tensor2:
    a, b = _lift(a), _lift(b)
    if a.cols != b.rows:
        raise ShapeError(f"matmul {a.shape} @ {b.shape}")
    out = Tensor2(a.data @ b.data, (a, b), "matmul")

    def bwd(g):
        a._accum(g @ b.data.T)
        b._accum(a.data.T @ g)

    _attach(out, bwd)
    return out


def matmul_nt(a, b) -> Tensor2:
    """a @ b.T — used for the tied LM head (hidden @ embedding.T)."""
    a, b = _lift(a), _lift(b)
    if a.cols != b.cols:
        raise ShapeError(f"matmul_nt {a.shape} @ {b.shape}.T")
    out = Tensor2(a.data @ b.data.T, (a, b), "matmul_nt")

    def bwd(g):
        a._accum(g @ b.data)
        b._accum(g.T @ a.data)

    _attach(out, bwd)
    return out


def tsum(a) -> Tensor2:
    a = _lift(a)
    out = Tensor2(np.array([[a.data.sum()]], dtype=a.data.dtype), (a,), "sum")
    _attach(out, lambda g: a._accum(np.full_like(a.data, g[0, 0])))
    return out


def take_rows(a, idx) -> Tensor2:
    """Gather rows of a by integer index; backward scatter-adds."""
    a = _lift(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor2(a.data[idx], (a,), "take_rows")

    def bwd(g):
        da = np.zeros_like(a.data)
        np.add.at(da, idx, g)
        a._accum(da)

    _attach(out, bwd)
    return out


def gelu(a) -> Tensor2:
    """Tanh-approximation GELU."""
    a = _lift(a)
    x = a.data
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    x2 = x * x
    inner = c * (x + GELU_COEF * (x2 * x))
    t = np.tanh(inner)
    out = Tensor2(0.5 * x * (1.0 + t), (a,), "gelu")

    def bwd(g):
        dinner = c * (1.0 + 3.0 * GELU_COEF * x2)
        da = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        a._accum(g * da)

    _attach(out, bwd)
    return out


def layer_norm(x, gain, bias, eps: float = LN_EPS) -> Tensor2:
    """Row-wise layernorm with learned affine (gain/bias are 1xN)."""
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    if gain.shape != (1, x.cols) or bias.shape != (1, x.cols):
        raise ShapeError(f"layer_norm affine {gain.shape}/{bias.shape} vs input {x.shape}")
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor2(gain.data * xhat + bias.data, (x, gain, bias), "layer_norm")

    def bwd(g):
        n = x.cols
        gdy = g * gain.data
        dx = inv * (gdy - gdy.mean(axis=1, keepdims=True)
                    - xhat * (gdy * xhat).mean(axis=1, keepdims=True))
        x._accum(dx.astype(x.data.dtype))
        gain._accum((g * xhat).sum(axis=0, keepdims=True))
        bias._accum(g.sum(axis=0, keepdims=True))

    _attach(out, bwd)
    return out


def softmax_rows(m) -> Tensor2:
    """Row-wise softmax with max-subtraction for numerical stability.

    Rejects non-finite input; each output row is nonnegative and sums to 1.
    """
    m = _lift(m)
    if not np.all(np.isfinite(m.data)):
        raise NumericError("softmax_rows: input contains NaN/Inf")
    z = m.data - m.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor2(p, (m,), "softmax_rows")

    def bwd(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        m._accum(p * (g - dot))

    _attach(out, bwd)
    return out


def cross_entropy_logits(logits, targets) -> Tensor2:
    """Mean cross-entropy between row logits and integer targets (scalar)."""
    logits = _lift(logits)
    targets = np.asarray(targets, dtype=np.intp)
    if targets.ndim != 1 or targets.shape[0] != logits.rows:
        raise ShapeError("one target per logit row required")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    n = logits.rows
    loss = -logp[np.arange(n), targets].mean()
    out = Tensor2(np.array([[loss]], dtype=logits.data.dtype), (logits,), "cross_entropy")

    def bwd(g):
        grad = np.exp(logp)
        grad[np.arange(n), targets] -= 1.0
        logits._accum(grad * (g[0, 0] / n))

    _attach(out, bwd)
    return out


def attention(x, w_qkv, w_out, b_out, n_heads: int, seq_len: int,
              causal: bool = True) -> Tensor2:
    """Fused multi-head self-attention over a (batch*seq, d) tensor.

    The flat row layout is interpreted as `batch = rows // seq_len`
    contiguous sequences. Causal masking forbids attending to later
    positions within a sequence. The qkv projection carries no bias: a
    uniform key shift is invisible to softmax, so a key bias would have an
    identically zero gradient and defeat finite-difference checking.
    """
    x, w_qkv, w_out, b_out = map(_lift, (x, w_qkv, w_out, b_out))
    d = x.cols
    if d % n_heads != 0:
        raise ShapeError(f"d_model {d} not divisible by n_heads {n_heads}")
    if x.rows % seq_len != 0:
        raise ShapeError(f"rows {x.rows} not a multiple of seq_len {seq_len}")
    if w_qkv.shape != (d, 3 * d) or w_out.shape != (d, d):
        raise ShapeError("attention weight shapes inconsistent with d_model")
    batch = x.rows // seq_len
    dh = d // n_heads
    # a Python float: scaling keeps the activations' dtype (a NumPy float64
    # scalar would promote float32 activations to float64)
    inv_sqrt = 1.0 / math.sqrt(dh)

    qkv = x.data @ w_qkv.data  # (B*S, 3d)
    # (B, H, S, dh) views for each of q, k, v
    def heads(block):
        return block.reshape(batch, seq_len, n_heads, dh).transpose(0, 2, 1, 3)

    q, k, v = (heads(qkv[:, i * d:(i + 1) * d]) for i in range(3))
    scores = (q @ k.swapaxes(2, 3)) * inv_sqrt
    if causal:
        neg = np.finfo(scores.dtype).min
        mask = np.triu(np.ones((seq_len, seq_len), dtype=bool), k=1)
        scores = np.where(mask, neg, scores)
    scores -= scores.max(axis=-1, keepdims=True)
    w = np.exp(scores)
    w /= w.sum(axis=-1, keepdims=True)
    ctx = w @ v
    ctx_flat = ctx.transpose(0, 2, 1, 3).reshape(batch * seq_len, d)
    out_val = ctx_flat @ w_out.data + b_out.data
    out = Tensor2(out_val, (x, w_qkv, w_out, b_out), "attention")

    def bwd(g):
        w_out._accum(ctx_flat.T @ g)
        b_out._accum(g.sum(axis=0, keepdims=True))
        dctx = (g @ w_out.data.T).reshape(batch, seq_len, n_heads, dh).transpose(0, 2, 1, 3)
        dw = dctx @ v.swapaxes(2, 3)
        dv = w.swapaxes(2, 3) @ dctx
        dscores = w * (dw - (dw * w).sum(axis=-1, keepdims=True))
        dq = (dscores @ k) * inv_sqrt
        dk = (dscores.swapaxes(2, 3) @ q) * inv_sqrt

        def flat(block):
            return block.transpose(0, 2, 1, 3).reshape(batch * seq_len, dh * n_heads)

        dqkv = np.concatenate([flat(dq), flat(dk), flat(dv)], axis=1)
        x._accum(dqkv @ w_qkv.data.T)
        w_qkv._accum(x.data.T @ dqkv)

    _attach(out, bwd)
    return out


# -- gradient checking ---------------------------------------------------


def finite_diff_check(fn, params, eps: float = 1e-5, max_coords: int = 25,
                      seed: int = 0) -> float:
    """Compare analytic gradients of fn() against central differences.

    fn takes no arguments, reads `params` (list of Tensor2) and returns a
    scalar Tensor2. Returns the max relative error over sampled coordinates:
    |analytic - numeric| / (|analytic| + |numeric| + 1e-12).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    for p in params:
        p.zero_grad()
    loss = fn()
    loss.backward()
    grads = [None if p.grad is None else p.grad.copy() for p in params]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, g in zip(params, grads):
        n = p.data.size
        coords = rng.choice(n, size=min(max_coords, n), replace=False)
        flat = p.data.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            hi = fn().item()
            flat[c] = orig - eps
            lo = fn().item()
            flat[c] = orig
            numeric = (hi - lo) / (2.0 * eps)
            analytic = 0.0 if g is None else float(g.reshape(-1)[c])
            err = abs(analytic - numeric) / (abs(analytic) + abs(numeric) + 1e-12)
            worst = max(worst, err)
    return worst
