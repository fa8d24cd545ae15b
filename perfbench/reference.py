"""Float64 reference forward of the looped model, written apart from loopscope.

It reads nothing but a checkpoint's named tensors (name -> array) and the
model config (d_model, n_heads and the three stack depths), and computes the
decoded belief at every recurrence step with plain NumPy in float64:

    h_0      = prelude(embedding[tokens] + pos[0..S-1])
    h_i      = recurrent(h_{i-1})                       (weight-tied)
    logits_i = final_norm(coda(h_i))[last position] @ embedding.T
    p_i      = softmax(logits_i)

Each block is pre-norm: x + attn(LN1(x)), then x + W2 gelu(LN2(x) W1 + b1) + b2,
with causal multi-head attention (no qkv bias), tanh-form GELU and a
layernorm over the model dimension with eps 1e-5 and biased variance.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-5


def as_float64(named) -> dict:
    """name -> float64 ndarray, from (name, tensor) pairs or a mapping whose
    values are arrays or expose `.data`."""
    items = named.items() if hasattr(named, "items") else named
    return {name: np.array(getattr(t, "data", t), dtype=np.float64)
            for name, t in items}


def _norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / np.sqrt(var + LN_EPS) * g.reshape(-1) + b.reshape(-1)


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                    * (x + 0.044715 * x * x * x)))


def _block(x, w, prefix, n_heads):
    """One pre-norm block on x of shape (batch, seq, d)."""
    batch, seq, d = x.shape
    dh = d // n_heads
    a = _norm(x, w[prefix + "ln1_g"], w[prefix + "ln1_b"]).reshape(-1, d)
    q, k, v = ((a @ wt).reshape(batch, seq, n_heads, dh).transpose(0, 2, 1, 3)
               for wt in np.split(w[prefix + "w_qkv"], 3, axis=1))
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
    scores = np.where(np.tril(np.ones((seq, seq), dtype=bool)), scores, -np.inf)
    att = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att /= att.sum(axis=-1, keepdims=True)
    ctx = (att @ v).transpose(0, 2, 1, 3).reshape(-1, d)
    x = x.reshape(-1, d) + ctx @ w[prefix + "w_out"] + w[prefix + "b_out"].reshape(-1)
    m = _norm(x, w[prefix + "ln2_g"], w[prefix + "ln2_b"])
    m = _gelu(m @ w[prefix + "w_mlp1"] + w[prefix + "b_mlp1"].reshape(-1))
    x = x + m @ w[prefix + "w_mlp2"] + w[prefix + "b_mlp2"].reshape(-1)
    return x.reshape(batch, seq, d)


def _stack(x, w, stage, n_layers, n_heads):
    for i in range(n_layers):
        x = _block(x, w, f"{stage}.{i}.", n_heads)
    return x


def step_logits(weights: dict, config: dict, tokens, k: int) -> np.ndarray:
    """(k, batch, vocab) answer-position logits after recurrence steps 1..k.

    `config` needs n_heads, prelude_layers, recurrent_layers and
    coda_layers; `tokens` is (batch, seq) or (seq,) token ids."""
    ids = np.atleast_2d(np.asarray(tokens, dtype=np.intp))
    w, heads = weights, config["n_heads"]
    h = w["embedding"][ids] + w["pos"][:ids.shape[1]]
    h = _stack(h, w, "prelude", config["prelude_layers"], heads)
    out = []
    for _ in range(k):
        h = _stack(h, w, "recurrent", config["recurrent_layers"], heads)
        c = _stack(h, w, "coda", config["coda_layers"], heads)[:, -1]
        c = _norm(c, w["final_ln_g"], w["final_ln_b"])
        out.append(c @ w["embedding"].T)
    return np.stack(out)


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def step_beliefs(weights: dict, config: dict, tokens, k: int) -> np.ndarray:
    """(k, batch, vocab) float64 decoded distributions p_1..p_k."""
    return softmax(step_logits(weights, config, tokens, k))


def cross_entropy(weights: dict, config: dict, tokens, targets,
                  k: int) -> np.ndarray:
    """(k,) mean cross-entropy of the answer-position logits at each depth."""
    z = step_logits(weights, config, tokens, k)
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return -logp[:, np.arange(len(targets)), np.asarray(targets)].mean(axis=1)
