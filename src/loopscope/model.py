"""Looped transformer: prelude -> weight-tied recurrent block -> coda.

The recurrent stack is applied with the same weights at every step, so any
intermediate state can be decoded by the coda into a full predictive
distribution at the answer position.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .autograd import Tensor2, NumericError, ShapeError, layer_norm, matmul_nt, take_rows
from .layers import (
    Buffers,
    LayerParams,
    answer_layer_forward,
    init_layer,
    layer_forward_inplace,
    layer_norm_into,
    layer_param_count,
    transformer_layer_forward,
)


@dataclass
class LoopedConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    prelude_layers: int = 2
    recurrent_layers: int = 4
    coda_layers: int = 2
    max_seq: int = 16
    k_max: int = 30

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_heads", "prelude_layers",
                     "recurrent_layers", "coda_layers", "max_seq", "k_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ShapeError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )

    @property
    def d_mlp(self) -> int:
        return 4 * self.d_model

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LoopedConfig":
        return cls(**d)


@dataclass
class LoopedModelParams:
    config: LoopedConfig
    embedding: Tensor2            # (vocab, d); also the tied LM head
    pos: Tensor2                  # (max_seq, d) learned absolute positions
    prelude: list = field(default_factory=list)
    recurrent: list = field(default_factory=list)
    coda: list = field(default_factory=list)
    final_ln_g: Tensor2 = None
    final_ln_b: Tensor2 = None

    def named_tensors(self):
        """All weight tensors in a fixed, stable order."""
        out = [("embedding", self.embedding), ("pos", self.pos)]
        for stage, layers in (("prelude", self.prelude),
                              ("recurrent", self.recurrent),
                              ("coda", self.coda)):
            for i, layer in enumerate(layers):
                out.extend((f"{stage}.{i}.{name}", t) for name, t in layer.tensors())
        out.append(("final_ln_g", self.final_ln_g))
        out.append(("final_ln_b", self.final_ln_b))
        return out

    def n_params(self) -> int:
        return sum(t.data.size for _, t in self.named_tensors())


@dataclass
class HiddenState:
    """Recurrence state: (batch*seq, d_model) activations at step i."""

    h: Tensor2
    step: int
    seq_len: int
    batch: int


@dataclass
class StepDistribution:
    """Full-vocabulary predictive distribution at the answer position, step i."""

    probs: np.ndarray   # (vocab,) for a single sequence, (batch, vocab) otherwise
    step: int


def expected_param_count(config: LoopedConfig) -> int:
    """Closed-form parameter count for the chosen wiring."""
    n_layers = config.prelude_layers + config.recurrent_layers + config.coda_layers
    return (
        config.vocab_size * config.d_model
        + config.max_seq * config.d_model
        + n_layers * layer_param_count(config.d_model, config.d_mlp)
        + 2 * config.d_model
    )


def init_params(config: LoopedConfig, seed: int, dtype=np.float32) -> LoopedModelParams:
    """Deterministic scaled-normal initialization."""
    rng = np.random.default_rng(seed)
    # residual-stream writes are downscaled by the effective unrolled depth
    # (the recurrent stack is applied up to k_max times)
    depth = (config.prelude_layers
             + config.recurrent_layers * config.k_max + config.coda_layers)
    proj_std = 0.02
    resid_std = 0.02 / np.sqrt(2.0 * depth)

    embedding = Tensor2(
        rng.normal(0.0, 0.02, size=(config.vocab_size, config.d_model)).astype(dtype))
    pos = Tensor2(
        rng.normal(0.0, 0.02, size=(config.max_seq, config.d_model)).astype(dtype))

    def stack(n):
        return [init_layer(config.d_model, config.d_mlp, rng, proj_std,
                           resid_std, dtype)
                for _ in range(n)]

    return LoopedModelParams(
        config=config,
        embedding=embedding,
        pos=pos,
        prelude=stack(config.prelude_layers),
        recurrent=stack(config.recurrent_layers),
        coda=stack(config.coda_layers),
        final_ln_g=Tensor2(np.ones((1, config.d_model), dtype=dtype)),
        final_ln_b=Tensor2(np.zeros((1, config.d_model), dtype=dtype)),
    )


def _check_tokens(tokens, config: LoopedConfig) -> np.ndarray:
    arr = np.asarray(tokens)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError("tokens must be a sequence or a batch of sequences")
    if arr.shape[1] > config.max_seq:
        raise ShapeError(f"sequence length {arr.shape[1]} exceeds max_seq {config.max_seq}")
    if arr.size and (arr.min() < 0 or arr.max() >= config.vocab_size):
        raise ValueError("token id out of vocabulary range")
    return arr.astype(np.intp)


def prelude_forward(tokens, params: LoopedModelParams) -> HiddenState:
    """Embed tokens (plus learned positions) and run the prelude stack: h_0."""
    cfg = params.config
    ids = _check_tokens(tokens, cfg)
    batch, seq = ids.shape
    h = take_rows(params.embedding, ids.reshape(-1))
    h = h + take_rows(params.pos, np.tile(np.arange(seq), batch))
    for layer in params.prelude:
        h = transformer_layer_forward(h, layer, cfg.n_heads, seq, causal=True)
    if not np.all(np.isfinite(h.data)):
        raise NumericError("prelude produced non-finite activations")
    return HiddenState(h=h, step=0, seq_len=seq, batch=batch)


def recurrent_step(state: HiddenState, params: LoopedModelParams) -> HiddenState:
    """One application of the shared recurrent block: h_i = R(h_{i-1})."""
    cfg = params.config
    if state.step >= cfg.k_max:
        raise ValueError(f"recurrence depth {state.step + 1} exceeds k_max {cfg.k_max}")
    h = state.h
    for layer in params.recurrent:
        h = transformer_layer_forward(h, layer, cfg.n_heads, state.seq_len, causal=True)
    return HiddenState(h=h, step=state.step + 1, seq_len=state.seq_len,
                       batch=state.batch)


def answer_logits(state: HiddenState, params: LoopedModelParams) -> Tensor2:
    """Coda stack + final norm + tied LM head at the last position of each
    sequence, on the autograd tape: the training loss reads it."""
    cfg = params.config
    h = state.h
    for layer in params.coda:
        h = transformer_layer_forward(h, layer, cfg.n_heads, state.seq_len, causal=True)
    h = layer_norm(h, params.final_ln_g, params.final_ln_b)
    last = np.arange(state.batch) * state.seq_len + (state.seq_len - 1)
    return matmul_nt(take_rows(h, last), params.embedding)


def deliberate(tokens, params: LoopedModelParams, k: int) -> np.ndarray:
    """Decoded beliefs p_i = softmax(C(h_i)) at the answer position after
    every recurrence step i = 1..k, as a (k, batch, vocab) float64 block.

    Cache-free inference on raw arrays: no autograd graph is built, and the
    activation buffers are allocated once and reused by every layer and
    step. It computes in the weights' dtype; the softmax is taken in
    float64, so every row sums to 1 to full precision. The last coda layer
    runs its query, MLP, final norm and LM head only at the answer row. A
    smaller k yields an exact prefix of a larger k (steps are pure).
    """
    cfg = params.config
    if k < 1:
        raise ValueError("k must be >= 1 (decoding starts at step 1)")
    if k > cfg.k_max:
        raise ValueError(f"k {k} exceeds k_max {cfg.k_max}")
    ids = _check_tokens(tokens, cfg)
    batch, seq = ids.shape
    emb = params.embedding.data
    dtype, d = emb.dtype, cfg.d_model
    buf = Buffers(batch, seq, seq, d, cfg.d_mlp, cfg.n_heads, dtype)
    ans = Buffers(batch, 1, seq, d, cfg.d_mlp, cfg.n_heads, dtype)

    h = np.take(emb, ids.reshape(-1), axis=0)
    h.reshape(batch, seq, d)[...] += params.pos.data[:seq]
    for layer in params.prelude:
        layer_forward_inplace(h, layer, buf)
    if not np.all(np.isfinite(h)):
        raise NumericError("prelude produced non-finite activations")

    coda = np.empty_like(h)
    top = np.empty((batch, d), dtype)
    logits = np.empty((batch, cfg.vocab_size), dtype)
    probs = np.empty((k, batch, cfg.vocab_size))
    for i in range(k):
        for layer in params.recurrent:
            layer_forward_inplace(h, layer, buf)
        np.copyto(coda, h)
        for layer in params.coda[:-1]:
            layer_forward_inplace(coda, layer, buf)
        answer_layer_forward(coda, params.coda[-1], buf, ans, top)
        layer_norm_into(top, params.final_ln_g.data, params.final_ln_b.data,
                        ans.ln, ans.proj, ans.stat)
        np.matmul(ans.ln, emb.T, out=logits)
        p = probs[i]
        p[...] = logits
        if not np.all(np.isfinite(p)):
            raise NumericError("coda produced non-finite logits")
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
    return probs


def run_deliberation(tokens, params: LoopedModelParams, k: int):
    """Decode the model's belief at every recurrence step 1..k.

    Returns a list of k StepDistributions, (vocab,) probabilities for a
    single sequence and (batch, vocab) otherwise; see `deliberate`.
    """
    probs = deliberate(tokens, params, k)
    if probs.shape[1] == 1:
        probs = probs[:, 0]
    return [StepDistribution(probs=p, step=i + 1) for i, p in enumerate(probs)]
