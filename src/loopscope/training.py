"""Training with randomly sampled recurrence depths.

Each step unrolls the recurrent block to a sampled depth k and supervises
only the answer position at that depth, so the coda sees every depth during
training and every intermediate state stays decoder-ready.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .autograd import NumericError, cross_entropy_logits
from .model import LoopedModelParams, answer_logits, deliberate, prelude_forward, recurrent_step
from .taskgen import SyntheticWorld, render_tokens


@dataclass
class TrainConfig:
    depth_support: tuple = ()     # empty -> uniform over {1..k_max}
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.01
    batch_size: int = 32
    epochs: int = 4
    warmup_steps: int = 100
    lr_decay: str = "none"        # "none" or "cosine" (to 10% of peak)
    seed: int = 0
    precision: str = "float32"

    def __post_init__(self):
        self.depth_support = tuple(self.depth_support)
        if self.lr < 0:
            raise ValueError("learning rate must be >= 0")
        if self.lr_decay not in ("none", "cosine"):
            raise ValueError("lr_decay must be 'none' or 'cosine'")
        if self.precision not in ("float32", "float64"):
            raise ValueError("precision must be float32 or float64")

    @property
    def dtype(self):
        return np.float32 if self.precision == "float32" else np.float64

    def resolved_support(self, k_max: int) -> tuple:
        support = self.depth_support or tuple(range(1, k_max + 1))
        if not support:
            raise ValueError("empty depth support")
        if any(k < 1 or k > k_max for k in support):
            raise ValueError(f"depth support must lie in 1..{k_max}")
        return support


@dataclass
class TrainLog:
    epochs: list = field(default_factory=list)
    mean_losses: list = field(default_factory=list)
    wall_clock_s: list = field(default_factory=list)
    depth_accuracies: list = field(default_factory=list)  # dict depth -> acc

    def to_csv(self, path) -> None:
        """Deterministic CSV: wall-clock times are kept in memory only, so a
        re-run with the same seed reproduces the file byte for byte."""
        depths = sorted(self.depth_accuracies[0]) if self.depth_accuracies else []
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "mean_loss"] + [f"acc_k{d}" for d in depths])
            for i, epoch in enumerate(self.epochs):
                accs = self.depth_accuracies[i] if self.depth_accuracies else {}
                w.writerow([epoch, f"{self.mean_losses[i]:.10g}"]
                           + [f"{accs[d]:.10g}" for d in depths])


def sample_depth(rng: np.random.Generator, config: TrainConfig,
                 k_max: int = 30) -> int:
    """Uniform draw from the configured depth support."""
    support = config.resolved_support(k_max)
    return int(support[rng.integers(len(support))])


class AdamW:
    """Adaptive moment estimation with decoupled weight decay, linear warmup,
    and optional cosine decay to 10% of the peak rate. Weight decay applies
    to matrices only (not to row vectors: biases, layernorm affines)."""

    def __init__(self, params: LoopedModelParams, config: TrainConfig,
                 total_steps: int | None = None):
        self.config = config
        self.total_steps = total_steps
        self.named = params.named_tensors()
        self.m = [np.zeros_like(t.data) for _, t in self.named]
        self.v = [np.zeros_like(t.data) for _, t in self.named]
        self.t = 0

    def lr_at(self, t: int) -> float:
        cfg = self.config
        lr = cfg.lr * min(1.0, t / max(1, cfg.warmup_steps))
        if cfg.lr_decay == "cosine" and self.total_steps:
            span = max(1, self.total_steps - cfg.warmup_steps)
            progress = min(1.0, max(0, t - cfg.warmup_steps) / span)
            lr *= 0.1 + 0.9 * 0.5 * (1.0 + np.cos(np.pi * progress))
        return lr

    def step(self):
        cfg = self.config
        self.t += 1
        lr = self.lr_at(self.t)
        b1, b2 = cfg.beta1, cfg.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for i, (_, p) in enumerate(self.named):
            g = p.grad
            if g is None:
                continue
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / bias1
            vhat = self.v[i] / bias2
            p.data -= lr * mhat / (np.sqrt(vhat) + cfg.eps)
            if cfg.weight_decay and min(p.data.shape) > 1:
                p.data -= lr * cfg.weight_decay * p.data

    def zero_grad(self):
        for _, p in self.named:
            p.grad = None


def train_step(params: LoopedModelParams, batch, k: int, optimizer: AdamW) -> float:
    """One optimizer update on a (tokens, targets) batch at recurrence depth k.

    Gradients flow through all k applications of the recurrent block
    (full unroll, no truncation)."""
    if k < 1:
        raise ValueError("recurrence depth k must be >= 1")
    tokens, targets = batch
    optimizer.zero_grad()
    state = prelude_forward(tokens, params)
    for _ in range(k):
        state = recurrent_step(state, params)
    loss = cross_entropy_logits(answer_logits(state, params), targets)
    value = loss.item()
    if not np.isfinite(value):
        raise NumericError(f"non-finite training loss {value} at depth k={k}")
    loss.backward()
    optimizer.step()
    return value


def encode_dataset(permuted_items, world: SyntheticWorld):
    """Token/target arrays for training; items must carry a correct option."""
    tokens, targets = [], []
    for p in permuted_items:
        if p.correct_index is None:
            raise ValueError("cannot train on NoCorrect items (no target token)")
        tokens.append(world.encode(render_tokens(p)))
        targets.append(world.token_to_id[p.options[p.correct_index]])
    return np.stack(tokens), np.array(targets, dtype=np.intp)


def evaluate_accuracy(params: LoopedModelParams, permuted_items, world: SyntheticWorld,
                      depths, batch_size: int = 512) -> dict:
    """{depth: fraction of items whose argmax over the 4 option tokens at
    that recurrence depth is the correct option}, every depth read from one
    unroll to the deepest. NoCorrect items are rejected."""
    if not permuted_items:
        raise ValueError("empty item list")
    depths = list(depths)
    if not depths or min(depths) < 1:
        raise ValueError("depths must be a nonempty set of depths >= 1")
    tokens, _ = encode_dataset(permuted_items, world)
    option_ids = np.stack([world.encode(p.options) for p in permuted_items])
    correct = np.array([p.correct_index for p in permuted_items])
    steps = np.array(depths) - 1
    hits = np.zeros(len(depths), dtype=np.int64)
    for lo in range(0, len(permuted_items), batch_size):
        hi = min(lo + batch_size, len(permuted_items))
        probs = deliberate(tokens[lo:hi], params, max(depths))
        opt = probs[steps[:, None, None], np.arange(hi - lo)[:, None],
                    option_ids[lo:hi]]
        hits += (opt.argmax(axis=2) == correct[lo:hi]).sum(axis=1)
    return {d: int(h) / len(permuted_items) for d, h in zip(depths, hits)}


def train(params: LoopedModelParams, train_items, world: SyntheticWorld,
          config: TrainConfig, eval_items=None,
          eval_depths=(4, 8, 16, 30)) -> TrainLog:
    """Deterministic single-threaded training loop over permuted items."""
    rng = np.random.default_rng(config.seed)
    tokens, targets = encode_dataset(train_items, world)
    n = len(train_items)
    k_max = params.config.k_max
    steps_per_epoch = -(-n // config.batch_size)
    optimizer = AdamW(params, config, total_steps=config.epochs * steps_per_epoch)
    log = TrainLog()
    for epoch in range(config.epochs):
        t0 = time.monotonic()
        order = rng.permutation(n)
        losses = []
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            k = sample_depth(rng, config, k_max)
            losses.append(train_step(params, (tokens[idx], targets[idx]), k,
                                     optimizer))
        accs = {}
        depths = [d for d in eval_depths if d <= k_max]
        if eval_items and depths:
            accs = evaluate_accuracy(params, eval_items, world, depths)
        log.epochs.append(epoch)
        log.mean_losses.append(float(np.mean(losses)))
        log.wall_clock_s.append(time.monotonic() - t0)
        log.depth_accuracies.append(accs)
    return log
