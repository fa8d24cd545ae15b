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

from .layers import Workspace
from .model import CHUNK_ROWS, LoopedModelParams, _check_ints, deliberate, loss_and_grads
from .taskgen import SyntheticWorld, render_tokens


@dataclass
class TrainConfig:
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

    def __post_init__(self):
        _check_ints(self, positive=("batch_size", "epochs"))
        if self.lr < 0 or self.warmup_steps < 0:
            raise ValueError("lr and warmup_steps must be >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1 and self.eps > 0
                and self.weight_decay >= 0):
            raise ValueError("beta1 and beta2 must lie in [0, 1), eps > 0 "
                             "and weight_decay >= 0")
        if self.lr_decay not in ("none", "cosine"):
            raise ValueError("lr_decay must be 'none' or 'cosine'")


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
        """One update of every weight from its .grad, in place:
        w -= lr mhat / (sqrt(vhat) + eps), then w -= lr wd w for a matrix,
        each op in the dtype NumPy's promotion rules give these formulas.
        Under cosine decay lr is an np.float64 (from np.cos), so the update
        and the weight decay are computed in float64 before rounding into a
        float32 weight; with no decay lr is a Python float and both stay in
        the weight's dtype."""
        cfg = self.config
        self.t += 1
        lr = self.lr_at(self.t)
        b1, b2 = cfg.beta1, cfg.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for m, v, (_, p) in zip(self.m, self.v, self.named):
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + cfg.eps)
            if cfg.weight_decay and min(p.data.shape) > 1:
                p.data -= lr * cfg.weight_decay * p.data


def train_step(params: LoopedModelParams, batch, k: int, optimizer: AdamW,
               workspace: Workspace | None = None) -> float:
    """One optimizer update on a (tokens, targets) batch at recurrence depth k.

    Gradients flow through all k applications of the recurrent block
    (full unroll, no truncation); see `model.loss_and_grads`, which keeps
    its buffers in `workspace` (None: fresh ones)."""
    tokens, targets = batch
    loss = loss_and_grads(tokens, targets, params, k, workspace)
    optimizer.step()
    return loss


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
                      depths) -> dict:
    """{depth: fraction of items whose argmax over the 4 option tokens at
    that recurrence depth is the correct option}, every depth read from one
    unroll to the deepest that decodes only those depths, in chunks of
    CHUNK_ROWS items. NoCorrect items are rejected."""
    if not permuted_items:
        raise ValueError("empty item list")
    depths = list(depths)
    if not depths or min(depths) < 1:
        raise ValueError("depths must be a nonempty set of depths >= 1")
    tokens, _ = encode_dataset(permuted_items, world)
    option_ids = np.stack([world.encode(p.options) for p in permuted_items])
    correct = np.array([p.correct_index for p in permuted_items])
    hits = np.zeros(len(depths), dtype=np.int64)
    for lo in range(0, len(permuted_items), CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, len(permuted_items))
        probs = deliberate(tokens[lo:hi], params, max(depths), steps=depths)
        opt = probs[:, np.arange(hi - lo)[:, None], option_ids[lo:hi]]
        hits += (opt.argmax(axis=2) == correct[lo:hi]).sum(axis=1)
    return {d: int(h) / len(permuted_items) for d, h in zip(depths, hits)}


def train(params: LoopedModelParams, train_items, world: SyntheticWorld,
          config: TrainConfig, eval_items=None,
          eval_depths=(4, 8, 16, 30)) -> TrainLog:
    """Deterministic training loop over permuted items, each step at a
    depth drawn uniformly from 1..k_max."""
    rng = np.random.default_rng(config.seed)
    tokens, targets = encode_dataset(train_items, world)
    n = len(train_items)
    k_max = params.config.k_max
    steps_per_epoch = -(-n // config.batch_size)
    optimizer = AdamW(params, config, total_steps=config.epochs * steps_per_epoch)
    workspace = Workspace()     # every step's layer caches and gradient scratch
    log = TrainLog()
    for epoch in range(config.epochs):
        t0 = time.monotonic()
        order = rng.permutation(n)
        losses = []
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            k = int(rng.integers(k_max)) + 1
            losses.append(train_step(params, (tokens[idx], targets[idx]), k,
                                     optimizer, workspace))
        accs = {}
        depths = [d for d in eval_depths if d <= k_max]
        if eval_items and depths:
            accs = evaluate_accuracy(params, eval_items, world, depths)
        log.epochs.append(epoch)
        log.mean_losses.append(float(np.mean(losses)))
        log.wall_clock_s.append(time.monotonic() - t0)
        log.depth_accuracies.append(accs)
    return log
