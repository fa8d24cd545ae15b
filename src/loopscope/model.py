"""Looped transformer: prelude -> weight-tied recurrent block -> coda.

The recurrent stack is applied with the same weights at every step, so any
intermediate state can be decoded by the coda into a full predictive
distribution at the answer position.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import threading
from dataclasses import dataclass, field, asdict

import numpy as np

from .autograd import NumericError, ShapeError, Tensor2
from .layers import (
    Buffers,
    KeyBuffers,
    Workspace,
    _empty,
    init_layer,
    keys_values,
    layer_forward,
    layer_norm_backward,
    layer_norm_into,
    layer_param_count,
    stack_backward,
    stack_forward,
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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if value < 1:
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
    if arr.shape[1] == 0:
        raise ShapeError("sequences must hold at least one token")
    if arr.shape[1] > config.max_seq:
        raise ShapeError(f"sequence length {arr.shape[1]} exceeds max_seq {config.max_seq}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"token ids must be integers, not {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= config.vocab_size):
        raise ValueError("token id out of vocabulary range")
    return arr.astype(np.intp)


def cross_entropy(logits: np.ndarray, targets):
    """Mean cross-entropy of row logits against integer targets, and its
    gradient with respect to the logits, in the logits' dtype."""
    n, vocab = logits.shape
    targets = np.asarray(targets)
    if targets.shape != (n,):
        raise ShapeError("one target per logit row required")
    if not np.issubdtype(targets.dtype, np.integer):
        raise ValueError(f"target ids must be integers, not {targets.dtype}")
    if n and (targets.min() < 0 or targets.max() >= vocab):
        raise ValueError("target id out of vocabulary range")
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(n)
    loss = -logp[rows, targets].mean()
    dlogits = np.exp(logp)
    dlogits[rows, targets] -= 1.0
    dlogits *= logits.dtype.type(1.0) / n
    return loss, dlogits


def loss_and_grads(tokens, targets, params: LoopedModelParams, k: int,
                   workspace: Workspace | None = None) -> float:
    """Training loss at recurrence depth k, with its full backward.

    Runs embed -> prelude -> k recurrent steps -> coda -> final norm -> tied
    LM head at the last position of each sequence, and returns the mean
    cross-entropy against `targets`. Every weight's gradient, through all k
    steps (full unroll, no truncation), is written to its .grad: a slice of
    the workspace's one gradient vector (Workspace.bind_grads), valid until
    the next loss_and_grads on the same workspace. Each layer
    application keeps its own cache of what a GEMM or a reduction produced
    and its backward reads, with the row mean and 1/sigma of both its
    layernorms, and a reverse loop over them, which rebuilds the
    elementwise results, is the backward pass. The caches and the
    backward's scratch live in `workspace`, a layers.Workspace that a
    training loop keeps across steps (None: a fresh one). The products run
    with NumPy's bundled OpenBLAS held at 1 thread (`_one_blas_thread`), so
    the gradients do not depend on the caller's thread count. Raises
    NumericError, before the backward, on a non-finite loss."""
    cfg = params.config
    if not 1 <= k <= cfg.k_max:
        raise ValueError(f"recurrence depth k={k} must lie in 1..{cfg.k_max}")
    ids = _check_tokens(tokens, cfg)
    batch, seq = ids.shape
    emb = params.embedding.data
    h = np.take(emb, ids.reshape(-1), axis=0)
    h.reshape(batch, seq, cfg.d_model)[...] += params.pos.data[:seq]

    if workspace is None:
        workspace = Workspace()
    with _one_blas_thread():
        states, caches = stack_forward(
            h, params.prelude + params.recurrent * k + params.coda,
            cfg.n_heads, seq, workspace)
        top = states[-1]
        normed = np.empty_like(top)
        mean, rstd = (np.empty((len(top), 1), top.dtype) for _ in range(2))
        layer_norm_into(top, params.final_ln_g.data, params.final_ln_b.data,
                        normed, np.empty_like(top), mean, rstd)
        last = np.arange(batch) * seq + (seq - 1)
        answer = normed[last]
        loss, dlogits = cross_entropy(np.matmul(answer, emb.T), targets)
        if not np.isfinite(loss):
            raise NumericError(
                f"non-finite training loss {loss} at depth k={k}")

        workspace.bind_grads([t for _, t in params.named_tensors()])
        dnormed = np.zeros_like(normed)
        np.add.at(dnormed, last, np.matmul(dlogits, emb))
        dh = layer_norm_backward(top, mean, rstd, params.final_ln_g,
                                 params.final_ln_b, dnormed, workspace.grads)
        dh = stack_backward(dh, states, caches, workspace)
        # the input's two row gathers scatter-add straight into their zeroed
        # gradients; the tied head's gradient is added to the embedding's
        # after that. One IEEE add commutes, so this sum has the bits of the
        # head's gradient plus the scatter's
        np.add.at(params.pos.grad, np.tile(np.arange(seq), batch), dh)
        np.add.at(params.embedding.grad, ids.reshape(-1), dh)
        params.embedding.grad += np.matmul(dlogits.T, answer)
    return float(loss)


def shared_prefix(ids: np.ndarray):
    """Split a (batch, seq) token block into distinct prefixes and per-row
    suffixes: (p, prefixes, group), with prefixes the (U, p) distinct
    length-p prefixes and group[r] the index of row r's prefix.

    p in [0, seq - 1] minimises the rows one layer computes when each
    distinct prefix runs once, U_p * p + batch * (seq - p). Ties go to the
    shorter prefix, so a batch of one, or one whose rows share no prefix,
    gets p = 0.
    """
    batch, seq = ids.shape
    order = np.lexsort(ids.T[::-1])
    rows = ids[order]
    differs = rows[1:] != rows[:-1]
    # first column where each row differs from the row sorted before it
    first = np.where(differs.any(axis=1), differs.argmax(axis=1), seq)
    lengths = np.arange(seq)
    distinct = 1 + (first < lengths[:, None]).sum(axis=1)
    p = int(np.argmin(distinct * lengths + batch * (seq - lengths)))
    starts = np.ones(batch, dtype=bool)
    starts[1:] = first < p
    group = np.empty(batch, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return p, rows[starts, :p], group


# The fewest rows a shard of `deliberate` takes, and the multiple of rows
# each shard starts at. At 1 BLAS thread on a 2-core x86 box (SkylakeX
# kernel, reference dimensions, k = 30) two shards of 48 rows break even
# with one of 96. It must stay a multiple of 48, the common multiple of
# OpenBLAS's row tiles: a product's rows are computed in tiles of up to 16
# (12 on Haswell and Zen, 8 on Nehalem), and a row's float32 bits can
# depend on its place in its tile and on whether the product has fewer
# than about 27 rows (SkylakeX's small-matrix kernel); shards that start
# at multiples of 48 keep every row's place.
_SHARD_ROWS = 48

# Rows per `deliberate` call when a trace or an evaluation decodes many rows,
# cut in their given order. It is fixed, not a setting, because a row's
# float32 beliefs depend on the rows decoded with it (its place in BLAS's
# row tiles and the prefix split `shared_prefix` picks), so another chunk
# size would change the trace's bytes.
CHUNK_ROWS = 512


def _numpy_openblas():
    """The (get, set) thread-count calls of the OpenBLAS in NumPy's wheel
    (numpy.libs), which NumPy has already loaded, or None when NumPy runs
    on another BLAS (a system OpenBLAS, MKL, Accelerate)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "lib*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_OPENBLAS = _numpy_openblas()
_BLAS_PIN = threading.Lock()     # held while a call has changed the count


@contextlib.contextmanager
def _one_blas_thread():
    """Hold NumPy's bundled OpenBLAS at 1 thread, one holder at a time, and
    give the caller's count back on return or raise; other threads' BLAS
    work runs on 1 thread meanwhile. Yields whether the count could be set:
    False under another BLAS (a system OpenBLAS, MKL, Accelerate), which
    then runs at the caller's count.

    `deliberate` and `loss_and_grads` issue every BLAS product and hold it,
    so a run's bytes do not depend on the thread count, as some kernels'
    rounding does (Haswell). Neither calls the other, so no thread takes
    the lock twice. Taking it costs one get and one set, under a
    microsecond against a 70-340 ms training step; the cost is that calls
    on different threads take turns."""
    if _OPENBLAS is None:
        yield False
        return
    get_threads, set_threads = _OPENBLAS
    with _BLAS_PIN:
        threads = get_threads()
        set_threads(1)
        try:
            yield True
        finally:
            set_threads(threads)


# Rows of decoded states the coda takes in one pass. `deliberate` stacks
# the states of up to _CODA_ROWS // (rows per step) decoded steps and runs
# the coda, final norm, LM head and softmax once over them; the row-wise
# products go per step (Buffers), so each belief keeps its bits. At batch 1
# a pass saves the per-call cost of the steps it stacks; a layer's cost per
# sequence stops falling above about 240 rows (SkylakeX, reference
# dimensions). A larger budget would give training's 32-row evaluation a
# stacked pass and its own buffers, and raise the training peak memory.
_CODA_ROWS = 288


def _coda_slots(rows_per_step: int, n_steps: int) -> int:
    """Decoded steps per coda pass: as many as _CODA_ROWS rows hold, at
    least one and at most n_steps; one for a step of no rows."""
    if not rows_per_step:
        return 1
    return max(1, min(n_steps, _CODA_ROWS // rows_per_step))


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def _shard_workers(rows: int, cores: int) -> int:
    """Threads `deliberate` runs `rows` on over `cores` cores at 1 BLAS
    thread: one per core and at most one per _SHARD_ROWS rows."""
    return max(1, min(cores, rows // _SHARD_ROWS))


def deliberate(tokens, params: LoopedModelParams, k: int,
               steps=None) -> np.ndarray:
    """Decoded beliefs p_i = softmax(C(h_i)) at the answer position after
    every recurrence step i = 1..k, as a (k, batch, vocab) float64 block.
    With `steps`, a nonempty list of steps in 1..k, only those are decoded:
    row j of the (len(steps), batch, vocab) result is p at step steps[j],
    bit for bit the row of the full block. The recurrent block then runs to
    the deepest of them, and the coda, final norm and softmax only at them.

    Inference keeps no cache for a backward: the recurrence's activation
    buffers are allocated once and reused by every layer and step. The
    decoded steps go through the coda in passes of up to _CODA_ROWS rows:
    a pass stacks the states of as many steps as fit (every step of a
    single question, one step of a trace shard) and runs the coda, final
    norm, LM head and softmax once over the stack, with every row-wise
    product issued per step (layers.Buffers). Each belief thus has the bits
    it has when its step is decoded alone, so `steps=` and a smaller k give
    exact rows and prefixes of the full block (steps are pure). A pass of
    one step runs on the recurrence's own buffers. It computes in the
    weights' dtype; the softmax is taken in float64, so every row sums to 1
    to full precision. The last coda layer runs its query, MLP, final norm
    and LM head only at the answer row.

    Attention is causal and positions are absolute, so rows that start with
    the same tokens hold the same states there at every layer and step.
    `shared_prefix` picks the prefix length p that minimises the rows
    computed; each distinct prefix runs once, and every row runs only its
    positions p.. over its prefix's keys and values. The split depends only
    on the tokens, and the beliefs do not depend on it beyond the rounding
    of the weights' dtype. With p = 0 (one row, or no shared prefix) the
    prefix half is skipped.

    A call holds NumPy's bundled OpenBLAS at 1 thread (`_one_blas_thread`),
    so the beliefs do not depend on the caller's thread count. A batch
    of at least 2 * _SHARD_ROWS rows runs in row shards at once: one on the
    calling thread and one per further usable core on worker threads (NumPy
    releases the GIL in its loops and in BLAS), at least _SHARD_ROWS rows
    each. Smaller batches, and any batch under a BLAS whose threads cannot
    be set here, run as one shard. Shards start at multiples of _SHARD_ROWS
    and each computes every prefix, so each row sits where it would with one
    shard; the beliefs were checked bit-identical to one shard's with
    OpenBLAS 0.3.31 under its SkylakeX and Haswell kernels.
    """
    with _one_blas_thread() as pinned:
        return _deliberate(tokens, params, k,
                           _usable_cores() if pinned else 1, steps)


def _deliberate(tokens, params: LoopedModelParams, k: int, cores: int,
                steps=None) -> np.ndarray:
    """`deliberate` in _shard_workers(batch, cores) shards."""
    cfg = params.config
    if k < 1:
        raise ValueError("k must be >= 1 (decoding starts at step 1)")
    if k > cfg.k_max:
        raise ValueError(f"k {k} exceeds k_max {cfg.k_max}")
    steps = list(range(1, k + 1)) if steps is None else [int(s) for s in steps]
    if not steps or min(steps) < 1 or max(steps) > k:
        raise ValueError(f"steps must be a nonempty list of steps in 1..{k}")
    decoded = sorted(set(steps))
    ids = _check_tokens(tokens, cfg)
    batch = len(ids)
    p_len, prefixes, group = shared_prefix(ids)
    probs = np.empty((len(decoded), batch, cfg.vocab_size))
    # shard s starts at the multiple of _SHARD_ROWS at or below s * batch / n;
    # n <= batch / _SHARD_ROWS, so every shard gets at least _SHARD_ROWS rows
    n = _shard_workers(batch, cores)
    cuts = [batch * s // n // _SHARD_ROWS * _SHARD_ROWS for s in range(n)]
    cuts.append(batch)
    errors = []     # nonempty: every shard stops at its next step

    def shard(lo, hi):
        try:
            _beliefs(ids[lo:hi], p_len, prefixes, group[lo:hi], params,
                     decoded, probs[:, lo:hi], errors)
        except Exception as exc:         # raised on the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=shard, args=span)
               for span in zip(cuts[1:-1], cuts[2:])]
    for t in threads:
        t.start()
    try:
        shard(cuts[0], cuts[1])
        for t in threads:
            t.join()
    except BaseException as exc:         # an interrupt: stop the workers first
        errors.append(exc)
        for t in threads:
            t.join()
        raise
    if errors:
        raise errors[0]
    if decoded != steps:
        probs = probs[np.searchsorted(decoded, steps)]
    return probs


def _beliefs(ids, p_len, prefixes, group, params: LoopedModelParams,
             steps: list, probs: np.ndarray, stop: list) -> None:
    """The kernel of `deliberate`: the (len(steps), batch, vocab) beliefs of
    the token rows `ids`, whose first p_len tokens are prefixes[group], at
    the ascending recurrence steps `steps`, into probs. The recurrence runs
    one step at a time; the coda decodes the steps in passes of up to
    `_coda_slots` steps each. Returns early once `stop` is nonempty."""
    cfg = params.config
    batch, seq = ids.shape
    emb = params.embedding.data
    dtype, d = emb.dtype, cfg.d_model
    n_pre = len(prefixes)

    def embed(rows, start):
        """Embedded state of `rows` at positions start.."""
        n, n_x = rows.shape
        h = np.take(emb, rows.reshape(-1), axis=0)
        h.reshape(n, n_x, d)[...] += params.pos.data[start:start + n_x]
        return h

    def buffers(slots):
        """Each stacked row's prefix, and the key and query buffers of
        `slots` stacked steps: the prefixes', the rows' and, last, the
        answer row's."""
        def query(n, n_q, n_k):
            return Buffers(slots * n, n_q, n_k, d, cfg.d_mlp, cfg.n_heads,
                           dtype, slots)
        return ((group + n_pre * np.arange(slots)[:, None]).reshape(-1),
                KeyBuffers(slots * n_pre, p_len, p_len, d, dtype),
                query(n_pre, p_len, p_len),
                KeyBuffers(slots * batch, seq - p_len, seq, d, dtype),
                query(batch, seq - p_len, seq), query(batch, 1, seq))

    def block(layer, pre_h, h, bufs, out=None):
        """One layer over the prefixes and then the rows' own positions.
        With `out`, the rows are queried at their answer position only (into
        out), and the prefixes are needed only for their keys and values."""
        rows_group, pre_keys, pre, keys, buf, ans = bufs
        if p_len:
            if out is None:
                layer_forward(pre_h, layer, pre_keys, pre)
            else:
                keys_values(pre_h, layer, pre_keys)
            keys.kv[:, :p_len] = pre_keys.kv[rows_group]
        layer_forward(h, layer, keys, buf if out is None else ans, out)

    loop = buffers(1)
    pre_h, h = embed(prefixes, 0), embed(ids[:, p_len:], p_len)
    for layer in params.prelude:
        block(layer, pre_h, h, loop)
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(pre_h))):
        raise NumericError("prelude produced non-finite activations")

    slots = _coda_slots(len(pre_h) + len(h), len(steps))
    coda_pre = _empty((slots,) + pre_h.shape, dtype)
    coda = _empty((slots,) + h.shape, dtype)
    top = _empty((slots * batch, d), dtype)
    logits = _empty((slots, batch, cfg.vocab_size), dtype)
    bufs = {1: loop}        # a pass of one step runs on the loop's buffers
    rows = {step: j for j, step in enumerate(steps)}     # step -> probs row
    for step in range(1, steps[-1] + 1):
        if stop:
            return
        for layer in params.recurrent:
            block(layer, pre_h, h, loop)
        if step not in rows:
            continue
        # this step's states go to slot g of the pass that decodes probs
        # rows first.. first + n - 1
        first, g = divmod(rows[step], slots)
        first *= slots
        n = min(slots, len(steps) - first)
        np.copyto(coda_pre[g], pre_h)
        np.copyto(coda[g], h)
        if g < n - 1:
            continue
        if n not in bufs:
            bufs[n] = buffers(n)
        x_pre, x = coda_pre[:n].reshape(-1, d), coda[:n].reshape(-1, d)
        for layer in params.coda[:-1]:
            block(layer, x_pre, x, bufs[n])
        block(params.coda[-1], x_pre, x, bufs[n], out=top[:n * batch])
        ans = bufs[n][-1]
        layer_norm_into(top[:n * batch], params.final_ln_g.data,
                        params.final_ln_b.data, ans.ln, ans.proj, ans.mean,
                        ans.stat)
        np.matmul(ans.ln.reshape(n, batch, d), emb.T, out=logits[:n])
        p = probs[first:first + n]
        p[...] = logits[:n]
        if not np.all(np.isfinite(p)):
            raise NumericError("coda produced non-finite logits")
        p -= p.max(axis=2, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=2, keepdims=True)


def run_deliberation(tokens, params: LoopedModelParams, k: int):
    """Decode the model's belief at every recurrence step 1..k.

    Returns a list of k StepDistributions: (vocab,) probabilities for a
    single sequence given as 1-D tokens, (batch, vocab) for a 2-D batch,
    a batch of one included; see `deliberate`.
    """
    probs = deliberate(tokens, params, k)
    if np.ndim(tokens) == 1:
        probs = probs[:, 0]
    return [StepDistribution(probs=p, step=i + 1) for i, p in enumerate(probs)]
