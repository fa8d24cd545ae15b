import sys
import threading
import time

import numpy as np
import pytest

from loopscope import model
from loopscope.autograd import NumericError, ShapeError
from loopscope.model import (
    LoopedConfig,
    deliberate,
    expected_param_count,
    init_params,
    loss_and_grads,
    run_deliberation,
    shared_prefix,
)
from loopscope.pipeline import ExperimentConfig, stage_gen_bench
from loopscope.taskgen import render_tokens
from tests.test_layers import naive_layer_forward

CFG = LoopedConfig(vocab_size=20, d_model=16, n_heads=2, max_seq=8, k_max=10)


@pytest.fixture(scope="module")
def params():
    return init_params(CFG, seed=42, dtype=np.float64)


def test_init_deterministic():
    a = init_params(CFG, seed=7)
    b = init_params(CFG, seed=7)
    for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert np.array_equal(ta.data, tb.data)


def test_init_seed_sensitivity():
    a = init_params(CFG, seed=1)
    b = init_params(CFG, seed=2)
    assert not np.array_equal(a.embedding.data, b.embedding.data)


def test_param_count_closed_form():
    cfg = LoopedConfig(vocab_size=50, d_model=64, n_heads=4, max_seq=16)
    params = init_params(cfg, seed=0)
    assert params.n_params() == expected_param_count(cfg)


def test_bad_head_split_rejected():
    with pytest.raises(Exception):
        LoopedConfig(vocab_size=10, d_model=10, n_heads=3)


def naive_states(tokens, params, k):
    """Answer-position states after the final norm at steps 1..k, one
    sequence at a time through the per-position oracle: (k, batch, d)."""
    ids = np.atleast_2d(tokens)
    out = np.empty((k, len(ids), params.config.d_model))
    for b, row in enumerate(ids):
        x = params.embedding.data[row] + params.pos.data[:len(row)]
        for layer in params.prelude:
            x = naive_layer_forward(x, layer, n_heads=params.config.n_heads)
        for i in range(k):
            for layer in params.recurrent:
                x = naive_layer_forward(x, layer, n_heads=params.config.n_heads)
            y = x
            for layer in params.coda:
                y = naive_layer_forward(y, layer, n_heads=params.config.n_heads)
            v = y[-1]
            vhat = (v - v.mean()) / np.sqrt(((v - v.mean()) ** 2).mean() + 1e-5)
            out[i, b] = params.final_ln_g.data[0] * vhat + params.final_ln_b.data[0]
    return out


def naive_beliefs(tokens, params, k):
    """softmax(final state @ embedding^T) at steps 1..k: (k, batch, vocab)."""
    z = naive_states(tokens, params, k) @ params.embedding.data.T
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def prelude_only(params):
    """Zero the residual branches of the recurrent and coda layers, so both
    stacks are the identity and every step decodes the prelude's output."""
    for layer in params.recurrent + params.coda:
        for name in ("w_out", "b_out", "w_mlp2", "b_mlp2"):
            getattr(layer, name).data[...] = 0.0
    return params


def test_prelude_shape_and_determinism():
    params = prelude_only(init_params(CFG, seed=42, dtype=np.float64))
    tokens = [1, 2, 3, 4]
    p1 = deliberate(tokens, params, 3)
    p2 = deliberate(tokens, params, 3)
    assert p1.shape == (3, 1, CFG.vocab_size)
    assert np.array_equal(p1, p2)
    # identity steps leave h_0 unchanged, bit for bit
    assert np.array_equal(p1[0], p1[2])


def test_prelude_rejects_bad_tokens(params):
    for fn in (lambda t: deliberate(t, params, 1),
               lambda t: loss_and_grads(t, [0], params, 1)):
        with pytest.raises(ValueError):
            fn([0, CFG.vocab_size])
        with pytest.raises(Exception):
            fn(list(range(CFG.max_seq + 1)))
        # ids must be integers: a float is not truncated to one
        for tokens in ([1.7, 2.2, 3.9], ["a", "b"]):
            with pytest.raises(ValueError, match="integers"):
                fn(tokens)
        with pytest.raises(ShapeError):
            fn([])


def test_prelude_matches_naive_oracle():
    params = prelude_only(init_params(CFG, seed=42, dtype=np.float64))
    tokens = np.array([3, 1, 4, 1, 5])
    got = deliberate(tokens, params, 1)
    assert np.max(np.abs(got - naive_beliefs(tokens, params, 1))) < 1e-12


def test_loss_and_grads_is_pure(params):
    """The training forward is pure: the same call gives the same loss and
    gradients, and it leaves the weights as they were."""
    tokens, targets = np.array([[5, 6, 7], [1, 2, 3]]), [4, 9]
    before = [t.data.copy() for _, t in params.named_tensors()]
    runs = []
    for _ in range(2):
        loss = loss_and_grads(tokens, targets, params, 2)
        runs.append((loss, [t.grad for _, t in params.named_tensors()]))
    assert runs[0][0] == runs[1][0]
    for a, b in zip(runs[0][1], runs[1][1]):
        assert np.array_equal(a, b)
    for w, (_, t) in zip(before, params.named_tensors()):
        assert np.array_equal(w, t.data)


def test_recurrent_matches_unrolled_naive_oracle():
    """The training loss at depth 3 is the oracle's cross-entropy after 3
    unrolled recurrent steps."""
    params = moved_params()
    tokens, targets = np.array([[2, 9, 10], [4, 4, 0]]), np.array([3, 7])
    loss = loss_and_grads(tokens, targets, params, 3)
    z = naive_states(tokens, params, 3)[-1] @ params.embedding.data.T
    logp = z - z.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    assert abs(loss + logp[[0, 1], targets].mean()) < 1e-12


def test_k_max_enforced(params):
    for k in (0, CFG.k_max + 1):
        with pytest.raises(ValueError):
            loss_and_grads([1], [0], params, k)
        with pytest.raises(ValueError):
            deliberate([1], params, k)


def test_run_deliberation_valid_at_every_step(params):
    dists = run_deliberation([4, 8, 15, 16], params, k=CFG.k_max)
    assert len(dists) == CFG.k_max
    for i, dist in enumerate(dists):
        assert dist.step == i + 1
        assert dist.probs.shape == (CFG.vocab_size,)
        assert abs(dist.probs.sum() - 1.0) < 1e-6
        assert np.all(dist.probs > 0)


def test_run_deliberation_matches_naive_oracle(params):
    tokens = np.array([1, 2, 3])
    x = params.embedding.data[tokens] + params.pos.data[:3]
    for layer in params.prelude + params.recurrent + params.coda:
        x = naive_layer_forward(x, layer, n_heads=CFG.n_heads)
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + 1e-5)
    x = params.final_ln_g.data * xhat + params.final_ln_b.data
    logits = x[-1] @ params.embedding.data.T
    p = np.exp(logits - logits.max())
    p /= p.sum()
    got = run_deliberation(tokens, params, k=1)[0].probs
    assert np.max(np.abs(got - p)) < 1e-6


def test_run_deliberation_definition_and_prefix(params):
    tokens = [7, 3, 2, 0]
    full = run_deliberation(tokens, params, k=8)
    short = run_deliberation(tokens, params, k=3)
    one = run_deliberation(tokens, params, k=1)
    assert len(full) == 8
    # k=1 equals softmax(C(R(P(x)))) through the per-position oracle
    p = naive_beliefs(tokens, params, 1)[0, 0]
    assert np.max(np.abs(one[0].probs - p)) < 1e-12
    # prefix property, bit-exact
    for a, b in zip(short, full):
        assert np.array_equal(a.probs, b.probs)


def test_run_deliberation_keeps_the_batch_axis_of_a_batch_of_one(params):
    single = run_deliberation([4, 8, 15], params, k=3)
    batch = run_deliberation([[4, 8, 15]], params, k=3)
    for a, b in zip(single, batch):
        assert a.probs.shape == (CFG.vocab_size,)
        assert b.probs.shape == (1, CFG.vocab_size)
        assert np.array_equal(b.probs[0], a.probs)


def test_run_deliberation_rejects_bad_k(params):
    for fn in (run_deliberation, deliberate):
        with pytest.raises(ValueError):
            fn([1, 2], params, k=0)
        with pytest.raises(ValueError):
            fn([1, 2], params, k=CFG.k_max + 1)


def test_weight_tying_mutation_changes_all_steps(params):
    p2 = init_params(CFG, seed=42, dtype=np.float64)
    tokens = [3, 4, 5]
    before = run_deliberation(tokens, p2, k=4)
    p2.recurrent[0].w_qkv.data[0, 0] += 0.5
    after = run_deliberation(tokens, p2, k=4)
    for a, b in zip(before, after):
        assert not np.array_equal(a.probs, b.probs)


# -- the cache-free inference kernel -----------------------------------------


KCFG = LoopedConfig(vocab_size=11, d_model=8, n_heads=2, prelude_layers=1,
                    recurrent_layers=2, coda_layers=2, max_seq=6, k_max=6)


def moved_params(dtype=np.float64, config=KCFG):
    """Weights moved off their initial values so beliefs change per step."""
    params = init_params(config, seed=3, dtype=dtype)
    rng = np.random.default_rng(0)
    for _, t in params.named_tensors():
        t.data += rng.normal(0.0, 0.3, t.data.shape).astype(dtype)
    return params


@pytest.mark.parametrize("batch,seq", [(3, KCFG.max_seq), (1, KCFG.max_seq),
                                       (2, KCFG.max_seq - 2)])
def test_deliberate_matches_naive_beliefs_at_every_step(batch, seq):
    """Beliefs at every step against the per-position oracle, naive_beliefs."""
    params = moved_params()
    tokens = np.random.default_rng(batch).integers(0, KCFG.vocab_size,
                                                   size=(batch, seq))
    got = deliberate(tokens, params, KCFG.k_max)
    ref = naive_beliefs(tokens, params, KCFG.k_max)
    assert got.shape == ref.shape == (KCFG.k_max, batch, KCFG.vocab_size)
    assert got.dtype == np.float64
    assert np.abs(got - ref).max() < 1e-10
    # the beliefs move, so the comparison covers the recurrence
    assert np.abs(np.diff(got, axis=0)).max() > 1e-3


def stems_batch(seed, sizes, seq, shared, vocab=KCFG.vocab_size):
    """Rows of len(sizes) stems, sizes[i] rows each: every row of a stem
    starts with the stem's `shared` tokens and goes on at random. The rows
    are shuffled, so a stem's rows are not next to each other."""
    rng = np.random.default_rng(seed)
    rows = [np.concatenate([stem, rng.integers(0, vocab, seq - shared)])
            for size in sizes
            for stem in [rng.integers(0, vocab, shared)]
            for _ in range(size)]
    return np.array(rows)[rng.permutation(sum(sizes))]


def distinct_starts(n, seq, vocab=KCFG.vocab_size):
    """n random rows whose first tokens all differ."""
    rng = np.random.default_rng(n)
    rest = rng.integers(0, vocab, size=(n, seq - 1))
    return np.column_stack([np.arange(n), rest])


SHARED_BATCHES = {
    # name: (tokens, the prefix length the split must choose)
    "shuffled-stems": (stems_batch(0, [3, 3, 3], KCFG.max_seq, 3), 3),
    # all rows are copies of 3 rows: only the answer position is their own
    "duplicate-rows": (np.repeat(stems_batch(1, [2, 1], KCFG.max_seq, 2),
                                 [3, 1, 2], axis=0), KCFG.max_seq - 1),
    "unequal-groups": (stems_batch(2, [1, 5, 2], KCFG.max_seq, 2), 2),
    "shorter-than-max-seq": (stems_batch(3, [4, 3], KCFG.max_seq - 2, 2), 2),
    "no-common-prefix": (distinct_starts(5, KCFG.max_seq), 0),
    "batch-1": (stems_batch(4, [1], KCFG.max_seq, 3), 0),
}


@pytest.mark.parametrize("name", SHARED_BATCHES)
def test_deliberate_shared_prefix_matches_naive_beliefs(name):
    """The prefix split, and beliefs at every step against naive_beliefs."""
    tokens, want_p = SHARED_BATCHES[name]
    p_len, prefixes, group = shared_prefix(tokens)
    assert p_len == want_p
    assert np.array_equal(prefixes[group], tokens[:, :p_len])
    assert len(np.unique(prefixes, axis=0)) == len(prefixes)
    params = moved_params()
    got = deliberate(tokens, params, KCFG.k_max)
    ref = naive_beliefs(tokens, params, KCFG.k_max)
    assert got.shape == ref.shape == (KCFG.k_max, len(tokens), KCFG.vocab_size)
    assert np.abs(got - ref).max() < 1e-12
    assert np.abs(np.diff(got, axis=0)).max() > 1e-3


def test_deliberate_empty_batch_and_empty_sequences():
    params = moved_params()
    empty = np.zeros((0, KCFG.max_seq), dtype=int)
    assert deliberate(empty, params, 3).shape == (3, 0, KCFG.vocab_size)
    for tokens in ([], np.zeros((2, 0), dtype=int)):
        with pytest.raises(ShapeError):
            deliberate(tokens, params, 3)


def test_benchmark_stem_renderings_share_their_first_four_positions(tmp_path):
    config = ExperimentConfig(n_stems=3, holdout_stems=0, seed=0,
                              output_dir=str(tmp_path))
    world, bench = stage_gen_bench(config, write=False)
    for stem in range(0, len(bench.items), 3):
        tokens = np.array([world.encode(render_tokens(p))
                           for item in bench.items[stem:stem + 3]
                           for p in bench.permutations_for(item)])
        assert len(tokens) == 24
        p_len, prefixes, _ = shared_prefix(tokens)
        assert (p_len, len(prefixes)) == (4, 1)


def test_deliberate_shorter_k_is_an_exact_prefix():
    params = moved_params(np.float32)
    unshared = np.random.default_rng(5).integers(0, KCFG.vocab_size, size=(4, 5))
    for tokens in (unshared, SHARED_BATCHES["shuffled-stems"][0]):
        full = deliberate(tokens, params, KCFG.k_max)
        for k in (1, 3):
            assert np.array_equal(deliberate(tokens, params, k), full[:k])


def test_deliberate_float32_model_keeps_float32_activations(monkeypatch):
    params = moved_params(np.float32)
    unshared = np.random.default_rng(6).integers(0, KCFG.vocab_size, size=(2, 6))
    for tokens in (unshared, SHARED_BATCHES["shuffled-stems"][0]):
        seen = set()
        matmul = np.matmul

        def spy(*args, **kwargs):
            out = matmul(*args, **kwargs)
            seen.update(a.dtype for a in args)
            seen.add(out.dtype)
            return out

        monkeypatch.setattr(np, "matmul", spy)
        got = deliberate(tokens, params, 3)
        monkeypatch.undo()
        assert seen == {np.dtype(np.float32)}
        # the beliefs themselves are a float64 softmax of the float32 logits
        assert got.dtype == np.float64
        assert np.abs(got - deliberate(tokens, moved_params(), 3)).max() < 1e-4


def test_bare_run_deliberation_leaves_grads_unset():
    params = moved_params()
    dists = run_deliberation([1, 2, 3], params, k=3)
    assert all(isinstance(d.probs, np.ndarray) for d in dists)
    assert all(t.grad is None for _, t in params.named_tensors())


def assert_aligned_and_apart(obj, alias=None):
    """Every array field of obj starts on a 64-byte boundary, and no two
    share memory but the pair `alias`. The causal mask is a constant that
    no op writes, not a buffer."""
    arrays = [(name, a) for name, a in vars(obj).items()
              if isinstance(a, np.ndarray) and name != "mask"]
    for i, (name, a) in enumerate(arrays):
        assert a.ctypes.data % 64 == 0, name
        for other, b in arrays[i + 1:]:
            if {name, other} != alias:
                assert not np.shares_memory(a, b), (name, other)


def test_layer_buffers_are_aligned_and_share_no_memory(monkeypatch):
    """Training's Workspace, after a k = 3 step, and the buffers deliberate
    hands to layer_forward: at batch 1 and with a shared prefix."""
    params = moved_params(np.float32)
    tokens, _ = SHARED_BATCHES["shuffled-stems"]
    workspace = model.Workspace()
    loss_and_grads(tokens, np.arange(len(tokens)), params, 3, workspace)
    for keys, buf in workspace.caches:
        assert_aligned_and_apart(keys)
        # GELU's output overwrites its input, as in inference
        assert_aligned_and_apart(buf, alias={"act", "hidden"})
    assert_aligned_and_apart(workspace.grads)
    outs = workspace.outs
    assert len(outs) == len(params.prelude + params.coda) + 3 * len(
        params.recurrent)
    for i, a in enumerate(outs):
        assert a.ctypes.data % 64 == 0
        assert not any(np.shares_memory(a, b) for b in outs[i + 1:])

    seen, forward = [], model.layer_forward

    def spy(x, p, keys, buf, out=None):
        seen.append((keys, buf))
        forward(x, p, keys, buf, out)

    monkeypatch.setattr(model, "layer_forward", spy)
    # the rows', the answer row's and, with a shared prefix, the prefix's;
    # a coda pass of both steps has its own rows', answer row's and
    # prefix's, and the recurrence's answer buffers go unused
    for budget, sets in ((1, (2, 3)), (model._CODA_ROWS, (3, 5))):
        monkeypatch.setattr(model, "_CODA_ROWS", budget)
        for batch, want in zip((tokens[:1], tokens), sets):
            seen.clear()
            deliberate(batch, params, 2)
            assert len({id(b) for _, b in seen}) == want
            for keys, buf in seen:
                assert_aligned_and_apart(keys)
                # GELU's output overwrites its input in inference
                assert_aligned_and_apart(buf, alias={"act", "hidden"})


# -- coda passes --------------------------------------------------------------


@pytest.mark.parametrize("rows_per_step,n_steps,want", [
    (6, 6, 6),                       # every step in one pass
    (9, 30, 30),                     # a single question at reference k
    (6, 100, model._CODA_ROWS // 6),
    (model._CODA_ROWS, 30, 1),
    (model._CODA_ROWS + 1, 30, 1),   # a step over the budget: one per pass
    (252 * 9, 30, 1),                # a trace shard
    (0, 5, 1),                       # the empty batch
])
def test_coda_slots(rows_per_step, n_steps, want):
    assert model._coda_slots(rows_per_step, n_steps) == want


def coda_pass_cases():
    """(name, tokens, params) whose beliefs the coda's passes must not
    change by a bit: a 1-D question, unshared rows and a shared prefix."""
    for dtype in (np.float32, np.float64):
        params = moved_params(dtype)
        for name, tokens in (
                ("question", stems_batch(4, [1], KCFG.max_seq, 3)[0]),
                ("unshared", distinct_starts(5, KCFG.max_seq)),
                ("shared", SHARED_BATCHES["shuffled-stems"][0])):
            yield f"{name}-{np.dtype(dtype).name}", tokens, params


# budgets that stack every step, a partial last pass (4 + 2 steps of the
# question, 4 + 2 of the unshared rows) and the default
CODA_BUDGETS = [24, 120, model._CODA_ROWS, 10_000]


@pytest.mark.parametrize("budget", CODA_BUDGETS)
@pytest.mark.parametrize("steps", [None, [1, 3], [KCFG.k_max]])
def test_coda_passes_are_bit_identical_to_one_step_per_pass(monkeypatch,
                                                            budget, steps):
    k = KCFG.k_max
    for name, tokens, params in coda_pass_cases():
        monkeypatch.setattr(model, "_CODA_ROWS", 1)
        one = deliberate(tokens, params, k, steps=steps)
        one_dists = run_deliberation(tokens, params, k)
        monkeypatch.setattr(model, "_CODA_ROWS", budget)
        assert np.array_equal(deliberate(tokens, params, k, steps=steps),
                              one), name
        for want, got in zip(one_dists, run_deliberation(tokens, params, k)):
            assert np.array_equal(got.probs, want.probs), name
        if steps is None:
            assert np.abs(np.diff(one, axis=0)).max() > 1e-3, name


@pytest.mark.parametrize("budget", [1, model._CODA_ROWS, 10_000])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_coda_passes_over_two_shards_are_bit_identical(monkeypatch, budget,
                                                       dtype):
    """Two shards of unequal rows per step: with the default budget the
    first (48 rows beside 12 prefixes) stacks two steps, the second
    (108 rows) one."""
    tokens, _ = SHARD_BATCHES["duplicate-rows"]
    params = moved_params(dtype, SCFG)
    monkeypatch.setattr(model, "_CODA_ROWS", 1)
    one = model._deliberate(tokens, params, SCFG.k_max, 2)
    monkeypatch.setattr(model, "_CODA_ROWS", budget)
    assert model._shard_workers(len(tokens), 2) == 2
    assert np.array_equal(model._deliberate(tokens, params, SCFG.k_max, 2),
                          one)


@pytest.mark.parametrize("budget,passes", [
    (model._CODA_ROWS, 1),           # every step in one pass
    (24, 2),                         # 4 steps, then the last 2
    (1, KCFG.k_max),                 # one step per pass
])
def test_a_question_runs_the_coda_once_per_pass(monkeypatch, budget, passes):
    forward, calls = model.layer_forward, []

    def spy(*args, **kwargs):
        calls.append(1)
        forward(*args, **kwargs)

    monkeypatch.setattr(model, "_CODA_ROWS", budget)
    monkeypatch.setattr(model, "layer_forward", spy)
    k = KCFG.k_max
    run_deliberation(stems_batch(4, [1], KCFG.max_seq, 3)[0],
                     moved_params(np.float32), k)
    assert len(calls) == (KCFG.prelude_layers + k * KCFG.recurrent_layers
                          + passes * KCFG.coda_layers)


# -- row shards ---------------------------------------------------------------


SCFG = LoopedConfig(vocab_size=200, d_model=8, n_heads=2, prelude_layers=1,
                    recurrent_layers=2, coda_layers=2, max_seq=6, k_max=4)
ROWS = model._SHARD_ROWS


SHARD_BATCHES = {
    # name: (tokens, the prefix length the split must choose)
    "shuffled-stems": (stems_batch(10, [40] * 4, SCFG.max_seq, 3,
                                   SCFG.vocab_size), 3),
    "unequal-groups": (stems_batch(11, [5, 90, 17, 60, 1], SCFG.max_seq, 2,
                                   SCFG.vocab_size), 2),
    "no-common-prefix": (distinct_starts(3 * ROWS + 7, SCFG.max_seq,
                                         SCFG.vocab_size), 0),
    # 12 rows, each 13 times over: only the answer position is their own
    "duplicate-rows": (np.repeat(stems_batch(12, [8, 4], SCFG.max_seq, 2,
                                             SCFG.vocab_size), 13, axis=0),
                       SCFG.max_seq - 1),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", SHARD_BATCHES)
def test_sharded_deliberate_is_bit_identical_to_one_shard(name, dtype):
    tokens, want_p = SHARD_BATCHES[name]
    assert shared_prefix(tokens)[0] == want_p
    params = moved_params(dtype, SCFG)
    one = model._deliberate(tokens, params, SCFG.k_max, 1)
    for workers in (2, 3):
        assert model._shard_workers(len(tokens), workers) == workers
        got = model._deliberate(tokens, params, SCFG.k_max, workers)
        assert np.array_equal(got, one)
    assert np.array_equal(deliberate(tokens, params, SCFG.k_max), one)
    assert np.abs(np.diff(one, axis=0)).max() > 1e-3


@pytest.mark.parametrize("cores", [1, 2])
def test_deliberate_decodes_only_the_given_steps(cores):
    """deliberate(..., steps=S) is rows S - 1 of the full block, bit for
    bit, in one shard and in two."""
    tokens, _ = SHARD_BATCHES["shuffled-stems"]
    assert len(tokens) >= 2 * ROWS
    params = moved_params(np.float32, SCFG)
    k = SCFG.k_max
    assert model._shard_workers(len(tokens), cores) == cores
    full = model._deliberate(tokens, params, k, cores)
    for steps in ([k], [1, 3], [3, 1, 3], [2], range(1, k + 1)):
        got = model._deliberate(tokens, params, k, cores, steps=steps)
        assert np.array_equal(got, full[np.array(steps) - 1])
    assert np.array_equal(deliberate(tokens, params, k - 1, steps=[2, 3]),
                          full[[1, 2]])


def test_deliberate_rejects_steps_outside_one_to_k():
    params = moved_params(np.float32, SCFG)
    tokens = np.arange(2 * SCFG.max_seq).reshape(2, -1)
    for steps in ([], [0], [1, 3, 4], [-1]):
        with pytest.raises(ValueError):
            deliberate(tokens, params, 3, steps=steps)


def test_more_shards_than_cores_are_bit_identical_and_leave_no_threads():
    tokens = stems_batch(13, [24] * 20, SCFG.max_seq, 4, SCFG.vocab_size)
    params = moved_params(np.float32, SCFG)
    one = model._deliberate(tokens, params, SCFG.k_max, 1)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)      # switch threads as often as possible
    try:
        got = model._deliberate(tokens, params, SCFG.k_max, 8)
    finally:
        sys.setswitchinterval(interval)
    assert model._shard_workers(len(tokens), 8) == 8
    assert threading.active_count() == threads
    assert np.array_equal(got, one)


def test_deliberate_runs_shards_at_one_blas_thread(monkeypatch,
                                                   two_blas_threads):
    beliefs, seen = model._beliefs, []

    def spy(*args):
        seen.append((len(args[0]), two_blas_threads()))
        beliefs(*args)

    tokens = SHARD_BATCHES["shuffled-stems"][0][:2 * ROWS]
    params = moved_params(np.float32, SCFG)
    one = model._deliberate(tokens, params, SCFG.k_max, 1)
    monkeypatch.setattr(model, "_beliefs", spy)
    monkeypatch.setattr(model, "_usable_cores", lambda: 2)
    got = deliberate(tokens, params, SCFG.k_max)
    assert seen == [(ROWS, 1), (ROWS, 1)]
    assert two_blas_threads() == 2
    assert np.array_equal(got, one)


def _nan_pos(params):
    params.pos.data[0, 0] = np.nan


def _inf_final_gain(params):
    params.final_ln_g.data[0, 0] = np.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("corrupt,stage", [(_nan_pos, "prelude"),
                                           (_inf_final_gain, "coda")])
@pytest.mark.parametrize("shards", [1, 2])
def test_deliberate_names_the_stage_that_went_non_finite(
        monkeypatch, two_blas_threads, corrupt, stage, shards):
    """At batch 1 (every step in one coda pass) and in two shards; the
    caller's BLAS thread count is given back."""
    params = moved_params(np.float32, SCFG)
    corrupt(params)
    monkeypatch.setattr(model, "_usable_cores", lambda: 2)
    if shards == 1:
        tokens = SHARD_BATCHES["shuffled-stems"][0][0]
        assert model._coda_slots(SCFG.max_seq, SCFG.k_max) == SCFG.k_max
    else:
        tokens = SHARD_BATCHES["shuffled-stems"][0][:2 * ROWS]
    threads = threading.active_count()
    with pytest.raises(NumericError, match=stage):
        deliberate(tokens, params, SCFG.k_max)
    assert threading.active_count() == threads
    assert two_blas_threads() == 2


def test_deliberate_runs_one_shard_when_blas_threads_cannot_be_set(
        monkeypatch):
    beliefs, seen = model._beliefs, []

    def spy(*args):
        seen.append(len(args[0]))
        beliefs(*args)

    tokens = SHARD_BATCHES["shuffled-stems"][0][:2 * ROWS]
    params = moved_params(np.float32, SCFG)
    monkeypatch.setattr(model, "_usable_cores", lambda: 2)
    sharded = deliberate(tokens, params, SCFG.k_max)
    monkeypatch.setattr(model, "_OPENBLAS", None)
    monkeypatch.setattr(model, "_beliefs", spy)
    got = deliberate(tokens, params, SCFG.k_max)
    assert seen == [len(tokens)]
    assert np.array_equal(got, sharded)


@pytest.mark.parametrize("on_worker,error", [
    (True, NumericError("non-finite in a worker shard")),
    (False, KeyboardInterrupt()),
])
def test_an_error_in_a_shard_is_raised_once_every_worker_is_joined(
        monkeypatch, two_blas_threads, on_worker, error):
    """The caller's BLAS thread count is given back as well."""
    beliefs = model._beliefs

    def failing(*args):
        on_main = threading.current_thread() is threading.main_thread()
        if on_main != on_worker:
            raise error
        beliefs(*args)

    monkeypatch.setattr(model, "_beliefs", failing)
    monkeypatch.setattr(model, "_usable_cores", lambda: 3)
    tokens, _ = SHARD_BATCHES["no-common-prefix"]
    threads = threading.active_count()
    with pytest.raises(type(error)):
        deliberate(tokens, moved_params(np.float32, SCFG), SCFG.k_max)
    assert threading.active_count() == threads
    assert two_blas_threads() == 2


def test_an_interrupt_while_joining_stops_the_workers(monkeypatch):
    """The calling shard is done and waits for the workers when the
    interrupt comes; the workers must see it, stop and be joined."""
    beliefs, saw_stop = model._beliefs, []

    def worker_waits(ids, p_len, prefixes, group, params, steps, probs, stop):
        if threading.current_thread() is not threading.main_thread():
            deadline = time.monotonic() + 10
            while not stop and time.monotonic() < deadline:
                time.sleep(0.005)
            saw_stop.append(bool(stop))
        beliefs(ids, p_len, prefixes, group, params, steps, probs, stop)

    class InterruptedJoin(threading.Thread):
        interrupted = False

        def join(self, timeout=None):
            if not InterruptedJoin.interrupted:
                InterruptedJoin.interrupted = True
                raise KeyboardInterrupt
            super().join(timeout)

    monkeypatch.setattr(model, "_beliefs", worker_waits)
    monkeypatch.setattr(model.threading, "Thread", InterruptedJoin)
    tokens, _ = SHARD_BATCHES["no-common-prefix"]
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        model._deliberate(tokens, moved_params(np.float32, SCFG), SCFG.k_max,
                          3)
    assert threading.active_count() == threads
    assert saw_stop == [True, True]


def test_shard_floor_keeps_every_blas_row_tile_aligned():
    assert ROWS % 48 == 0            # 8-, 12- and 16-row tiles


def test_shards_are_contiguous_from_multiples_of_the_floor(monkeypatch):
    """A row's bits can depend on its place in a BLAS row tile, which some
    kernels (not every one) show; check the placement itself."""
    beliefs, seen = model._beliefs, []

    def spy(ids, p_len, prefixes, group, params, steps, probs, stop):
        seen.append(len(ids))
        beliefs(ids, p_len, prefixes, group, params, steps, probs, stop)

    monkeypatch.setattr(model, "_beliefs", spy)
    tokens, _ = SHARD_BATCHES["no-common-prefix"]     # 3 * ROWS + 7 rows
    model._deliberate(tokens, moved_params(np.float32, SCFG), 1, 3)
    assert sorted(seen) == [ROWS, ROWS, ROWS + 7]


@pytest.mark.parametrize("rows,cores,want", [
    (504, 2, 2),
    (504, 8, 8),
    (504, 1, 1),                     # one core
    (2 * ROWS - 1, 2, 1),            # below the floor
    (2 * ROWS, 2, 2),
    (32, 2, 1),
    (1, 2, 1),
    (0, 2, 1),
])
def test_shard_worker_count(rows, cores, want):
    assert model._shard_workers(rows, cores) == want
