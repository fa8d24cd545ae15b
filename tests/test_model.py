import numpy as np
import pytest

from loopscope.model import (
    LoopedConfig,
    answer_logits,
    deliberate,
    expected_param_count,
    init_params,
    prelude_forward,
    recurrent_step,
    run_deliberation,
)
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


def test_prelude_shape_and_determinism(params):
    tokens = [1, 2, 3, 4]
    h1 = prelude_forward(tokens, params)
    h2 = prelude_forward(tokens, params)
    assert h1.step == 0
    assert h1.h.shape == (4, CFG.d_model)
    assert np.array_equal(h1.h.data, h2.h.data)


def test_prelude_rejects_bad_tokens(params):
    with pytest.raises(ValueError):
        prelude_forward([0, CFG.vocab_size], params)
    with pytest.raises(Exception):
        prelude_forward(list(range(CFG.max_seq + 1)), params)


def test_prelude_matches_naive_oracle(params):
    tokens = np.array([3, 1, 4, 1, 5])
    x = params.embedding.data[tokens] + params.pos.data[:5]
    for layer in params.prelude:
        x = naive_layer_forward(x, layer, n_heads=CFG.n_heads)
    got = prelude_forward(tokens, params).h.data
    assert np.max(np.abs(got - x)) < 1e-6


def test_recurrent_step_purity_and_index(params):
    h0 = prelude_forward([5, 6, 7], params)
    h1 = recurrent_step(h0, params)
    h2 = recurrent_step(h1, params)
    assert (h0.step, h1.step, h2.step) == (0, 1, 2)
    h1b = recurrent_step(prelude_forward([5, 6, 7], params), params)
    assert np.array_equal(h1.h.data, h1b.h.data)


def test_recurrent_matches_unrolled_naive_oracle(params):
    tokens = np.array([2, 9, 11])
    state = prelude_forward(tokens, params)
    x = state.h.data.copy()
    for _ in range(3):
        for layer in params.recurrent:
            x = naive_layer_forward(x, layer, n_heads=CFG.n_heads)
    for _ in range(3):
        state = recurrent_step(state, params)
    assert np.max(np.abs(state.h.data - x)) < 1e-6


def test_k_max_enforced(params):
    state = prelude_forward([1], params)
    for _ in range(CFG.k_max):
        state = recurrent_step(state, params)
    with pytest.raises(ValueError):
        recurrent_step(state, params)


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
    # k=1 equals softmax(C(R(P(x)))) through the taped forward
    logits = answer_logits(recurrent_step(prelude_forward(tokens, params), params),
                           params).data[0]
    p = np.exp(logits - logits.max())
    p /= p.sum()
    assert np.max(np.abs(one[0].probs - p)) < 1e-12
    # prefix property, bit-exact
    for a, b in zip(short, full):
        assert np.array_equal(a.probs, b.probs)


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


def moved_params(dtype=np.float64):
    """Weights moved off their initial values so beliefs change per step."""
    params = init_params(KCFG, seed=3, dtype=dtype)
    rng = np.random.default_rng(0)
    for _, t in params.named_tensors():
        t.data += rng.normal(0.0, 0.3, t.data.shape).astype(dtype)
    return params


def taped_beliefs(tokens, params, k):
    """softmax(answer_logits) after i taped recurrent steps, i = 1..k."""
    state = prelude_forward(tokens, params)
    out = []
    for _ in range(k):
        state = recurrent_step(state, params)
        z = answer_logits(state, params).data.astype(np.float64)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        out.append(e / e.sum(axis=1, keepdims=True))
    return np.stack(out)


@pytest.mark.parametrize("batch,seq", [(3, KCFG.max_seq), (1, KCFG.max_seq),
                                       (2, KCFG.max_seq - 2)])
def test_deliberate_matches_taped_forward_at_every_step(batch, seq):
    params = moved_params()
    tokens = np.random.default_rng(batch).integers(0, KCFG.vocab_size,
                                                   size=(batch, seq))
    got = deliberate(tokens, params, KCFG.k_max)
    ref = taped_beliefs(tokens, params, KCFG.k_max)
    assert got.shape == ref.shape == (KCFG.k_max, batch, KCFG.vocab_size)
    assert got.dtype == np.float64
    assert np.abs(got - ref).max() < 1e-10
    # the beliefs move, so the comparison covers the recurrence
    assert np.abs(np.diff(got, axis=0)).max() > 1e-3


def test_deliberate_shorter_k_is_an_exact_prefix():
    params = moved_params(np.float32)
    tokens = np.random.default_rng(5).integers(0, KCFG.vocab_size, size=(4, 5))
    full = deliberate(tokens, params, KCFG.k_max)
    for k in (1, 3):
        assert np.array_equal(deliberate(tokens, params, k), full[:k])


def test_deliberate_float32_model_keeps_float32_activations(monkeypatch):
    params = moved_params(np.float32)
    tokens = np.random.default_rng(6).integers(0, KCFG.vocab_size, size=(2, 6))
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
