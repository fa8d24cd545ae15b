import numpy as np
import pytest

from loopscope.autograd import NumericError, Tensor2, cross_entropy_logits, finite_diff_check
from loopscope.model import LoopedConfig, answer_logits, init_params, prelude_forward, recurrent_step
from loopscope.taskgen import PermutedItem, build_world, generate_benchmark
from loopscope.training import (
    AdamW,
    TrainConfig,
    TrainLog,
    encode_dataset,
    evaluate_accuracy,
    sample_depth,
    train,
    train_step,
)


@pytest.fixture(scope="module")
def world():
    return build_world(seed=123)


@pytest.fixture(scope="module")
def bench(world):
    return generate_benchmark(world, n_stems=20, seed=7, n_permutations=4)


def small_config(world, **kw):
    defaults = dict(vocab_size=len(world.vocab), d_model=16, n_heads=2,
                    prelude_layers=1, recurrent_layers=1, coda_layers=1,
                    max_seq=13, k_max=10)
    defaults.update(kw)
    return LoopedConfig(**defaults)


def test_sample_depth_degenerate():
    cfg = TrainConfig(depth_support=(5,))
    rng = np.random.default_rng(0)
    assert all(sample_depth(rng, cfg) == 5 for _ in range(20))


def test_sample_depth_uniform_mean():
    cfg = TrainConfig()
    rng = np.random.default_rng(1)
    draws = [sample_depth(rng, cfg, k_max=30) for _ in range(100000)]
    assert np.mean(draws) == pytest.approx(15.5, abs=0.1)
    assert min(draws) == 1 and max(draws) == 30


def test_sample_depth_reproducible_and_validated():
    cfg = TrainConfig(depth_support=(1, 2, 3))
    a = [sample_depth(np.random.default_rng(2), cfg) for _ in range(10)]
    b = [sample_depth(np.random.default_rng(2), cfg) for _ in range(10)]
    assert a == b
    with pytest.raises(ValueError):
        TrainConfig(depth_support=(0, 5)).resolved_support(30)
    with pytest.raises(ValueError):
        TrainConfig(depth_support=(40,)).resolved_support(30)


def test_lr_schedule_warmup_and_cosine():
    cfg = TrainConfig(lr=1.0, warmup_steps=10, lr_decay="cosine")
    params = init_params(LoopedConfig(vocab_size=8, d_model=4, n_heads=1,
                                      prelude_layers=1, recurrent_layers=1,
                                      coda_layers=1, max_seq=4, k_max=2),
                         seed=0)
    opt = AdamW(params, cfg, total_steps=110)
    assert opt.lr_at(5) == pytest.approx(0.5)           # linear warmup
    assert opt.lr_at(10) == pytest.approx(1.0)          # peak at warmup end
    assert opt.lr_at(60) == pytest.approx(0.55)         # cosine midpoint
    assert opt.lr_at(110) == pytest.approx(0.1)         # floor: 10% of peak
    flat = AdamW(params, TrainConfig(lr=1.0, warmup_steps=10), total_steps=110)
    assert flat.lr_at(60) == pytest.approx(1.0)         # no decay by default
    with pytest.raises(ValueError):
        TrainConfig(lr_decay="linear")


def test_zero_lr_leaves_params_unchanged(world, bench):
    cfg = small_config(world)
    params = init_params(cfg, seed=0)
    before = {n: t.data.copy() for n, t in params.named_tensors()}
    items = [p for it in bench.items if it.variant == "Base"
             for p in bench.permutations_for(it)][:8]
    tokens, targets = encode_dataset(items, world)
    opt = AdamW(params, TrainConfig(lr=0.0))
    train_step(params, (tokens, targets), k=2, optimizer=opt)
    for n, t in params.named_tensors():
        assert np.array_equal(before[n], t.data), n


def test_single_batch_overfit_loss_decreases(world, bench):
    cfg = small_config(world)
    params = init_params(cfg, seed=1)
    items = [p for it in bench.items if it.variant == "Easy"
             for p in bench.permutations_for(it)][:8]
    batch = encode_dataset(items, world)
    opt = AdamW(params, TrainConfig(lr=3e-3, warmup_steps=1))
    losses = [train_step(params, batch, k=3, optimizer=opt) for _ in range(50)]
    upticks = sum(b > a for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]
    assert upticks <= 5


def test_unrolled_loop_gradcheck_float64(world, bench):
    cfg = small_config(world, d_model=8, max_seq=13)
    params = init_params(cfg, seed=2, dtype=np.float64)
    items = [p for it in bench.items if it.variant == "Base"
             for p in bench.permutations_for(it)][:2]
    tokens, targets = encode_dataset(items, world)

    def f():
        state = prelude_forward(tokens, params)
        for _ in range(3):
            state = recurrent_step(state, params)
        return cross_entropy_logits(answer_logits(state, params), targets)

    tensors = [t for _, t in params.named_tensors()]
    err = finite_diff_check(f, tensors, eps=1e-5, max_coords=3, seed=0)
    assert err <= 1e-4


def test_nan_loss_aborts(world, bench):
    cfg = small_config(world)
    params = init_params(cfg, seed=3)
    params.embedding.data[...] = np.nan
    items = [p for it in bench.items if it.variant == "Base"
             for p in bench.permutations_for(it)][:4]
    batch = encode_dataset(items, world)
    opt = AdamW(params, TrainConfig())
    with pytest.raises(NumericError):
        train_step(params, batch, k=1, optimizer=opt)


def test_chance_accuracy_untrained(world):
    # a single random init can be biased on correlated items (permutations of
    # the same stems), so average over several inits
    bench = generate_benchmark(world, n_stems=60, seed=8, n_permutations=5)
    cfg = small_config(world)
    items = [p for it in bench.items if it.variant != "NoCorrect"
             for p in bench.permutations_for(it)]
    assert len(items) >= 1000 * 0.6
    accs = [evaluate_accuracy(init_params(cfg, seed=s), items, world, (2,))[2]
            for s in (4, 5, 6, 7)]
    assert 0.25 == pytest.approx(np.mean(accs), abs=0.05)


def test_lookup_params_memorize_one_item(world, bench):
    cfg = small_config(world)
    params = init_params(cfg, seed=5)
    item = next(it for it in bench.items if it.variant == "Base")
    perm = bench.permutations_for(item)[0]
    target = world.token_to_id[perm.options[perm.correct_index]]
    # hand-built lookup: zero all residual branches, steer the final norm
    for _, t in params.named_tensors():
        if t is params.embedding or t is params.pos:
            continue
        t.data[...] = 0.0
    params.final_ln_b.data[0, 0] = 10.0
    params.embedding.data[...] = 0.0
    params.embedding.data[target, 0] = 1.0
    assert evaluate_accuracy(params, [perm], world, (1, 3)) == {1: 1.0, 3: 1.0}


def test_accuracy_invariant_over_full_permutation_sweep(world, bench):
    from itertools import permutations as all_perms
    cfg = small_config(world)
    params = init_params(cfg, seed=6)
    base_items = [it for it in bench.items if it.variant == "Base"][:10]
    accs = []
    for shift in range(2):
        items = []
        for it in base_items:
            for i, perm in enumerate(all_perms(range(4))):
                # shifting which ordering is "base" must not matter on average
                rotated = tuple(perm[(j + shift) % 4] for j in range(4))
                items.append(PermutedItem(item=it, perm=rotated, perm_index=i))
        accs.append(evaluate_accuracy(params, items, world, (2,))[2])
    assert accs[0] == pytest.approx(accs[1], abs=1e-12)


def test_evaluate_rejects_nocorrect_and_empty(world, bench):
    cfg = small_config(world)
    params = init_params(cfg, seed=7)
    nc = next(it for it in bench.items if it.variant == "NoCorrect")
    with pytest.raises(ValueError):
        evaluate_accuracy(params, bench.permutations_for(nc), world, (1,))
    with pytest.raises(ValueError):
        evaluate_accuracy(params, [], world, (1,))
    items = bench.permutations_for(bench.items[0])
    for depths in ((), (0, 2), (cfg.k_max + 1,)):
        with pytest.raises(ValueError):
            evaluate_accuracy(params, items, world, depths)


def test_one_unroll_reads_every_depth(world, bench):
    cfg = small_config(world)
    params = init_params(cfg, seed=12)
    items = [p for it in bench.items if it.variant != "NoCorrect"
             for p in bench.permutations_for(it)][:40]
    depths = (3, 1, cfg.k_max)
    accs = evaluate_accuracy(params, items, world, depths, batch_size=16)
    assert list(accs) == list(depths)
    for d in depths:
        assert accs[d] == evaluate_accuracy(params, items, world, (d,))[d]


def test_train_loop_and_log_csv(world, bench, tmp_path):
    cfg = small_config(world)
    params = init_params(cfg, seed=8)
    items = [p for it in bench.items if it.variant != "NoCorrect"
             for p in bench.permutations_for(it)]
    tcfg = TrainConfig(epochs=2, batch_size=16, seed=9,
                       depth_support=tuple(range(1, 6)))
    log = train(params, items, world, tcfg, eval_items=items[:20],
                eval_depths=(2, 4))
    assert len(log.epochs) == 2
    assert all(np.isfinite(l) for l in log.mean_losses)
    assert all(0.0 <= a <= 1.0 for accs in log.depth_accuracies
               for a in accs.values())
    path = tmp_path / "trainlog.csv"
    log.to_csv(path)
    import csv
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["epoch", "mean_loss", "acc_k2", "acc_k4"]
    assert len(rows) == 3


def test_training_determinism(world, bench):
    cfg = small_config(world)
    items = [p for it in bench.items if it.variant == "Base"
             for p in bench.permutations_for(it)][:32]
    tcfg = TrainConfig(epochs=1, batch_size=8, seed=10,
                       depth_support=(1, 2, 3))
    outs = []
    for _ in range(2):
        params = init_params(cfg, seed=11)
        train(params, items, world, tcfg)
        outs.append({n: t.data.copy() for n, t in params.named_tensors()})
    for n in outs[0]:
        assert np.array_equal(outs[0][n], outs[1][n]), n
