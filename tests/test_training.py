import contextlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import loopscope
from loopscope import model, training
from loopscope.autograd import NumericError, finite_diff_check
from loopscope.layers import Workspace
from loopscope.model import LoopedConfig, init_params, loss_and_grads
from loopscope.taskgen import PermutedItem, build_world, generate_benchmark
from loopscope.training import (
    AdamW,
    TrainConfig,
    TrainLog,
    encode_dataset,
    evaluate_accuracy,
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


def test_train_draws_each_depth_uniformly_from_one_to_k_max(world, bench,
                                                            monkeypatch):
    """Each step's depth is rng.integers(k_max) + 1, drawn from the
    generator seeded with config.seed after that epoch's permutation: a
    replay of the generator gives every depth that train_step received."""
    cfg = small_config(world, k_max=3)
    items = [p for it in bench.items if it.variant == "Easy"
             for p in bench.permutations_for(it)][:12]
    tcfg = TrainConfig(epochs=2, batch_size=2, seed=3)
    ks, real = [], training.train_step

    def recording(params, batch, k, optimizer, workspace=None):
        ks.append(k)
        return real(params, batch, k, optimizer, workspace)

    monkeypatch.setattr(training, "train_step", recording)
    train(init_params(cfg, seed=0), items, world, tcfg)
    rng = np.random.default_rng(tcfg.seed)
    want = []
    for _ in range(tcfg.epochs):
        rng.permutation(len(items))
        want += [int(rng.integers(cfg.k_max)) + 1
                 for _ in range(len(items) // tcfg.batch_size)]
    assert ks == want
    assert set(ks) == {1, 2, 3}


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
    for bad in (dict(lr_decay="linear"), dict(batch_size=0),
                dict(warmup_steps=-1), dict(beta1=1.0), dict(beta2=1.0),
                dict(beta1=-0.1), dict(eps=0.0), dict(weight_decay=-0.01),
                dict(epochs=0)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


@pytest.mark.parametrize("decay", ["none", "cosine"])
def test_adamw_step_matches_hand_computation(decay):
    """One AdamW step, bit for bit. Under cosine decay lr_at returns an
    np.float64 (from np.cos), and NumPy's promotion rules compute the update
    and the weight decay in float64 before the float32 weight takes them;
    without decay the learning rate is a Python float and the step stays in
    float32."""
    config = LoopedConfig(vocab_size=8, d_model=4, n_heads=1, prelude_layers=1,
                          recurrent_layers=1, coda_layers=1, max_seq=4,
                          k_max=2)
    params = init_params(config, seed=0)
    rng = np.random.default_rng(4)
    for _, t in params.named_tensors():
        t.data += rng.normal(0.0, 0.5, t.data.shape).astype(np.float32)
        t.grad = rng.normal(0.0, 1e-3, t.data.shape).astype(np.float32)
    cfg = TrainConfig(lr=1e-2, warmup_steps=0, weight_decay=0.1,
                      lr_decay=decay)
    opt = AdamW(params, cfg, total_steps=10)
    lr = opt.lr_at(1)
    assert type(lr) is (np.float64 if decay == "cosine" else float)

    f32, f64 = np.float32, np.float64
    b1, b2 = cfg.beta1, cfg.beta2
    want = {}
    for name, t in params.named_tensors():
        zeros = np.zeros_like(t.data)
        m = f32(b1) * zeros + f32(1 - b1) * t.grad
        v = f32(b2) * zeros + f32(1 - b2) * t.grad * t.grad
        mhat, vhat = m / f32(1.0 - b1 ** 1), v / f32(1.0 - b2 ** 1)
        denom = np.sqrt(vhat) + f32(cfg.eps)
        decays = min(t.data.shape) > 1
        if decay == "cosine":
            w = (t.data.astype(f64) - f64(lr) * mhat.astype(f64)
                 / denom.astype(f64)).astype(f32)
            if decays:
                w = (w.astype(f64) - f64(lr) * cfg.weight_decay
                     * w.astype(f64)).astype(f32)
        else:
            w = t.data - f32(lr) * mhat / denom
            if decays:
                w = w - f32(lr * cfg.weight_decay) * w
        assert w.dtype == np.float32
        want[name] = w
    opt.step()
    for name, t in params.named_tensors():
        assert np.array_equal(t.data, want[name]), name


def test_workspace_reuse_is_invisible(world, bench, monkeypatch):
    """train() keeps one Workspace for all its steps. The same steps, each
    with a fresh workspace, give the same losses and weights bit for bit,
    over depths that go up and down and an epoch's smaller last batch."""
    cfg = small_config(world, k_max=3)
    items = [p for it in bench.items if it.variant == "Easy"
             for p in bench.permutations_for(it)][:10]
    tcfg = TrainConfig(epochs=2, batch_size=4, seed=2, lr=3e-3,
                       warmup_steps=2, lr_decay="cosine")
    steps, real = [], training.train_step

    def recording(params, batch, k, optimizer, workspace=None):
        loss = real(params, batch, k, optimizer, workspace)
        steps.append((batch, k, loss, workspace))
        return loss

    monkeypatch.setattr(training, "train_step", recording)
    reused = init_params(cfg, seed=12)
    train(reused, items, world, tcfg)
    monkeypatch.undo()

    ks = [k for _, k, _, _ in steps]
    assert [len(b[0]) for b, _, _, _ in steps] == [4, 4, 2] * 2
    assert any(a < b for a, b in zip(ks, ks[1:]))
    assert any(a > b for a, b in zip(ks, ks[1:]))
    assert len({id(w) for *_, w in steps}) == 1 and steps[0][3] is not None
    fresh = init_params(cfg, seed=12)
    opt = AdamW(fresh, tcfg, total_steps=len(steps))
    for batch, k, loss, _ in steps:
        assert train_step(fresh, batch, k, opt) == loss
    for (name, a), (_, b) in zip(reused.named_tensors(),
                                 fresh.named_tensors()):
        assert np.array_equal(a.data, b.data), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grads_are_overwritten_slices_of_one_vector(world, bench, dtype):
    """Each loss_and_grads on a workspace overwrites its gradients rather
    than adding to the last call's: two calls give the same bits. Every
    .grad is a view of the workspace's one vector, in the weights' dtype."""
    params = init_params(small_config(world, k_max=3), seed=5, dtype=dtype)
    items = [p for it in bench.items if it.variant == "Easy"
             for p in bench.permutations_for(it)][:6]
    tokens, targets = encode_dataset(items, world)
    workspace = Workspace()
    runs = []
    for _ in range(2):
        loss_and_grads(tokens, targets, params, 3, workspace)
        runs.append([t.grad.copy() for _, t in params.named_tensors()])
    for a, b, (name, t) in zip(*runs, params.named_tensors()):
        assert np.array_equal(a, b), name
        assert t.grad.dtype == dtype, name
        assert np.shares_memory(t.grad, workspace.grad), name
    assert workspace.grad.dtype == dtype
    assert workspace.grad.size == params.n_params()


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

    tensors = [t for _, t in params.named_tensors()]

    def f():
        return (loss_and_grads(tokens, targets, params, 3),
                [t.grad for t in tensors])

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
    accs = evaluate_accuracy(params, items, world, depths)
    assert list(accs) == list(depths)
    for d in depths:
        assert accs[d] == evaluate_accuracy(params, items, world, (d,))[d]


def test_train_loop_and_log_csv(world, bench, tmp_path):
    cfg = small_config(world, k_max=5)
    params = init_params(cfg, seed=8)
    items = [p for it in bench.items if it.variant != "NoCorrect"
             for p in bench.permutations_for(it)]
    tcfg = TrainConfig(epochs=2, batch_size=16, seed=9)
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
    cfg = small_config(world, k_max=3)
    items = [p for it in bench.items if it.variant == "Base"
             for p in bench.permutations_for(it)][:32]
    tcfg = TrainConfig(epochs=1, batch_size=8, seed=10)
    outs = []
    for _ in range(2):
        params = init_params(cfg, seed=11)
        train(params, items, world, tcfg)
        outs.append({n: t.data.copy() for n, t in params.named_tensors()})
    for n in outs[0]:
        assert np.array_equal(outs[0][n], outs[1][n]), n


def test_training_memory_stays_bounded():
    """At reference dims (vocab 45, batch 32, seq 9, k = 30) the 124 layer
    applications' caches, outputs and the forward scratch they share total
    at most 52 MiB: each cache keeps what a GEMM or a reduction produced
    but GELU's input and the attention context, and the backward rebuilds
    those two and the elementwise results. A warm train_step
    allocates at most 1 MiB above what it starts with, and ends holding at
    most 64 KiB more: the gradients are written into the workspace's one
    vector, not into new arrays (NumPy reports its arrays to
    tracemalloc)."""
    params = init_params(LoopedConfig(vocab_size=45, max_seq=9, k_max=30),
                         seed=0)
    rng = np.random.default_rng(0)
    batch = (rng.integers(0, 45, size=(32, 9)), rng.integers(0, 45, size=32))
    opt = AdamW(params, TrainConfig(lr_decay="cosine"), total_steps=10)
    workspace = Workspace()
    train_step(params, batch, 30, opt, workspace)
    tracemalloc.start()
    try:
        train_step(params, batch, 30, opt, workspace)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert end <= 64 * 2 ** 10
    assert peak <= 2 ** 20
    assert len(workspace.caches) == 2 + 4 * 30 + 2
    arrays = {id(a): a for cache in workspace.caches for obj in cache
              for a in vars(obj).values() if isinstance(a, np.ndarray)}
    arrays.update((id(a), a) for a in workspace.outs)
    assert sum(a.nbytes for a in arrays.values()) <= 52 * 2 ** 20


def test_training_runs_at_one_blas_thread(world, bench, monkeypatch,
                                         two_blas_threads):
    """Every forward of a bare train_step and of train reads 1 BLAS thread,
    and train's per-epoch evaluation, which takes the same pin between
    steps, does not deadlock; the caller's count is back after each."""
    forward, seen = model.stack_forward, []

    def spy(*args):
        seen.append(two_blas_threads())
        return forward(*args)

    monkeypatch.setattr(model, "stack_forward", spy)
    params = init_params(small_config(world, k_max=3), seed=0)
    items = [p for it in bench.items if it.variant == "Base"
             for p in bench.permutations_for(it)][:8]
    train_step(params, encode_dataset(items[:4], world), 2,
               AdamW(params, TrainConfig()))
    assert seen == [1]
    assert two_blas_threads() == 2
    train(params, items, world, TrainConfig(epochs=2, batch_size=4),
          eval_items=items, eval_depths=(1, 3))
    assert seen == [1] * 5
    assert two_blas_threads() == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("error", [None, NumericError, KeyboardInterrupt])
def test_a_training_step_gives_the_blas_thread_count_back(
        world, bench, monkeypatch, two_blas_threads, error):
    """The step reads 1 thread, and the caller's 2 are back, with the pin
    free, after a normal return, a non-finite loss and an interrupt."""
    cross_entropy, seen = model.cross_entropy, []

    def spy(logits, targets):
        seen.append(two_blas_threads())
        if error is KeyboardInterrupt:
            raise KeyboardInterrupt
        return cross_entropy(logits, targets)

    monkeypatch.setattr(model, "cross_entropy", spy)
    params = init_params(small_config(world), seed=3)
    if error is NumericError:
        params.embedding.data[...] = np.nan
    items = [p for it in bench.items if it.variant == "Base"
             for p in bench.permutations_for(it)][:4]
    with pytest.raises(error) if error else contextlib.nullcontext():
        train_step(params, encode_dataset(items, world), 2,
                   AdamW(params, TrainConfig()))
    assert seen == [1]
    assert two_blas_threads() == 2
    assert not model._BLAS_PIN.locked()


# Six steps at reference dims whose weights differ between 1 and 2 BLAS
# threads under OpenBLAS's Haswell kernel unless training holds 1 thread.
# Prints the kernel, the caller's thread count and the weights' hash.
_HASWELL_STEPS = """
import ctypes, glob, hashlib, os
import numpy as np
from loopscope import model
from loopscope.layers import Workspace
from loopscope.training import AdamW, TrainConfig, train_step

libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                    "numpy.libs", "lib*openblas*")
corename = ctypes.CDLL(glob.glob(libs)[0]).scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
params = model.init_params(model.LoopedConfig(vocab_size=45), seed=0)
opt = AdamW(params, TrainConfig(lr_decay="cosine", warmup_steps=5),
            total_steps=6)
rng, workspace = np.random.default_rng(1), Workspace()
for k in (1, 30, 8, 17, 3, 12):
    batch = rng.integers(45, size=(32, 9)), rng.integers(45, size=32)
    train_step(params, batch, k, opt, workspace)
digest = hashlib.sha256()
for _, t in params.named_tensors():
    digest.update(t.data.tobytes())
print(corename().decode(), model._OPENBLAS[0](), digest.hexdigest())
"""


def test_training_bytes_do_not_depend_on_the_blas_thread_count():
    """Under the Haswell kernel, whose rounding depends on the thread
    count, six steps with the count unset (one per core) and at 1 give
    bit-identical weights."""
    if model._OPENBLAS is None:
        pytest.skip("NumPy does not run on its bundled OpenBLAS")
    src = os.path.dirname(os.path.dirname(loopscope.__file__))
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                           "OMP_NUM_THREADS")}
    env.update(OPENBLAS_CORETYPE="Haswell", PYTHONPATH=src)
    runs = []
    for threads in (None, "1"):
        run_env = env if threads is None else {
            **env, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", _HASWELL_STEPS],
                              capture_output=True, text=True, env=run_env,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append(done.stdout.split())
    (core, unset, weights), (_, one, weights_at_one) = runs
    if core != "Haswell" or int(unset) < 2:
        pytest.skip(f"needs the Haswell kernel and 2 BLAS threads, "
                    f"got {core} at {unset}")
    assert int(one) == 1
    assert weights == weights_at_one
