"""End-to-end acceptance suite.

One test per acceptance criterion, named for what it checks; each prints a
single PASS line on success (visible with -v via the test outcome, and in
captured output). The reference model (d=64, 2/4/2 layers, 30 recurrence
steps) is trained once per session and shared across the trained-model
criteria. On a 2-core x86 box (OpenBLAS's SkylakeX kernel) that session
fixture took 268 s and 342 s in two runs, and the criteria a few seconds
more.
"""

import csv
import itertools
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest

from loopscope.autograd import Tensor2, finite_diff_check
from loopscope.checkpoint import load_checkpoint, save_checkpoint
from loopscope.cli import main as cli_main
from loopscope.layers import (
    Workspace,
    init_layer,
    stack_backward,
    stack_forward,
)
from loopscope.metrics import (
    aggregate_stats,
    belief_trajectory,
    bootstrap_ci,
    detect_backtracks,
    entropy,
    exploration_end,
    step_kl,
)
from loopscope.model import (
    LoopedConfig,
    cross_entropy,
    init_params,
    loss_and_grads,
    run_deliberation,
)
from loopscope.pipeline import (
    ExperimentConfig,
    run_experiment,
    split_stems,
    verify,
)
from loopscope.seeds import derive_seed
from loopscope.taskgen import RENDER_LEN, render_tokens
from loopscope.training import TrainConfig, evaluate_accuracy
from tests.test_metrics import make_traj

# reference experiment: ExperimentConfig()'s defaults, d=64, 2/4/2 layers,
# k=30, trained with uniform depth sampling on Easy permutations of the
# training stems and Base permutations of the known half of them (train
# 270 s, trace of 5760 rows 7.6 s, one run on a 2-core x86 box)
ACCEPT_CONFIG = ExperimentConfig()
K = ACCEPT_CONFIG.k


@pytest.fixture(scope="session")
def experiment(tmp_path_factory):
    """Train the reference model once; trace the full benchmark once."""
    from loopscope.pipeline import (
        stage_analyze,
        stage_gen_bench,
        stage_trace,
        stage_train,
    )
    out = tmp_path_factory.mktemp("acceptance")
    config = replace(ACCEPT_CONFIG, output_dir=str(out))
    world, bench = stage_gen_bench(config, write=False)
    params, log = stage_train(config, world, bench, write=False)
    trajectories = stage_trace(config, world, bench, params, write=False)
    report = stage_analyze(config, trajectories, write=False)
    return config, world, bench, params, trajectories, report


def held_out(config, bench, variant):
    train_ids = set(split_stems(config, bench))
    return [p for it in bench.items
            if it.variant == variant and it.item_id not in train_ids
            for p in bench.permutations_for(it)]


def test_autodiff_soundness_two_layer_stack_and_unrolled_loop():
    """finite-difference max relative error <= 1e-4, float64."""
    rng = np.random.default_rng(0)
    d, heads, seq, batch = 8, 2, 6, 2
    layers = [init_layer(d, 4 * d, rng, proj_std=0.3, dtype=np.float64)
              for _ in range(2)]
    x = Tensor2(rng.normal(0, 1, (batch * seq, d)))
    targets = rng.integers(0, d, size=batch * seq)
    weights = [t for lp in layers for _, t in lp.tensors()]

    def two_layer():
        workspace = Workspace()
        workspace.bind_grads(weights)
        states, caches = stack_forward(x.data, layers, heads, seq, workspace)
        loss, dh = cross_entropy(states[-1], targets)
        dx = stack_backward(dh, states, caches, workspace)
        return loss, [dx] + [t.grad for t in weights]

    tensors = [x] + weights
    err = finite_diff_check(two_layer, tensors, eps=1e-5, max_coords=4, seed=1)
    assert err <= 1e-4, f"two-layer stack gradcheck error {err}"

    cfg = LoopedConfig(vocab_size=12, d_model=8, n_heads=2, prelude_layers=1,
                       recurrent_layers=1, coda_layers=1, max_seq=5, k_max=5)
    params = init_params(cfg, seed=2, dtype=np.float64)
    tokens = np.random.default_rng(3).integers(0, 12, size=(2, 5))
    tgt = np.random.default_rng(4).integers(0, 12, size=2)
    tensors = [t for _, t in params.named_tensors()]

    def looped_k3():
        return loss_and_grads(tokens, tgt, params, 3), [t.grad for t in tensors]

    err = finite_diff_check(looped_k3, tensors, eps=1e-5, max_coords=3, seed=5)
    assert err <= 1e-4, f"k=3 unrolled loop gradcheck error {err}"
    print("PASS autodiff soundness: gradcheck <= 1e-4 on 2-layer stack "
          "and k=3 unrolled loop")


def test_decoder_readiness_all_depths_on_held_out_inputs(experiment):
    """sum p_i = 1 +- 1e-6 and p_i > 0 for every i in 1..30, 100 held-out."""
    config, world, bench, params, _, _ = experiment
    held = held_out(config, bench, "Base")[:100]
    assert len(held) == 100
    tokens = np.stack([world.encode(render_tokens(p)) for p in held])
    dists = run_deliberation(tokens, params, K)
    assert [d.step for d in dists] == list(range(1, K + 1))
    for i, dist in enumerate(dists, start=1):
        probs = dist.probs
        assert probs.shape == (100, len(world.vocab))
        sums = probs.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-6), \
            f"step {i}: prob sums off by {np.abs(sums - 1).max()}"
        assert np.all(probs > 0), f"step {i}: zero probability"
    print("PASS decoder-readiness: sum p_i = 1 +- 1e-6, p_i > 0 for "
          "i in 1..30 on 100 held-out inputs")


def test_depth_robustness_easy_accuracy_at_four_depths(experiment):
    """>= 75% accuracy on the benchmark's Easy items at k in {4, 8, 16, 30};
    held-out Easy accuracy reported alongside."""
    config, world, bench, params, _, _ = experiment
    easy = [p for it in bench.items if it.variant == "Easy"
            for p in bench.permutations_for(it)]
    accs = evaluate_accuracy(params, easy, world, (4, 8, 16, 30))
    held_accs = evaluate_accuracy(params, held_out(config, bench, "Easy"),
                                  world, (4, 8, 16, 30))
    for k, acc in accs.items():
        assert acc >= 0.75, f"Easy accuracy {acc:.3f} at depth {k} < 0.75"
    print("PASS depth robustness: Easy accuracy "
          + ", ".join(f"k={k}: {a:.3f}" for k, a in accs.items())
          + " (all >= 0.75; chance 0.25; held-out: "
          + ", ".join(f"{a:.3f}" for a in held_accs.values()) + ")")


def test_directional_variant_effects(experiment):
    """Base explores longer than Easy; NoCorrect ends higher-entropy than
    Base; both 95% bootstrap CIs exclude 0."""
    _, _, _, _, _, report = experiment
    exp_diff = report.summary["exploration_diff_Base_minus_Easy"]
    assert exp_diff is not None, "no exploration instances in Base or Easy"
    assert exp_diff.value > 0 and exp_diff.ci_low > 0, \
        (f"exploration Base - Easy = {exp_diff.value:.3f} "
         f"CI [{exp_diff.ci_low:.3f}, {exp_diff.ci_high:.3f}]")
    ent_diff = report.summary["final_entropy_diff_NoCorrect_minus_Base"]
    assert ent_diff is not None
    assert ent_diff.value > 0 and ent_diff.ci_low > 0, \
        (f"final entropy NoCorrect - Base = {ent_diff.value:.3f} "
         f"CI [{ent_diff.ci_low:.3f}, {ent_diff.ci_high:.3f}]")
    print(f"PASS directional variant effects: exploration Base-Easy "
          f"{exp_diff.value:.3f} CI [{exp_diff.ci_low:.3f}, "
          f"{exp_diff.ci_high:.3f}]; final entropy NoCorrect-Base "
          f"{ent_diff.value:.3f} CI [{ent_diff.ci_low:.3f}, "
          f"{ent_diff.ci_high:.3f}] (both exclude 0)")


def _reference_detect(seq, min_run=3):
    """Independent brute-force backtrack reference built on groupby."""
    runs, pos = [], 0
    for sym, grp in groupby(seq):
        n = len(list(grp))
        runs.append((sym, pos, pos + n - 1))
        pos += n
    events = []
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            a, alo, ahi = runs[i]
            b, blo, bhi = runs[j]
            if (ahi - alo + 1 >= min_run and bhi - blo + 1 >= min_run
                    and a != b and b == seq[-1]):
                events.append((a, b, alo, ahi, blo, bhi))
    return sorted(events, key=lambda e: (e[2], e[4]))


def _naive_exploration_end(series, tol=0.01, window=3):
    for i in range(len(series) - window + 1):
        if all(x <= tol for x in series[i:i + window]):
            return i
    return None


def test_detector_oracle_equivalence_exhaustive_and_fuzzed():
    """detect_backtracks on all 3^10 length-10 sequences; exploration_end on
    10^4 fuzzed KL series."""
    for seq in itertools.product(range(3), repeat=10):
        got = [(e.abandoned, e.adopted, e.a_start, e.a_end, e.b_start, e.b_end)
               for e in detect_backtracks(seq)]
        assert got == _reference_detect(seq), f"mismatch on {seq}"
    rng = np.random.default_rng(6)
    for _ in range(10000):
        n = int(rng.integers(0, 40))
        series = list(rng.exponential(rng.uniform(0.002, 0.1), size=n))
        tol = float(rng.uniform(0.005, 0.05))
        window = int(rng.integers(1, 5))
        assert exploration_end(series, tol=tol, window=window) == \
            _naive_exploration_end(series, tol=tol, window=window)
    print("PASS detector oracle equivalence: all 3^10 argmax sequences + "
          "10^4 fuzzed KL series")


def test_metric_oracles_against_independent_implementation():
    """entropy/step_kl within 1e-9 of a math.fsum implementation on 10^4
    random distribution pairs; KL never negative."""
    rng = np.random.default_rng(7)
    for _ in range(10000):
        n = int(rng.integers(2, 50))
        alpha = rng.uniform(0.1, 3.0)
        p = rng.dirichlet(np.full(n, alpha))
        q = rng.dirichlet(np.full(n, alpha))
        ent_ref = -math.fsum(x * math.log(x) for x in p if x > 0)
        assert abs(entropy(p) - ent_ref) <= 1e-9
        kl_ref = math.fsum(x * math.log(x / max(y, 1e-12))
                           for x, y in zip(p, q) if x > 0)
        kl = step_kl(p, q)
        assert abs(kl - kl_ref) <= 1e-9
        assert kl >= 0, "KL nonnegativity violated"
    print("PASS metric oracles: entropy/KL within 1e-9 of independent "
          "implementation on 10^4 pairs; KL >= 0 throughout")


def test_bootstrap_statistics():
    """CI width within 20% of closed form on 1000 standard normals;
    zero-width CI on constant input."""
    vals = np.random.default_rng(8).standard_normal(1000)
    ci = bootstrap_ci(vals, n_resamples=10000, seed=9)
    width = ci.ci_high - ci.ci_low
    expected = 2 * 1.96 / math.sqrt(1000)
    rel = abs(width - expected) / expected
    assert rel <= 0.20, f"width {width:.4f} vs {expected:.4f} ({rel:.1%} off)"
    const = bootstrap_ci([2.5] * 40, seed=10)
    assert const.ci_low == const.ci_high == const.value == 2.5
    print(f"PASS bootstrap statistics: width {width:.4f} within "
          f"{rel:.1%} of closed-form {expected:.4f}; constant input -> "
          "zero-width CI")


def test_table1_machinery_integer_exact():
    """Hand-built trajectories: prevalence, uplift, rank histogram, and
    adopted-correct fraction all integer-exact."""
    bt_a = [0, 0, 0, 3, 3, 3]     # abandons option 0 (rank 1), adopts correct
    bt_b = [1, 1, 1, 3, 3, 3]     # abandons option 1 (rank 2), adopts correct
    bt_c = [2, 2, 2, 0, 0, 0]     # abandons option 2 (rank 3), adopts wrong
    stay = [3, 3, 3, 3, 3, 3]
    sims = (0.9, 0.8, 0.7, 1.0)   # correct option is index 3
    trajs = [
        make_traj("q1", "Base", 0, bt_a, correct=3, sims=sims),
        make_traj("q2", "Base", 0, bt_b, correct=3, sims=sims),
        make_traj("q3", "Base", 0, bt_c, correct=3, sims=sims),
        make_traj("q4", "Base", 0, stay, correct=3, sims=sims),  # right, no bt
        make_traj("q5", "Base", 0, stay, correct=2, sims=sims),  # wrong, no bt
        make_traj("q6", "Base", 0, stay, correct=2, sims=sims),  # wrong, no bt
    ]
    s = aggregate_stats(trajs, n_resamples=100)
    assert s["backtrack_prevalence_Base"].value == 3 / 6
    assert s["backtrack_accuracy_Base"].value == 2 / 3
    assert s["non_backtrack_accuracy_Base"].value == 1 / 3
    assert s["accuracy_uplift_Base"].value == pytest.approx(1 / 3, abs=1e-15)
    assert s["n_backtrack_events_Base"].value == 3
    assert s["abandoned_most_similar_fraction"].value == 1 / 3
    assert s["abandoned_second_similar_fraction"].value == 1 / 3
    assert s["abandoned_least_similar_fraction"].value == 1 / 3
    assert s["adopted_correct_fraction"].value == 2 / 3
    print("PASS Table-1 machinery: prevalence 3/6, uplift 1/3, rank "
          "histogram (1/3, 1/3, 1/3), adopted-correct 2/3 — integer-exact")


def test_end_to_end_determinism_and_verify(tmp_path):
    """run-all twice with one master seed -> byte-identical manifests;
    verify exits 0."""
    import json
    cfg_kwargs = dict(
        n_categories=4, entities_per_category=8, n_values=6,
        n_stems=10, n_permutations=4, holdout_stems=2,
        d_model=16, n_heads=2, prelude_layers=1, recurrent_layers=1,
        coda_layers=1, k=8,
        train=TrainConfig(epochs=1, batch_size=16, warmup_steps=5),
        n_resamples=500, seed=13)
    manifests = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg_path = tmp_path / f"{run}.json"
        ExperimentConfig(output_dir=str(out), **cfg_kwargs).write_json(cfg_path)
        assert cli_main(["run-all", "--config", str(cfg_path)]) == 0
        with open(out / "manifest.json") as f:
            manifests.append(json.load(f)["files"])
        assert cli_main(["verify", "--output-dir", str(out)]) == 0
    assert manifests[0] == manifests[1], "re-run produced different bytes"
    print("PASS end-to-end determinism: run-all twice -> identical "
          f"manifest over {len(manifests[0])} files; verify exit 0")


def test_format_validity(experiment, tmp_path):
    """Emitted SVGs parse as XML, CSVs round-trip, checkpoint bit-exact."""
    config, _, _, params, trajectories, report = experiment
    from loopscope.pipeline import export_summary, stage_plot

    plot_config = replace(ACCEPT_CONFIG, output_dir=str(tmp_path))
    stage_plot(plot_config, trajectories, report)
    export_summary(report, str(tmp_path))
    for name in os.listdir(tmp_path):
        path = os.path.join(tmp_path, name)
        if name.endswith(".svg"):
            ET.parse(path)  # raises if not well-formed
        elif name.endswith(".csv"):
            with open(path, newline="", encoding="utf-8") as f:
                rows = list(csv.reader(f))
            assert len(rows) >= 2 and all(len(r) == len(rows[0])
                                          for r in rows)
    ckpt = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(params, ckpt)
    loaded = load_checkpoint(ckpt)
    for (name, a), (_, b) in zip(params.named_tensors(),
                                 loaded.named_tensors()):
        assert np.array_equal(a.data, b.data), name
    print("PASS format validity: SVGs well-formed, CSVs round-trip, "
          "checkpoint save/load bit-exact")
