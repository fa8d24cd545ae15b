import math
from itertools import groupby

import numpy as np
import pytest

from loopscope.metrics import (
    CORRECT,
    BacktrackEvent,
    BeliefTrajectory,
    aggregate_stats,
    belief_trajectory,
    bootstrap_ci,
    bootstrap_diff_ci,
    cosine,
    detect_backtracks,
    entropy,
    exploration_end,
    read_trajectories_jsonl,
    similarity_rank,
    step_kl,
    trajectory_to_record,
    write_trajectories_jsonl,
)
from loopscope.model import StepDistribution


# -- entropy / KL -----------------------------------------------------------


def test_entropy_uniform():
    assert entropy(np.full(8, 0.125)) == pytest.approx(math.log(8), abs=1e-12)


def test_entropy_one_hot():
    assert entropy([0, 0, 1, 0]) == 0.0


def test_entropy_hand_value():
    # 0.5 ln 2 + 0.25 ln 4 + 0.25 ln 8 = 1.75 ln 2
    got = entropy([0.5, 0.25, 0.125, 0.125])
    assert got == pytest.approx(1.75 * math.log(2), abs=1e-12)
    assert got == pytest.approx(1.2130, abs=1e-4)


def test_entropy_validation():
    with pytest.raises(ValueError):
        entropy([0.5, 0.6])
    with pytest.raises(ValueError):
        entropy([-0.1, 1.1])


def test_step_kl_zero_iff_equal():
    p = np.array([0.2, 0.3, 0.5])
    assert step_kl(p, p) == 0.0
    assert step_kl([0.25, 0.75], [0.26, 0.74]) > 0


def test_step_kl_hand_values():
    assert step_kl([0.75, 0.25], [0.5, 0.5]) == pytest.approx(0.13081, abs=1e-5)
    assert step_kl([0.5, 0.5], [0.75, 0.25]) == pytest.approx(0.14384, abs=1e-5)


def test_step_kl_dimension_mismatch():
    with pytest.raises(ValueError):
        step_kl([0.5, 0.5], [1.0])


def naive_entropy(p):
    return -sum(x * math.log(x) for x in p if x > 0)


def naive_kl(a, b):
    return sum(x * math.log(x / max(y, 1e-12)) for x, y in zip(a, b) if x > 0)


def test_entropy_kl_match_naive_oracle_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        assert entropy(a) == pytest.approx(naive_entropy(a), abs=1e-9)
        kl = step_kl(a, b)
        assert kl == pytest.approx(naive_kl(a, b), abs=1e-9)
        assert kl >= 0
        assert entropy(a) <= math.log(n) + 1e-12


# -- exploration end ---------------------------------------------------------


def test_exploration_end_examples():
    assert exploration_end([0.5, 0.2, 0.009, 0.008, 0.007]) == 2
    assert exploration_end([0.02] * 6, tol=0.01) is None
    assert exploration_end([0.009, 0.009, 0.5, 0.001, 0.001, 0.001]) == 3


def test_exploration_end_short_series():
    assert exploration_end([0.001], window=3) is None
    assert exploration_end([], window=3) is None


def test_exploration_end_monotone_in_tol():
    rng = np.random.default_rng(1)
    for _ in range(300):
        s = rng.exponential(0.02, size=rng.integers(3, 20))
        lo = exploration_end(s, tol=0.01)
        hi = exploration_end(s, tol=0.05)
        if lo is not None:
            assert hi is not None and hi <= lo


def naive_exploration_end(series, tol=0.01, window=3):
    for i in range(len(series) - window + 1):
        if all(x <= tol for x in series[i:i + window]):
            return i
    return None


def test_exploration_end_matches_naive_scan_fuzz():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        s = list(rng.exponential(0.02, size=rng.integers(0, 15)))
        assert exploration_end(s) == naive_exploration_end(s)


# -- backtracking -------------------------------------------------------------


def reference_detect(seq, min_run=3):
    """Brute-force reference: maximal runs via groupby, all qualifying pairs."""
    runs = []
    pos = 0
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


def as_tuples(events):
    return [(e.abandoned, e.adopted, e.a_start, e.a_end, e.b_start, e.b_end)
            for e in events]


def test_backtrack_examples():
    evs = detect_backtracks([0, 0, 0, 1, 1, 1])
    assert as_tuples(evs) == [(0, 1, 0, 2, 3, 5)]
    assert detect_backtracks([0, 0, 1, 1, 1, 1]) == []
    evs = detect_backtracks([0, 0, 0, 1, 1, 1, 0, 0, 0])
    assert as_tuples(evs) == [(1, 0, 3, 5, 6, 8)]


def test_backtrack_empty_rejected():
    with pytest.raises(ValueError):
        detect_backtracks([])


def test_backtrack_event_invariants():
    with pytest.raises(ValueError):
        BacktrackEvent(abandoned=1, adopted=1, a_start=0, a_end=2,
                       b_start=3, b_end=5, final_answer=1)
    with pytest.raises(ValueError):
        BacktrackEvent(abandoned=0, adopted=1, a_start=0, a_end=4,
                       b_start=3, b_end=6, final_answer=1)


def test_backtrack_matches_reference_fuzz():
    rng = np.random.default_rng(3)
    for _ in range(3000):
        seq = list(rng.integers(0, 3, size=rng.integers(1, 13)))
        assert as_tuples(detect_backtracks(seq)) == reference_detect(seq)


# -- bootstrap ----------------------------------------------------------------


def test_bootstrap_constant_zero_width():
    ci = bootstrap_ci([3.0, 3.0, 3.0], seed=0)
    assert ci.lower == ci.point == ci.upper == 3.0


def test_bootstrap_deterministic():
    vals = np.random.default_rng(4).normal(size=50)
    a = bootstrap_ci(vals, seed=5)
    b = bootstrap_ci(vals, seed=5)
    assert (a.lower, a.upper) == (b.lower, b.upper)


def test_bootstrap_normal_width():
    vals = np.random.default_rng(6).standard_normal(1000)
    ci = bootstrap_ci(vals, n_resamples=10000, seed=7)
    width = ci.upper - ci.lower
    expected = 2 * 1.96 / math.sqrt(1000)
    assert abs(width - expected) / expected < 0.2
    assert ci.lower <= ci.point <= ci.upper


def test_bootstrap_empty_rejected():
    with pytest.raises(ValueError):
        bootstrap_ci([])


def test_bootstrap_contains_mean_fuzz():
    rng = np.random.default_rng(8)
    contained = 0
    for i in range(1000):
        vals = rng.exponential(size=rng.integers(3, 40))
        ci = bootstrap_ci(vals, n_resamples=400, seed=i)
        contained += ci.lower <= vals.mean() <= ci.upper
    assert contained >= 990


def test_bootstrap_diff_ci():
    rng = np.random.default_rng(9)
    a = rng.normal(1.0, 0.1, size=400)
    b = rng.normal(0.0, 0.1, size=400)
    ci = bootstrap_diff_ci(a, b, seed=10)
    assert ci.lower > 0.9 and ci.upper < 1.1


# -- belief trajectories -------------------------------------------------------


def test_belief_trajectory_uniform_single_step():
    dist = StepDistribution(probs=np.full(100, 0.01), step=1)
    t = belief_trajectory([dist], [7, 3, 50, 99])
    assert t.k == 1
    assert np.allclose(t.option_probs, 0.01)
    assert t.argmax_series[0] == 0  # tie broken by lowest option index
    assert t.option_probs[0].sum() < 1
    assert t.step_kl_series.size == 0


def test_belief_trajectory_extraction_matches_indexing():
    rng = np.random.default_rng(11)
    dists = [StepDistribution(probs=rng.dirichlet(np.ones(30)), step=i + 1)
             for i in range(5)]
    ids = [2, 9, 17, 28]
    t = belief_trajectory(dists, ids)
    for i, d in enumerate(dists):
        assert np.array_equal(t.option_probs[i], d.probs[ids])
        assert t.full_entropy[i] == pytest.approx(naive_entropy(d.probs))
    for i in range(4):
        assert t.step_kl_series[i] == pytest.approx(
            naive_kl(dists[i + 1].probs, dists[i].probs))


def test_belief_trajectory_rejects_duplicates():
    dist = StepDistribution(probs=np.full(10, 0.1), step=1)
    with pytest.raises(ValueError):
        belief_trajectory([dist], [1, 1, 2, 3])


def test_belief_trajectory_array_matches_per_row_loops():
    rng = np.random.default_rng(12)
    probs = rng.dirichlet(np.ones(30), size=6)
    probs[2, 5] = 0.0      # exact zeros: 0 ln 0 = 0, and a zero KL term
    probs[2] /= probs[2].sum()
    probs[4, 9] = 0.0
    probs[4] /= probs[4].sum()
    ids = [5, 9, 17, 28]
    t = belief_trajectory(probs, ids)
    listed = belief_trajectory(
        [StepDistribution(probs=p, step=i + 1) for i, p in enumerate(probs)], ids)
    for name in ("option_probs", "full_entropy", "renorm_entropy",
                 "argmax_series", "step_kl_series"):
        assert np.array_equal(getattr(t, name), getattr(listed, name)), name
    assert np.allclose(t.full_entropy, [entropy(p) for p in probs],
                       rtol=1e-12, atol=0)
    assert np.allclose(t.step_kl_series,
                       [step_kl(probs[i + 1], probs[i]) for i in range(5)],
                       rtol=1e-12, atol=1e-15)
    bad = probs.copy()
    bad[3, 0] = -1e-3
    for arr, ids_ in ((bad, ids), (probs * 1.01, ids), (probs, [5, 5, 17, 28]),
                      (probs[:0], ids), (probs[0], ids)):
        with pytest.raises(ValueError):
            belief_trajectory(arr, ids_)


# -- similarity rank -----------------------------------------------------------


class FakeItem:
    def __init__(self, sims, correct_index):
        self.options = ["w", "x", "y", "z"]
        self.similarities = sims
        self.correct_index = correct_index
        self.stem_tokens = ["a", "b"]


def test_cosine_trivials():
    v = np.array([1.0, 2.0, 3.0])
    assert cosine(v, v) == pytest.approx(1.0)
    assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        cosine([0, 0], [1, 0])


def test_similarity_rank_constructed():
    item = FakeItem([0.9, 1.0, 0.5, 0.7], correct_index=1)
    assert similarity_rank(item, 0) == 1
    assert similarity_rank(item, 3) == 2
    assert similarity_rank(item, 2) == 3
    assert similarity_rank(item, 1) == CORRECT


def test_similarity_rank_tie_toward_lower_index():
    item = FakeItem([0.6, 1.0, 0.6, 0.6], correct_index=1)
    assert similarity_rank(item, 0) == 1
    assert similarity_rank(item, 2) == 2


def test_similarity_rank_embedding_requires_params():
    item = FakeItem([0.6, 1.0, 0.5, 0.4], correct_index=1)
    with pytest.raises(ValueError):
        similarity_rank(item, 0, mode="embedding")


# -- aggregate stats -------------------------------------------------------------


def make_traj(item_id, variant, perm, argmax, correct, sims=(0.9, 0.8, 0.7, 1.0),
              final_entropy=1.0, kl=None):
    k = len(argmax)
    kl = np.zeros(k - 1) if kl is None else np.asarray(kl, dtype=float)
    return BeliefTrajectory(
        item_id=item_id, variant=variant, perm_index=perm, k=k,
        option_probs=np.full((k, 4), 0.25),
        full_entropy=np.full(k, final_entropy),
        renorm_entropy=np.full(k, 1.0),
        argmax_series=np.asarray(argmax),
        step_kl_series=kl,
        correct_index=correct, similarities=list(sims),
        options=["w", "x", "y", "z"])


def test_aggregate_hand_built_prevalence_and_uplift():
    bt = [0, 0, 0, 3, 3, 3]      # backtracks 0 -> 3
    nbt = [3, 3, 3, 3, 3, 3]
    trajs = [
        make_traj("q1", "Base", 0, bt, correct=3),    # backtrack, correct
        make_traj("q2", "Base", 0, bt, correct=3),    # backtrack, correct
        make_traj("q3", "Base", 0, nbt, correct=2),   # no backtrack, wrong
        make_traj("q4", "Base", 0, nbt, correct=3),   # no backtrack, correct
    ]
    s = aggregate_stats(trajs, n_resamples=200)
    assert s["backtrack_prevalence_Base"].value == 0.5
    assert s["backtrack_accuracy_Base"].value == 1.0
    assert s["non_backtrack_accuracy_Base"].value == 0.5
    assert s["accuracy_uplift_Base"].value == 0.5
    assert s["n_backtrack_events_Base"].value == 2
    # abandoned option 0 has similarity 0.9: the most similar distractor
    assert s["abandoned_most_similar_fraction"].value == 1.0
    assert s["adopted_correct_fraction"].value == 1.0
    # no Easy/NoCorrect instances -> absent, not zero
    assert s["final_entropy_diff_NoCorrect_minus_Base"] is None
    assert s["exploration_diff_Base_minus_Easy"] is None


def test_aggregate_event_free():
    trajs = [make_traj("q1", "Base", 0, [1, 1, 1, 1], correct=1),
             make_traj("q1", "Easy", 0, [1, 1, 1, 1], correct=1)]
    s = aggregate_stats(trajs, n_resamples=100)
    assert s["backtrack_prevalence_Base"].value == 0.0
    assert s["accuracy_uplift_Base"] is None
    assert s["abandoned_most_similar_fraction"] is None


def test_aggregate_rank_histogram_counts():
    # abandoned options 0 (sim .9 -> rank 1), 1 (.8 -> rank 2), 2 (.7 -> rank 3)
    trajs = [
        make_traj("q1", "Base", 0, [0, 0, 0, 3, 3, 3], correct=3),
        make_traj("q2", "Base", 0, [1, 1, 1, 3, 3, 3], correct=3),
        make_traj("q3", "Base", 0, [2, 2, 2, 3, 3, 3], correct=3),
        make_traj("q4", "Base", 0, [0, 0, 0, 3, 3, 3], correct=3),
    ]
    s = aggregate_stats(trajs, n_resamples=100)
    assert s["abandoned_most_similar_fraction"].value == 0.5
    assert s["abandoned_second_similar_fraction"].value == 0.25
    assert s["abandoned_least_similar_fraction"].value == 0.25
    assert s["abandoned_correct_fraction"].value == 0.0


def test_aggregate_exploration_and_entropy_diffs():
    fast = [0.5, 0.5, 0.005, 0.005, 0.005]          # settles at step 2
    trajs = []
    for i in range(12):
        slow = [0.5] * (3 + i % 3) + [0.005] * 3    # settles at 3, 4 or 5
        trajs.append(make_traj(f"b{i}", "Base", 0, [1] * (len(slow) + 1),
                               correct=1, final_entropy=1.0, kl=slow))
        trajs.append(make_traj(f"e{i}", "Easy", 0, [1] * 6, correct=1,
                               final_entropy=1.0, kl=fast))
        trajs.append(make_traj(f"n{i}", "NoCorrect", 0, [1] * 6, correct=None,
                               final_entropy=3.0, kl=fast))
    s = aggregate_stats(trajs, n_resamples=500)
    assert s["exploration_length_Base"].value == 4.0
    assert s["exploration_length_Easy"].value == 2.0
    diff = s["exploration_diff_Base_minus_Easy"]
    assert diff.value == 2.0
    assert 0 < diff.ci_low < diff.value < diff.ci_high
    gap = s["exploration_gap_Base_over_Easy"]
    assert gap.value == pytest.approx(1.0)
    assert gap.ci_low < gap.value < gap.ci_high
    # Easy is constant at 2 steps, so on shared resamples the gap
    # mean(Base) / 2 - 1 is exactly the difference mean(Base) - 2 halved
    assert gap.ci_low == pytest.approx(diff.ci_low / 2, abs=1e-12)
    assert gap.ci_high == pytest.approx(diff.ci_high / 2, abs=1e-12)
    assert s["final_entropy_diff_NoCorrect_minus_Base"].value == 2.0
    assert s["final_entropy_diff_NoCorrect_minus_Base"].ci_low > 0


def test_aggregate_cis_resample_stems_not_permutations():
    """Repeating every stem's instances 8x adds replicates, not evidence:
    every value and CI must stay where it was (an instance-level bootstrap
    narrows them by about sqrt(8))."""
    rng = np.random.default_rng(13)
    series = ([0, 0, 0, 3, 3, 3], [1, 1, 1, 3, 3, 3], [2, 2, 2, 0, 0, 0],
              [3, 3, 3, 3, 3, 3], [0, 1, 2, 3, 0, 1])
    trajs = []
    for i in range(15):
        for variant in ("Base", "Easy", "NoCorrect"):
            for perm in range(2):
                correct = None if variant == "NoCorrect" else int(rng.integers(4))
                trajs.append(make_traj(
                    f"q{i}", variant, perm, series[int(rng.integers(5))],
                    correct=correct, final_entropy=float(rng.uniform(0.5, 3)),
                    kl=rng.exponential(0.02, size=5)))
    repeated = [make_traj(t.item_id, t.variant, t.perm_index + 2 * r,
                          list(t.argmax_series), correct=t.correct_index,
                          final_entropy=float(t.full_entropy[-1]),
                          kl=t.step_kl_series)
                for t in trajs for r in range(8)]
    a = aggregate_stats(trajs, n_resamples=2000, seed=3)
    b = aggregate_stats(repeated, n_resamples=2000, seed=3)
    assert a.keys() == b.keys()
    compared = 0
    for key in a:
        if key == "n_backtrack_events_Base":     # a count, not a mean
            assert b[key].value == 8 * a[key].value
            continue
        assert (a[key] is None) == (b[key] is None), key
        if a[key] is None:
            continue
        for field in ("value", "ci_low", "ci_high"):
            assert getattr(b[key], field) == pytest.approx(
                getattr(a[key], field), rel=1e-9, abs=1e-12), (key, field)
        compared += a[key].ci_high > a[key].ci_low
    assert compared >= 15


def test_aggregate_order_invariance():
    rng = np.random.default_rng(12)
    trajs = []
    for i in range(20):
        series = list(rng.integers(0, 4, size=8))
        trajs.append(make_traj(f"q{i}", "Base", i % 3, series,
                               correct=int(rng.integers(4)),
                               kl=rng.exponential(0.02, size=7)))
    a = aggregate_stats(trajs, n_resamples=300, seed=1)
    b = aggregate_stats(list(reversed(trajs)), n_resamples=300, seed=1)
    for key in a:
        if a[key] is None:
            assert b[key] is None
        else:
            assert a[key] == b[key], key


def test_trajectory_jsonl_round_trip(tmp_path):
    trajs = [make_traj("q1", "Base", 0, [0, 0, 0, 1, 1, 1], correct=1,
                       kl=[0.5, 0.2, 0.05, 0.004, 0.003])]
    path = tmp_path / "traj.jsonl"
    write_trajectories_jsonl(trajs, path)
    back = read_trajectories_jsonl(path)
    assert len(back) == 1
    t, u = trajs[0], back[0]
    assert np.array_equal(t.option_probs, u.option_probs)
    assert np.array_equal(t.argmax_series, u.argmax_series)
    assert np.array_equal(t.step_kl_series, u.step_kl_series)
    assert (t.item_id, t.variant, t.perm_index, t.correct_index) == \
        (u.item_id, u.variant, u.perm_index, u.correct_index)
    # deterministic bytes
    path2 = tmp_path / "traj2.jsonl"
    write_trajectories_jsonl(back, path2)
    assert path.read_bytes() == path2.read_bytes()
