"""The statistics oracle on hand-planted trajectories with known answers.

Run with: python3 -m pytest perfbench
"""

from types import SimpleNamespace

import numpy as np
import pytest

import oracle


def traj(item_id, variant, argmax, kl, entropy, correct, sims=(0.5,) * 4):
    return SimpleNamespace(item_id=item_id, variant=variant,
                           argmax_series=np.array(argmax),
                           step_kl_series=np.array(kl),
                           full_entropy=np.array(entropy, dtype=float),
                           correct_index=correct, similarities=list(sims))


def test_exploration_end():
    assert oracle.exploration_end([0.5, 0.005, 0.005, 0.2, 0.001, 0.001, 0.001],
                                  tol=0.01, window=3) == 4
    assert oracle.exploration_end([0.001] * 3, tol=0.01, window=3) == 0
    assert oracle.exploration_end([0.01, 0.01, 0.5], tol=0.01, window=2) == 0
    assert oracle.exploration_end([0.5, 0.001, 0.001], tol=0.01, window=3) is None
    assert oracle.exploration_end([0.001], tol=0.01, window=3) is None


def test_backtrack_events():
    # runs A B A B, final B: every (A run, later B run) pair is an event
    assert oracle.backtrack_events([0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1],
                                   min_run=3) == [(0, 1), (0, 1), (0, 1)]
    # a run shorter than min_run neither abandons nor adopts
    assert oracle.backtrack_events([0, 0, 1, 1, 1, 2, 2, 2], min_run=3) == [(1, 2)]
    # the adopted option must be the final answer
    assert oracle.backtrack_events([0, 0, 0, 1, 1, 1, 2], min_run=3) == []
    assert oracle.backtrack_events([3] * 6, min_run=3) == []


def test_abandoned_rank():
    sims = [0.9, 0.5, 0.7, 0.7]      # option 0 is correct
    assert oracle.abandoned_rank(sims, 0, 2) == 1   # tie: lower index first
    assert oracle.abandoned_rank(sims, 0, 3) == 2
    assert oracle.abandoned_rank(sims, 0, 1) == 3
    assert oracle.abandoned_rank(sims, 0, 0) == oracle.CORRECT
    # NoCorrect-style: no correct option, all four are distractors
    assert oracle.abandoned_rank([0.1, 0.4, 0.3, 0.2], None, 0) == 4


def test_entropy_means():
    ts = [traj("a", "Easy", [0, 0], [0.1], [1.0, 0.5], 0),
          traj("b", "Easy", [0, 0], [0.1], [2.0, 1.5], 0),
          traj("a", "Base", [0, 0], [0.1], [3.0, 3.0], 0)]
    means = oracle.entropy_means(ts)
    assert set(means) == {"Easy", "Base"}
    np.testing.assert_array_equal(means["Easy"], [1.5, 1.0])
    np.testing.assert_array_equal(means["Base"], [3.0, 3.0])


PLANTED = [
    # abandons option 0 (least similar distractor) for the correct option 1
    traj("s1", "Base", [0, 0, 0, 1, 1, 1], [0.5, 0.2, 0.001, 0.001, 0.001],
         [3, 2, 1, 1, 1, 0.5], 1, sims=[0.2, 1.0, 0.9, 0.5]),
    # never switches, wrong
    traj("s2", "Base", [2] * 6, [0.001] * 5, [1.0] * 6, 0),
    # abandons option 1 (most similar, by the tie rule) for the correct 0;
    # never settles
    traj("s2", "Base", [1, 1, 1, 0, 0, 0], [0.5] * 5, [2.0] * 6, 0,
         sims=[1.0, 0.8, 0.3, 0.8]),
    # abandons the correct option 3 for the wrong option 2
    traj("s3", "Base", [3, 3, 3, 2, 2, 2], [0.2, 0.001, 0.001, 0.001, 0.3],
         [1, 1, 1, 1, 1, 0.0], 3, sims=[0.5, 0.4, 0.3, 1.0]),
    traj("s1", "Easy", [0] * 6, [0.001] * 5, [0.5] * 6, 0),
    traj("s2", "Easy", [1] * 6, [0.3, 0.001, 0.001, 0.001, 0.3], [0.7] * 6, 1),
    traj("s1", "NoCorrect", [0] * 6, [0.5] * 5, [2.5] * 6, None),
]


def test_summary_values_on_planted_trajectories():
    values, counts, n_events = oracle.summary_values(PLANTED, tol=0.01,
                                                     window=3, min_run=3)
    expect = {
        "backtrack_prevalence_Base": 0.75,
        "backtrack_prevalence_Easy": 0.0,
        "backtrack_prevalence_NoCorrect": 0.0,
        "backtrack_accuracy_Base": 2 / 3,
        "non_backtrack_accuracy_Base": 0.0,
        "accuracy_uplift_Base": 2 / 3,
        "exploration_length_Base": 1.0,          # ends 2, 0, (none), 1
        "exploration_length_Easy": 0.5,          # ends 0, 1
        "exploration_length_NoCorrect": None,
        "exploration_unsettled_fraction_Base": 0.25,
        "exploration_unsettled_fraction_Easy": 0.0,
        "exploration_unsettled_fraction_NoCorrect": 1.0,
        "exploration_diff_Base_minus_Easy": 0.5,
        "exploration_gap_Base_over_Easy": 1.0,
        "final_entropy_Base": 0.875,
        "final_entropy_Easy": 0.6,
        "final_entropy_NoCorrect": 2.5,
        "final_entropy_diff_NoCorrect_minus_Base": 1.625,
        "n_backtrack_events_Base": 3.0,
        "abandoned_most_similar_fraction": 1 / 3,
        "abandoned_second_similar_fraction": 0.0,
        "abandoned_least_similar_fraction": 1 / 3,
        "abandoned_correct_fraction": 1 / 3,
        "abandoned_most_similar_fraction_distractor_denom": 0.5,
        "abandoned_second_similar_fraction_distractor_denom": 0.0,
        "abandoned_least_similar_fraction_distractor_denom": 0.5,
        "adopted_correct_fraction": 2 / 3,
    }
    assert set(values) == set(expect)
    for name, value in expect.items():
        if value is None:
            assert values[name] is None, name
        else:
            assert values[name] == pytest.approx(value, abs=1e-12), name
    assert counts == {"most_similar": 1, "second_similar": 0,
                      "least_similar": 1, "adopted_correct": 2}
    assert n_events == 3


def test_summary_values_without_events_or_easy_steps():
    ts = [traj("s1", "Base", [0] * 6, [0.001] * 5, [1.0] * 6, 0),
          traj("s1", "Easy", [0] * 6, [0.001] * 5, [1.0] * 6, 0)]
    values, counts, n_events = oracle.summary_values(ts, 0.01, 3, 3)
    assert n_events == 0 and values["n_backtrack_events_Base"] == 0.0
    assert values["backtrack_accuracy_Base"] is None
    assert values["accuracy_uplift_Base"] is None
    assert values["abandoned_correct_fraction"] is None
    # Easy settles at step 0: the relative gap is undefined, the diff is not
    assert values["exploration_diff_Base_minus_Easy"] == 0.0
    assert values["exploration_gap_Base_over_Easy"] is None
    assert values["final_entropy_diff_NoCorrect_minus_Base"] is None
    assert counts["adopted_correct"] == 0


def test_oracle_agrees_with_aggregate_stats_on_planted_trajectories():
    from loopscope.metrics import BeliefTrajectory, aggregate_stats

    ts = [BeliefTrajectory(
        item_id=t.item_id, variant=t.variant, perm_index=i, k=6,
        option_probs=np.zeros((6, 4)), full_entropy=t.full_entropy,
        renorm_entropy=np.zeros(6), argmax_series=t.argmax_series,
        step_kl_series=t.step_kl_series, correct_index=t.correct_index,
        similarities=t.similarities) for i, t in enumerate(PLANTED)]
    values, _, _ = oracle.summary_values(PLANTED, 0.01, 3, 3)
    stats = aggregate_stats(ts, tol=0.01, window=3, min_run=3, n_resamples=50)
    for name, value in values.items():
        if value is None:
            assert stats[name] is None, name
        else:
            assert stats[name].value == pytest.approx(value, abs=1e-12), name
