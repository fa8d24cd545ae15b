"""Trajectory statistics recomputed from their stated definitions.

Written apart from `loopscope.metrics` and `loopscope.pipeline`, so the
benchmark can check the program's summary, rank and curve files against an
implementation that shares no code with it. A trajectory is any object with
`item_id`, `variant`, `argmax_series`, `step_kl_series`, `full_entropy`,
`correct_index` and `similarities`.

Definitions (README and docstrings of loopscope.metrics):
- exploration end: the first step index i at which `window` consecutive
  step-KL values, starting at i, are all at most `tol`; None if no such run;
- backtracking event: a pair of maximal constant argmax runs, each at least
  `min_run` long, the first of option a, the later one of option b != a,
  where b is the final answer (the last argmax);
- abandoned rank: 1 + the number of distractors ranked above the abandoned
  option, by similarity descending, ties going to the lower option index;
  "CORRECT" when the abandoned option is the correct one.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

CORRECT = "CORRECT"
RANK_LABELS = {1: "most_similar", 2: "second_similar", 3: "least_similar"}


def exploration_end(kl, tol: float, window: int):
    streak = 0
    for i, value in enumerate(kl):
        streak = streak + 1 if value <= tol else 0
        if streak == window:
            return i - window + 1
    return None


def runs(series):
    """[(symbol, start, length)] for each maximal constant run."""
    out, pos = [], 0
    for symbol, group in groupby(int(x) for x in series):
        n = len(list(group))
        out.append((symbol, pos, n))
        pos += n
    return out


def backtrack_events(series, min_run: int):
    """[(abandoned, adopted)] in order of the abandoned run's start."""
    final = int(series[-1])
    long_runs = [(s, start) for s, start, n in runs(series) if n >= min_run]
    return [(a, b) for i, (a, _) in enumerate(long_runs)
            for b, _ in long_runs[i + 1:] if b != a and b == final]


def abandoned_rank(similarities, correct_index, abandoned: int):
    if abandoned == correct_index:
        return CORRECT
    mine = similarities[abandoned]
    above = sum(1 for i, s in enumerate(similarities)
                if i not in (abandoned, correct_index)
                and (s > mine or (s == mine and i < abandoned)))
    return above + 1


def entropy_means(trajectories) -> dict:
    """variant -> per-step mean of the full-vocabulary entropy."""
    by_variant = {}
    for t in trajectories:
        by_variant.setdefault(t.variant, []).append(np.asarray(t.full_entropy))
    return {v: sum(es) / len(es) for v, es in by_variant.items()}


def _mean(xs):
    return sum(xs) / len(xs) if xs else None


def _diff(a, b):
    return None if a is None or b is None else a - b


def summary_values(trajectories, tol: float, window: int, min_run: int):
    """(statistic name -> point value or None, rank counts, event count)."""
    by_variant = {}
    for t in trajectories:
        by_variant.setdefault(t.variant, []).append(t)
    out = {}
    for v, ts in by_variant.items():
        ends = [exploration_end(t.step_kl_series, tol, window) for t in ts]
        out[f"backtrack_prevalence_{v}"] = _mean(
            [float(bool(backtrack_events(t.argmax_series, min_run))) for t in ts])
        out[f"exploration_length_{v}"] = _mean([e for e in ends if e is not None])
        out[f"exploration_unsettled_fraction_{v}"] = _mean(
            [float(e is None) for e in ends])
        out[f"final_entropy_{v}"] = _mean([float(t.full_entropy[-1]) for t in ts])

    correct = {True: [], False: []}
    ranks, adopted_correct = [], []
    for t in by_variant.get("Base", []):
        events = backtrack_events(t.argmax_series, min_run)
        final = int(t.argmax_series[-1])
        correct[bool(events)].append(
            float(t.correct_index is not None and final == t.correct_index))
        for abandoned, adopted in events:
            ranks.append(abandoned_rank(t.similarities, t.correct_index,
                                        abandoned))
            adopted_correct.append(float(adopted == t.correct_index))
    out["backtrack_accuracy_Base"] = _mean(correct[True])
    out["non_backtrack_accuracy_Base"] = _mean(correct[False])
    out["accuracy_uplift_Base"] = _diff(out["backtrack_accuracy_Base"],
                                        out["non_backtrack_accuracy_Base"])

    base_len = out.get("exploration_length_Base")
    easy_len = out.get("exploration_length_Easy")
    out["exploration_diff_Base_minus_Easy"] = _diff(base_len, easy_len)
    out["exploration_gap_Base_over_Easy"] = (
        base_len / easy_len - 1.0
        if base_len is not None and easy_len is not None and easy_len > 0
        else None)
    out["final_entropy_diff_NoCorrect_minus_Base"] = _diff(
        out.get("final_entropy_NoCorrect"), out.get("final_entropy_Base"))

    out["n_backtrack_events_Base"] = float(len(ranks))
    distractor = [r for r in ranks if r != CORRECT]
    counts = {label: 0 for label in RANK_LABELS.values()}
    for r in distractor:
        counts[RANK_LABELS[r]] += 1
    for r, label in RANK_LABELS.items():
        out[f"abandoned_{label}_fraction"] = _mean(
            [float(x == r) for x in ranks])
        out[f"abandoned_{label}_fraction_distractor_denom"] = _mean(
            [float(x == r) for x in distractor])
    out["abandoned_correct_fraction"] = _mean([float(x == CORRECT) for x in ranks])
    out["adopted_correct_fraction"] = _mean(adopted_correct)
    counts["adopted_correct"] = int(sum(adopted_correct))
    return out, counts, len(ranks)
