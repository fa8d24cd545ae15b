"""Deliberation-trajectory analysis.

Belief extraction from per-step decoded distributions, entropy and
consecutive-step KL (both in nats, over the full vocabulary), detection of
the exploration phase and of backtracking events, similarity attribution of
abandoned answers, and bootstrap-aggregated summary statistics.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .seeds import derive_seed

KL_FLOOR = 1e-12


def _check_dists(p: np.ndarray) -> None:
    """Raise unless every row of p is nonnegative and sums to 1 within 1e-4."""
    if np.any(p < 0):
        raise ValueError("negative probability")
    totals = p.sum(axis=1)
    off = np.abs(totals - 1.0) > 1e-4
    if off.any():
        raise ValueError(f"distribution sums to {totals[off.argmax()]}, not 1")


def _xlogx_rows(p: np.ndarray) -> np.ndarray:
    """Row sums of p ln p over the entries p > 0 (so 0 ln 0 = 0)."""
    pos = p > 0
    return (np.where(pos, p, 0.0) * np.log(np.where(pos, p, 1.0))).sum(axis=1)


def _kl_rows(nxt: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Row sums of KL(nxt || prev), prev floored at KL_FLOOR; entries with
    nxt = 0 contribute 0."""
    prev = np.maximum(prev, KL_FLOOR)
    return (nxt * np.log(np.where(nxt > 0, nxt, 1.0) / prev)).sum(axis=1)


def entropy(dist) -> float:
    """Shannon entropy in nats, with 0*ln(0) = 0."""
    p = np.asarray(dist, dtype=np.float64).reshape(1, -1)
    _check_dists(p)
    return float(-_xlogx_rows(p)[0])


def step_kl(p_next, p_prev) -> float:
    """KL(p_next || p_prev) in nats; p_prev is floored at 1e-12."""
    a = np.asarray(p_next, dtype=np.float64).reshape(1, -1)
    b = np.asarray(p_prev, dtype=np.float64).reshape(1, -1)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch {a.shape[1]} vs {b.shape[1]}")
    return float(_kl_rows(a, b)[0])


def exploration_end(kl_series, tol: float = 0.01, window: int = 3):
    """First index i such that kl_series[i..i+window-1] all fall at or below
    tol; None when no such window exists (the no-correct-answer signature)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if window < 1:
        raise ValueError("window must be >= 1")
    s = np.asarray(kl_series, dtype=np.float64)
    if s.size < window:
        return None
    ok = s <= tol
    # settled[i]: ok[i..i+window-1] all hold, as the AND of window shifts
    n = s.size - window + 1
    settled = ok[:n].copy()
    for j in range(1, window):
        settled &= ok[j:j + n]
    i = int(settled.argmax())
    return i if settled[i] else None


@dataclass
class BacktrackEvent:
    abandoned: int
    adopted: int
    a_start: int
    a_end: int          # inclusive
    b_start: int
    b_end: int          # inclusive
    final_answer: int

    def __post_init__(self):
        if self.adopted == self.abandoned:
            raise ValueError("adopted option must differ from abandoned")
        if self.b_start <= self.a_end:
            raise ValueError("adopted run must start after the abandoned run")
        if self.final_answer != self.adopted:
            raise ValueError("final answer must equal the adopted option")


def _maximal_runs(series):
    """(symbol, start, end_inclusive) for each maximal constant segment."""
    runs = []
    start = 0
    for i in range(1, len(series) + 1):
        if i == len(series) or series[i] != series[start]:
            runs.append((series[start], start, i - 1))
            start = i
    return runs


def detect_backtracks(argmax_series, min_run: int = 3):
    """All backtracking events in an argmax trajectory.

    An event is a maximal run of option a (length >= min_run) followed later
    by a maximal run of option b != a (length >= min_run), where b is also
    the final answer. Events are ordered by abandoned-run start."""
    series = list(argmax_series)
    if not series:
        raise ValueError("empty argmax series")
    final = series[-1]
    runs = [(s, lo, hi) for s, lo, hi in _maximal_runs(series)
            if hi - lo + 1 >= min_run]
    events = []
    for i, (a, a_lo, a_hi) in enumerate(runs):
        for b, b_lo, b_hi in runs[i + 1:]:
            if b != a and b == final:
                events.append(BacktrackEvent(
                    abandoned=a, adopted=b, a_start=a_lo, a_end=a_hi,
                    b_start=b_lo, b_end=b_hi, final_answer=final))
    events.sort(key=lambda e: (e.a_start, e.b_start))
    return events


@dataclass
class BeliefTrajectory:
    """Per-step option beliefs for one (item, permutation) deliberation."""

    item_id: str
    variant: str
    perm_index: int
    k: int
    option_probs: np.ndarray     # (K, 4), mass of each option under p_i
    full_entropy: np.ndarray     # (K,), entropy of p_i over the whole vocab
    renorm_entropy: np.ndarray   # (K,), entropy of the 4-option renormalized mass
    argmax_series: np.ndarray    # (K,), argmax among the 4 options
    step_kl_series: np.ndarray   # (K-1,), KL(p_{i+1} || p_i), full vocab
    correct_index: int | None = None
    similarities: list = field(default_factory=list)  # per option, this ordering
    options: list = field(default_factory=list)

    @property
    def final_answer(self) -> int:
        return int(self.argmax_series[-1])

    @property
    def is_correct(self) -> bool:
        return self.correct_index is not None and self.final_answer == self.correct_index


def belief_trajectory(step_dists, option_token_ids, item_id: str = "",
                      variant: str = "", perm_index: int = 0,
                      correct_index=None, similarities=(), options=()) -> BeliefTrajectory:
    """Extract option beliefs, entropies, argmax and step-KL series from the
    full decoded distributions p_1..p_K: a (K, vocab) array, or a sequence
    of K objects whose `.probs` holds one distribution each."""
    ids = [int(i) for i in option_token_ids]
    if len(ids) != 4 or len(set(ids)) != 4:
        raise ValueError("exactly 4 distinct option token ids required")
    if not isinstance(step_dists, np.ndarray):
        step_dists = [np.asarray(d.probs).reshape(-1) for d in step_dists]
    full = np.asarray(step_dists, dtype=np.float64)
    if full.ndim != 2 or full.shape[0] == 0:
        raise ValueError("at least one step distribution required, as a "
                         "(K, vocab) array")
    _check_dists(full)
    option_probs = full[:, ids]
    renorm = option_probs / option_probs.sum(axis=1, keepdims=True)
    return BeliefTrajectory(
        item_id=item_id, variant=variant, perm_index=perm_index,
        k=full.shape[0], option_probs=option_probs,
        full_entropy=-_xlogx_rows(full),
        renorm_entropy=-_xlogx_rows(renorm),
        argmax_series=option_probs.argmax(axis=1),  # ties -> lowest index
        step_kl_series=_kl_rows(full[1:], full[:-1]),   # KL(p_{i+1} || p_i)
        correct_index=correct_index,
        similarities=list(similarities), options=list(options))


# -- bootstrap -------------------------------------------------------------


@dataclass
class Stat:
    """A point estimate with its bootstrap CI; n counts the values behind it."""

    value: float
    ci_low: float
    ci_high: float
    n: int
    note: str = ""


def _as_sample(values) -> np.ndarray:
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.size == 0:
        raise ValueError("bootstrap over an empty sample")
    return vals


def _cluster_totals(values: np.ndarray, groups):
    """Sum and size of each cluster, clusters ordered by group key; with no
    groups every value is its own cluster."""
    if groups is None:
        return values, np.ones(values.size)
    keys = np.asarray(groups).reshape(-1)
    if keys.size != values.size:
        raise ValueError(f"{keys.size} group keys for {values.size} values")
    _, inverse = np.unique(keys, return_inverse=True)
    return (np.bincount(inverse, weights=values),
            np.bincount(inverse).astype(np.float64))


def _resampled_means(values: np.ndarray, groups, n_resamples: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Cluster bootstrap: each resample draws as many clusters as the sample
    has, with replacement, and takes the mean over all their values."""
    sums, sizes = _cluster_totals(values, groups)
    n = sums.size
    means = np.empty(n_resamples)
    chunk = max(1, int(2e7) // n)
    for lo in range(0, n_resamples, chunk):
        hi = min(lo + chunk, n_resamples)
        idx = rng.integers(0, n, size=(hi - lo, n))
        means[lo:hi] = sums[idx].sum(axis=1) / sizes[idx].sum(axis=1)
    return means


def _percentile_ci(point, resamples: np.ndarray, level: float, n: int,
                   note: str = "") -> Stat:
    alpha = (1.0 - level) / 2.0
    with np.errstate(invalid="ignore"):
        bounds = np.quantile(resamples, [alpha, 1.0 - alpha])
    # interpolating between two +inf resamples gives nan; the bound is +inf
    lo, hi = np.where(np.isnan(bounds), np.inf, bounds)
    return Stat(value=float(point), ci_low=float(lo), ci_high=float(hi), n=n,
                note=note)


def bootstrap_ci(values, n_resamples: int = 10000, level: float = 0.95,
                 seed: int = 0, groups=None) -> Stat:
    """Percentile bootstrap CI of the mean; deterministic given seed.

    `groups` gives the cluster (e.g. the stem) of each value; resampling
    then draws whole clusters. Without it every value is its own cluster,
    which is the ordinary bootstrap."""
    vals = _as_sample(values)
    means = _resampled_means(vals, groups, n_resamples,
                             np.random.default_rng(seed))
    return _percentile_ci(vals.mean(), means, level, vals.size)


# -- similarity attribution --------------------------------------------------


CORRECT = "CORRECT"


def similarity_rank(item, abandoned: int):
    """Rank of the abandoned option among the item's distractors (1 = most
    similar to the stem, by the item's constructed similarities); CORRECT
    when the abandoned option is the correct answer. `item` is anything
    exposing options / similarities / correct_index (QuestionItem,
    PermutedItem or BeliefTrajectory)."""
    if abandoned not in range(4):
        raise ValueError("abandoned option index must be in 0..3")
    if item.correct_index is not None and abandoned == item.correct_index:
        return CORRECT
    distractors = [i for i in range(4) if i != item.correct_index]
    scores = {i: item.similarities[i] for i in distractors}
    # descending score, ties toward the lower option index
    ordered = sorted(distractors, key=lambda i: (-scores[i], i))
    return ordered.index(abandoned) + 1


# -- aggregation -------------------------------------------------------------


def aggregate_stats(trajectories, tol: float = 0.01, window: int = 3,
                    min_run: int = 3, n_resamples: int = 10000,
                    level: float = 0.95, seed: int = 0) -> dict:
    """Summary statistics with percentile bootstrap CIs that resample stems.

    The permutations of one stem show the same four options in another
    order: they are replicates of one question, not independent samples. So
    every CI draws stems (item_id) with replacement and pools their
    instances; an event-level statistic takes the stem of the trajectory the
    event came from, and the two sides of a difference are resampled on
    their own. `Stat.n` counts values, not stems. Input order does not
    matter; instances are keyed by stable (item_id, variant, perm_index)
    ids. Statistics whose variant has no instances are reported as None
    (absent), never as zero."""
    if not trajectories:
        raise ValueError("no trajectories to aggregate")
    trajs = sorted(trajectories, key=lambda t: (t.item_id, t.variant, t.perm_index))
    by_variant = {}
    for t in trajs:
        by_variant.setdefault(t.variant, []).append(t)

    def stat_seed(name):
        return derive_seed(seed, "aggregate", name)

    # samples below are lists of (stem, value) pairs
    def maybe(name, sample):
        if not sample:
            return None
        stems, values = zip(*sample)
        return bootstrap_ci(values, n_resamples=n_resamples, level=level,
                            seed=stat_seed(name), groups=stems)

    def diff(name, a, b, relative=False, note=""):
        """mean(a) - mean(b), or mean(a) / mean(b) - 1 when relative; None
        when a side is empty or, relative, when mean(b) is not positive.
        Resamples depend only on the samples and `name`'s seed."""
        if not a or not b:
            return None
        (stems_a, values_a), (stems_b, values_b) = zip(*a), zip(*b)
        va, vb = _as_sample(values_a), _as_sample(values_b)
        # each side is resampled on its own (unpaired), a first, from one
        # seeded stream
        rng = np.random.default_rng(stat_seed(name))
        ma = _resampled_means(va, stems_a, n_resamples, rng)
        mb = _resampled_means(vb, stems_b, n_resamples, rng)
        if not relative:
            point, resamples = va.mean() - vb.mean(), ma - mb
        elif vb.mean() > 0:
            point = va.mean() / vb.mean() - 1.0
            resamples = np.divide(ma, mb, out=np.full_like(ma, np.inf),
                                  where=mb > 0) - 1.0
        else:
            return None
        return _percentile_ci(point, resamples, level, va.size + vb.size,
                              note)

    summary = {}
    events_by_variant = {}
    for variant, ts in sorted(by_variant.items()):
        evs = [detect_backtracks(t.argmax_series, min_run=min_run) for t in ts]
        events_by_variant[variant] = list(zip(ts, evs))
        summary[f"backtrack_prevalence_{variant}"] = maybe(
            f"prev_{variant}",
            [(t.item_id, float(bool(e))) for t, e in zip(ts, evs)])

    # accuracy uplift of backtracking instances, Base variant
    base = events_by_variant.get("Base", [])
    bt_acc = [(t.item_id, float(t.is_correct)) for t, e in base if e]
    nbt_acc = [(t.item_id, float(t.is_correct)) for t, e in base if not e]
    summary["backtrack_accuracy_Base"] = maybe("bt_acc", bt_acc)
    summary["non_backtrack_accuracy_Base"] = maybe("nbt_acc", nbt_acc)
    summary["accuracy_uplift_Base"] = diff("uplift", bt_acc, nbt_acc)

    # exploration lengths (None-length instances counted separately)
    explore = {}
    for variant, ts in sorted(by_variant.items()):
        ends = [exploration_end(t.step_kl_series, tol=tol, window=window)
                for t in ts]
        explore[variant] = [(t.item_id, e) for t, e in zip(ts, ends)
                            if e is not None]
        summary[f"exploration_length_{variant}"] = maybe(
            f"explen_{variant}", explore[variant])
        summary[f"exploration_unsettled_fraction_{variant}"] = maybe(
            f"expnone_{variant}",
            [(t.item_id, float(e is None)) for t, e in zip(ts, ends)])
    # one seed name for both: the gap's CI comes from the diff's resamples
    summary["exploration_diff_Base_minus_Easy"] = diff(
        "expdiff", explore.get("Base"), explore.get("Easy"))
    summary["exploration_gap_Base_over_Easy"] = diff(
        "expdiff", explore.get("Base"), explore.get("Easy"), relative=True,
        note="ratio Base/Easy - 1 of mean exploration steps")

    # final-step full-vocabulary entropy per variant
    fin = {v: [(t.item_id, float(t.full_entropy[-1])) for t in ts]
           for v, ts in by_variant.items()}
    for variant in sorted(fin):
        summary[f"final_entropy_{variant}"] = maybe(
            f"finent_{variant}", fin[variant])
    summary["final_entropy_diff_NoCorrect_minus_Base"] = diff(
        "entdiff", fin.get("NoCorrect"), fin.get("Base"))

    # abandoned-answer similarity ranks + adopted-correct, Base events
    ranks = []
    adopted_correct = []
    for t, evs in base:
        for e in evs:
            ranks.append((t.item_id, similarity_rank(t, e.abandoned)))
            adopted_correct.append((t.item_id,
                                    float(e.adopted == t.correct_index)))
    n_events = len(ranks)
    summary["n_backtrack_events_Base"] = Stat(
        value=float(n_events), ci_low=float(n_events), ci_high=float(n_events),
        n=n_events)
    for r in (1, 2, 3):
        label = {1: "most_similar", 2: "second_similar", 3: "least_similar"}[r]
        summary[f"abandoned_{label}_fraction"] = maybe(
            f"rank{r}", [(g, float(x == r)) for g, x in ranks])
        distractor_only = [(g, float(x == r)) for g, x in ranks
                           if x != CORRECT]
        summary[f"abandoned_{label}_fraction_distractor_denom"] = maybe(
            f"rank{r}d", distractor_only)
    summary["abandoned_correct_fraction"] = maybe(
        "rankc", [(g, float(x == CORRECT)) for g, x in ranks])
    summary["adopted_correct_fraction"] = maybe("adopted", adopted_correct)
    return summary


# -- trajectory JSONL interchange --------------------------------------------


def trajectory_to_record(t: BeliefTrajectory) -> dict:
    return {
        "item_id": t.item_id,
        "variant": t.variant,
        "perm_index": t.perm_index,
        "k": t.k,
        "option_probs": t.option_probs.tolist(),
        "full_entropy": t.full_entropy.tolist(),
        "renorm_entropy": t.renorm_entropy.tolist(),
        "argmax_series": t.argmax_series.tolist(),
        "step_kl": t.step_kl_series.tolist(),
        "correct_index": t.correct_index,
        "similarities": [float(x) for x in t.similarities],
        "options": list(t.options),
        "entropy_units": "nats",
    }


# the JSON types of a record's fields: the required ones, then the ones a
# record may leave out
_RECORD_FIELDS = {
    "item_id": str, "variant": str, "perm_index": int, "k": int,
    "option_probs": list, "full_entropy": list, "renorm_entropy": list,
    "argmax_series": list, "step_kl": list, "correct_index": (int, type(None)),
}
_OPTIONAL_FIELDS = {"similarities": list, "options": list}
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean",
               type(None): "null"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _array(rec: dict, name: str, dtype) -> np.ndarray:
    """Array field `name` of rec as a `dtype` array. Raises ValueError on an
    element that is not a number (null, a bool, a string) or, for an integer
    dtype, not an integer; rows of a 2-D field are arrays."""
    kinds, want = (((int,), "an integer") if np.issubdtype(dtype, np.integer)
                   else ((int, float), "a number"))
    for x in itertools.chain.from_iterable(
            x if isinstance(x, list) else (x,) for x in rec[name]):
        if type(x) not in kinds:
            raise ValueError(
                f"field {name!r} holds {_json_type(x)}, not {want}")
    try:
        return np.array(rec[name], dtype=dtype)
    except OverflowError as e:
        raise ValueError(f"field {name!r}: {e}") from e


def record_to_trajectory(rec: dict) -> BeliefTrajectory:
    """The trajectory of one trajectory_to_record record. Raises ValueError
    on a record that is not an object, lacks a field, or holds a field of
    the wrong JSON type (a bool is not an int), or an array element of one
    (`_array`)."""
    if not isinstance(rec, dict):
        raise ValueError(f"record is {_json_type(rec)}, not an object")
    for name, kind in {**_RECORD_FIELDS, **_OPTIONAL_FIELDS}.items():
        if name not in rec:
            if name in _OPTIONAL_FIELDS:
                continue
            raise ValueError(f"record lacks field {name!r}")
        value = rec[name]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"field {name!r} is {_json_type(value)}")
    return BeliefTrajectory(
        item_id=rec["item_id"], variant=rec["variant"],
        perm_index=rec["perm_index"], k=rec["k"],
        option_probs=_array(rec, "option_probs", np.float64),
        full_entropy=_array(rec, "full_entropy", np.float64),
        renorm_entropy=_array(rec, "renorm_entropy", np.float64),
        argmax_series=_array(rec, "argmax_series", np.intp),
        step_kl_series=_array(rec, "step_kl", np.float64),
        correct_index=rec["correct_index"],
        similarities=rec.get("similarities", []),
        options=rec.get("options", []))


def write_trajectories_jsonl(trajectories, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for t in trajectories:
            f.write(json.dumps(trajectory_to_record(t), sort_keys=True) + "\n")


def read_trajectories_jsonl(path):
    """The trajectories of a write_trajectories_jsonl file. A line that is
    not a well-formed record raises ValueError naming the file and the
    line, counted from 1."""
    out = []
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            try:
                out.append(record_to_trajectory(json.loads(line)))
            except (ValueError, TypeError) as e:
                raise ValueError(f"{path} line {n}: {e}") from e
    return out
