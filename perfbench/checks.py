"""Checks of each workload's outputs against computations made apart from the
program: the float64 reference forward (reference.py), the statistics
oracle (oracle.py) and properties the method must have. None compares with
stored output, so none rests on one BLAS kernel's bytes.

Float32 tolerance. The program computes in float32 (unit roundoff
u = 2^-24); the reference in float64 from the same float32 weights. A belief
at step s passes L(s) = prelude + s * recurrent + coda layers in sequence.
Each layer adds about one rounding of relative size u to the residual
stream, and independent roundings over L layers add up to sqrt(L) * u, so a
logit of magnitude up to m is off by about sqrt(L) * u * m. The checks allow
delta = 10 * sqrt(L) * u * max(1, m) per logit, and derive from delta, to
first order, the bounds on what is decoded from the logits (probabilities,
entropy, KL) where they are used. Over every row of trace-analyze at four
seeds, on the SkylakeX and Haswell kernels, the largest error was 0.15 of
its allowance (option probabilities at step 1), 0.11 for entropy and 0.06
for step-KL. Changing the GELU coefficient 0.044715 to 0.04470 in the
program makes the trace-analyze and single-question checks fail.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import oracle
import reference

U32 = 2.0 ** -24
MARGIN = 10.0
SUM_TOL = 1e-6          # a float64 softmax sums to 1 far closer than this
CSV_TOL = 1e-9          # the CSVs print 10 significant digits
KL_FLOOR = 1e-12        # step-KL floors the earlier distribution here


def logit_error(cfg: dict, logits: np.ndarray) -> np.ndarray:
    """(k, batch) bound on the float32 error of (k, batch, vocab) logits."""
    steps = np.arange(1, logits.shape[0] + 1)
    n_layers = (cfg["prelude_layers"] + cfg["coda_layers"]
                + steps * cfg["recurrent_layers"])
    budget = MARGIN * np.sqrt(n_layers) * U32
    return budget[:, None] * np.maximum(1.0, np.abs(logits).max(axis=-1))


def _close(a, b, tol=CSV_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# -- train --------------------------------------------------------------------


def check_train(problems, wl):
    import copy

    from loopscope import checkpoint, model, training
    from loopscope.seeds import derive_seed

    named = dict(wl.params.named_tensors())
    loaded = dict(checkpoint.load_checkpoint(
        wl.work / "model.ckpt").named_tensors())
    if loaded.keys() != named.keys():
        problems.append("checkpoint: tensor names differ after reload")
    for name, t in named.items():
        if not np.all(np.isfinite(t.data)):
            problems.append(f"trained weight {name} is not finite")
        if name in loaded and not np.array_equal(
                loaded[name].data, t.data.astype(np.float32)):
            problems.append(f"checkpoint: {name} differs after reload")

    cfg = wl.params.config.to_dict()
    k_max = cfg["k_max"]
    trained = reference.as_float64(named)
    rng = np.random.default_rng(derive_seed(wl.seed, "perfbench", "ce"))
    pool = wl.renderings("Easy", held_out=False)
    sample = [pool[i] for i in rng.choice(len(pool), 32, replace=False)]
    tokens, targets = training.encode_dataset(sample, wl.world)
    initial = reference.as_float64(model.init_params(
        wl.params.config, seed=derive_seed(wl.config.seed, "init")
    ).named_tensors())
    # the training objective: expected loss over uniformly sampled depths
    ce = {label: float(reference.cross_entropy(
        w, cfg, tokens, targets, k_max).mean())
        for label, w in (("trained", trained), ("initial", initial))}
    if not ce["trained"] < ce["initial"]:
        problems.append(f"train: cross-entropy did not fall ({ce})")

    # the last epoch's logged accuracy against the reference forward
    evals = wl.renderings("Easy", held_out=True)[:100]
    tokens, _ = training.encode_dataset(evals, wl.world)
    options = np.stack([wl.world.encode(p.options) for p in evals])
    correct = np.array([p.correct_index for p in evals])
    logged = wl.log.depth_accuracies[-1]
    logits = reference.step_logits(trained, cfg, tokens, max(logged))
    delta = logit_error(cfg, logits)
    for depth, acc in sorted(logged.items()):
        opt = np.take_along_axis(logits[depth - 1], options, axis=1)
        top2 = np.sort(opt, axis=1)[:, -2:]
        # two logits, each off by at most delta, can swap only this close
        near_tie = top2[:, 1] - top2[:, 0] <= 2 * delta[depth - 1]
        hits = int(((opt.argmax(axis=1) == correct) & ~near_tie).sum())
        logged_hits = round(acc * len(evals))
        if not hits <= logged_hits <= hits + int(near_tie.sum()):
            problems.append(
                f"train: logged accuracy {acc} at k={depth} disagrees with "
                f"the reference ({hits} clear hits, {int(near_tie.sum())} "
                f"near ties of {len(evals)})")

    # program gradient of a float64 copy (train_step at lr 0) against
    # central differences of the reference cross-entropy at k = 2
    items = pool[:2]
    tokens, targets = training.encode_dataset(items, wl.world)
    params = copy.deepcopy(wl.params)
    for _, t in params.named_tensors():
        t.data = t.data.astype(np.float64)
    training.train_step(params, (tokens, targets), 2,
                        training.AdamW(params, training.TrainConfig(lr=0.0)))
    h = 1e-5
    for name, t in params.named_tensors():
        c = int(rng.integers(t.data.size))
        w = dict(trained)
        w[name] = trained[name].copy()
        flat = w[name].reshape(-1)
        orig = flat[c]
        flat[c] = orig + h
        hi = reference.cross_entropy(w, cfg, tokens, targets, 2)[-1]
        flat[c] = orig - h
        lo = reference.cross_entropy(w, cfg, tokens, targets, 2)[-1]
        numeric = (hi - lo) / (2 * h)
        analytic = 0.0 if t.grad is None else float(t.grad.reshape(-1)[c])
        # float64: roundoff ~1e-16 * loss / h and truncation ~h^2 stay far
        # below both terms
        if abs(analytic - numeric) > 1e-4 * (abs(analytic) + abs(numeric)) + 1e-8:
            problems.append(f"train: gradient of {name}[{c}] is {analytic:.6g}, "
                            f"central differences give {numeric:.6g}")


# -- single-question ------------------------------------------------------------


def check_question(problems, wl):
    for j, got in enumerate(wl.first):
        off = float(np.abs(got.sum(axis=1) - 1.0).max())
        if off > SUM_TOL or (got < 0).any():
            problems.append(f"single-question: question {j} has a step "
                            f"distribution off 1 by {off:.3g} or negative")
    if wl.repeat_mismatch:
        problems.append(f"single-question: {wl.repeat_mismatch} repeated "
                        "calls gave different beliefs")
    cfg = wl.params.config.to_dict()
    logits = reference.step_logits(
        reference.as_float64(wl.params.named_tensors()), cfg,
        np.stack(wl.tokens), cfg["k_max"])
    ref = reference.softmax(logits)
    # |dp_i| = p_i |dz_i - sum_j p_j dz_j| <= 2 delta p_i
    tol = 2 * logit_error(cfg, logits)
    for j, got in enumerate(wl.first):
        bad = (np.abs(got - ref[:, j]) > tol[:, j, None] * ref[:, j]).any(axis=1)
        if bad.any():
            problems.append(f"single-question: question {j} differs from the "
                            f"reference at step {int(bad.argmax()) + 1}")


# -- trace-analyze --------------------------------------------------------------


def check_trace(problems, wl):
    from loopscope.seeds import derive_seed
    from loopscope.taskgen import render_tokens

    trajs, config = wl.trajectories, wl.config
    perms = {(it.item_id, it.variant, p.perm_index): p
             for it in wl.bench.items for p in wl.bench.permutations_for(it)}
    keys = [(t.item_id, t.variant, t.perm_index) for t in trajs]
    if len(keys) != len(perms) or set(keys) != set(perms):
        problems.append(f"trace: {len(keys)} rows ({len(set(keys))} distinct) "
                        f"for {len(perms)} (item, variant, permutation)")
    _check_rows(problems, trajs, config.k, math.log(len(wl.world.vocab)))
    _check_read_back(problems, trajs, wl.last / "trajectories.jsonl")

    # a seeded sample of rows against the reference forward
    cfg = wl.params.config.to_dict()
    rng = np.random.default_rng(derive_seed(wl.seed, "perfbench", "rows"))
    sample = [trajs[i] for i in rng.choice(len(trajs), 32, replace=False)]
    tokens = np.stack([wl.world.encode(render_tokens(
        perms[(t.item_id, t.variant, t.perm_index)])) for t in sample])
    logits = reference.step_logits(
        reference.as_float64(wl.params.named_tensors()), cfg, tokens, config.k)
    probs = reference.softmax(logits)
    delta = logit_error(cfg, logits)
    for j, t in enumerate(sample):
        p, d = probs[:, j], delta[:, j]
        ids = wl.world.encode(perms[(t.item_id, t.variant, t.perm_index)].options)
        ent = -(p * np.log(p)).sum(axis=1)
        prev, nxt = np.maximum(p[:-1], KL_FLOOR), p[1:]
        log_ratio = np.log(nxt / prev)
        kl = (nxt * log_ratio).sum(axis=1)
        # to first order in the logit errors dz (|dz| <= delta):
        #   dp_i = p_i (dz_i - sum_j p_j dz_j), so |dp_i| <= 2 delta p_i;
        #   dH = -sum_i p_i ln p_i (dz_i - mean dz), so |dH| <= 2 delta H;
        #   dKL(q||p) = sum_i dq_i ln(q_i/p_i) + sum_i (p_i - q_i) dz_i,
        #   so |dKL| <= 2 delta_q sum q|ln q/p| + delta_p sum |p - q|
        kl_tol = (2 * d[1:] * (nxt * np.abs(log_ratio)).sum(axis=1)
                  + d[:-1] * np.abs(nxt - p[:-1]).sum(axis=1) + 1e-12)
        label = f"trace row {t.item_id}/{t.variant}/{t.perm_index}"
        if (np.abs(t.option_probs - p[:, ids]) > 2 * d[:, None] * p[:, ids]).any():
            problems.append(f"{label}: option_probs differ from the reference")
        if (np.abs(t.full_entropy - ent) > 2 * d * ent).any():
            problems.append(f"{label}: full_entropy differs from the reference")
        if (np.abs(t.step_kl_series - kl) > kl_tol).any():
            problems.append(f"{label}: step_kl differs from the reference")

    _check_outputs(problems, trajs, config, wl.last)


def _check_rows(problems, trajs, k, ln_v):
    bad = set()
    for t in trajs:
        p = np.asarray(t.option_probs)
        label = f"{t.item_id}/{t.variant}/{t.perm_index}"
        if p.shape != (k, 4) or len(t.step_kl_series) != k - 1 \
                or len(t.full_entropy) != k or len(t.argmax_series) != k:
            bad.add(f"{label}: series lengths do not match k={k}")
            continue
        if (p < 0).any() or (p.sum(axis=1) > 1 + SUM_TOL).any():
            bad.add(f"{label}: option mass outside [0, 1]")
        if not np.array_equal(np.asarray(t.argmax_series), p.argmax(axis=1)):
            bad.add(f"{label}: argmax_series is not the argmax of option_probs")
        ent = np.asarray(t.full_entropy)
        if (ent < -SUM_TOL).any() or (ent > ln_v + SUM_TOL).any():
            bad.add(f"{label}: entropy outside [0, ln V]")
        if (np.asarray(t.renorm_entropy) > math.log(4) + SUM_TOL).any():
            bad.add(f"{label}: renormalised entropy above ln 4")
        if (np.asarray(t.step_kl_series) < -SUM_TOL).any():
            bad.add(f"{label}: negative step_kl")
    problems.extend(f"trace row {b}" for b in sorted(bad)[:10])


def _check_read_back(problems, trajs, path):
    with open(path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f]
    if len(records) != len(trajs):
        problems.append(f"trajectories.jsonl holds {len(records)} rows, "
                        f"{len(trajs)} were traced")
        return
    fields = {"option_probs": "option_probs", "full_entropy": "full_entropy",
              "renorm_entropy": "renorm_entropy",
              "argmax_series": "argmax_series", "step_kl": "step_kl_series"}
    for rec, t in zip(records, trajs):
        same = (rec["item_id"], rec["variant"], rec["perm_index"],
                rec["correct_index"]) == (t.item_id, t.variant, t.perm_index,
                                          t.correct_index)
        same = same and all(np.array_equal(np.asarray(rec[key]),
                                           np.asarray(getattr(t, attr)))
                            for key, attr in fields.items())
        if not same:
            problems.append(f"trajectories.jsonl row {t.item_id}/{t.variant}/"
                            f"{t.perm_index} differs from what was traced")
            return


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def _check_outputs(problems, trajs, config, out):
    """summary.csv, backtrack_ranks.csv and entropy_curves.csv against the
    oracle, and the identities between summary statistics."""
    values, counts, n_events = oracle.summary_values(
        trajs, config.tol, config.window, config.min_run)
    rows = {r["statistic"]: r for r in _read_csv(out / "summary.csv")}
    written = {}
    for name, value in sorted(values.items()):
        row = rows.get(name)
        if row is None:
            problems.append(f"summary.csv lacks {name}")
        elif value is None:
            if row["value"] != "":
                problems.append(f"summary.csv: {name} = {row['value']}, the "
                                "oracle finds no instances")
        elif row["value"] == "" or not _close(float(row["value"]), value):
            problems.append(f"summary.csv: {name} = {row['value']}, the "
                            f"oracle gives {value:.10g}")
        else:
            written[name] = float(row["value"])
            if not float(row["ci_low"]) <= float(row["ci_high"]):
                problems.append(f"summary.csv: {name} CI is inverted")

    ranks = {r["abandoned_answer"]: int(r["count"])
             for r in _read_csv(out / "backtrack_ranks.csv")}
    if ranks != counts:
        problems.append(f"backtrack_ranks.csv {ranks} != oracle {counts}")

    means = oracle.entropy_means(trajs)
    curves = {}
    for r in _read_csv(out / "entropy_curves.csv"):
        curves.setdefault(r["variant"], []).append(r)
    if set(curves) != set(means):
        problems.append("entropy_curves.csv variants differ from the traces")
    for variant, rs in curves.items():
        expect = means.get(variant, [])
        if len(rs) != len(expect) or any(
                not _close(float(r["mean_entropy_nats"]), m)
                or not float(r["ci_low"]) <= float(r["mean_entropy_nats"])
                <= float(r["ci_high"])
                for r, m in zip(rs, expect)):
            problems.append(f"entropy_curves.csv: {variant} means differ from "
                            "the oracle or lie outside their band")

    _check_identities(problems, written, ranks, n_events)


def _check_identities(problems, s, ranks, n_events):
    def holds(label, lhs, rhs, tol=1e-8):
        if abs(lhs - rhs) > tol * max(1.0, abs(rhs)):
            problems.append(f"identity {label}: {lhs:.10g} != {rhs:.10g}")

    if {"accuracy_uplift_Base", "backtrack_accuracy_Base",
            "non_backtrack_accuracy_Base"} <= s.keys():
        holds("uplift = backtrack - non-backtrack accuracy",
              s["accuracy_uplift_Base"],
              s["backtrack_accuracy_Base"] - s["non_backtrack_accuracy_Base"])
    if {"exploration_gap_Base_over_Easy", "exploration_length_Easy",
            "exploration_diff_Base_minus_Easy"} <= s.keys():
        holds("gap * Easy length = Base - Easy",
              s["exploration_gap_Base_over_Easy"] * s["exploration_length_Easy"],
              s["exploration_diff_Base_minus_Easy"])
    fractions = [f"abandoned_{label}_fraction"
                 for label in oracle.RANK_LABELS.values()]
    fractions.append("abandoned_correct_fraction")
    if n_events and set(fractions) <= s.keys():
        holds("abandoned fractions sum to 1", sum(s[f] for f in fractions), 1.0)
    if "n_backtrack_events_Base" in s:
        abandoned_correct = round(s.get("abandoned_correct_fraction", 0.0)
                                  * n_events)
        holds("rank counts + abandoned correct = events",
              sum(ranks.get(label, 0) for label in oracle.RANK_LABELS.values())
              + abandoned_correct, s["n_backtrack_events_Base"])
