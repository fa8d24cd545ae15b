"""Experiment orchestration: benchmark -> training -> traces -> analysis.

One master seed derives every stage seed, so a config reproduces the same
benchmark JSONL, checkpoint, trajectory JSONL, CSV tables, and SVG figures
byte for byte on one machine (float32 training follows the CPU's BLAS
kernel, so the bytes differ across CPUs). A manifest with content hashes is
written last; its absence marks a partial run.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from statistics import NormalDist

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .metrics import (
    CORRECT,
    aggregate_stats,
    belief_trajectory,
    detect_backtracks,
    read_trajectories_jsonl,
    similarity_rank,
    write_trajectories_jsonl,
)
from .model import LoopedConfig, deliberate, init_params
from .seeds import derive_seed
from .svgplot import emit_entropy_plot, emit_trajectory_plot
from .taskgen import RENDER_LEN, build_world, generate_benchmark, render_tokens, write_benchmark_jsonl
from .training import TrainConfig, train

BENCH_FILE = "benchmark.jsonl"
CKPT_FILE = "model.ckpt"
TRAIN_LOG_FILE = "train_log.csv"
TRAJ_FILE = "trajectories.jsonl"
SUMMARY_FILE = "summary.csv"
RANKS_FILE = "backtrack_ranks.csv"
CURVES_FILE = "entropy_curves.csv"
FIG_TRAJ_FILE = "fig_trajectory.svg"
FIG_ENTROPY_FILE = "fig_entropy.svg"
MANIFEST_FILE = "manifest.json"

OUTPUT_FILES = [BENCH_FILE, CKPT_FILE, TRAIN_LOG_FILE, TRAJ_FILE,
                SUMMARY_FILE, RANKS_FILE, CURVES_FILE,
                FIG_TRAJ_FILE, FIG_ENTROPY_FILE]

RANK_ROWS = [("most_similar", 1), ("second_similar", 2),
             ("least_similar", 3), ("adopted_correct", None)]


# share of the training stems whose Base variant is trained (see stage_train)
KNOWN_FRACTION = 0.5


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage and cause."""


def _fnum(x) -> str:
    return f"{float(x):.10g}"


@dataclass
class ExperimentConfig:
    # world / benchmark (defaults = the reference desk-scale experiment)
    n_categories: int = 4
    entities_per_category: int = 8
    n_attributes: int = 4
    n_values: int = 6
    category_coherence: float = 0.4
    n_stems: int = 240
    two_hop_fraction: float = 0.5
    n_permutations: int = 8
    holdout_stems: int = 20       # stems excluded from training, kept in traces
    train_variants: tuple = ("Easy",)   # variants trained on every training stem
    # model (vocab size comes from the generated world)
    d_model: int = 64
    n_heads: int = 4
    prelude_layers: int = 2
    recurrent_layers: int = 4
    coda_layers: int = 2
    k: int = 30
    # training (tuned for the 30-minute single-core reference run; see
    # TrainConfig for the bare optimizer defaults)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        lr=2e-3, epochs=24, warmup_steps=100, lr_decay="cosine"))
    # metrics
    tol: float = 0.01
    window: int = 3
    min_run: int = 3
    n_resamples: int = 10000
    level: float = 0.95
    # plumbing
    trace_batch: int = 512
    output_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.train, dict):
            self.train = TrainConfig(**self.train)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_permutations < 1:
            raise ValueError("n_permutations must be >= 1")
        if not 0 <= self.holdout_stems < self.n_stems:
            raise ValueError("holdout_stems must be in [0, n_stems)")
        self.train_variants = tuple(self.train_variants)
        if not self.train_variants or not set(self.train_variants) <= {"Base", "Easy"}:
            raise ValueError("train_variants must be a nonempty subset of "
                             "('Base', 'Easy') — NoCorrect has no target")

    def model_config(self, vocab_size: int) -> LoopedConfig:
        return LoopedConfig(
            vocab_size=vocab_size, d_model=self.d_model, n_heads=self.n_heads,
            prelude_layers=self.prelude_layers,
            recurrent_layers=self.recurrent_layers,
            coda_layers=self.coda_layers, max_seq=RENDER_LEN, k_max=self.k)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")


@dataclass
class ExperimentReport:
    summary: dict                 # statistic name -> Stat | None
    entropy_curves: dict          # variant -> (mean, lower, upper) arrays
    rank_counts: dict             # rank label -> event count
    n_events: int
    manifest: dict = field(default_factory=dict)


# -- stages -------------------------------------------------------------------


def _stage(name):
    def wrap(fn):
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except PipelineError:
                raise
            except Exception as e:
                raise PipelineError(f"stage {name} failed: {e}") from e
        return run
    return wrap


def check_output_dir(config: ExperimentConfig) -> str:
    """Create the output dir and prove it is writable before any heavy work."""
    out = config.output_dir
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write_probe")
        with open(probe, "w") as f:
            f.write("ok")
        os.remove(probe)
    except OSError as e:
        raise PipelineError(f"output dir {out!r} not writable: {e}") from e
    return out


@_stage("gen-bench")
def stage_gen_bench(config: ExperimentConfig, write: bool = True):
    world = build_world(
        seed=derive_seed(config.seed, "world"),
        n_categories=config.n_categories,
        entities_per_category=config.entities_per_category,
        n_attributes=config.n_attributes, n_values=config.n_values,
        category_coherence=config.category_coherence)
    bench = generate_benchmark(
        world, n_stems=config.n_stems,
        seed=derive_seed(config.seed, "bench"),
        two_hop_fraction=config.two_hop_fraction,
        n_permutations=config.n_permutations)
    if write:
        write_benchmark_jsonl(
            bench, os.path.join(config.output_dir, BENCH_FILE))
    return world, bench


def _split_stems(config: ExperimentConfig, bench):
    stems = bench.stems()
    n_hold = config.holdout_stems
    train_ids = {s.item_id for s in stems[:len(stems) - n_hold]}
    return train_ids


def known_stems(config: ExperimentConfig, bench) -> set:
    """Training stems whose Base variant is trained on: a seeded random
    KNOWN_FRACTION of them."""
    train_ids = _split_stems(config, bench)
    stems = [s.item_id for s in bench.stems() if s.item_id in train_ids]
    n_known = round(KNOWN_FRACTION * len(stems))
    rng = np.random.default_rng(derive_seed(config.seed, "known"))
    return {stems[i] for i in rng.choice(len(stems), n_known, replace=False)}


@_stage("train")
def stage_train(config: ExperimentConfig, world, bench, write: bool = True):
    """Train on `train_variants` of every training stem, plus the Base
    variant of the known stems.

    Easy alone cannot teach which of Base's same-category options is
    correct (naming the category solves Easy), so an Easy-only model answers
    Base near chance and does not react when NoCorrect removes the answer.
    Base on every stem makes Base as familiar as Easy, and its near misses
    no longer lengthen exploration. So the known stems carry the NoCorrect
    probe, and the other stems keep Base a genuine probe."""
    params = init_params(config.model_config(len(world.vocab)),
                         seed=derive_seed(config.seed, "init"))
    train_ids = _split_stems(config, bench)
    known = known_stems(config, bench)
    train_items = [p for it in bench.items
                   if it.item_id in train_ids
                   and (it.variant in config.train_variants
                        or (it.variant == "Base" and it.item_id in known))
                   for p in bench.permutations_for(it)]
    # cap the per-epoch progress eval: full evaluation happens downstream
    eval_items = [p for it in bench.items
                  if it.variant == "Easy" and it.item_id not in train_ids
                  for p in bench.permutations_for(it)][:100]
    tcfg = TrainConfig(**{**asdict(config.train),
                          "seed": derive_seed(config.seed, "train")})
    depths = tuple(sorted({max(1, config.k // 8), max(1, config.k // 4),
                           max(1, config.k // 2), config.k}))
    log = train(params, train_items, world, tcfg,
                eval_items=eval_items or None, eval_depths=depths)
    if write:
        log.to_csv(os.path.join(config.output_dir, TRAIN_LOG_FILE))
        save_checkpoint(params, os.path.join(config.output_dir, CKPT_FILE))
    return params, log


@_stage("trace")
def stage_trace(config: ExperimentConfig, world, bench, params,
                write: bool = True):
    """Decode every (item, permutation) deliberation at depth k, in stable
    benchmark order, batched for throughput."""
    rows = [(item, perm) for item in bench.items
            for perm in bench.permutations_for(item)]
    tokens = np.stack([world.encode(render_tokens(p)) for _, p in rows])
    trajectories = []
    for lo in range(0, len(rows), config.trace_batch):
        hi = min(lo + config.trace_batch, len(rows))
        probs = deliberate(tokens[lo:hi], params, config.k)
        for j, (item, perm) in enumerate(rows[lo:hi]):
            trajectories.append(belief_trajectory(
                probs[:, j], world.encode(perm.options),
                item_id=item.item_id, variant=item.variant,
                perm_index=perm.perm_index,
                correct_index=perm.correct_index,
                similarities=perm.similarities, options=perm.options))
    if write:
        write_trajectories_jsonl(
            trajectories, os.path.join(config.output_dir, TRAJ_FILE))
    return trajectories


def entropy_curves(trajectories, level: float = 0.95) -> dict:
    """Per-variant mean full-vocabulary entropy per step with a normal CI
    band (mean +- z * standard error), z the two-sided normal quantile of
    `level`."""
    if not 0 < level < 1:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    z = NormalDist().inv_cdf((1 + level) / 2)
    curves = {}
    by_variant = {}
    for t in trajectories:
        by_variant.setdefault(t.variant, []).append(t.full_entropy)
    for variant, ents in sorted(by_variant.items()):
        stack = np.stack(ents)
        mean = stack.mean(axis=0)
        se = (stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])
              if stack.shape[0] > 1 else np.zeros_like(mean))
        curves[variant] = (mean, mean - z * se, mean + z * se)
    return curves


def rank_histogram(trajectories, min_run: int = 3):
    """Counts of abandoned-answer similarity ranks over Base backtracking
    events, plus the adopted-correct count."""
    counts = {label: 0 for label, _ in RANK_ROWS}
    n_events = 0
    for t in sorted(trajectories, key=lambda t: (t.item_id, t.variant,
                                                 t.perm_index)):
        if t.variant != "Base":
            continue
        for e in detect_backtracks(t.argmax_series, min_run=min_run):
            n_events += 1
            r = similarity_rank(t, e.abandoned)
            if r != CORRECT:
                label = {1: "most_similar", 2: "second_similar",
                         3: "least_similar"}[r]
                counts[label] += 1
            if e.adopted == t.correct_index:
                counts["adopted_correct"] += 1
    return counts, n_events


@_stage("analyze")
def stage_analyze(config: ExperimentConfig, trajectories,
                  write: bool = True) -> ExperimentReport:
    summary = aggregate_stats(
        trajectories, tol=config.tol, window=config.window,
        min_run=config.min_run, n_resamples=config.n_resamples,
        level=config.level, seed=derive_seed(config.seed, "analyze"))
    curves = entropy_curves(trajectories, level=config.level)
    counts, n_events = rank_histogram(trajectories, min_run=config.min_run)
    report = ExperimentReport(summary=summary, entropy_curves=curves,
                              rank_counts=counts, n_events=n_events)
    if write:
        export_summary(report, config.output_dir)
    return report


def export_summary(report: ExperimentReport, out_dir) -> None:
    """summary.csv, backtrack_ranks.csv, entropy_curves.csv (UTF-8, fixed
    column order, deterministic float formatting)."""
    with open(os.path.join(out_dir, SUMMARY_FILE), "w", newline="",
              encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["statistic", "value", "ci_low", "ci_high", "n", "note"])
        for name in sorted(report.summary):
            s = report.summary[name]
            if s is None:
                w.writerow([name, "", "", "", 0, "absent"])
            else:
                w.writerow([name, _fnum(s.value), _fnum(s.ci_low),
                            _fnum(s.ci_high), s.n, s.note])
    with open(os.path.join(out_dir, RANKS_FILE), "w", newline="",
              encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["abandoned_answer", "count",
                    "fraction_of_events", "fraction_of_distractor_events"])
        n = report.n_events
        n_distractor = sum(report.rank_counts[l] for l, r in RANK_ROWS
                           if r is not None)
        for label, rank in RANK_ROWS:
            c = report.rank_counts[label]
            frac = _fnum(c / n) if n else ""
            dfrac = ("" if rank is None or not n_distractor
                     else _fnum(c / n_distractor))
            w.writerow([label, c, frac, dfrac])
    with open(os.path.join(out_dir, CURVES_FILE), "w", newline="",
              encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["variant", "step", "mean_entropy_nats", "ci_low", "ci_high"])
        for variant in sorted(report.entropy_curves):
            mean, lo, hi = report.entropy_curves[variant]
            for i in range(mean.size):
                w.writerow([variant, i + 1, _fnum(mean[i]), _fnum(lo[i]),
                            _fnum(hi[i])])


@_stage("plot")
def stage_plot(config: ExperimentConfig, trajectories, report) -> None:
    """fig_trajectory.svg for the first Base item (band over its other
    permutations, mapped to a common option ordering) and fig_entropy.svg."""
    base = [t for t in trajectories if t.variant == "Base"]
    base.sort(key=lambda t: (t.item_id, t.perm_index))
    first_id = base[0].item_id
    group = [t for t in base if t.item_id == first_id]
    lead, siblings = group[0], group[1:]
    # map each sibling back to the lead's option ordering by option name
    remapped = []
    for s in siblings:
        order = [s.options.index(o) for o in lead.options]
        c = copy.copy(s)
        c.option_probs = s.option_probs[:, order]
        remapped.append(c)
    svg = emit_trajectory_plot(lead, extra_trajectories=remapped,
                               title=f"per-step beliefs: {first_id}")
    with open(os.path.join(config.output_dir, FIG_TRAJ_FILE), "w",
              encoding="utf-8") as f:
        f.write(svg)
    svg = emit_entropy_plot(report.entropy_curves,
                            title="mean decoded entropy by variant")
    with open(os.path.join(config.output_dir, FIG_ENTROPY_FILE), "w",
              encoding="utf-8") as f:
        f.write(svg)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(config: ExperimentConfig) -> dict:
    manifest = {
        "config": config.to_dict(),
        "files": {name: _sha256(os.path.join(config.output_dir, name))
                  for name in OUTPUT_FILES},
    }
    with open(os.path.join(config.output_dir, MANIFEST_FILE), "w",
              encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """All stages in order; the manifest is written only after every output
    file exists, so an interrupted run leaves no manifest behind."""
    check_output_dir(config)
    world, bench = stage_gen_bench(config)
    params, _ = stage_train(config, world, bench)
    trajectories = stage_trace(config, world, bench, params)
    report = stage_analyze(config, trajectories)
    stage_plot(config, trajectories, report)
    report.manifest = write_manifest(config)
    return report


# -- verification --------------------------------------------------------------


def verify(output_dir) -> list:
    """Self-consistency check of a finished run. Returns a list of problem
    descriptions; an empty list means the run verifies."""
    problems = []
    manifest_path = os.path.join(output_dir, MANIFEST_FILE)
    if not os.path.exists(manifest_path):
        return [f"no manifest at {manifest_path} (partial or missing run)"]
    try:
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        return [f"{MANIFEST_FILE}: not readable as JSON ({e})"]
    if not isinstance(manifest, dict):
        return [f"{MANIFEST_FILE}: not a JSON object"]
    missing = [key for key in ("files", "config") if key not in manifest]
    if missing:
        return [f"{MANIFEST_FILE}: lacks {', '.join(repr(k) for k in missing)}"]
    files = manifest["files"]
    if not isinstance(files, dict) or not all(
            isinstance(v, str) for v in files.values()):
        return [f"{MANIFEST_FILE}: \"files\" is not a map of file names to hashes"]
    try:
        config = ExperimentConfig.from_dict(manifest["config"])
    except (TypeError, ValueError) as e:
        return [f"{MANIFEST_FILE}: config rejected ({e})"]
    for name, digest in files.items():
        path = os.path.join(output_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name}: listed in manifest but missing")
        elif _sha256(path) != digest:
            problems.append(f"{name}: content hash mismatch")
    if problems:
        return problems

    trajectories = read_trajectories_jsonl(os.path.join(output_dir, TRAJ_FILE))
    summary = aggregate_stats(
        trajectories, tol=config.tol, window=config.window,
        min_run=config.min_run, n_resamples=config.n_resamples,
        level=config.level, seed=derive_seed(config.seed, "analyze"))
    with open(os.path.join(output_dir, SUMMARY_FILE), encoding="utf-8") as f:
        rows = {r["statistic"]: r for r in csv.DictReader(f)}
    for name in sorted(summary):
        if name not in rows:
            problems.append(f"summary.csv missing statistic {name}")
            continue
        s, row = summary[name], rows[name]
        if s is None:
            if row["value"] != "":
                problems.append(f"{name}: file has a value, recompute is absent")
        elif (row["value"] != _fnum(s.value)
              or row["ci_low"] != _fnum(s.ci_low)
              or row["ci_high"] != _fnum(s.ci_high)):
            problems.append(
                f"{name}: summary.csv disagrees with recomputation "
                f"({row['value']} vs {_fnum(s.value)})")

    import xml.etree.ElementTree as ET
    for name in (FIG_TRAJ_FILE, FIG_ENTROPY_FILE):
        try:
            ET.parse(os.path.join(output_dir, name))
        except ET.ParseError as e:
            problems.append(f"{name}: not well-formed XML ({e})")
    try:
        load_checkpoint(os.path.join(output_dir, CKPT_FILE))
    except Exception as e:
        problems.append(f"{CKPT_FILE}: failed to load ({e})")
    return problems
