"""Experiment orchestration: benchmark -> training -> traces -> analysis.

One master seed derives every stage seed, so a config reproduces the same
benchmark JSONL, checkpoint, trajectory JSONL, CSV tables, and SVG figures
byte for byte given the same BLAS kernel (the CPU picks it). A manifest
with content hashes is written last; its absence marks a partial run.
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
    aggregate_stats,
    belief_trajectory,
    read_trajectories_jsonl,
    write_trajectories_jsonl,
)
from .model import CHUNK_ROWS, LoopedConfig, _check_ints, deliberate, init_params
from .seeds import derive_seed
from .svgplot import emit_entropy_plot, emit_trajectory_plot
from .taskgen import RENDER_LEN, benchmark_jsonl, build_world, generate_benchmark, render_tokens, write_benchmark_jsonl
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

# backtrack_ranks.csv rows: label, and the summary statistic holding its share
# of the Base backtracking events; the first three rank abandoned distractors
RANK_ROWS = [("most_similar", "abandoned_most_similar_fraction"),
             ("second_similar", "abandoned_second_similar_fraction"),
             ("least_similar", "abandoned_least_similar_fraction"),
             ("adopted_correct", "adopted_correct_fraction")]


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
    # training (tuned for the reference run; see TrainConfig for the bare
    # optimizer defaults). train.seed has no effect: training takes its seed
    # from `seed` (see train_config), and the manifest records that one
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        lr=2e-3, epochs=24, warmup_steps=100, lr_decay="cosine"))
    # metrics
    tol: float = 0.01
    window: int = 3
    min_run: int = 3
    n_resamples: int = 10000
    level: float = 0.95
    # plumbing
    output_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.train, dict):
            self.train = TrainConfig(**self.train)
        if not isinstance(self.train, TrainConfig):
            raise ValueError("train must be a TrainConfig or a dict of its fields")
        _check_ints(self, ("k", "n_permutations", "window", "min_run", "n_resamples"))
        # the model fields, checked by the model's own config at any vocab
        self.model_config(vocab_size=1)
        if not 0 <= self.holdout_stems < self.n_stems:
            raise ValueError("holdout_stems must be in [0, n_stems)")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if not 0 < self.level < 1:
            raise ValueError("level must lie in (0, 1)")
        for name in ("category_coherence", "two_hop_fraction"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")
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

    def train_config(self) -> TrainConfig:
        """The TrainConfig that stage_train trains with: `train`, with its
        seed derived from the master seed."""
        return TrainConfig(**{**asdict(self.train),
                              "seed": derive_seed(self.seed, "train")})

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Config from a dict; an unknown or mistyped field is a ValueError."""
        try:
            return cls(**d)
        except TypeError as e:
            raise ValueError(str(e)) from e

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


def split_stems(config: ExperimentConfig, bench) -> list:
    """Ids of the training stems, in benchmark order: every stem but the
    last `holdout_stems`, which are held out of training and traced."""
    stems = bench.stems()
    return [s.item_id for s in stems[:len(stems) - config.holdout_stems]]


def known_stems(config: ExperimentConfig, bench) -> set:
    """Training stems whose Base variant is trained on: a seeded random
    KNOWN_FRACTION of them."""
    stems = split_stems(config, bench)
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
    train_ids = set(split_stems(config, bench))
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
    depths = tuple(sorted({max(1, config.k // 8), max(1, config.k // 4),
                           max(1, config.k // 2), config.k}))
    log = train(params, train_items, world, config.train_config(),
                eval_items=eval_items or None, eval_depths=depths)
    if write:
        log.to_csv(os.path.join(config.output_dir, TRAIN_LOG_FILE))
        save_checkpoint(params, os.path.join(config.output_dir, CKPT_FILE))
    return params, log


@_stage("trace")
def stage_trace(config: ExperimentConfig, world, bench, params,
                write: bool = True):
    """Decode every (item, permutation) deliberation at depth k, in stable
    benchmark order, in chunks of CHUNK_ROWS rows cut in that order."""
    rows = [(item, perm) for item in bench.items
            for perm in bench.permutations_for(item)]
    tokens = np.stack([world.encode(render_tokens(p)) for _, p in rows])
    trajectories = []
    for lo in range(0, len(rows), CHUNK_ROWS):
        probs = deliberate(tokens[lo:lo + CHUNK_ROWS], params, config.k)
        for j, (item, perm) in enumerate(rows[lo:lo + CHUNK_ROWS]):
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
    `level`. The mean is over every trajectory. The standard error is over
    per-stem mean curves, because the option orderings of one stem are
    replicates of one question, not independent draws."""
    if not 0 < level < 1:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    z = NormalDist().inv_cdf((1 + level) / 2)
    curves = {}
    by_variant = {}
    for t in trajectories:
        by_variant.setdefault(t.variant, []).append(t)
    for variant, trajs in sorted(by_variant.items()):
        mean = np.stack([t.full_entropy for t in trajs]).mean(axis=0)
        stems = {}
        for t in trajs:
            stems.setdefault(t.item_id, []).append(t.full_entropy)
        stem_means = np.stack([np.mean(ents, axis=0)
                               for ents in stems.values()])
        se = (stem_means.std(axis=0, ddof=1) / np.sqrt(len(stem_means))
              if len(stem_means) > 1 else np.zeros_like(mean))
        curves[variant] = (mean, mean - z * se, mean + z * se)
    return curves


def _report(config: ExperimentConfig, trajectories) -> ExperimentReport:
    return ExperimentReport(
        summary=aggregate_stats(
            trajectories, tol=config.tol, window=config.window,
            min_run=config.min_run, n_resamples=config.n_resamples,
            level=config.level, seed=derive_seed(config.seed, "analyze")),
        entropy_curves=entropy_curves(trajectories, level=config.level))


@_stage("analyze")
def stage_analyze(config: ExperimentConfig, trajectories,
                  write: bool = True) -> ExperimentReport:
    report = _report(config, trajectories)
    if write:
        export_summary(report, config.output_dir)
    return report


def _summary_rows(summary) -> list:
    rows = [["statistic", "value", "ci_low", "ci_high", "n", "note"]]
    for name in sorted(summary):
        s = summary[name]
        rows.append([name, "", "", "", "0", "absent"] if s is None else
                    [name, _fnum(s.value), _fnum(s.ci_low), _fnum(s.ci_high),
                     str(s.n), s.note])
    return rows


def _rank_rows(summary) -> list:
    """Counts and shares of the Base backtracking events, from the summary:
    each RANK_ROWS statistic is a mean of n 0/1 values, one per event, so
    round(value * n) is its count. An absent statistic counts 0."""
    def count(name):
        s = summary.get(name)
        return 0 if s is None else round(s.value * s.n)

    events = summary.get("n_backtrack_events_Base")
    n = 0 if events is None else round(events.value)
    counts = [count(name) for _, name in RANK_ROWS]
    n_distractor = sum(counts[:3])
    rows = [["abandoned_answer", "count",
             "fraction_of_events", "fraction_of_distractor_events"]]
    for i, ((label, _), c) in enumerate(zip(RANK_ROWS, counts)):
        rows.append([label, str(c), _fnum(c / n) if n else "",
                     _fnum(c / n_distractor) if i < 3 and n_distractor else ""])
    return rows


def _curve_rows(curves) -> list:
    rows = [["variant", "step", "mean_entropy_nats", "ci_low", "ci_high"]]
    for variant in sorted(curves):
        rows += [[variant, str(i), _fnum(m), _fnum(lo), _fnum(hi)]
                 for i, (m, lo, hi) in enumerate(zip(*curves[variant]), 1)]
    return rows


def _tables(summary, curves) -> dict:
    """file name -> rows, header first, of each analysis CSV."""
    return {SUMMARY_FILE: _summary_rows(summary),
            RANKS_FILE: _rank_rows(summary),
            CURVES_FILE: _curve_rows(curves)}


def export_summary(report: ExperimentReport, out_dir) -> None:
    """summary.csv, backtrack_ranks.csv, entropy_curves.csv (UTF-8, fixed
    column order, deterministic float formatting)."""
    for name, rows in _tables(report.summary, report.entropy_curves).items():
        with open(os.path.join(out_dir, name), "w", newline="",
                  encoding="utf-8") as f:
            csv.writer(f).writerows(rows)


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
    """manifest.json: the config, with the train seed that training used,
    and the hash of every output file."""
    manifest = {
        "config": {**config.to_dict(),
                   "train": asdict(config.train_config())},
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

def _trajectory_problems(trajectories, k: int, vocab: int) -> list:
    """The rows (item_id, variant, perm_index) of trajectories that break
    an invariant of belief_trajectory's output at depth k: k steps of each
    series and k - 1 step KLs; the argmax agrees with option_probs; the
    option masses are nonnegative and sum to at most 1; full_entropy lies
    in [0, ln vocab] and renorm_entropy in [0, ln 4], each bound within
    1e-9; every step KL is finite and at least -1e-9. A NaN breaks every
    bound."""
    def row(t):
        return f"{TRAJ_FILE}: row ({t.item_id}, {t.variant}, {t.perm_index})"

    shapes = {"option_probs": (k, 4), "full_entropy": (k,),
              "renorm_entropy": (k,), "argmax_series": (k,),
              "step_kl_series": (k - 1,)}
    problems = [f"{row(t)}: series not of depth {k}" for t in trajectories
                if t.k != k or any(np.shape(getattr(t, name)) != shape
                                   for name, shape in shapes.items())]
    if problems or not trajectories:
        return problems

    def stack(name):
        return np.stack([getattr(t, name) for t in trajectories])

    def outside(x, hi):
        return ~((-1e-9 <= x) & (x <= hi + 1e-9))

    probs, kl = stack("option_probs"), stack("step_kl_series")
    broken = {
        "argmax_series disagrees with option_probs":
            stack("argmax_series") != probs.argmax(axis=2),
        "option masses negative or summing above 1":
            (probs < 0).any(axis=2) | outside(probs.sum(axis=2), 1.0),
        f"full_entropy outside [0, ln {vocab}]":
            outside(stack("full_entropy"), np.log(vocab)),
        "renorm_entropy outside [0, ln 4]":
            outside(stack("renorm_entropy"), np.log(4)),
        "step_kl negative or not finite": ~(np.isfinite(kl) & (kl >= -1e-9)),
    }
    for what, bad in broken.items():
        problems += [f"{row(trajectories[i])}: {what}"
                     for i in np.flatnonzero(bad.any(axis=1))]
    return problems


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
    unlisted = [name for name in OUTPUT_FILES if name not in files]
    if unlisted:
        return [f"{MANIFEST_FILE}: \"files\" lacks {', '.join(unlisted)}"]
    unknown = sorted(set(files) - set(OUTPUT_FILES))
    if unknown:
        return [f"{MANIFEST_FILE}: \"files\" lists {', '.join(unknown)}, "
                "which no stage writes"]
    try:
        config = ExperimentConfig.from_dict(manifest["config"])
    except ValueError as e:
        return [f"{MANIFEST_FILE}: config rejected ({e})"]
    for name, digest in files.items():
        path = os.path.join(output_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{name}: listed in manifest but missing")
        elif _sha256(path) != digest:
            problems.append(f"{name}: content hash mismatch")
    if problems:
        return problems

    # the benchmark, generated again from the config by the writer's builder
    try:
        want = benchmark_jsonl(stage_gen_bench(config, write=False)[1])
    except PipelineError as e:
        return [f"{BENCH_FILE}: cannot be generated from the config ({e})"]
    with open(os.path.join(output_dir, BENCH_FILE), "rb") as f:
        got, want = f.read().splitlines(True), want.encode().splitlines(True)
    if got != want:
        first = next(i for i, (a, b) in enumerate(
            zip(got + [b""], want + [b""]), 1) if a != b)
        problems.append(f"{BENCH_FILE}: line {first} differs from the "
                        "benchmark its config generates")

    import xml.etree.ElementTree as ET
    for name in (FIG_TRAJ_FILE, FIG_ENTROPY_FILE):
        try:
            ET.parse(os.path.join(output_dir, name))
        except ET.ParseError as e:
            problems.append(f"{name}: not well-formed XML ({e})")
    try:
        vocab = load_checkpoint(
            os.path.join(output_dir, CKPT_FILE)).config.vocab_size
    except Exception as e:
        return problems + [f"{CKPT_FILE}: failed to load ({e})"]

    # the trajectories' invariants, then every analysis table, rebuilt from
    # them by the writer's own row builders
    try:
        trajectories = read_trajectories_jsonl(
            os.path.join(output_dir, TRAJ_FILE))
        broken = _trajectory_problems(trajectories, config.k, vocab)
        if broken:
            return problems + broken
        report = _report(config, trajectories)
    except Exception as e:       # verify reports, and never raises
        return problems + [f"{TRAJ_FILE}: cannot be analyzed "
                           f"({type(e).__name__}: {e})"]
    for name, expected in _tables(report.summary,
                                  report.entropy_curves).items():
        try:
            with open(os.path.join(output_dir, name), newline="",
                      encoding="utf-8") as f:
                rows = list(csv.reader(f))
        except (OSError, UnicodeDecodeError, csv.Error) as e:
            problems.append(f"{name}: not readable as CSV ({e})")
            continue
        problems += [f"{name}: row {','.join(got)!r} disagrees with the "
                     f"recomputed {','.join(want)!r}"
                     for got, want in zip(rows, expected) if got != want]
        if len(rows) != len(expected):
            problems.append(f"{name}: {len(rows)} rows, the recomputation "
                            f"has {len(expected)}")
    return problems
