"""Command-line front end for the experiment pipeline.

Each subcommand re-runs one stage; `run-all` chains them and writes the
content-hash manifest; `verify` checks a finished run for self-consistency.
Flags mirror ExperimentConfig fields and override values loaded from
--config <json file>.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .checkpoint import load_checkpoint
from .metrics import read_trajectories_jsonl
from .pipeline import (
    CKPT_FILE,
    TRAJ_FILE,
    ExperimentConfig,
    PipelineError,
    check_output_dir,
    run_experiment,
    stage_analyze,
    stage_gen_bench,
    stage_plot,
    stage_trace,
    stage_train,
    verify,
)

# one flag per ExperimentConfig field but `train`, typed by its default
_SIMPLE_FIELDS = [
    (f.name, (lambda s: tuple(s.split(","))) if f.name == "train_variants"
     else type(f.default))
    for f in dataclasses.fields(ExperimentConfig) if f.name != "train"]

_TRAIN_FIELDS = [
    ("lr", float), ("batch_size", int), ("epochs", int),
    ("warmup_steps", int), ("weight_decay", float), ("lr_decay", str),
]


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of ExperimentConfig fields")
    for name, typ in _SIMPLE_FIELDS:
        p.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None)
    for name, typ in _TRAIN_FIELDS:
        p.add_argument(f"--train-{name.replace('_', '-')}", type=typ,
                       default=None, dest=f"train_{name}")


def build_config(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig()
    updates = {}
    for name, _ in _SIMPLE_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    train_updates = {}
    for name, _ in _TRAIN_FIELDS:
        value = getattr(args, f"train_{name}", None)
        if value is not None:
            train_updates[name] = value
    if train_updates:
        updates["train"] = dataclasses.replace(config.train, **train_updates)
    if updates:
        config = dataclasses.replace(config, **updates)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopscope",
        description="looped-transformer deliberation lab: generate a "
                    "benchmark, train, trace per-step beliefs, analyze, plot")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, help_text in [
        ("gen-bench", "generate the benchmark JSONL"),
        ("train", "train the model and save a checkpoint"),
        ("trace", "decode per-step beliefs for every item/permutation"),
        ("analyze", "compute summary statistics from trajectories"),
        ("plot", "render SVG figures from trajectories"),
        ("run-all", "all stages plus content-hash manifest"),
    ]:
        p = sub.add_parser(cmd, help=help_text)
        _add_config_flags(p)
    pv = sub.add_parser("verify", help="self-consistency check of a finished run")
    pv.add_argument("--output-dir", default="out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (PipelineError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "verify":
        problems = verify(args.output_dir)
        if problems:
            for p in problems:
                print(f"FAIL {p}")
            return 1
        print(f"OK {args.output_dir} verifies")
        return 0

    config = build_config(args)
    check_output_dir(config)

    if args.command == "run-all":
        report = run_experiment(config)
        print(f"wrote {len(report.manifest['files'])} files to "
              f"{config.output_dir}")
        return 0

    if args.command == "gen-bench":
        _, bench = stage_gen_bench(config)
        print(f"wrote {len(bench.items)} items "
              f"({config.n_stems} stems x 3 variants)")
        return 0

    # later stages rebuild the (cheap, deterministic) world + benchmark
    world, bench = stage_gen_bench(config, write=False)

    if args.command == "train":
        _, log = stage_train(config, world, bench)
        print(f"final mean loss {log.mean_losses[-1]:.4f}; "
              f"checkpoint + train log written")
        return 0

    ckpt = os.path.join(config.output_dir, CKPT_FILE)
    if args.command == "trace":
        if not os.path.exists(ckpt):
            raise PipelineError(f"stage trace failed: no checkpoint at {ckpt}")
        params = load_checkpoint(ckpt)
        trajectories = stage_trace(config, world, bench, params)
        print(f"wrote {len(trajectories)} trajectories")
        return 0

    traj_path = os.path.join(config.output_dir, TRAJ_FILE)
    if not os.path.exists(traj_path):
        raise PipelineError(
            f"stage {args.command} failed: no trajectories at {traj_path}")
    trajectories = read_trajectories_jsonl(traj_path)

    if args.command == "analyze":
        report = stage_analyze(config, trajectories)
        present = sum(v is not None for v in report.summary.values())
        print(f"wrote summary ({present} statistics), rank histogram, "
              f"entropy curves")
        return 0

    if args.command == "plot":
        report = stage_analyze(config, trajectories, write=False)
        stage_plot(config, trajectories, report)
        print("wrote trajectory and entropy figures")
        return 0

    raise PipelineError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
