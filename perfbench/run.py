#!/usr/bin/env python3
"""Benchmark of loopscope: one workload per process, checked for correctness.

    python3 perfbench/run.py --workload {train,trace-analyze,single-question}
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src. Every
workload is a closed loop with one caller that repeats whole rounds of the
same operations until S seconds have passed. `--trace 0` reports the
end-to-end metrics; `--trace 1` spends half the time untraced and half with
spans around loopscope's public functions, and reports every per-layer
metric, per round, plus the tracing overhead. Environment lines come
first; the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import os

# fixed before NumPy loads OpenBLAS; the core type is left to the machine
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("train", "trace-analyze", "single-question")

K = 30                  # recurrence depth of every workload (reference k)
TRAIN_STEMS = 12        # 8 training stems (4 known) and 4 held out
TRAIN_HOLDOUT = 4
TRAIN_EPOCHS = 4        # 3 steps of batch 32 per epoch
PROGRAM_SEED = 0        # train: initial weights and depth schedule
TRACE_STEMS = 21        # 504 renderings: one trace batch of at most 512
ANALYSES_PER_TRACE = 3
QUESTION_STEMS = 24
QUESTIONS = 16          # renderings per single-question round
CHECKPOINT_SEED = 1
EMBED_GAIN = 12.5       # embedding and position std 0.02 -> 0.25
RECURRENT_GAIN = 4.0    # recurrent matrices: beliefs move over the 30 steps


def process_age() -> float:
    """Seconds since this process started (Linux /proc), else since import."""
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        return (time.clock_gettime(time.CLOCK_BOOTTIME)
                - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _IMPORTED


_IMPORTED = time.perf_counter()


def environment() -> dict:
    import numpy as np

    env = {"cpu": "unknown", "numpy": np.__version__,
           "blas_threads": BLAS_THREADS,
           "openblas_coretype_env": os.environ.get("OPENBLAS_CORETYPE", "")}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env["openblas_core"] = _openblas_core()
    return env


def _openblas_core() -> str:
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs"
                         / "lib*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_",
                       "scipy_openblas_get_corename", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


# -- shared set-up ------------------------------------------------------------


def synthetic_checkpoint(config, path):
    """Seeded checkpoint whose beliefs move across the recurrence steps:
    init_params at CHECKPOINT_SEED with embeddings and the recurrent
    matrices scaled up. Saved and loaded through loopscope.checkpoint."""
    from loopscope import checkpoint, model

    params = model.init_params(config, seed=CHECKPOINT_SEED)
    for name, t in params.named_tensors():
        if name in ("embedding", "pos"):
            t.data *= EMBED_GAIN
        elif name.startswith("recurrent.") and t.data.shape[0] > 1:
            t.data *= RECURRENT_GAIN
    checkpoint.save_checkpoint(params, path)
    return checkpoint.load_checkpoint(path)


def timed_rounds(seconds, round_fn):
    """Whole rounds of `round_fn()`, at least one, until `seconds` passed."""
    results, start = [], time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(round_fn())
    return results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def train_step_ms(world, bench, model_config, train_config) -> dict:
    """Median train_step time over 3 steps on a fixed batch of 32 Easy
    renderings at k = 1, 8, 30, from fresh weights at PROGRAM_SEED."""
    from loopscope import model, training

    items = [p for it in bench.items if it.variant == "Easy"
             for p in bench.permutations_for(it)][:32]
    batch = training.encode_dataset(items, world)
    out = {}
    for k in (1, 8, 30):
        params = model.init_params(model_config, seed=PROGRAM_SEED)
        opt = training.AdamW(params, train_config)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            training.train_step(params, batch, k, opt)
            times.append(time.perf_counter() - t0)
        out[f"training.train_step.ms_k{k}"] = (
            1e3 * statistics.median(times), "ms")
    return out


def beliefs(dists):
    """(k, vocab) array from run_deliberation's per-step results."""
    import numpy as np

    return np.stack([np.asarray(getattr(d, "probs", d), dtype=np.float64)
                     .reshape(-1) for d in dists])


# -- workloads ----------------------------------------------------------------
#
# Each workload is a class with `setup()`, `round()` -> dict of timings,
# `op_s(rounds)` (median seconds of one operation, reported as `op_ms` and
# used for the tracing overhead), `stages(rounds)` (the stage figures
# printed in the `run:` line) and `check(problems)`; the traced run also
# times train_step on each workload's `world`, `bench` and `params`.
# An operation is one `stage_train` in train, one trace + analysis +
# verify in trace-analyze and one call in single-question.


class Train:
    """stage_train at the reference dimensions on a small seeded benchmark."""

    ops_per_round = 1

    def __init__(self, seed, work):
        self.seed, self.work = seed, work

    def setup(self):
        from loopscope import pipeline
        from loopscope.training import TrainConfig

        inputs = pipeline.ExperimentConfig(
            n_stems=TRAIN_STEMS, holdout_stems=TRAIN_HOLDOUT, k=K,
            seed=self.seed, output_dir=str(self.work))
        self.work.mkdir(parents=True)
        self.world, self.bench = pipeline.stage_gen_bench(inputs, write=False)
        # the program's own seed stays fixed, so every run trains from the
        # same initial weights with the same sampled depths
        self.config = replace(
            inputs, seed=PROGRAM_SEED,
            train=TrainConfig(lr=2e-3, epochs=TRAIN_EPOCHS, warmup_steps=4,
                              lr_decay="cosine", batch_size=32))
        n_train = TRAIN_STEMS - TRAIN_HOLDOUT
        n_known = len(pipeline.known_stems(self.config, self.bench))
        self.samples = TRAIN_EPOCHS * self.config.n_permutations * (
            n_train * len(self.config.train_variants) + n_known)

    def round(self):
        from loopscope import pipeline

        t0 = time.perf_counter()
        self.params, self.log = pipeline.stage_train(self.config, self.world,
                                                     self.bench)
        return {"train_s": time.perf_counter() - t0}

    def op_s(self, rounds):
        return statistics.median(r["train_s"] for r in rounds)

    def stages(self, rounds):
        return {"train_samples_per_s": self.samples / self.op_s(rounds)}

    def renderings(self, variant, held_out):
        stems = [s.item_id for s in self.bench.stems()]
        held = set(stems[len(stems) - TRAIN_HOLDOUT:])
        return [p for it in self.bench.items
                if it.variant == variant and (it.item_id in held) == held_out
                for p in self.bench.permutations_for(it)]

    def check(self, problems):
        checks.check_train(problems, self)


class TraceAnalyze:
    """stage_trace of every rendering at k=30, then analyze, plot, manifest
    and verify on that run directory."""

    ops_per_round = 1

    def __init__(self, seed, work):
        self.seed, self.work = seed, work

    def setup(self):
        from loopscope import pipeline
        from loopscope.training import TrainLog

        self.inputs = self.work / "inputs"
        self.inputs.mkdir(parents=True)
        self.config = pipeline.ExperimentConfig(
            n_stems=TRACE_STEMS, k=K, seed=self.seed,
            output_dir=str(self.inputs))
        self.world, self.bench = pipeline.stage_gen_bench(self.config)
        self.params = synthetic_checkpoint(
            self.config.model_config(len(self.world.vocab)),
            self.inputs / pipeline.CKPT_FILE)
        # no training here: an empty log completes the run directory
        TrainLog().to_csv(self.inputs / pipeline.TRAIN_LOG_FILE)
        self.rows = sum(len(self.bench.permutations_for(it))
                        for it in self.bench.items)
        self.manifests, self.problems, self.last = [], [], None

    def round(self):
        from loopscope import pipeline

        out = self.work / f"round{len(self.manifests)}"
        shutil.copytree(self.inputs, out)
        config = replace(self.config, output_dir=str(out))
        t0 = time.perf_counter()
        self.trajectories = pipeline.stage_trace(config, self.world,
                                                 self.bench, self.params)
        times = {"trace_s": time.perf_counter() - t0, "analyze_s": [],
                 "verify_s": []}
        # the analysis is short next to the trace: repeat it on the same
        # run directory for enough samples of its time
        for _ in range(ANALYSES_PER_TRACE):
            t0 = time.perf_counter()
            report = pipeline.stage_analyze(config, self.trajectories)
            pipeline.stage_plot(config, self.trajectories, report)
            manifest = pipeline.write_manifest(config)
            t1 = time.perf_counter()
            self.problems.extend(pipeline.verify(str(out)))
            times["analyze_s"].append(t1 - t0)
            times["verify_s"].append(time.perf_counter() - t1)
            self.manifests.append(manifest["files"])
        if self.last is not None:
            shutil.rmtree(self.last)
        self.last = out
        times["bytes"] = (out / pipeline.TRAJ_FILE).stat().st_size
        return times

    def stages(self, rounds):
        return {
            "trace_s": statistics.median(r["trace_s"] for r in rounds),
            "analyze_s": statistics.median(
                x for r in rounds for x in r["analyze_s"]),
            "verify_s": statistics.median(
                x for r in rounds for x in r["verify_s"]),
        }

    def op_s(self, rounds):
        """One trace of the benchmark, one analysis and one verify."""
        return sum(self.stages(rounds).values())

    def check(self, problems):
        problems.extend(f"verify: {p}" for p in sorted(set(self.problems)))
        if any(m != self.manifests[0] for m in self.manifests):
            problems.append("trace-analyze: rounds of one config wrote "
                            "different bytes")
        checks.check_trace(problems, self)


class SingleQuestion:
    """Bare run_deliberation at k=30 on one tokenized question per call."""

    ops_per_round = QUESTIONS

    def __init__(self, seed, work):
        self.seed, self.work = seed, work

    def setup(self):
        import numpy as np

        from loopscope import model, pipeline
        from loopscope.seeds import derive_seed
        from loopscope.taskgen import render_tokens

        self.work.mkdir(parents=True)
        config = pipeline.ExperimentConfig(n_stems=QUESTION_STEMS, k=K,
                                           seed=self.seed,
                                           output_dir=str(self.work))
        self.config = config
        self.world, self.bench = world, bench = pipeline.stage_gen_bench(
            config, write=False)
        self.params = synthetic_checkpoint(
            config.model_config(len(world.vocab)), self.work / "model.ckpt")
        pool = [p for it in bench.items for p in bench.permutations_for(it)]
        rng = np.random.default_rng(derive_seed(self.seed, "perfbench", "sq"))
        self.tokens = [world.encode(render_tokens(pool[i]))
                       for i in rng.choice(len(pool), QUESTIONS, replace=False)]
        model.run_deliberation(self.tokens[0], self.params, K)   # warm-up
        self.first = None
        self.repeat_mismatch = 0

    def round(self):
        from loopscope import model

        latencies, outputs = [], []
        for tok in self.tokens:
            t0 = time.perf_counter()
            dists = model.run_deliberation(tok, self.params, K)
            latencies.append(time.perf_counter() - t0)
            outputs.append(beliefs(dists))
        if self.first is None:
            self.first = outputs
        else:
            self.repeat_mismatch += sum(
                not (a == b).all() for a, b in zip(self.first, outputs))
        return {"latencies": latencies}

    def op_s(self, rounds):
        return statistics.median(x for r in rounds for x in r["latencies"])

    def stages(self, rounds):
        return {}

    def check(self, problems):
        checks.check_question(problems, self)


WORKLOAD_CLASSES = {"train": Train, "trace-analyze": TraceAnalyze,
                    "single-question": SingleQuestion}


# -- per-layer report ---------------------------------------------------------


def layer_metrics(tracer, rounds) -> tuple:
    """Per-round span totals of every traced function, 0 for one the
    workload did not call or the program no longer has, and the names of
    those."""
    summary = tracer.summary()
    n = len(rounds)
    out, uncalled = {}, []
    for name, entry in summary.items():
        if not entry["calls"]:
            uncalled.append(name)
        out[f"{name}.s"] = (entry["s"] / n, "s")
        out[f"{name}.self_s"] = (entry["self_s"] / n, "s")
        out[f"{name}.calls"] = (entry["calls"] / n, "count")
    values = tracer.values
    out["training.train_step.depth_sum"] = (
        values["training.train_step.depth_sum"] / n, "count")
    out["model.recurrent_step.rows"] = (
        values["model.recurrent_step.rows"] / n, "rows")
    steps = sum(1 for i, s in enumerate(tracer.spans)
                if s[0] == "model.recurrent_step" and tracer.nearest(
                    i, ("training.evaluate_accuracy",)))
    out["training.evaluate_accuracy.recurrent_steps"] = (steps / n, "count")
    split = {"pipeline.stage_analyze": 0.0, "pipeline.verify": 0.0}
    for i, (name, start, end, _) in enumerate(tracer.spans):
        if name == "metrics.aggregate_stats":
            parent = tracer.nearest(i, tuple(split))
            if parent:
                split[parent] += end - start
    out["metrics.aggregate_stats.analyze_s"] = (
        split["pipeline.stage_analyze"] / n, "s")
    out["metrics.aggregate_stats.verify_s"] = (
        split["pipeline.verify"] / n, "s")
    out["pipeline.trajectories_bytes"] = (
        statistics.median(r.get("bytes", 0) for r in rounds), "bytes")
    out["tracing.spans"] = (len(tracer.spans) / n, "count")
    return out, uncalled


# -- main -----------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loopscope" / "__init__.py").is_file():
        print(f"perfbench: no loopscope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workload = WORKLOAD_CLASSES[args.workload](args.seed, work)
    try:
        workload.setup()
        setup_s = process_age()
        if not args.trace:
            rounds = timed_rounds(args.seconds, workload.round)
            attempted = len(rounds) * workload.ops_per_round
            metrics = {"setup_s": (setup_s, "s"),
                       "op_ms": (1e3 * workload.op_s(rounds), "ms"),
                       "peak_rss_mb": (peak_rss_mb(), "MB")}
            note = {"rounds": len(rounds), "stages": workload.stages(rounds)}
        else:
            plain = timed_rounds(args.seconds / 2, workload.round)
            tracer = spans.Tracer().install()
            try:
                traced = timed_rounds(args.seconds / 2, workload.round)
            finally:
                tracer.restore()
            attempted = (len(plain) + len(traced)) * workload.ops_per_round
            metrics, uncalled = layer_metrics(tracer, traced)
            metrics["tracing.overhead_pct"] = (
                100.0 * (workload.op_s(traced) / workload.op_s(plain) - 1),
                "%")
            metrics.update(train_step_ms(
                workload.world, workload.bench, workload.params.config,
                workload.config.train))
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            note = {"traced_rounds": len(traced), "untraced_rounds": len(plain),
                    "absent": tracer.absent, "not_called": uncalled}
        problems = []
        workload.check(problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("env: " + json.dumps(environment(), sort_keys=True))
    print("run: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                "operations": attempted, **note}, sort_keys=True))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": 0,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
