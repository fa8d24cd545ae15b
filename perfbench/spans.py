"""Spans around the calls into loopscope's public functions.

`Tracer.install` replaces each named function, wherever a loopscope module
holds it (the defining module and every module that imported the name), by
a wrapper that records a span: name, start, end and the index of the span
that was open when it began. `restore` puts the originals back. A name that
no longer exists in the program is reported as absent instead of failing.
Spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path) of a public function or method
TRACED = {
    "pipeline.stage_train": ("pipeline", "stage_train"),
    "pipeline.stage_trace": ("pipeline", "stage_trace"),
    "pipeline.stage_analyze": ("pipeline", "stage_analyze"),
    "pipeline.stage_plot": ("pipeline", "stage_plot"),
    "pipeline.write_manifest": ("pipeline", "write_manifest"),
    "pipeline.verify": ("pipeline", "verify"),
    "pipeline.entropy_curves": ("pipeline", "entropy_curves"),
    "pipeline.rank_histogram": ("pipeline", "rank_histogram"),
    "pipeline.export_summary": ("pipeline", "export_summary"),
    "training.train_step": ("training", "train_step"),
    "training.adamw_step": ("training", "AdamW.step"),
    "training.evaluate_accuracy": ("training", "evaluate_accuracy"),
    "autograd.backward": ("autograd", "Tensor2.backward"),
    "autograd.attention": ("autograd", "attention"),
    "autograd.layer_norm": ("autograd", "layer_norm"),
    "autograd.gelu": ("autograd", "gelu"),
    "autograd.matmul": ("autograd", "matmul"),
    "autograd.add": ("autograd", "add"),
    "model.prelude_forward": ("model", "prelude_forward"),
    "model.recurrent_step": ("model", "recurrent_step"),
    "model.answer_logits": ("model", "answer_logits"),
    "model.coda_decode": ("model", "coda_decode"),
    "model.run_deliberation": ("model", "run_deliberation"),
    "metrics.belief_trajectory": ("metrics", "belief_trajectory"),
    "metrics.write_trajectories_jsonl": ("metrics", "write_trajectories_jsonl"),
    "metrics.read_trajectories_jsonl": ("metrics", "read_trajectories_jsonl"),
    "metrics.aggregate_stats": ("metrics", "aggregate_stats"),
    "svgplot.emit_trajectory_plot": ("svgplot", "emit_trajectory_plot"),
    "svgplot.emit_entropy_plot": ("svgplot", "emit_entropy_plot"),
    "checkpoint.save_checkpoint": ("checkpoint", "save_checkpoint"),
    "checkpoint.load_checkpoint": ("checkpoint", "load_checkpoint"),
}


def _resolve(module: str, path: str):
    """(owner, attribute, function) or None when the program lacks it."""
    owner = importlib.import_module(f"loopscope.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.values = defaultdict(float)   # counts taken at span boundaries
        self.absent = []
        self._open = []
        self._patched = []     # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, open_, values = self.spans, self._open, self.values
        clock = time.perf_counter
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
                if count is not None:
                    count(values, args, kwargs)

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("loopscope.") and m is not None]
        for name, (module, path) in TRACED.items():
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(name, fn)
            # every module that imported the function holds the same object
            holders = [owner] + [m for m in modules if m is not owner
                                 and getattr(m, attr, None) is fn]
            for holder in holders:
                self._patched.append((holder, attr, fn))
                setattr(holder, attr, wrapper)
        return self

    def restore(self):
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def summary(self) -> dict:
        """name -> {s, self_s, calls}; `s` counts time once per outermost
        span of the name, so recursion does not double it."""
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in TRACED}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[i]
            if not self._inside(parent, name):
                entry["s"] += end - start
        return out

    def _inside(self, index, name) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def nearest(self, index, names):
        """Name of the closest enclosing span among `names`, or None."""
        index = self.spans[index][3]
        while index >= 0:
            if self.spans[index][0] in names:
                return self.spans[index][0]
            index = self.spans[index][3]
        return None

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, f)


def _count_depth(values, args, kwargs):
    k = kwargs.get("k", args[2] if len(args) > 2 else None)
    if isinstance(k, int):
        values["training.train_step.depth_sum"] += k


def _count_rows(values, args, kwargs):
    state = args[0] if args else kwargs.get("state")
    rows = getattr(getattr(state, "h", None), "rows", None)
    if isinstance(rows, int):
        values["model.recurrent_step.rows"] += rows


COUNTERS = {
    "training.train_step": _count_depth,
    "model.recurrent_step": _count_rows,
}
