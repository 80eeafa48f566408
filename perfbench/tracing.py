"""Spans around phyres's public functions, recorded from outside the package.

Each public function is wrapped where its caller looks it up: the attribute
of the importing module (``phyres.cli.read_samples``, ``phyres.predictors.
forward_batch``, ...), or of its own module when it is called through a module
global (``phyres.calibrate.calibration_objective``, ``phyres.serialize.
dumps``).  Spans are kept in memory as ``(name, start_ns, end_ns, parent)``
and written out by the caller when the run ends.  ``Tracer.restore`` puts
every original function back.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter

# (module, attribute, span name).  A function imported into several modules
# is wrapped at each of them, because each is a separate lookup.
SITES = [
    ("phyres.synth", "generate_corpus", "synth.corpus"),
    ("phyres.cli", "generate_corpus", "synth.corpus"),
    ("phyres.ingest", "parse_trajectory_csv", "ingest.parse"),
    ("phyres.cli", "parse_trajectory_csv", "ingest.parse"),
    ("phyres.ingest", "extract_samples", "ingest.extract"),
    ("phyres.cli", "extract_samples", "ingest.extract"),
    ("phyres.ingest", "write_samples", "ingest.write_samples"),
    ("phyres.cli", "write_samples", "ingest.write_samples"),
    ("phyres.cli", "read_samples", "ingest.read_samples"),
    ("phyres.predictors", "sample_features", "ingest.features"),
    ("phyres.predictors", "compute_norm_stats", "ingest.norm_stats"),
    ("phyres.serialize", "dumps", "serialize.dumps"),
    ("phyres.calibrate", "one_step_batch", "physics.one_step"),
    ("phyres.predictors", "physics_rollout", "physics.rollout"),
    ("phyres.calibrate", "fit_physics", "calibrate.fit"),
    ("phyres.calibrate", "calibration_objective", "calibrate.objective"),
    ("phyres.predictors", "forward_batch", "neuralnet.forward"),
    ("phyres.predictors", "backward", "neuralnet.backward"),
    ("phyres.predictors", "adam_step", "neuralnet.adam"),
    ("phyres.predictors", "make_residual_targets", "predictors.residual_targets"),
    ("phyres.cli", "train_nn", "predictors.train"),
    ("phyres.cli", "train_pinn", "predictors.train"),
    ("phyres.cli", "train_perl", "predictors.train"),
    ("phyres.evaluation", "train_nn", "predictors.train"),
    ("phyres.evaluation", "train_pinn", "predictors.train"),
    ("phyres.evaluation", "train_perl", "predictors.train"),
    ("phyres.cli", "predict_many", "predictors.predict"),
    ("phyres.evaluation", "predict_many", "predictors.predict"),
    ("phyres.cli", "run_sweep", "evaluation.sweep"),
    ("phyres.cli", "mse_metrics", "evaluation.mse"),
    ("phyres.evaluation", "mse_metrics", "evaluation.mse"),
    ("phyres.cli", "write_sweep_outputs", "evaluation.write_outputs"),
    ("phyres.cli", "emit_plot_data", "evaluation.write_outputs"),
    ("phyres.cli", "main", "cli"),
]

# serialize.dumps recurses through its own module global, so only the
# outermost call of these is a span.
OUTERMOST_ONLY = {"serialize.dumps"}

CLI_COMMANDS = ("synth", "extract", "calibrate", "train", "predict",
                "evaluate", "sweep")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """Wraps the sites above while active; one instance per traced region."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._fitted: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- patching

    def install(self) -> "Tracer":
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._patched.append((module, attr, original))
        return self

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # --------------------------------------------------------------- spans

    def _wrap(self, fn, name):
        outermost_only = name in OUTERMOST_ONLY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost_only and self._depth[name]:
                return fn(*args, **kwargs)
            span = self._span_name(name, args, kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((span, 0, 0, parent))
            self._stack.append(index)
            self._depth[name] += 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._depth[name] -= 1
                self._stack.pop()
                self.spans[index] = (span, start, end, parent)
            self.counts[span + ".calls"] += 1
            self._count(name, args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _span_name(name, args, kwargs):
        if name == "cli":
            argv = _arg(args, kwargs, 0, "argv") or ["?"]
            return f"cli.{argv[0]}"
        if name == "neuralnet.forward":
            return f"neuralnet.forward_{_arg(args, kwargs, 2, 'mode', 'eval')}"
        return name

    def _count(self, name, args, kwargs, result):
        c = self.counts
        if name == "synth.corpus":
            c["synth.rows"] += result["rows"]
        elif name == "ingest.write_samples":
            c["ingest.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
        elif name == "ingest.read_samples":
            c["ingest.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        elif name == "physics.rollout":
            c["physics.collisions"] += bool(result[1])
        elif name == "calibrate.fit":
            samples = _arg(args, kwargs, 0, "samples")
            config = _arg(args, kwargs, 1, "config")
            key = (config.model, config.seed, tuple(s.sample_id for s in samples))
            c["calibrate.repeat_fits"] += key in self._fitted
            self._fitted.add(key)
        elif name == "neuralnet.forward":
            mode = _arg(args, kwargs, 2, "mode", "eval")
            c[f"neuralnet.{mode}_rows"] += _arg(args, kwargs, 1, "x").shape[0]
        elif name == "predictors.train":
            c["predictors.epochs"] += len(result[1].per_epoch)
        elif name == "predictors.predict":
            c["predictors.predictions"] += len(result)
        elif name == "evaluation.sweep":
            c["evaluation.cells"] += len(result)

    def busy_s(self) -> Counter:
        """Inclusive seconds per span name."""
        out: Counter = Counter()
        for name, start, end, _ in self.spans:
            out[name] += (end - start) * 1e-9
        return out


def layer_metrics(busy: Counter, counts: Counter, cpu_s: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from span times and counts."""
    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    fits = counts["calibrate.fit.calls"]
    objective_calls = counts["calibrate.objective.calls"]
    epochs = counts["predictors.epochs"]
    eval_calls = counts["neuralnet.forward_eval.calls"]
    cells = counts["evaluation.cells"]
    out = {
        "synth.corpus_s": busy["synth.corpus"],
        "synth.rows": counts["synth.rows"],
        "ingest.parse_s": busy["ingest.parse"],
        "ingest.extract_s": busy["ingest.extract"],
        "ingest.write_samples_s": busy["ingest.write_samples"],
        "ingest.read_samples_s": busy["ingest.read_samples"],
        "ingest.read_calls": counts["ingest.read_samples.calls"],
        "ingest.bytes_written": counts["ingest.bytes_written"],
        "ingest.bytes_read": counts["ingest.bytes_read"],
        "ingest.features_s": busy["ingest.features"],
        "ingest.features_calls": counts["ingest.features.calls"],
        "ingest.norm_stats_s": busy["ingest.norm_stats"],
        "serialize.dumps_s": busy["serialize.dumps"],
        "serialize.dumps_calls": counts["serialize.dumps.calls"],
        "physics.one_step_s": busy["physics.one_step"],
        "physics.one_step_calls": counts["physics.one_step.calls"],
        "physics.rollout_s": busy["physics.rollout"],
        "physics.rollout_calls": counts["physics.rollout.calls"],
        "physics.collisions": counts["physics.collisions"],
        "calibrate.fits": fits,
        "calibrate.fit_s": busy["calibrate.fit"],
        "calibrate.objective_calls": objective_calls,
        "calibrate.objective_s": busy["calibrate.objective"],
        "calibrate.objective_ms": ratio(busy["calibrate.objective"], objective_calls, 1e3),
        "calibrate.repeat_fit_frac": ratio(counts["calibrate.repeat_fits"], fits),
        "neuralnet.forward_train_s": busy["neuralnet.forward_train"],
        "neuralnet.forward_eval_s": busy["neuralnet.forward_eval"],
        "neuralnet.backward_s": busy["neuralnet.backward"],
        "neuralnet.adam_s": busy["neuralnet.adam"],
        "neuralnet.train_rows": counts["neuralnet.train_rows"],
        "neuralnet.eval_rows": counts["neuralnet.eval_rows"],
        "neuralnet.eval_rows_per_call": ratio(counts["neuralnet.eval_rows"], eval_calls),
        "predictors.train_s": busy["predictors.train"],
        "predictors.epochs": epochs,
        "predictors.epoch_ms": ratio(busy["predictors.train"], epochs, 1e3),
        "predictors.residual_targets_s": busy["predictors.residual_targets"],
        "predictors.predict_s": busy["predictors.predict"],
        "predictors.predictions_per_s": ratio(counts["predictors.predictions"],
                                              busy["predictors.predict"]),
        "evaluation.cells": cells,
        "evaluation.cell_s": ratio(busy["evaluation.sweep"], cells),
        "evaluation.mse_s": busy["evaluation.mse"],
        "evaluation.write_outputs_s": busy["evaluation.write_outputs"],
        "proc.cpu_s": cpu_s,
    }
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = busy[f"cli.{command}"]
    return out
