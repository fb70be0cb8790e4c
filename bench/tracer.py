"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces public functions of ``mlcascade`` at the module
bindings the program calls them through (``mlcascade.transforms.
train_logistic``, ``mlcascade.cli.load_csv``, ``mlcascade.transforms.
CCModel.predict`` and so on) with wrappers that record one span per call:
name, start, end, parent span, phase ("setup" or "op") and optional
counters.  The originals are put back when ``recording`` ends, so an untraced
op runs the program exactly as shipped.  Nothing under ``src/`` changes.

A span's self time is its duration minus the durations of its direct
children; calls are synchronous, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from dataclasses import dataclass

import mlcascade.cli as cli
import mlcascade.data as data
import mlcascade.evaluate as evaluate
import mlcascade.methods as methods
import mlcascade.synth as synth
import mlcascade.transforms as transforms
from mlcascade.logistic import TrainConfig

METHOD_METRIC_NAMES = {m: m.replace("+", "_") for m in methods.METHOD_NAMES}

# Metrics that sum one span field over one phase, divided by the number of
# traced ops or set-ups: metric name -> (phase, span name, field).
SUMMED = {
    f"{span}.{field}": ("op", span, field) for span, field in [
        ("logistic.fit", "calls"), ("logistic.fit", "self_s"), ("logistic.fit", "row_epochs"),
        ("transforms.train_br", "calls"), ("transforms.train_br", "self_s"),
        ("transforms.train_cc", "calls"), ("transforms.train_cc", "self_s"),
        ("transforms.chain_predict", "calls"), ("transforms.chain_predict", "self_s"),
        ("transforms.chain_predict", "row_positions"), ("transforms.br_predict", "self_s"),
        *[(f"synth.{unit}", "self_s") for unit in (
            "init_cascade", "apply_cascade", "init_projection", "apply_projection", "indicators")],
        *[(f"methods.train.{name}", "s") for name in METHOD_METRIC_NAMES.values()],
        ("methods.predict", "self_s"), ("methods.load_model", "s"),
        ("evaluate.run_experiment", "self_s"), ("evaluate.score", "s"),
        ("data.load_csv", "s"), ("data.load_csv", "cells"), ("data.split", "s"),
        ("data.standardize", "s"), ("cli.bench", "self_s"), ("cli.predict", "self_s"),
    ]
}
SUMMED.update({
    f"{span}.{field}": ("setup", span, field) for span, field in [
        ("methods.save_model", "s"), ("data.save_csv", "s"), ("data.gen", "s"),
        ("cli.train", "self_s"),
    ]
})
SUMMED["logistic.fit.setup_s"] = ("setup", "logistic.fit", "self_s")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    phase: str
    counters: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _fit_counters(args, kwargs, _result):
    X = _arg(args, kwargs, 0, "X")
    config = _arg(args, kwargs, 2, "config") or TrainConfig()
    n, d = X.shape
    return {"row_epochs": n * config.epochs, "flop": 4 * n * (d + 1) * config.epochs}


def _chain_counters(args, kwargs, result):
    model = args[0]
    prefix = _arg(args, kwargs, 2, "prefix")
    known = 0 if prefix is None else prefix.shape[-1]
    rows = 1 if result.ndim == 1 else result.shape[0]
    return {"row_positions": rows * (model.n_labels - known)}


def _csv_counters(_args, _kwargs, result):
    return {"cells": result.n_rows * (result.n_features + result.n_labels)}


def _model_file_counters(args, kwargs, _result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _train_method_name(args, kwargs):
    return "methods.train." + METHOD_METRIC_NAMES[_arg(args, kwargs, 0, "name")]


def _cli_name(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv") or ["main"]
    return "cli." + argv[0]


class Tracer:
    """Records spans while recording; turns them into per-layer metrics."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "op"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # (cascade or projection, its training matrix) for every draw; dead
        # units are counted after the run so the counting adds to no span.
        self.unit_draws: list[tuple[object, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, counters=None, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = Span(label, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.phase)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span.counters = counters(args, kwargs, result)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def recording(self, phase: str):
        """Trace the program for the duration, under one root span named ``phase``."""
        self.phase = phase
        self._install()
        span = Span(phase, time.perf_counter(), 0.0, -1, phase)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
            self._uninstall()

    def _patch(self, owner, attr, name, counters=None, on_result=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, counters, on_result))

    def _install(self) -> None:
        """Wrap every traced binding; nested recordings are an error."""
        if self._saved:
            raise RuntimeError("tracer already installed")

        def units_drawn(args, kwargs, result):
            self.unit_draws.append((result, _arg(args, kwargs, 0, "train_X")))

        p = self._patch
        # logistic: every base-model fit goes through the transforms binding.
        p(transforms, "train_logistic", "logistic.fit", _fit_counters)
        # transforms
        for owner in (transforms, methods):
            p(owner, "train_br", "transforms.train_br")
            p(owner, "train_cc", "transforms.train_cc")
        p(transforms.CCModel, "predict", "transforms.chain_predict", _chain_counters)
        p(transforms.BRModel, "predict", "transforms.br_predict")
        # synth: the methods module is the only caller.
        p(methods, "init_cascade", "synth.init_cascade", on_result=units_drawn)
        p(methods, "apply_cascade", "synth.apply_cascade")
        p(methods, "init_projection", "synth.init_projection", on_result=units_drawn)
        p(methods, "apply_projection", "synth.apply_projection")
        p(methods, "sample_indicators", "synth.indicators")
        p(methods, "apply_indicators", "synth.indicators")
        # methods: train_method is named after the method it trains.
        for owner in (evaluate, cli):
            p(owner, "train_method", _train_method_name)
        for cls in (methods.CCASLModel, transforms.StackedModel, methods.CCASLAMLModel,
                    methods.ELMBRModel):
            p(cls, "predict", "methods.predict")
        p(cli, "save_model", "methods.save_model")
        p(cli, "load_model", "methods.load_model", _model_file_counters)
        # evaluate
        for owner in (cli, evaluate):
            p(owner, "run_experiment", "evaluate.run_experiment")
        p(evaluate, "exact_match", "evaluate.score")
        p(evaluate, "hamming_score", "evaluate.score")
        # data
        p(cli, "load_csv", "data.load_csv", _csv_counters)
        for owner in (cli, data):
            p(owner, "save_csv", "data.save_csv")
            p(owner, "gen_logical", "data.gen")
            p(owner, "gen_synthetic", "data.gen")
        for owner in (evaluate, cli):
            p(owner, "fit_standardizer", "data.standardize")
            p(owner, "apply_standardizer", "data.standardize")
        p(evaluate, "shuffle_split", "data.split")
        p(evaluate, "shuffle_labels", "data.split")
        # cli: one span per main() call, named after the subcommand.
        p(cli, "main", _cli_name)

    def _uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def dead_unit_ratio(self) -> float:
        """Synthetic units constant on their training rows, over units drawn."""
        drawn = dead = 0
        for model, train_X in self.unit_draws:
            apply = (synth.apply_cascade if isinstance(model, synth.TLUCascade)
                     else synth.apply_projection)
            Z = apply(model, train_X)
            drawn += model.H
            dead += int((Z.min(axis=0) == Z.max(axis=0)).sum())
        return dead / drawn if drawn else 0.0

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "phase": s.phase,
                                     "counters": s.counters}) + "\n")

    def layer_metrics(self, n_ops: int, n_setups: int) -> dict[str, float]:
        """Per-layer metrics: per traced op, except the set-up layers, per set-up."""
        total: dict[tuple[str, str, str], float] = {}
        fit_ms: list[float] = []
        for s, self_s in zip(self.spans, self.self_times()):
            fields = {"calls": 1, "s": s.duration, "self_s": self_s, **(s.counters or {})}
            for field, value in fields.items():
                key = (s.phase, s.name, field)
                total[key] = total.get(key, 0.0) + value
            if s.name == "logistic.fit" and s.phase == "op":
                fit_ms.append(s.duration * 1e3)
        units = {"op": n_ops, "setup": n_setups}

        def per(phase, span, field):
            return total.get((phase, span, field), 0.0) / units[phase] if units[phase] else 0.0

        m = {name: per(*key) for name, key in SUMMED.items()}
        gflop = per("op", "logistic.fit", "flop") / 1e9
        fit_self = m["logistic.fit.self_s"]
        loads = total.get(("op", "methods.load_model", "calls"), 0.0)
        m.update({
            "logistic.fit.ms.p50": statistics.median(fit_ms) if fit_ms else 0.0,
            "logistic.fit.gflop": gflop,
            "logistic.fit.gflop_per_s": gflop / fit_self if fit_self else 0.0,
            "synth.dead_unit_ratio": self.dead_unit_ratio(),
            "methods.train.self_s": sum(per("op", f"methods.train.{name}", "self_s")
                                        for name in METHOD_METRIC_NAMES.values()),
            "methods.model_bytes": (total.get(("op", "methods.load_model", "bytes"), 0.0)
                                    / loads if loads else 0.0),
        })
        return m
