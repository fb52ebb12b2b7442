"""Spans around the public functions of each crossrisk layer, and GC pauses.

A traced function is replaced wherever its caller looks it up: in every
crossrisk module that holds it under its name (functions imported with
`from .x import f` live in the importer's namespace), and on the class for
methods. Each call records a span (name, start, end, parent span) in flat
arrays kept in memory; `Tracer.save` writes them out at the end. Self time
is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

# Predictor failures are counted under these class names; any other
# PredictionError subclass is counted under "PredictionError".
PREDICTION_ERRORS = ("ZeroDisplacement", "NonPositiveVelocity", "NoApproach")


def _targets() -> tuple[list, list]:
    """(span name, owner, attribute) for the gen layers and for the rest."""
    from crossrisk import calibration, cli, geometry, pipeline, ppet, risk, stream, synthgen
    from crossrisk.predictors import dataset, historical, recurrent, training

    gen = [
        ("cli.gen", cli, "cmd_gen"),
        ("synthgen.generate", synthgen, "generate"),
        ("stream.write_stream_csv", stream, "write_stream_csv"),
    ]
    rest = [
        ("cli.build-dataset", cli, "cmd_build_dataset"),
        ("cli.train", cli, "cmd_train"),
        ("cli.tune", cli, "cmd_tune"),
        ("geometry.locate_area", geometry, "locate_area"),
        ("geometry.transform_point", geometry, "transform_point"),
        ("stream.ingest_frame", stream.StreamEngine, "ingest_frame"),
        ("stream.agents_in_areas", stream.StreamEngine, "agents_in_areas"),
        ("stream.window", stream, "window"),
        ("predictors.predict", historical.HistoricalAveragePredictor, "predict"),
        ("predictors.predict", recurrent.RecurrentRegressor, "predict"),
        ("predictors.forward_batch", recurrent.RecurrentRegressor, "forward_batch"),
        ("predictors.loss_and_gradients", recurrent.RecurrentRegressor, "loss_and_gradients"),
        ("predictors.build_labeled_dataset", dataset, "build_labeled_dataset"),
        ("predictors.write_samples_jsonl", dataset, "write_samples_jsonl"),
        ("predictors.read_samples_jsonl", dataset, "read_samples_jsonl"),
        ("predictors.train", training, "train"),
        ("predictors.evaluate_mae", training, "evaluate_mae"),
        ("ppet.ppet", ppet, "ppet"),
        ("risk.step_evaluate", risk, "step_evaluate"),
        ("risk.select_conflict_vehicle", risk, "select_conflict_vehicle"),
        ("risk.classify_offline", risk, "classify_offline"),
        ("calibration.grid_search", calibration, "grid_search"),
        ("pipeline.process_frame", pipeline.RiskPipeline, "process_frame"),
        ("pipeline.read_trace_csv", pipeline, "read_trace_csv"),
    ]
    return gen, rest


def gen_targets() -> list:
    return _targets()[0]


def all_targets() -> list:
    return _targets()[1]


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self, targets: list):
        self.targets = targets
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, owner, attr in self.targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, self._hook(name))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for module in [m for k, m in sys.modules.items() if k == "crossrisk" or k.startswith("crossrisk.")]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
                if hook is not None:
                    hook(args, None, exc)
                raise
            ends[idx] = clock()
            starts[idx] = start
            stack.pop()
            if hook is not None:
                hook(args, result, None)
            return result

        return wrapper

    # -- counters measured at the layer boundary -----------------------------------

    def _hook(self, name: str) -> Callable | None:
        counts = self.counts
        if name == "stream.agents_in_areas":
            def hook(args, result, exc):
                counts["stream.agents_in_areas.scanned"] += len(args[0].buffers)
        elif name == "predictors.predict":
            from crossrisk.errors import PredictionError

            def hook(args, result, exc):
                if isinstance(exc, PredictionError):
                    cls = type(exc).__name__
                    counts[f"predictors.predict.failed.{cls if cls in PREDICTION_ERRORS else 'PredictionError'}"] += 1
                elif exc is None:
                    counts["predictors.predict.ok"] += 1
        elif name == "predictors.forward_batch":
            def hook(args, result, exc):
                counts["predictors.forward_batch.rows"] += int(np.shape(args[1])[0])
        elif name == "risk.step_evaluate":
            from crossrisk.risk import DecisionKind

            def hook(args, result, exc):
                if result:
                    counts["risk.flags"] += sum(d.kind is DecisionKind.RISK2_FLAGGED for d in result)
        elif name == "calibration.grid_search":
            def hook(args, result, exc):
                if result is not None:
                    counts["calibration.grid_points"] += len(result.rows)
        elif name == "predictors.write_samples_jsonl":
            def hook(args, result, exc):
                counts["predictors.samples"] += len(args[1])
        else:
            return None
        return hook

    # -- results -----------------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self seconds, inclusive seconds)."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        incl_s = np.bincount(name, weights=dur, minlength=k)
        return {n: (int(calls[i]), float(self_s[i]), float(incl_s[i])) for i, n in enumerate(self.names)}

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )


class GcMonitor:
    """Records every garbage collection as (generation, start, end)."""

    def __init__(self) -> None:
        self.events: list[tuple[int, float, float]] = []
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.events.append((info["generation"], self._start, time.perf_counter()))

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def between(self, start: float, end: float) -> list[tuple[int, float, float]]:
        return [e for e in self.events if e[2] > start and e[1] < end]
