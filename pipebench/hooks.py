"""Wrappers installed around latentcast functions from outside the package.

The benchmark never edits the program. Each wrapper replaces a function or
method in the namespace where callers look it up: a module-level function is
replaced in every latentcast module that binds it (so `training.latent_loss`
and `cvae.latent_loss` both see the wrapper), a method on its class.
`Patches.restore` puts every original back.

`Phases` times the few phase-boundary calls the end-to-end metrics need and
is always on. `Tracer` records one span per call at every layer boundary for
the traced run, and derives the per-layer metrics from the spans.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

import latentcast.cli  # noqa: F401  (imports every latentcast module)
from latentcast import (checkpoint, cvae, data, decomposition, evaluation,
                        forecaster, kernels, latent, nets, optim, tensor,
                        training)


def _latentcast_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "latentcast" or name.startswith("latentcast."))]


class Patches:
    """Installed replacements; `restore` undoes them in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> bool:
        """Replace `owner.attr` by `make(current)` wherever it is looked up.

        Returns False, installing nothing, when the attribute does not exist.
        """
        if isinstance(owner, type):
            current = owner.__dict__.get(attr)
            sites = [(owner, attr)] if current is not None else []
        else:
            current = getattr(owner, attr, None)
            sites = [(m, name) for m in _latentcast_modules()
                     for name, value in list(vars(m).items()) if value is current]
        if current is None or not sites:
            return False
        wrapper = make(current)
        for site, name in sites:
            self._undo.append((site, name, current))
            setattr(site, name, wrapper)
        return True

    def restore(self) -> None:
        while self._undo:
            site, name, value = self._undo.pop()
            setattr(site, name, value)


class SetupDone(Exception):
    """Raised at the entry of stage 1 to end a set-up-only pass."""


class Phases:
    """Entry and exit times of stage 1, stage 2 and each evaluation call.

    `events` holds (phase, start, end, windows) per call; windows are the
    training windows times the epochs run, or the evaluation windows.
    `evaluations` holds (which, report, windows, dists) per evaluation call.
    `mark`, when set, runs just before and just after each timed call.
    """

    def __init__(self):
        self.abort_at_stage1 = False
        self.mark = None
        self.reset()

    def reset(self) -> None:
        self.stage1_entries: list[float] = []
        self.events: list[tuple[str, float, float, int]] = []
        self.evaluations: list[tuple[str, object, list, list]] = []

    def install(self, patches: Patches) -> None:
        hooks = (("stage1_pretrain", self._stage("stage1", "samples", "stage1_losses")),
                 ("stage2_train", self._stage("stage2", "train_samples", "stage2_train_losses")),
                 ("evaluate_split", self._evaluate))
        for attr, make in hooks:
            if not patches.wrap(training, attr, make):
                raise RuntimeError(f"latentcast.training.{attr} not found; "
                                   "the benchmark cannot time this phase")

    def _timed(self, fn, args, kwargs):
        if self.mark is not None:
            self.mark(opening=True)
        start = perf_counter()
        out = fn(*args, **kwargs)
        end = perf_counter()
        if self.mark is not None:
            self.mark()
        return out, start, end

    def _stage(self, phase: str, samples_arg: str, losses_attr: str):
        def make(fn):
            sig = inspect.signature(fn)

            def stage(*args, **kwargs):
                if phase == "stage1":
                    self.stage1_entries.append(perf_counter())
                    if self.abort_at_stage1:
                        raise SetupDone
                bound = sig.bind(*args, **kwargs).arguments
                losses = getattr(bound["record"], losses_attr)
                before = len(losses)
                out, start, end = self._timed(fn, args, kwargs)
                windows = len(bound[samples_arg]) * (len(losses) - before)
                self.events.append((phase, start, end, windows))
                return out
            return stage
        return make

    def _evaluate(self, fn):
        sig = inspect.signature(fn)

        def evaluate(*args, **kwargs):
            out, start, end = self._timed(fn, args, kwargs)
            report, windows, dists = out
            self.events.append(("forecast", start, end, len(windows)))
            which = sig.bind(*args, **kwargs).arguments["which"]
            self.evaluations.append((which, report, windows, dists))
            return out
        return evaluate


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus counters.

    A training step runs from the batch's first forward call (a training-mode
    call of `make_stage1_batch`, `latent_loss` or `train_params`) to the
    return of `Adam.step`.
    """

    def __init__(self):
        self.spans: list[tuple] = []       # (name, start, end, parent index)
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.steps_ms: list[float] = []
        self._step_start: float | None = None

    # -- installation ----------------------------------------------------

    def install(self, patches: Patches) -> None:
        def count(key, fn):
            def on_exit(args, kwargs, out):
                self.counts[key] += fn(args, kwargs, out)
            return on_exit

        forward = self._forward
        targets = [
            ("nets.GRUCell", nets.GRUCell, "__call__", None, None),
            ("tensor.backward", tensor.Tensor, "backward", None, None),
            ("optim.Adam.step", optim.Adam, "step", None, self._step_done),
            ("training.stage1_pretrain", training, "stage1_pretrain", None, self._stage_done),
            ("training.stage2_train", training, "stage2_train", None, self._stage_done),
            ("training.evaluate_split", training, "evaluate_split", None, None),
            ("cvae.latent_loss", cvae, "latent_loss", forward(True), None),
            ("cvae.make_stage1_batch", cvae, "make_stage1_batch", forward(True), None),
            ("forecaster.train_params", forecaster.ForecastModel, "train_params",
             forward(False), None),
            ("cvae.domain_regularizer", cvae, "domain_regularizer", None, None),
            ("kernels.pair_dist", kernels, "pair_dist_sum", None, None),
            ("kernels.pair_dist", kernels, "pair_dist_grad", None, None),
            ("kernels.pair_dist", kernels, "cross_pair_dist_sum", None, None),
            ("kernels.pair_dist", kernels, "cross_pair_dist_grad", None, None),
            ("decomposition.decompose_batch", decomposition, "decompose_batch", None, None),
            ("decomposition.trend_component", decomposition, "trend_component", None, None),
            ("kernels.moving_average", kernels, "moving_average", None, None),
            ("kernels.moving_average_adjoint", kernels, "moving_average_adjoint", None, None),
            ("forecaster.sample_paths", forecaster.RecurrentDecoder, "sample_paths", None,
             count("forecaster.sample_paths.draws",
                   lambda a, k, out: out.shape[0] * out.shape[1])),
            ("forecaster.predict", forecaster.ForecastModel, "predict", None, None),
            ("forecaster.to_distribution", forecaster, "to_distribution", None, None),
            ("evaluation.aggregate", evaluation, "aggregate", None, None),
            ("data.ingest_csv", data, "ingest_csv", None,
             count("data.ingest_csv.rows",
                   lambda a, k, out: sum(v.size for ds in out for v in ds.values))),
            ("data.windows_for_role", data, "windows_for_role", None,
             count("data.windows.count", lambda a, k, out: len(out))),
            ("data.prepare_samples", data, "prepare_samples", None, None),
            ("forecaster.write_forecast_csv", forecaster, "write_forecast_csv", None, None),
            ("checkpoint.save", checkpoint, "save_checkpoint", None,
             count("checkpoint.bytes",
                   lambda a, k, out: os.path.getsize(a[0] if a else k["path"]))),
            ("checkpoint.load", checkpoint, "load_checkpoint", None, None),
            ("latent.dump_latents", latent, "dump_latents", None, None),
            ("latent.separation_score", latent, "separation_score", None, None),
        ]
        # A target that no longer exists is skipped; its span then shows up
        # as missing in the results.
        for name, owner, attr, on_enter, on_exit in targets:
            patches.wrap(owner, attr, self.span(name, on_enter, on_exit))

    def span(self, name: str, on_enter=None, on_exit=None):
        """Wrapper factory recording one span per call of the wrapped function."""
        spans, stack = self.spans, self.stack

        def make(fn):
            def traced(*args, **kwargs):
                if on_enter is not None:
                    on_enter(args, kwargs)
                # The slot is reserved at entry so children can name their
                # parent; it is filled at exit with a tuple of scalars, which
                # the garbage collector stops tracking, so kept spans do not
                # slow later iterations down.
                index = len(spans)
                parent = stack[-1] if stack else -1
                stack.append(index)
                spans.append(None)
                start = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    spans[index] = (name, start, perf_counter(), parent)
                    stack.pop()
                if on_exit is not None:
                    on_exit(args, kwargs, out)
                return out
            return traced
        return make

    def _forward(self, training_default: bool):
        def on_enter(args, kwargs):
            if self._step_start is None and kwargs.get("training", training_default):
                self._step_start = perf_counter()
        return on_enter

    def _step_done(self, args, kwargs, out) -> None:
        if self._step_start is not None:
            self.steps_ms.append((perf_counter() - self._step_start) * 1e3)
            self._step_start = None

    def _stage_done(self, args, kwargs, out) -> None:
        self._step_start = None

    # -- results ---------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, incl, self_s

    def layer_metrics(self, names) -> dict[str, float]:
        """Each of `names` that the spans and counters define: a span's
        `.calls`, inclusive `.s` or `.self_s`, a counter, or a step figure."""
        calls, incl, self_s = self.totals()
        out: dict[str, float] = {}
        for key in names:
            name, _, kind = key.rpartition(".")
            if kind == "calls":
                out[key] = float(calls.get(name, 0))
            elif kind == "s":
                out[key] = incl.get(name, 0.0)
            elif kind == "self_s":
                out[key] = self_s.get(name, 0.0)
        out["training.steps"] = float(len(self.steps_ms))
        if self.steps_ms:
            out["training.step_ms.p50"] = float(np.percentile(self.steps_ms, 50))
            out["training.step_ms.p90"] = float(np.percentile(self.steps_ms, 90))
        for key in ("forecaster.sample_paths.draws", "data.windows.count", "checkpoint.bytes"):
            out[key] = self.counts.get(key, 0.0)
        ingest_s = incl.get("data.ingest_csv", 0.0)
        rows = self.counts.get("data.ingest_csv.rows", 0.0)
        out["data.ingest_csv.rows_per_s"] = rows / ingest_s if ingest_s > 0 else 0.0
        return out

    def fired(self) -> set[str]:
        names = {rec[0] for rec in self.spans}
        if self.steps_ms:
            names.add("training.step")
        return names
