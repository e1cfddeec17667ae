"""Spans around the program's public entry points, kept in memory.

``install`` replaces each entry point, as bound in every module that
calls it, with a wrapper that records a span (name, start, end, parent)
plus a few sizes taken from the call.  Self time is a span's duration
minus the durations of its direct children; calls nest, so children
never overlap.  Tracing inside the program itself is not done here.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import standout.abtest
import standout.cli
import standout.depthlaw
import standout.firststop
import standout.likelihood
import standout.policy


def _depth_info(args, kwargs, out):
    # Cells of the kernel-CDF matrix per epoch: sources x (cells + 1),
    # with a single source (the initial atom) in the first epoch.
    grids = out.survival_grids
    if not grids:
        return {"kernel_cells": 0}
    sources = 1 + sum(len(g) for g in grids[:-1])
    return {"kernel_cells": sources * (len(grids[0]) + 1)}


def _simulate_info(args, kwargs, out):
    return {"sessions": len(out)}


def _evaluate_info(args, kwargs, out):
    ctx, U = args[0], args[1]
    S, t = (1, len(U)) if getattr(U, "ndim", 2) == 1 else U.shape
    exact = t == 1 or t == 2 == ctx.env.N
    return {"kind": "exact" if exact else "mc", "S": int(S), "t": int(t),
            "n_samples": ctx.n_samples}


def _nll_info(args, kwargs, out):
    return {"underflow": out[2]["underflow"]}


# span name -> (attribute, modules that bind it, defining module first, info)
_FUNCTIONS = {
    "policy.optimal_table": (
        "optimal_table",
        (standout.policy, standout.likelihood, standout.firststop,
         standout.abtest, standout.cli), None),
    "depthlaw.depth_distribution": (
        "depth_distribution", (standout.depthlaw, standout.cli), _depth_info),
    "depthlaw.simulate_sessions": (
        "simulate_sessions", (standout.depthlaw, standout.abtest, standout.cli),
        _simulate_info),
    "likelihood.nll_objective": (
        "nll_objective", (standout.likelihood, standout.cli), _nll_info),
    "likelihood.calibrate": (
        "calibrate", (standout.likelihood, standout.cli), None),
}
_METHODS = {
    "likelihood.context": ("__init__", None),
    "likelihood.evaluate": ("evaluate", _evaluate_info),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.update(info(args, kwargs, out))
            return out
        return traced

    def mark(self, name):
        """A zero-length span, such as the end of a fit epoch."""
        now = time.perf_counter()
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": now, "end": now})

    def install(self):
        """Wrap every traced entry point; returns a function that undoes it."""
        undo = []
        for name, (attr, modules, info) in _FUNCTIONS.items():
            wrapped = self.wrap(name, getattr(modules[0], attr), info)
            for mod in modules:
                undo.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapped)
        cls = standout.likelihood.LikelihoodContext
        for name, (attr, info) in _METHODS.items():
            undo.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), info))

        def restore():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        return restore

    @staticmethod
    def write_spans(spans, path):
        with open(path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's."""
    index = {(s.get("proc"), s["id"]): k for k, s in enumerate(spans)}
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[index[(s.get("proc"), s["parent"])]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans, rounds: int) -> dict:
    """Per-round layer totals from the spans of ``rounds`` timed rounds."""
    selfs = self_times(spans)

    def total(name, key=None, where=None):
        acc = 0.0
        for s, st in zip(spans, selfs):
            if s["name"] == name and (where is None or where(s)):
                acc += st if key is None else s.get(key, 0)
        return acc / rounds

    def count(name):
        return sum(s["name"] == name for s in spans) / rounds

    mc = [s for s in spans
          if s["name"] == "likelihood.evaluate" and s.get("kind") == "mc"]
    epochs = [s["end"] for s in spans if s["name"] == "fit.epoch"]
    fit_starts = [s["start"] for s in spans if s["name"] == "fit.run"]
    epoch_s = _epoch_lengths(fit_starts, epochs)
    n_epochs = len(epochs)
    return {
        "policy.optimal_table.calls": count("policy.optimal_table"),
        "policy.optimal_table.self_s": total("policy.optimal_table"),
        "depthlaw.depth_distribution.self_s": total("depthlaw.depth_distribution"),
        "depthlaw.kernel_cells": total("depthlaw.depth_distribution", "kernel_cells"),
        "depthlaw.simulate_sessions.self_s": total("depthlaw.simulate_sessions"),
        "depthlaw.sessions_simulated": total("depthlaw.simulate_sessions", "sessions"),
        "likelihood.context.calls": count("likelihood.context"),
        "likelihood.context.self_s": total("likelihood.context"),
        "likelihood.evaluate_exact.self_s": total(
            "likelihood.evaluate", where=lambda s: s.get("kind") == "exact"),
        "likelihood.evaluate_mc.self_s": total(
            "likelihood.evaluate", where=lambda s: s.get("kind") == "mc"),
        "likelihood.mc_draws": sum(s["S"] * s["n_samples"] * (s["t"] - 1)
                                   for s in mc) / rounds,
        "likelihood.sessions_scored": total("likelihood.evaluate", "S"),
        "likelihood.underflow": total("likelihood.nll_objective", "underflow"),
        "fit.epoch_s": statistics.median(epoch_s) if epoch_s else 0.0,
        "fit.nll_passes_per_epoch": (
            sum(s["name"] == "likelihood.nll_objective" for s in spans) / n_epochs
            if n_epochs else 0.0),
        "fit.contexts_per_epoch": (
            sum(s["name"] == "likelihood.context" for s in spans) / n_epochs
            if n_epochs else 0.0),
        "fit.calibrate.self_s": total("likelihood.calibrate"),
    }


def _epoch_lengths(fit_starts, epoch_ends) -> list:
    """Epoch durations: from the fit's start or the previous epoch mark."""
    marks = sorted([(t, 0) for t in fit_starts] + [(t, 1) for t in epoch_ends])
    out, prev = [], None
    for t, is_epoch in marks:
        if is_epoch and prev is not None:
            out.append(t - prev)
        prev = t
    return out
