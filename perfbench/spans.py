"""Span recording around negfactor's calls, and the per-layer metrics drawn from it.

A span is ``[name, start, end, parent]``, with times from `time.perf_counter`
and ``parent`` the index of the enclosing span (-1 at the top). Spans stay in
memory and are written out when the run ends. A span's self time is its
duration less the durations of its children; calls are not concurrent, so
children never overlap.

The workloads send their direct calls through `Recorder.call`, which records
nothing while the recorder is off. `layer_wrappers` additionally swaps
span-recording wrappers in for the module attributes the package looks up at
call time, so that the calls it makes to itself are recorded too.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import negfactor.dataset
import negfactor.evaluation
import negfactor.normalization
import negfactor.optim
import negfactor.response


class Recorder:
    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def traced_fit(rec: Recorder, fit):
    """`fit` recorded as one span, counting fits that stopped at the iteration cap."""
    def call(*args, **kwargs):
        result = rec.call("optim.fit", fit, *args, **kwargs)
        if rec.enabled:
            rec.counts["optim.fits_at_cap"] += not result.converged
        return result
    return call


def _traced_adam(rec: Recorder, prefix: str, adam_minimize):
    objective = prefix + ".objective"

    def call(x0, fun, *args, **kwargs):
        result = rec.call(prefix + ".adam_minimize", adam_minimize, x0,
                          rec.wrap(objective, fun), *args, **kwargs)
        rec.counts[prefix + ".iterations"] += result[3]
        return result
    return call


def _traced_channel(rec: Recorder, prefix: str, channel_backward):
    # the neg-raising channel is the one called with per-record weights
    def call(*args, **kwargs):
        kind = ".channel_nr" if kwargs.get("weights") is not None else ".channel_acc"
        return rec.call(prefix + kind, channel_backward, *args, **kwargs)
    return call


@contextmanager
def layer_wrappers(rec: Recorder):
    """Record the package's calls to itself while the block runs."""
    dataset, evaluation = negfactor.dataset, negfactor.evaluation
    normalization, optim, response = negfactor.normalization, negfactor.optim, negfactor.response
    makers = [
        (dataset, "negraising_grid", lambda f: rec.wrap("factorization.negraising_grid", f)),
        (response, "negraising_from_probs",
         lambda f: rec.wrap("factorization.negraising_from_probs", f)),
        (optim, "negraising_from_probs",
         lambda f: rec.wrap("factorization.negraising_from_probs", f)),
        (optim, "negraising_record_losses",
         lambda f: rec.wrap("response.negraising_record_losses", f)),
        (optim, "adam_minimize", lambda f: _traced_adam(rec, "optim", f)),
        (optim, "channel_backward", lambda f: _traced_channel(rec, "optim", f)),
        (normalization, "adam_minimize", lambda f: _traced_adam(rec, "normalization", f)),
        (normalization, "channel_backward", lambda f: _traced_channel(rec, "normalization", f)),
        (evaluation, "fit", lambda f: traced_fit(rec, f)),
        (evaluation, "evaluate", lambda f: rec.wrap("optim.evaluate", f)),
        (evaluation, "evaluate_per_cell", lambda f: rec.wrap("optim.evaluate_per_cell", f)),
        (evaluation, "assign_folds", lambda f: rec.wrap("evaluation.assign_folds", f)),
    ]
    originals, absent = [], []
    for module, name, make in makers:
        if hasattr(module, name):
            originals.append((module, name, getattr(module, name)))
            setattr(module, name, make(getattr(module, name)))
        else:
            absent.append(f"{module.__name__}.{name}")
    rec.enabled = True
    try:
        yield absent
    finally:
        rec.enabled = False
        for module, name, original in originals:
            setattr(module, name, original)


class SpanStats:
    """Durations, self times and parents of recorded spans, grouped by name."""

    def __init__(self, spans: list[list]):
        child_time = defaultdict(float)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.durations = defaultdict(list)
        self.self_times = defaultdict(list)
        self.under = defaultdict(list)  # (name, parent name) -> durations
        for index, (name, start, end, parent) in enumerate(spans):
            self.durations[name].append(end - start)
            self.self_times[name].append(end - start - child_time[index])
            parent_name = spans[parent][0] if parent >= 0 else None
            self.under[name, parent_name].append(end - start)

    def calls(self, name: str) -> int:
        return len(self.durations[name])

    def mean_ms(self, name: str) -> float:
        values = self.durations[name]
        return 1e3 * statistics.fmean(values) if values else 0.0

    def self_ms(self, name: str) -> float:
        values = self.self_times[name]
        return 1e3 * statistics.fmean(values) if values else 0.0

    def total_self(self, name: str) -> float:
        return sum(self.self_times[name])
