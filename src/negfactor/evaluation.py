"""Constrained five-fold cross-validation and bootstrap model comparison.

A "sentence" is a (verb, frame, subject, tense) cell: all of its ratings
travel together between folds. Fold assignment must leave, for every fold,
at least one cell of every (verb, frame) pair in the training portion so
each held-out sentence involves a verb/frame combination the model has
seen. Cells of pairs that cannot satisfy this (single-cell pairs) are
pinned to the training set (fold -1) and never held out.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from multiprocessing import get_context

import numpy as np

from .dataset import JsonArtifact, ResponseTable
from .errors import ConsistencyError, FitError, PairingError, SchemaError
from .factorization import Hyperparams
from .optim import FitConfig, _scored_records, fit_group

REPORT_FORMAT = "negfactor-cv-report"
REPORT_VERSION = 2
SWAP_CAP = 10_000
BOOT_CHUNK = 512


def _violated_pairs(pair_ids: np.ndarray, fold_of: np.ndarray, n_pairs: int) -> np.ndarray:
    """Pairs whose every cell sits in one single non-pinned fold: that fold's
    training portion would lack the pair entirely."""
    lo = np.full(n_pairs, np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(n_pairs, np.iinfo(np.int64).min, dtype=np.int64)
    np.minimum.at(lo, pair_ids, fold_of)
    np.maximum.at(hi, pair_ids, fold_of)
    return np.flatnonzero((lo == hi) & (lo >= 0))


@dataclass(frozen=True)
class FoldAssignment:
    """Cell-to-fold map; fold -1 marks cells pinned to the training set."""

    fold_of: np.ndarray
    n_folds: int
    seed: int

    def validate(self, table: ResponseTable) -> None:
        """Check the partition and the per-fold training coverage invariant."""
        if self.fold_of.shape != (table.n_cells,):
            raise ConsistencyError("fold assignment does not match the table's cells")
        if np.any((self.fold_of < -1) | (self.fold_of >= self.n_folds)):
            raise ConsistencyError("fold indices must lie in {-1, 0, ..., n_folds-1}")
        pair_ids = table.cell_pair_ids()
        n_pairs = table.n_verbs * table.n_frames
        bad = _violated_pairs(pair_ids, self.fold_of, n_pairs)
        if bad.size:
            verb = table.verbs[int(bad[0]) // table.n_frames]
            frame = table.frames[int(bad[0]) % table.n_frames]
            raise ConsistencyError(
                f"({verb!r}, {frame!r}) has no training cell in some fold"
            )


def assign_folds(table: ResponseTable, n_folds: int = 5, seed: int = 0) -> FoldAssignment:
    """Pseudorandom constrained fold assignment of cells.

    Starts uniform at random, then repairs constraint violations by moving
    a random cell of each violated (verb, frame) pair to a different random
    fold (at most SWAP_CAP moves). Pairs that remain violated, which is
    only possible when a pair has a single cell, get that cell pinned to
    fold -1 with a warning.
    """
    if n_folds < 2:
        raise ValueError("n_folds must be at least 2")
    rng = np.random.default_rng(seed)
    fold_of = rng.integers(0, n_folds, size=table.n_cells).astype(np.int64)
    pair_ids = table.cell_pair_ids()
    n_pairs = table.n_verbs * table.n_frames

    swaps = 0
    while swaps < SWAP_CAP:
        violated = _violated_pairs(pair_ids, fold_of, n_pairs)
        fixable = [p for p in violated if np.sum(pair_ids == p) > 1]
        if not fixable:
            break
        for pair in fixable:
            members = np.flatnonzero(pair_ids == pair)
            cell = int(rng.choice(members))
            shift = int(rng.integers(1, n_folds))
            fold_of[cell] = (fold_of[cell] + shift) % n_folds
            swaps += 1
            if swaps >= SWAP_CAP:
                break

    stuck = _violated_pairs(pair_ids, fold_of, n_pairs)
    if stuck.size:
        pin = np.isin(pair_ids, stuck)
        fold_of[pin] = -1
        warnings.warn(
            f"pinned {int(np.sum(pin))} cells of {stuck.size} (verb, frame) pairs "
            "to the training set; they are never held out",
            stacklevel=2,
        )
    return FoldAssignment(fold_of=fold_of, n_folds=n_folds, seed=seed)


@dataclass
class GridPointResult:
    """Cross-validation outcome for one hyperparameter setting.

    ``equivalent_to`` names the class representative whose fits produced
    these losses when it is another grid point (see
    ``Hyperparams.representative``), else None.
    """

    hyper: Hyperparams
    fold_losses: list[float | None]
    cell_losses: np.ndarray
    equivalent_to: tuple[int, int] | None = None

    @property
    def total(self) -> float:
        if any(loss is None for loss in self.fold_losses):
            return float("nan")
        return float(sum(self.fold_losses))

    def to_dict(self) -> dict:
        return {
            "n_lexical": self.hyper.n_lexical,
            "n_structural": self.hyper.n_structural,
            "fold_losses": self.fold_losses,
            "total": None if np.isnan(self.total) else self.total,
            "cell_losses": [None if np.isnan(x) else x for x in self.cell_losses.tolist()],
            "equivalent_to": None if self.equivalent_to is None else list(self.equivalent_to),
        }

    @classmethod
    def from_dict(cls, data: dict) -> GridPointResult:
        cells = np.array(
            [np.nan if x is None else float(x) for x in data["cell_losses"]]
        )
        equivalent_to = data.get("equivalent_to")
        return cls(
            hyper=Hyperparams(int(data["n_lexical"]), int(data["n_structural"])),
            fold_losses=[None if x is None else float(x) for x in data["fold_losses"]],
            cell_losses=cells,
            equivalent_to=None if equivalent_to is None else tuple(int(x) for x in equivalent_to),
        )


@dataclass
class ComparisonRecord(JsonArtifact):
    """Bootstrap CI for the mean per-sentence held-out loss difference A - B.

    ``equivalent`` marks two grid points of one prediction class; such a
    comparison is never ``reliable``.
    """

    a: tuple[int, int]
    b: tuple[int, int]
    observed: float
    lower: float
    upper: float
    reliable: bool
    n_boot: int
    seed: int
    equivalent: bool = False

    def to_dict(self) -> dict:
        return {**vars(self), "a": list(self.a), "b": list(self.b)}

    @classmethod
    def from_dict(cls, data: dict) -> ComparisonRecord:
        # a field with a default (``equivalent``) may be absent, as in
        # version-1 reports; a missing required field raises KeyError
        values = {f.name: data[f.name] for f in fields(cls)
                  if f.name in data or f.default is MISSING}
        return cls(**{**values, "a": tuple(values["a"]), "b": tuple(values["b"])})


@dataclass
class EvalReport(JsonArtifact):
    """Full cross-validation report: shared folds, per-point losses, ranking."""

    verbs: tuple[str, ...]
    frames: tuple[str, ...]
    cells: np.ndarray
    assignment: FoldAssignment
    results: list[GridPointResult]
    config_seed: int
    comparisons: list[ComparisonRecord] = field(default_factory=list)

    def point(self, hyper: Hyperparams | tuple[int, int]) -> GridPointResult:
        key = hyper if isinstance(hyper, Hyperparams) else Hyperparams(*hyper)
        for result in self.results:
            if result.hyper == key:
                return result
        raise ValueError(f"grid point {key.as_tuple()} is not in the report")

    def ranking(self) -> list[tuple[int, int]]:
        """Grid points from best to worst total; failed points last.

        Equal totals keep each prediction class together, its
        representative ahead of the points that name it in
        ``equivalent_to``.
        """
        def sort_key(result: GridPointResult):
            total = result.total
            label = result.hyper.as_tuple()
            return (np.isnan(total), total if not np.isnan(total) else 0.0,
                    result.equivalent_to or label, result.equivalent_to is not None, label)
        return [r.hyper.as_tuple() for r in sorted(self.results, key=sort_key)]

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "verbs": list(self.verbs),
            "frames": list(self.frames),
            "cells": self.cells.tolist(),
            "n_folds": self.assignment.n_folds,
            "fold_seed": self.assignment.seed,
            "fold_of": self.assignment.fold_of.tolist(),
            "config_seed": self.config_seed,
            "grid": [result.to_dict() for result in self.results],
            "ranking": [list(pair) for pair in self.ranking()],
            "comparisons": [record.to_dict() for record in self.comparisons],
        }

    @classmethod
    def from_dict(cls, data: dict) -> EvalReport:
        try:
            if data["format"] != REPORT_FORMAT:
                raise SchemaError(f"not a cross-validation report: {data['format']!r}")
            assignment = FoldAssignment(
                fold_of=np.array(data["fold_of"], dtype=np.int64),
                n_folds=int(data["n_folds"]),
                seed=int(data["fold_seed"]),
            )
            return cls(
                verbs=tuple(data["verbs"]),
                frames=tuple(data["frames"]),
                cells=np.array(data["cells"], dtype=np.int64),
                assignment=assignment,
                results=[GridPointResult.from_dict(g) for g in data["grid"]],
                config_seed=int(data["config_seed"]),
                comparisons=[ComparisonRecord.from_dict(c) for c in data.get("comparisons", [])],
            )
        except KeyError as err:
            raise SchemaError(f"report is missing field {err.args[0]!r}") from None


def _as_grid(grid) -> list[Hyperparams]:
    points = {entry if isinstance(entry, Hyperparams) else Hyperparams(*entry) for entry in grid}
    if not points:
        raise ValueError("grid is empty")
    return sorted(points, key=Hyperparams.as_tuple)


def _usable_cpus() -> int:
    """CPUs this process may run on (``taskset`` restricts them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fit_folds(table: ResponseTable, assignment: FoldAssignment, config: FitConfig,
               task: tuple[Hyperparams, tuple[int, ...]]):
    """Held-out loss and held-out cell losses of some folds of one class,
    whose fits run as one `fit_group`.

    Returns, per fold, (fold loss, losses of the fold's cells in cell
    order), or the ``FitError`` text when the fold's fit fails.
    """
    hyper, folds = task
    outcomes, held, seeds, nr_masks = {}, {}, [], []
    for fold in folds:
        held_cells = assignment.fold_of == fold
        held_mask = held_cells[table.cell_idx]
        if not held_mask.any():
            outcomes[fold] = 0.0, np.empty(0)
            continue
        fold_entropy = (config.seed, hyper.n_lexical, hyper.n_structural, fold)
        seeds.append(int(np.random.SeedSequence(fold_entropy).generate_state(1)[0]))
        nr_masks.append(~held_mask)
        held[fold] = held_cells, held_mask
    fitted = fit_group(table, hyper, config, seeds, nr_masks) if seeds else []
    for (fold, (held_cells, held_mask)), outcome in zip(held.items(), fitted):
        if isinstance(outcome, FitError):
            outcomes[fold] = str(outcome)
            continue
        losses, cell_idx = _scored_records(outcome.model, table, held_mask)
        per_cell = np.bincount(cell_idx, weights=losses, minlength=table.n_cells)
        outcomes[fold] = float(np.sum(losses)), per_cell[held_cells]
    return [outcomes[fold] for fold in folds]


def cross_validate(table: ResponseTable, grid, config: FitConfig | None = None,
                   n_folds: int = 5, fold_seed: int | None = None) -> EvalReport:
    """Constrained k-fold cross-validation over a hyperparameter grid.

    One fold assignment (seeded by fold_seed, default config.seed) is
    shared by every grid point. Each (point, fold) fit sees the neg-raising
    responses of the training cells only; the acceptability channel always
    uses all records. Held-out loss is the weighted KL data loss of the
    held-out fold's records. A fit failure leaves None for that fold and
    NaN for its cells, with a warning; the report is still produced.

    Grid points of one prediction class (``Hyperparams.representative``:
    (0, t) shares the class of (1, t)) are fitted once per fold, always as
    the representative with its own fold seed, whether or not the
    representative itself was requested. Every requested point of the class
    reports copies of the same fold and cell losses, and a point other than
    the representative names it in ``equivalent_to``.

    Each task fits one class's folds, or a group of them, as the lanes of
    one `optim.fit_group`: their restarts share the acceptability half of
    every evaluation. A class's folds split into as many groups as it
    takes to give every usable CPU a task, at most one per fold. The
    tasks run in a pool of worker processes, one per usable CPU (restrict
    them with ``taskset``). Every fit's seed derives from (config.seed,
    class, fold), and a fit gives the same bits whatever lanes it shares,
    so the report is byte-identical to a run on one CPU, which fits in
    this process. The table goes with each task. Workers start by
    ``spawn``, which imports the main module again:
    a script that calls this must do so under ``if __name__ == "__main__":``,
    else it fails at once with ``BrokenProcessPool``.
    """
    if config is None:
        config = FitConfig()
    if fold_seed is None:
        fold_seed = config.seed
    points = _as_grid(grid)
    assignment = assign_folds(table, n_folds=n_folds, seed=fold_seed)
    assignment.validate(table)

    classes = list(dict.fromkeys(hyper.representative() for hyper in points))
    cpus = _usable_cpus()
    groups = min(n_folds, math.ceil(cpus / len(classes)))
    tasks = [(rep, tuple(folds.tolist())) for rep in classes
             for folds in np.array_split(np.arange(n_folds), groups)]
    fit_folds = partial(_fit_folds, table, assignment, config)
    workers = min(cpus, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
            outcomes = list(pool.map(fit_folds, tasks))
    else:
        outcomes = list(map(fit_folds, tasks))

    by_class = {rep: ([], np.full(table.n_cells, np.nan)) for rep in classes}
    for (rep, folds), task_outcomes in zip(tasks, outcomes):
        fold_losses, cell_losses = by_class[rep]
        for fold, outcome in zip(folds, task_outcomes):
            if isinstance(outcome, str):
                warnings.warn(f"fit failed at {rep.as_tuple()} fold {fold}: {outcome}",
                              stacklevel=2)
                fold_losses.append(None)
            else:
                fold_losses.append(outcome[0])
                cell_losses[assignment.fold_of == fold] = outcome[1]

    results = []
    for hyper in points:
        rep = hyper.representative()
        fold_losses, cell_losses = by_class[rep]
        results.append(GridPointResult(
            hyper=hyper,
            fold_losses=list(fold_losses),
            cell_losses=cell_losses.copy(),
            equivalent_to=None if rep == hyper else rep.as_tuple(),
        ))

    return EvalReport(
        verbs=table.verbs,
        frames=table.frames,
        cells=table.cells.copy(),
        assignment=assignment,
        results=results,
        config_seed=config.seed,
    )


def bootstrap_compare(report: EvalReport, a, b, n_boot: int = 10_000,
                      seed: int = 0) -> ComparisonRecord:
    """Nonparametric bootstrap CI for the paired held-out loss difference.

    Sentences (cells held out under the shared fold assignment) are
    resampled with replacement; the 2.5/97.5 percentiles of the resampled
    mean difference form the interval. ``reliable`` means the interval
    excludes zero. Both grid points must cover the same sentences.

    Two points of one prediction class (``Hyperparams.representative``)
    get ``equivalent=True`` and ``reliable=False`` whatever the interval:
    their loss gap, if any, is optimizer noise rather than evidence for
    one size over the other. The interval is still computed from the
    stored losses; on a report from ``cross_validate`` those are identical,
    so the interval and the observed mean are all zero.
    """
    if n_boot < 1:
        raise ValueError("n_boot must be at least 1")
    point_a = report.point(a)
    point_b = report.point(b)
    valid_a = np.isfinite(point_a.cell_losses)
    valid_b = np.isfinite(point_b.cell_losses)
    if not np.array_equal(valid_a, valid_b):
        raise PairingError(
            f"grid points {point_a.hyper.as_tuple()} and {point_b.hyper.as_tuple()} "
            "have held-out losses for different sentence sets"
        )
    if not valid_a.any():
        raise PairingError("no sentences with held-out losses to compare")
    diffs = point_a.cell_losses[valid_a] - point_b.cell_losses[valid_a]

    rng = np.random.default_rng(seed)
    means = np.empty(n_boot)
    done = 0
    while done < n_boot:
        take = min(BOOT_CHUNK, n_boot - done)
        idx = rng.integers(0, diffs.size, size=(take, diffs.size))
        means[done:done + take] = diffs[idx].mean(axis=1)
        done += take
    lower, upper = np.percentile(means, [2.5, 97.5])
    equivalent = point_a.hyper.representative() == point_b.hyper.representative()
    return ComparisonRecord(
        a=point_a.hyper.as_tuple(),
        b=point_b.hyper.as_tuple(),
        observed=float(diffs.mean()),
        lower=float(lower),
        upper=float(upper),
        reliable=not equivalent and bool(lower > 0.0 or upper < 0.0),
        n_boot=n_boot,
        seed=seed,
        equivalent=equivalent,
    )
