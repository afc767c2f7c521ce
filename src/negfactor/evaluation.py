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
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dataset import JsonArtifact, ResponseTable, json_numbers
from .errors import ConsistencyError, FitError, PairingError, SchemaError
from .factorization import Hyperparams
from .model import json_cells, json_integer, json_labels
from .optim import FitConfig, _scored_records, fit_group

REPORT_FORMAT = "negfactor-cv-report"
REPORT_VERSION = 2
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

    Starts uniform at random, then repairs each violated (verb, frame) pair
    of two or more cells by moving a random cell of it to a different
    random fold, which makes the pair span two folds. Pairs that remain
    violated, those of a single cell, get that cell pinned to fold -1 with
    a warning.
    """
    if n_folds < 2:
        raise ValueError("n_folds must be at least 2")
    rng = np.random.default_rng(seed)
    fold_of = rng.integers(0, n_folds, size=table.n_cells).astype(np.int64)
    pair_ids = table.cell_pair_ids()
    n_pairs = table.n_verbs * table.n_frames

    violated = _violated_pairs(pair_ids, fold_of, n_pairs)
    sizes = np.bincount(pair_ids, minlength=n_pairs)
    # each pair's cells in cell order, and where they start
    members = np.argsort(pair_ids, kind="stable")
    starts = np.cumsum(sizes) - sizes
    for pair in violated[sizes[violated] > 1]:
        cell = int(rng.choice(members[starts[pair]:starts[pair] + sizes[pair]]))
        shift = int(rng.integers(1, n_folds))
        fold_of[cell] = (fold_of[cell] + shift) % n_folds

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
        # ``equivalent_to`` is absent from version-1 reports
        equivalent_to = data.get("equivalent_to")
        return cls(
            hyper=Hyperparams(json_integer("n_lexical", data["n_lexical"]),
                              json_integer("n_structural", data["n_structural"])),
            fold_losses=[None if math.isnan(loss) else loss
                         for loss in _losses("fold_losses", data["fold_losses"]).tolist()],
            cell_losses=_losses("cell_losses", data["cell_losses"]),
            equivalent_to=None if equivalent_to is None else _pair("equivalent_to", equivalent_to),
        )


def _losses(name: str, value) -> np.ndarray:
    """A JSON list of losses, each a number or null (NaN); else SchemaError."""
    losses = json_numbers(value, null=True)
    if losses is None or losses.ndim != 1:
        raise SchemaError(f"{name} must be a list of numbers or nulls")
    return losses


def _pair(name: str, value) -> tuple[int, int]:
    """A JSON grid point, two integers; else SchemaError."""
    pair = json_numbers(value, int)
    if pair is None or pair.shape != (2,):
        raise SchemaError(f"{name} must be two integers")
    return tuple(pair.tolist())


@dataclass
class ComparisonRecord:
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
    equivalent: bool

    def to_dict(self) -> dict:
        return {**vars(self), "a": list(self.a), "b": list(self.b)}


@dataclass
class EvalReport(JsonArtifact):
    """Full cross-validation report: shared folds, per-point losses, ranking."""

    verbs: tuple[str, ...]
    frames: tuple[str, ...]
    cells: np.ndarray
    assignment: FoldAssignment
    results: list[GridPointResult]
    config_seed: int

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
        }

    @classmethod
    def from_dict(cls, data: dict) -> EvalReport:
        # a key not read here ("ranking", recomputed, or a list that earlier
        # versions wrote) is ignored
        try:
            if data["format"] != REPORT_FORMAT:
                raise SchemaError(f"not a cross-validation report: {data['format']!r}")
            if json_integer("version", data["version"]) > REPORT_VERSION:
                raise SchemaError(f"report version {data['version']} is newer than this "
                                  f"package's {REPORT_VERSION}")
            verbs = json_labels("verbs", data["verbs"])
            frames = json_labels("frames", data["frames"])
            cells = json_cells(data["cells"], verbs, frames)
            n_folds = json_integer("n_folds", data["n_folds"])
            fold_of = json_numbers(data["fold_of"], np.int64)
            if (fold_of is None or fold_of.shape != (len(cells),)
                    or not np.all((fold_of >= -1) & (fold_of < n_folds))):
                raise SchemaError(f"fold_of must be {len(cells)} fold indices from -1 to "
                                  f"{n_folds - 1}, one per cell")
            results = [GridPointResult.from_dict(g) for g in data["grid"]]
            for result in results:
                if result.cell_losses.shape != (len(cells),) or len(result.fold_losses) != n_folds:
                    raise SchemaError(f"grid point {result.hyper.as_tuple()} must have one cell "
                                      f"loss per cell and one fold loss per fold")
            return cls(
                verbs=verbs,
                frames=frames,
                cells=cells,
                assignment=FoldAssignment(fold_of=fold_of, n_folds=n_folds,
                                          seed=json_integer("fold_seed", data["fold_seed"])),
                results=results,
                config_seed=json_integer("config_seed", data["config_seed"]),
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
    one `optim.fit_group`, one Adam state whose acceptability block their
    restarts share. A class's folds split into as many groups as it
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
        # imported here, so that loading the package does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
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
