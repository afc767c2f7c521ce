"""Fold assignment constraints, cross-validation reports, and bootstrap
comparisons."""

from __future__ import annotations

import concurrent.futures
import json
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import negfactor.evaluation
from negfactor.dataset import (FRAME_LABELS, PlantedSpec, ResponseTable, generate_synthetic,
                               json_text)
from negfactor.errors import ConsistencyError, DimensionError, PairingError, SchemaError
from negfactor.evaluation import (
    EvalReport,
    FoldAssignment,
    GridPointResult,
    assign_folds,
    bootstrap_compare,
    cross_validate,
)
from negfactor.factorization import Hyperparams
from negfactor.optim import FitConfig

from conftest import random_table

DATA = Path(__file__).parent / "data"

QUICK = FitConfig(max_iterations=250, n_restarts=1, convergence_tol=1e-5,
                  patience=1, seed=0)


def dense_table(n_verbs=10, n_frames=3, n_participants=4, seed=0):
    spec = PlantedSpec(n_verbs=n_verbs, n_frames=n_frames,
                       n_participants=n_participants, ratings_per_cell=2,
                       noise_scale=0.05, seed=seed)
    table, _ = generate_synthetic(spec)
    return table


class TestAssignFolds:
    def test_deterministic_and_seed_sensitive(self):
        table = dense_table()
        one = assign_folds(table, seed=3)
        two = assign_folds(table, seed=3)
        other = assign_folds(table, seed=4)
        assert_array_equal(one.fold_of, two.fold_of)
        assert not np.array_equal(one.fold_of, other.fold_of)

    def test_partition_and_constraint_on_dense_data(self):
        table = dense_table(n_verbs=20)
        assignment = assign_folds(table, seed=1)
        assert assignment.fold_of.shape == (table.n_cells,)
        assert not np.any(assignment.fold_of < 0)
        assert set(np.unique(assignment.fold_of)) <= set(range(5))
        assignment.validate(table)
        # the folds' held-out records partition the records
        held = [assignment.fold_of[table.cell_idx] == fold for fold in range(5)]
        assert_array_equal(np.sum(held, axis=0), 1)

    def test_hundred_verb_constraint_checker(self):
        spec = PlantedSpec(n_verbs=100, n_participants=2, ratings_per_cell=1, seed=2)
        table, _ = generate_synthetic(spec)
        assignment = assign_folds(table, seed=9)
        assignment.validate(table)
        assert not np.any(assignment.fold_of < 0)

    def test_singleton_pair_is_pinned_with_warning(self):
        # one verb/frame pair observed in a single cell can never sit in
        # every training portion unless it is never held out
        table = ResponseTable.build(
            verbs=("a", "b"), frames=FRAME_LABELS[:2], participants=("p1",),
            verb_idx=[0, 0, 0, 0, 0, 1, 1, 1, 1],
            frame_idx=[0, 0, 0, 0, 1, 1, 1, 1, 1],
            subj_idx=[0, 0, 1, 1, 0, 0, 0, 1, 1],
            tense_idx=[0, 1, 0, 1, 0, 0, 1, 0, 1],
            part_idx=[0] * 9,
            negraising=[0.5] * 9,
            acceptability=[0.9] * 9,
        )
        with pytest.warns(UserWarning, match="pinned 1 cells"):
            assignment = assign_folds(table, seed=0)
        pinned_cell = np.flatnonzero(assignment.fold_of == -1)
        assert pinned_cell.size == 1
        v, f = table.cells[pinned_cell[0], :2]
        assert (v, f) == (0, 1)
        assignment.validate(table)
        for fold in range(5):
            held = assignment.fold_of[table.cell_idx] == fold
            assert not held[table.cell_idx == pinned_cell[0]].any()

    def test_every_pair_of_two_cells_is_repaired(self):
        # 24,000 two-cell pairs over two folds: about half start in one
        # fold, and every one of them can be repaired, so nothing is pinned
        n_verbs = 24_000
        cell = np.arange(2 * n_verbs)
        zeros = np.zeros_like(cell)
        table = ResponseTable.build(
            verbs=tuple(f"v{i}" for i in range(n_verbs)), frames=FRAME_LABELS[:1],
            participants=("p1",), verb_idx=cell // 2, frame_idx=zeros, subj_idx=cell % 2,
            tense_idx=zeros, part_idx=zeros, negraising=np.full(cell.size, 0.5),
            acceptability=np.full(cell.size, 0.9),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assignment = assign_folds(table, n_folds=2, seed=0)
        assert not np.any(assignment.fold_of < 0)
        assignment.validate(table)

    def test_validate_rejects_broken_assignment(self):
        table = dense_table(n_verbs=4)
        assignment = assign_folds(table, seed=0)
        broken = FoldAssignment(
            fold_of=np.zeros_like(assignment.fold_of),
            n_folds=5, seed=0,
        )
        with pytest.raises(ConsistencyError, match="training cell"):
            broken.validate(table)
        with pytest.raises(ConsistencyError, match="cells"):
            FoldAssignment(fold_of=np.zeros(3, dtype=np.int64), n_folds=5,
                           seed=0).validate(table)

    def test_rejects_single_fold(self):
        with pytest.raises(ValueError, match="n_folds"):
            assign_folds(dense_table(n_verbs=3), n_folds=1)


class TestCrossValidate:
    def test_single_grid_point_report(self):
        table = dense_table(n_verbs=6, n_frames=2, n_participants=4)
        report = cross_validate(table, [(1, 1)], QUICK)
        point = report.point((1, 1))
        assert len(point.fold_losses) == 5
        assert all(isinstance(loss, float) and loss >= 0.0 for loss in point.fold_losses)
        assert point.total == pytest.approx(sum(point.fold_losses))
        assert report.ranking() == [(1, 1)]

    def test_per_cell_losses_sum_to_fold_and_total(self):
        table = dense_table(n_verbs=6, n_frames=2, n_participants=4)
        report = cross_validate(table, [(1, 1)], QUICK)
        point = report.point((1, 1))
        for fold in range(5):
            held = report.assignment.fold_of == fold
            assert_allclose(point.cell_losses[held].sum(), point.fold_losses[fold],
                            rtol=0, atol=1e-9)
        assert_allclose(np.nansum(point.cell_losses), point.total, rtol=0, atol=1e-9)
        # every non-pinned cell was held out exactly once
        assert np.isfinite(point.cell_losses[report.assignment.fold_of >= 0]).all()

    def test_same_fold_assignment_for_every_point(self):
        table = dense_table(n_verbs=5, n_frames=2)
        first = cross_validate(table, [(1, 0), (0, 1)], QUICK)
        second = cross_validate(table, [(1, 1)], QUICK)
        assert_array_equal(first.assignment.fold_of, second.assignment.fold_of)

    def test_structural_point_beats_lexical_only_on_planted_data(self):
        # lexical-only models are frame-blind, so data with planted frame
        # variation must prefer the full model on held-out loss
        spec = PlantedSpec(n_verbs=12, n_frames=4, n_participants=8,
                           ratings_per_cell=4, noise_scale=0.05, seed=11)
        table, _ = generate_synthetic(spec)
        config = FitConfig(max_iterations=600, n_restarts=1, convergence_tol=1e-6,
                           patience=1, seed=0)
        report = cross_validate(table, [(1, 0), (1, 1)], config)
        assert report.point((1, 1)).total < report.point((1, 0)).total
        assert report.ranking() == [(1, 1), (1, 0)]

    def test_failed_fits_recorded_not_raised(self):
        table = dense_table(n_verbs=4, n_frames=2)
        exploding = FitConfig(learning_rate=1e4, max_iterations=20, n_restarts=1)
        with pytest.warns(UserWarning, match="fit failed"):
            report = cross_validate(table, [(1, 1)], exploding)
        point = report.point((1, 1))
        assert point.fold_losses == [None] * 5
        assert np.isnan(point.total)
        assert np.isnan(point.cell_losses).all()
        assert report.ranking() == [(1, 1)]

    def test_report_json_round_trip(self):
        table = dense_table(n_verbs=5, n_frames=2)
        report = cross_validate(table, [(1, 1), (1, 0)], QUICK)
        text = report.to_json()
        back = EvalReport.from_dict(json.loads(text))
        assert back.to_json() == text
        assert back.ranking() == report.ranking()
        assert_array_equal(back.assignment.fold_of, report.assignment.fold_of)

    def test_equivalent_points_share_one_fit_per_fold(self, monkeypatch):
        calls = []
        real_minimize = negfactor.optim._minimize

        def counting_minimize(table, pack, starts, *args, **kwargs):
            # one fitted lane per start: a fold's fit has one per restart
            calls.extend([pack.hyper.as_tuple()] * len(starts))
            return real_minimize(table, pack, starts, *args, **kwargs)

        # calls in pool workers would not reach this list: fit in-process
        monkeypatch.setattr(negfactor.evaluation, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(negfactor.optim, "_minimize", counting_minimize)
        table = dense_table(n_verbs=5, n_frames=2)
        report = cross_validate(table, [(0, 1), (1, 1)], QUICK)
        assert calls == [(1, 1)] * 5
        zero, one = report.point((0, 1)), report.point((1, 1))
        assert zero.fold_losses == one.fold_losses
        assert_array_equal(zero.cell_losses, one.cell_losses)
        assert zero.fold_losses is not one.fold_losses
        assert zero.cell_losses is not one.cell_losses
        assert zero.equivalent_to == (1, 1)
        assert one.equivalent_to is None

    def test_equivalent_point_alone_matches_representative_alone(self):
        table = dense_table(n_verbs=5, n_frames=2)
        zero = cross_validate(table, [(0, 1)], QUICK).point((0, 1))
        one = cross_validate(table, [(1, 1)], QUICK).point((1, 1))
        assert zero.fold_losses == one.fold_losses
        assert_array_equal(zero.cell_losses, one.cell_losses)
        assert zero.equivalent_to == (1, 1)

    def test_report_without_equivalence_fields_loads(self):
        table = dense_table(n_verbs=5, n_frames=2)
        report = cross_validate(table, [(0, 1), (1, 0)], QUICK)
        data = json.loads(report.to_json())
        data["version"] = 1
        for entry in data["grid"]:
            del entry["equivalent_to"]
        back = EvalReport.from_dict(data)
        assert [r.equivalent_to for r in back.results] == [None, None]
        assert back.point((0, 1)).fold_losses == report.point((0, 1)).fold_losses

    def test_file_of_an_earlier_version_is_reproduced_byte_for_byte(self):
        # written by an earlier version of the package: a 3-fold CV over
        # (0,1), (1,1) and (1,0) with a list of two comparisons appended,
        # which the package no longer keeps in a report
        path = DATA / "report.json"
        text = path.read_text(encoding="utf-8")
        data = json.loads(text)
        assert json_text(data) + "\n" == text
        del data["comparisons"]
        assert EvalReport.load(path).to_json() == json_text(data)

    MALFORMED = [
        (("grid", 0, "n_lexical"), 1.9, "n_lexical must be an integer"),
        (("grid", 1, "fold_losses", 2), "7", "fold_losses must be a list of numbers or nulls"),
        (("grid", 1, "cell_losses", 0), True, "cell_losses must be a list of numbers or nulls"),
        (("grid", 2, "cell_losses"), [0.5] * 5, r"grid point \(1, 1\) must have one cell loss"),
        (("grid", 0, "fold_losses"), [0.5], r"grid point \(0, 1\) must have one cell loss"),
        (("fold_of",), [0] * 5, "fold_of must be 24 fold indices from -1 to 2"),
        (("fold_of", 3), 1.0, "fold_of must be 24 fold indices"),
        (("fold_of", 0), 3, "fold_of must be 24 fold indices"),
        (("n_folds",), "3", "n_folds must be an integer"),
        (("fold_seed",), 0.5, "fold_seed must be an integer"),
        (("config_seed",), None, "config_seed must be an integer"),
        (("cells", 0), [0, 0, 0], "cells must be rows of four indices"),
        (("cells", 1), [3, 0, 0, 0], r"cells must be rows of four indices below \(3, 2, 2, 2\)"),
        (("version",), 99, "report version 99 is newer than this package's 2"),
        (("version",), "2", "version must be an integer"),
        (("grid", 0, "equivalent_to"), [1, 1, 1], "equivalent_to must be two integers"),
        (("verbs",), "abc", "verbs must be a list of distinct strings"),
        (("frames",), [1, 2], "frames must be a list of distinct strings"),
        (("verbs", 2), "v000", "verbs must be a list of distinct strings"),
        (("grid", 0), 1, "grid entry must be an object"),
        (("grid", 1), [1, 1], "grid entry must be an object"),
        (("grid",), 1, "grid must be a list"),
        (("grid",), {"n_lexical": 1}, "grid must be a list"),
        (("cells", 2), [0, 0, 0, 0], "cells must not repeat a row"),
        (("grid", 1, "cell_losses", 3), float("nan"),
         "cell_losses must be a list of numbers or nulls"),
        (("grid", 2, "fold_losses", 1), float("inf"),
         "fold_losses must be a list of numbers or nulls"),
        (("fold_of", 5), -1, r"grid point \(0, 1\) has a loss for a pinned cell"),
        (("grid", 1, "fold_losses", 0), None,
         r"grid point \(1, 0\) fold 0 loss must be null exactly when"),
    ]

    @pytest.mark.parametrize("path, value, message", MALFORMED,
                             ids=[".".join(map(str, path)) for path, _, _ in MALFORMED])
    def test_malformed_report_is_a_schema_error(self, path, value, message):
        data = json.loads((DATA / "report.json").read_text(encoding="utf-8"))
        *parents, last = path
        entry = data
        for key in parents:
            entry = entry[key]
        entry[last] = value
        with pytest.raises(SchemaError, match=message):
            EvalReport.from_dict(data)

    @pytest.mark.parametrize("n_folds, message", [
        (0, "n_folds must be at least 2"), (1, "n_folds must be at least 2"),
        (2, r"grid point \(0, 1\) has a loss for a pinned cell"),
    ])
    def test_report_that_held_out_no_cell_is_a_schema_error(self, n_folds, message):
        # every cell pinned and its loss kept: each total would read 0.0, and a
        # bootstrap over the kept losses would call a gap between two points reliable
        data = json.loads((DATA / "report.json").read_text(encoding="utf-8"))
        data["n_folds"], data["fold_of"] = n_folds, [-1] * len(data["fold_of"])
        for entry in data["grid"]:
            entry["fold_losses"] = [0.0] * n_folds
        with pytest.raises(SchemaError, match=message):
            EvalReport.from_dict(data)

    def test_fold_loss_with_no_held_out_cell_loss_is_a_schema_error(self):
        data = json.loads((DATA / "report.json").read_text(encoding="utf-8"))
        entry = data["grid"][2]
        entry["cell_losses"] = [None if fold == 0 else loss
                                for fold, loss in zip(data["fold_of"], entry["cell_losses"])]
        with pytest.raises(SchemaError, match=r"grid point \(1, 1\) fold 0 loss must be null"):
            EvalReport.from_dict(data)

    def test_null_losses_of_a_failed_fold_and_a_pinned_cell_load(self):
        data = json.loads((DATA / "report.json").read_text(encoding="utf-8"))
        fold_of = data["fold_of"]
        fold_of[fold_of.index(0)] = -1
        for entry in data["grid"]:
            entry["fold_losses"][1] = None
            entry["cell_losses"] = [None if fold in (-1, 1) else loss
                                    for fold, loss in zip(fold_of, entry["cell_losses"])]
        report = EvalReport.from_dict(data)
        assert np.isnan(report.point((1, 1)).total)
        assert np.isnan(report.point((1, 1)).cell_losses[np.array(fold_of) == -1]).all()

    @pytest.mark.parametrize("value", [[1], "report", 1], ids=["list", "string", "number"])
    def test_report_that_is_no_object_is_a_schema_error(self, value):
        with pytest.raises(SchemaError, match="report must be an object"):
            EvalReport.from_dict(value)

    def test_repeated_grid_point_is_a_schema_error(self):
        # point() would return the first copy and ranking() list the point twice
        data = json.loads((DATA / "report.json").read_text(encoding="utf-8"))
        data["grid"].append(dict(data["grid"][2], total=0.0))
        with pytest.raises(SchemaError, match=r"grid repeats point \(1, 1\)"):
            EvalReport.from_dict(data)

    @pytest.mark.parametrize("config, n_failed", [
        (QUICK, 0), (FitConfig(learning_rate=1e4, max_iterations=20, n_restarts=1), 15),
    ], ids=["fitting", "failing"])
    def test_pool_and_one_worker_give_identical_reports(self, monkeypatch, config, n_failed):
        table = dense_table(n_verbs=5, n_frames=2)
        runs = []
        for cpus in (2, 1):
            monkeypatch.setattr(negfactor.evaluation, "_usable_cpus", lambda: cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = cross_validate(table, [(0, 1), (1, 1), (1, 0), (2, 1)], config)
            runs.append((report.to_json(), [str(w.message) for w in caught]))
        assert runs[0] == runs[1]
        # three classes of five folds, each failed fit warned once
        assert sum("fit failed" in message for message in runs[0][1]) == n_failed

    def test_one_cpu_or_few_tasks_bound_the_workers(self, monkeypatch):
        table = dense_table(n_verbs=4, n_frames=2)

        def no_pool(*args, **kwargs):
            raise AssertionError("started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(negfactor.evaluation, "_usable_cpus", lambda: 1)
        serial = cross_validate(table, [(1, 1), (1, 0)], QUICK).to_json()

        # more CPUs than (class, fold) tasks: one worker per task, run here
        # by a stand-in pool that starts no process
        started = []

        class InProcessPool:
            def __init__(self, max_workers, mp_context):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(negfactor.evaluation, "_usable_cpus", lambda: 64)
        assert cross_validate(table, [(1, 1), (1, 0)], QUICK).to_json() == serial
        assert started == [10]

    def test_fits_on_threads_give_the_serial_report(self, monkeypatch):
        # 8 CPUs over two classes of two folds: four workers of two threads each
        table = dense_table(n_verbs=5, n_frames=2)
        grid = [(1, 1), (2, 1)]
        monkeypatch.setattr(negfactor.evaluation, "_usable_cpus", lambda: 1)
        serial = cross_validate(table, grid, QUICK, n_folds=2).to_json()

        class InProcessPool:
            def __init__(self, max_workers, mp_context):
                assert max_workers == 4

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        budgets, real_minimize = [], negfactor.optim._minimize

        def recording(*args, **kwargs):
            budgets.append(args[5])
            return real_minimize(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(negfactor.evaluation, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(negfactor.optim, "_minimize", recording)
        monkeypatch.setattr(negfactor.optim, "THREADED_MIN_RECORDS", 0)
        assert cross_validate(table, grid, QUICK, n_folds=2).to_json() == serial
        assert budgets == [2] * 4

    @pytest.mark.skipif(negfactor.evaluation._usable_cpus() < 2,
                        reason="one usable CPU fits in process and starts no worker")
    def test_unguarded_script_fails_at_once(self, tmp_path):
        # spawned workers import the script again and die starting a pool
        # of their own; with a table whose pickle exceeds a pipe buffer
        # (64 KiB) the parent must still see the broken pool, not block
        table, _ = generate_synthetic(PlantedSpec(n_verbs=12))
        assert len(pickle.dumps(table)) > 64 * 1024
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from negfactor import FitConfig, PlantedSpec, cross_validate, generate_synthetic\n"
            "from negfactor.cli import _parse_grid\n"
            "table, _ = generate_synthetic(PlantedSpec(n_verbs=12))\n"
            "cross_validate(table, _parse_grid('all'), FitConfig(max_iterations=20))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(negfactor.__file__).parents[1])}
        done = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode != 0
        assert "BrokenProcessPool" in done.stderr

    def test_importing_the_package_loads_no_multiprocessing(self):
        # the worker pool's modules load only when cross_validate starts one
        env = {**os.environ, "PYTHONPATH": str(Path(negfactor.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", "import sys, negfactor; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'"
             " or m == 'concurrent.futures.process'))"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[]"

    def test_unknown_point_lookup(self):
        table = dense_table(n_verbs=4, n_frames=2)
        report = cross_validate(table, [(1, 1)], QUICK)
        with pytest.raises(ValueError, match="not in the report"):
            report.point((2, 2))

    def test_non_integer_points_are_rejected_not_truncated(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(negfactor.evaluation, "_usable_cpus", lambda: 2)
        with pytest.raises(DimensionError, match="n_lexical must be an integer"):
            cross_validate(dense_table(n_verbs=4, n_frames=2), [(1.5, 1), (2.9, 0)], QUICK)
        report = synthetic_report({(1, 1): np.ones(8)})
        with pytest.raises(DimensionError, match="n_lexical must be an integer"):
            report.point((1.7, 1))
        assert report.point((np.int64(1), 1)) is report.results[0]


def synthetic_report(losses_by_point, n_folds=5, seed=0):
    """Hand-built report with given per-cell held-out losses per grid point."""
    n_cells = len(next(iter(losses_by_point.values())))
    cells = np.stack([
        np.arange(n_cells) % 4,
        (np.arange(n_cells) // 4) % 2,
        np.arange(n_cells) % 2,
        (np.arange(n_cells) // 2) % 2,
    ], axis=1).astype(np.int64)
    fold_of = (np.arange(n_cells) % n_folds).astype(np.int64)
    results = []
    for point, losses in losses_by_point.items():
        losses = np.asarray(losses, dtype=float)
        fold_losses = []
        for fold in range(n_folds):
            held = losses[fold_of == fold]
            fold_losses.append(None if np.isnan(held).any() else float(np.nansum(held)))
        results.append(GridPointResult(
            hyper=Hyperparams(*point), fold_losses=fold_losses, cell_losses=losses,
        ))
    return EvalReport(
        verbs=("v0", "v1", "v2", "v3"),
        frames=tuple(FRAME_LABELS[:2]),
        cells=cells,
        assignment=FoldAssignment(fold_of=fold_of, n_folds=n_folds, seed=seed),
        results=results,
        config_seed=seed,
    )


class TestBootstrapCompare:
    def test_self_comparison_is_exactly_zero(self):
        losses = np.random.default_rng(0).uniform(0.1, 2.0, size=40)
        report = synthetic_report({(1, 1): losses, (1, 0): losses})
        record = bootstrap_compare(report, (1, 1), (1, 0), n_boot=500, seed=1)
        assert record.lower == 0.0
        assert record.upper == 0.0
        assert record.observed == 0.0
        assert not record.reliable

    def test_constant_difference_collapses_to_constant(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0.5, 1.5, size=60)
        shift = 0.125
        report = synthetic_report({(1, 1): base, (2, 2): base - shift})
        record = bootstrap_compare(report, (1, 1), (2, 2), n_boot=2_000, seed=5)
        assert record.lower == pytest.approx(shift, abs=1e-9)
        assert record.upper == pytest.approx(shift, abs=1e-9)
        assert record.observed == pytest.approx(shift, abs=1e-9)
        assert record.reliable

    def test_antisymmetric_under_shared_seed(self):
        rng = np.random.default_rng(2)
        report = synthetic_report({
            (1, 1): rng.uniform(0.1, 1.0, size=50),
            (4, 4): rng.uniform(0.2, 1.5, size=50),
        })
        forward = bootstrap_compare(report, (1, 1), (4, 4), n_boot=3_000, seed=9)
        backward = bootstrap_compare(report, (4, 4), (1, 1), n_boot=3_000, seed=9)
        assert forward.lower == pytest.approx(-backward.upper, rel=1e-12)
        assert forward.upper == pytest.approx(-backward.lower, rel=1e-12)
        assert forward.observed == pytest.approx(-backward.observed, rel=1e-12)

    def test_direction_matches_raw_sums(self):
        rng = np.random.default_rng(3)
        small = rng.uniform(0.1, 0.5, size=80)
        large = small + rng.uniform(0.2, 0.4, size=80)
        report = synthetic_report({(1, 1): small, (4, 4): large})
        record = bootstrap_compare(report, (1, 1), (4, 4), n_boot=2_000, seed=0)
        assert record.observed < 0
        assert record.upper < 0
        assert record.reliable

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(4)
        report = synthetic_report({
            (1, 1): rng.uniform(0.1, 1.0, size=30),
            (1, 0): rng.uniform(0.1, 1.0, size=30),
        })
        one = bootstrap_compare(report, (1, 1), (1, 0), n_boot=1_000, seed=7)
        two = bootstrap_compare(report, (1, 1), (1, 0), n_boot=1_000, seed=7)
        assert (one.lower, one.upper) == (two.lower, two.upper)

    def test_mismatched_sentences_raise_pairing_error(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.1, 1.0, size=20)
        b = rng.uniform(0.1, 1.0, size=20)
        b[3] = np.nan
        report = synthetic_report({(1, 1): a, (1, 0): b})
        with pytest.raises(PairingError, match="different sentence sets"):
            bootstrap_compare(report, (1, 1), (1, 0), n_boot=100, seed=0)

    def test_needs_at_least_one_resample(self):
        report = synthetic_report({(1, 1): np.ones(5), (1, 0): np.zeros(5)})
        for n_boot in (0, -3):
            with pytest.raises(ValueError, match="n_boot"):
                bootstrap_compare(report, (1, 1), (1, 0), n_boot=n_boot)

    def test_equivalent_pair_from_cross_validate_is_never_reliable(self):
        table = dense_table(n_verbs=5, n_frames=2)
        report = cross_validate(table, [(0, 1), (1, 1)], QUICK)
        record = bootstrap_compare(report, (0, 1), (1, 1), n_boot=200, seed=0)
        assert record.equivalent
        assert not record.reliable
        assert (record.lower, record.observed, record.upper) == (0.0, 0.0, 0.0)

    def test_equivalent_pair_with_stored_gap_is_not_reliable(self):
        # a report whose (0, 1) and (1, 1) losses were fitted apart: the
        # interval excludes zero, but the gap is not evidence for either size
        rng = np.random.default_rng(6)
        base = rng.uniform(0.5, 1.5, size=40)
        report = synthetic_report({(0, 1): base + 0.01, (1, 1): base})
        record = bootstrap_compare(report, (0, 1), (1, 1), n_boot=500, seed=2)
        assert record.equivalent
        assert record.lower > 0.0
        assert record.lower <= record.observed <= record.upper
        assert not record.reliable
