"""Fold assignment constraints, cross-validation reports, and bootstrap
comparisons."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import negfactor.evaluation
from negfactor.dataset import FRAME_LABELS, PlantedSpec, ResponseTable, generate_synthetic
from negfactor.errors import ConsistencyError, PairingError
from negfactor.evaluation import (
    ComparisonRecord,
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
        assert assignment.n_pinned == 0
        assert set(np.unique(assignment.fold_of)) <= set(range(5))
        assignment.validate(table)
        # record masks partition the records for each fold
        for fold in range(5):
            held = assignment.held_record_mask(table, fold)
            train = assignment.train_record_mask(table, fold)
            assert np.all(held ^ train)

    def test_hundred_verb_constraint_checker(self):
        spec = PlantedSpec(n_verbs=100, n_participants=2, ratings_per_cell=1, seed=2)
        table, _ = generate_synthetic(spec)
        assignment = assign_folds(table, seed=9)
        assignment.validate(table)
        assert assignment.n_pinned == 0

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
            assert not assignment.held_record_mask(table, fold)[
                table.cell_idx == pinned_cell[0]
            ].any()

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
            held = report.assignment.held_cell_mask(fold)
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
        real_fit = negfactor.evaluation.fit

        def counting_fit(table, hyper, *args, **kwargs):
            calls.append(hyper.as_tuple())
            return real_fit(table, hyper, *args, **kwargs)

        monkeypatch.setattr(negfactor.evaluation, "fit", counting_fit)
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
        report.comparisons.append(bootstrap_compare(report, (0, 1), (1, 0), n_boot=100))
        data = json.loads(report.to_json())
        data["version"] = 1
        for entry in data["grid"]:
            del entry["equivalent_to"]
        for entry in data["comparisons"]:
            del entry["equivalent"]
        back = EvalReport.from_dict(data)
        assert [r.equivalent_to for r in back.results] == [None, None]
        assert back.comparisons[0].equivalent is False
        assert back.point((0, 1)).fold_losses == report.point((0, 1)).fold_losses

    def test_unknown_point_lookup(self):
        table = dense_table(n_verbs=4, n_frames=2)
        report = cross_validate(table, [(1, 1)], QUICK)
        with pytest.raises(ValueError, match="not in the report"):
            report.point((2, 2))


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

    def test_comparison_record_round_trip(self):
        record = ComparisonRecord(a=(1, 1), b=(2, 2), observed=-0.5,
                                  lower=-0.75, upper=-0.25, reliable=True,
                                  n_boot=100, seed=3)
        back = ComparisonRecord.from_dict(record.to_dict())
        assert back == record
        equivalent = ComparisonRecord(a=(0, 2), b=(1, 2), observed=0.0, lower=0.0,
                                      upper=0.0, reliable=False, n_boot=100, seed=3,
                                      equivalent=True)
        assert ComparisonRecord.from_dict(equivalent.to_dict()) == equivalent
