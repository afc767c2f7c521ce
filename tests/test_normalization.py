"""Free per-cell normalization scores."""

from __future__ import annotations

import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit, logit

from negfactor.dataset import FRAME_LABELS, PlantedSpec, ResponseTable, generate_synthetic
from negfactor.errors import DimensionError
from negfactor.normalization import normalize
from negfactor.optim import FitConfig
from negfactor.response import expit as package_expit

from conftest import random_table

QUICK = FitConfig(max_iterations=400, n_restarts=1, convergence_tol=1e-6,
                  patience=2, seed=0)
SETTLED = FitConfig(max_iterations=2_500, n_restarts=1, convergence_tol=1e-7,
                    patience=2, seed=0)


def constant_table(negraising=0.9, acceptability=0.7):
    rows = []
    for v in range(2):
        for f in range(2):
            for j in range(2):
                for k in range(2):
                    for p in range(2):
                        rows.append((v, f, j, k, p))
    rows = np.asarray(rows)
    return ResponseTable.build(
        verbs=("hope", "know"), frames=FRAME_LABELS[:2], participants=("p1", "p2"),
        verb_idx=rows[:, 0], frame_idx=rows[:, 1], subj_idx=rows[:, 2],
        tense_idx=rows[:, 3], part_idx=rows[:, 4],
        negraising=np.full(len(rows), negraising),
        acceptability=np.full(len(rows), acceptability),
    )


class TestScores:
    def test_constant_cell_recovers_constant(self):
        # with every cell at the same constant the cell means are already a
        # stationary point up to float rounding, so scores stay near the
        # constant (Adam jitters at learning-rate scale around the optimum)
        table = constant_table(negraising=0.9, acceptability=0.7)
        scores = normalize(table, QUICK)
        assert_allclose(scores.score, 0.9, rtol=0, atol=5e-3)
        assert np.ptp(scores.score) < 1e-12
        assert scores.score.shape == (table.n_cells,)
        # the acceptability channel is exactly stationary (expit(logit(0.7))
        # round-trips in floats), so its latents never move
        assert_array_equal(scores.alpha, logit(np.full(table.n_cells, 0.7)))

    def test_identical_cell_data_scores_equal(self):
        # two cells carrying the same (participant, response) records must
        # come out symmetric no matter what the rest of the table does
        rng = np.random.default_rng(0)
        table = random_table(rng, n_verbs=3, n_frames=2, n_participants=3,
                             ratings_per_cell=2)
        twin_a = table.cell_idx == 0
        twin_b = table.cell_idx == 1
        assert twin_a.sum() == twin_b.sum()
        for column in ("part_idx", "negraising", "acceptability"):
            getattr(table, column)[twin_b] = getattr(table, column)[twin_a]
        scores = normalize(table, SETTLED)
        assert abs(scores.score[0] - scores.score[1]) < 1e-3
        assert abs(scores.nu[0] - scores.nu[1]) < 1e-3

    def test_record_order_permutation_invariance(self):
        rng = np.random.default_rng(1)
        table = random_table(rng, n_verbs=3, n_frames=2, n_participants=3,
                             ratings_per_cell=2)
        order = rng.permutation(table.n_records)
        shuffled = ResponseTable.build(
            verbs=table.verbs, frames=table.frames, participants=table.participants,
            verb_idx=table.verb_idx[order], frame_idx=table.frame_idx[order],
            subj_idx=table.subj_idx[order], tense_idx=table.tense_idx[order],
            part_idx=table.part_idx[order],
            negraising=table.negraising[order],
            acceptability=table.acceptability[order],
        )
        assert_array_equal(shuffled.cells, table.cells)
        # with sigma0 and beta0 held at 0, the score expit(nu) is the cell's
        # prediction at zero participant effects, which the data identify
        base = normalize(table, SETTLED)
        permuted = normalize(shuffled, SETTLED)
        assert_allclose(permuted.score, base.score, rtol=0, atol=1e-4)

    def test_raising_a_cell_does_not_lower_its_score(self):
        rng = np.random.default_rng(2)
        table = random_table(rng, n_verbs=3, n_frames=2, n_participants=3,
                             ratings_per_cell=2)
        target = table.cell_idx == 4
        table.negraising[target] = rng.uniform(0.3, 0.5, size=target.sum())
        before = normalize(table, SETTLED).score[4]
        table.negraising[target] += 0.2
        after = normalize(table, SETTLED).score[4]
        assert after >= before - 1e-9

    def test_score_is_expit_of_nu(self):
        rng = np.random.default_rng(3)
        table = random_table(rng, n_verbs=3, n_frames=2, n_participants=3,
                             ratings_per_cell=2)
        scores = normalize(table, QUICK)
        # sigma0 and beta0 are held at 0, so the score is expit(nu), bit for bit
        assert scores.effects.sigma0 == scores.effects.beta0 == 0.0
        assert_array_equal(scores.score, package_expit(scores.nu))
        assert_allclose(scores.score, expit(scores.nu), rtol=1e-12)
        assert np.all((scores.score > 0) & (scores.score < 1))

    @pytest.mark.parametrize("cap", [200, 201])
    def test_rule_met_at_the_cap_is_converged(self, cap):
        table, _ = generate_synthetic(PlantedSpec(n_verbs=6, n_participants=20, seed=0))
        config = FitConfig(max_iterations=cap, convergence_tol=1.0, patience=2)
        scores = normalize(table, config)
        assert (scores.converged, scores.iterations) == (True, 200)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        table = random_table(rng, n_verbs=2, n_frames=2, n_participants=2)
        one = normalize(table, QUICK)
        two = normalize(table, QUICK)
        assert_array_equal(one.score, two.score)
        assert one.iterations == two.iterations
        assert one.converged == two.converged

    def test_empty_table_rejected(self):
        empty = ResponseTable.build(
            verbs=(), frames=(), participants=(),
            verb_idx=[], frame_idx=[], subj_idx=[], tense_idx=[],
            part_idx=[], negraising=[], acceptability=[],
        )
        with pytest.raises(DimensionError, match="empty"):
            normalize(empty)


class TestCsvOutput:
    def test_columns_and_values(self, tmp_path):
        rng = np.random.default_rng(5)
        table = random_table(rng, n_verbs=2, n_frames=2, n_participants=2)
        scores = normalize(table, QUICK)
        path = tmp_path / "scores.csv"
        scores.write_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == ["verb", "frame", "subject", "tense",
                                 "nu", "alpha", "score"]
        assert len(rows) == table.n_cells
        for row, record in enumerate(rows):
            v, f, j, k = scores.cells[row]
            assert record["verb"] == table.verbs[v]
            assert record["frame"] == table.frames[f]
            assert record["subject"] == ("first", "third")[j]
            assert record["tense"] == ("past", "present")[k]
            assert float(record["score"]) == scores.score[row]
            assert float(record["nu"]) == scores.nu[row]
