"""Analysis bundles, verb rankings, and their file outputs."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit

from negfactor.dataset import json_text
from negfactor.errors import DimensionError
from negfactor.factorization import FactorParams, Hyperparams
from negfactor.report import AnalysisBundle, analyze, rank_verbs, write_analysis

from test_model import make_model


def zero_logit_model(hyper=Hyperparams(1, 1), n_verbs=3):
    model = make_model(seed=0, hyper=hyper)
    n_t, n_i = hyper.n_structural, hyper.n_lexical
    zeros = FactorParams(
        hyper=hyper, n_verbs=len(model.verbs), n_frames=len(model.frames),
        lambda_logits=np.zeros((len(model.verbs), n_t)) if n_t else None,
        pi_logits=np.zeros((n_t, len(model.frames))) if n_t else None,
        omega_logits=np.zeros((n_t, 2, 2)) if n_t else None,
        psi_logits=np.zeros((len(model.verbs), n_i)) if n_i else None,
        phi_logits=np.zeros((n_i, 2, 2)) if n_i else None,
    )
    model.factors = zeros
    return model


class TestAnalyze:
    def test_zero_logits_give_half_probabilities_and_quarter_scores(self):
        bundle = analyze(zero_logit_model())
        for array in (bundle.phi, bundle.omega, bundle.pi, bundle.lambda_, bundle.psi):
            assert_array_equal(array, np.full_like(array, 0.5))
        assert_array_equal(bundle.verb_scores, [0.25, 0.25, 0.25])
        # constant columns leave the rank correlation undefined
        assert np.isnan(bundle.psi_lambda_spearman)

    def test_tables_are_logistic_transforms(self):
        model = make_model(seed=3, hyper=Hyperparams(2, 3))
        bundle = analyze(model)
        assert_allclose(bundle.phi, expit(model.factors.phi_logits), rtol=1e-15)
        assert_allclose(bundle.omega, expit(model.factors.omega_logits), rtol=1e-15)
        assert_allclose(bundle.pi, expit(model.factors.pi_logits), rtol=1e-15)
        assert_allclose(bundle.lambda_, expit(model.factors.lambda_logits), rtol=1e-15)
        assert_allclose(bundle.psi, expit(model.factors.psi_logits), rtol=1e-15)
        assert bundle.verb_scores is None
        assert bundle.psi_lambda_spearman is None
        assert ((bundle.pi > 0) & (bundle.pi < 1)).all()

    def test_boundary_models_emit_empty_sides(self):
        lexical_only = analyze(make_model(seed=1, hyper=Hyperparams(2, 0)))
        assert lexical_only.omega.shape == (0, 2, 2)
        assert lexical_only.pi.shape == (0, 2)
        assert lexical_only.lambda_.shape == (3, 0)
        assert lexical_only.phi.shape == (2, 2, 2)
        structural_only = analyze(make_model(seed=2, hyper=Hyperparams(0, 3)))
        assert structural_only.phi.shape == (0, 2, 2)
        assert structural_only.psi.shape == (3, 0)
        assert structural_only.omega.shape == (3, 2, 2)

    def test_verb_scores_multiply_the_two_columns(self):
        model = make_model(seed=5, hyper=Hyperparams(1, 1))
        bundle = analyze(model)
        expected = expit(model.factors.psi_logits[:, 0]) * expit(model.factors.lambda_logits[:, 0])
        assert_allclose(bundle.verb_scores, expected, rtol=1e-15)

    def test_spearman_diagnostic_tracks_monotone_columns(self):
        model = make_model(seed=6, hyper=Hyperparams(1, 1))
        model.factors.psi_logits[:, 0] = [0.1, 0.7, 2.0]
        model.factors.lambda_logits[:, 0] = [-1.0, 0.0, 3.0]
        assert analyze(model).psi_lambda_spearman == 1.0
        model.factors.lambda_logits[:, 0] = [3.0, 0.0, -1.0]
        assert analyze(model).psi_lambda_spearman == -1.0


class TestRankVerbs:
    def bundle_with_scores(self, verbs, scores):
        return AnalysisBundle(
            hyper=Hyperparams(1, 1), verbs=tuple(verbs), frames=("f",),
            phi=np.full((1, 2, 2), 0.5), omega=np.full((1, 2, 2), 0.5),
            pi=np.full((1, 1), 0.5),
            lambda_=np.full((len(verbs), 1), 0.5), psi=np.full((len(verbs), 1), 0.5),
            verb_scores=np.asarray(scores, dtype=float),
            psi_lambda_spearman=float("nan"),
        )

    def test_descending_with_lexicographic_ties(self):
        bundle = self.bundle_with_scores(("b", "a", "c"), (0.5, 0.5, 0.9))
        assert rank_verbs(bundle) == [("c", 0.9), ("a", 0.5), ("b", 0.5)]

    def test_singleton(self):
        bundle = self.bundle_with_scores(("think",), (0.8,))
        assert rank_verbs(bundle) == [("think", 0.8)]

    def test_output_is_permutation_of_verbs(self):
        bundle = analyze(make_model(seed=7, hyper=Hyperparams(1, 1)))
        ranked = rank_verbs(bundle)
        assert sorted(verb for verb, _ in ranked) == sorted(bundle.verbs)
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_requires_one_one_model(self):
        bundle = analyze(make_model(seed=8, hyper=Hyperparams(2, 1)))
        with pytest.raises(DimensionError, match=r"\(2, 1\)"):
            rank_verbs(bundle)


class TestSerialization:
    @pytest.mark.parametrize("hyper", [
        Hyperparams(1, 1), Hyperparams(2, 1), Hyperparams(0, 2), Hyperparams(3, 0),
    ])
    def test_round_trip_identity(self, hyper):
        # the tables a reader parses from the bundle's JSON are the bundle's, bit for bit
        bundle = analyze(make_model(seed=9, hyper=hyper))
        data = json.loads(json_text(bundle.to_dict()))
        for key, field in (("phi", "phi"), ("omega", "omega"), ("pi", "pi"),
                           ("lambda", "lambda_"), ("psi", "psi")):
            table = getattr(bundle, field)
            assert_array_equal(np.array(data[key]).reshape(table.shape), table)
        if bundle.verb_scores is None:
            assert data["verb_scores"] is None
        else:
            assert_array_equal(data["verb_scores"], bundle.verb_scores)
        assert (data["n_lexical"], data["n_structural"]) == hyper.as_tuple()

    def test_undefined_spearman_is_written_as_null(self):
        bundle = analyze(zero_logit_model())
        assert np.isnan(bundle.psi_lambda_spearman)
        assert json.loads(json_text(bundle.to_dict()))["psi_lambda_spearman"] is None


class TestWriteAnalysis:
    def test_one_one_bundle_writes_all_files(self, tmp_path):
        bundle = analyze(make_model(seed=11, hyper=Hyperparams(1, 1)))
        paths = write_analysis(bundle, tmp_path / "out")
        assert set(paths) == {"phi.csv", "omega.csv", "pi.csv",
                              "verb_scores.csv", "bundle.json"}

        with open(paths["phi.csv"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == ["property", "subject", "tense", "probability"]
        assert len(rows) == 4
        by_key = {(r["property"], r["subject"], r["tense"]): float(r["probability"])
                  for r in rows}
        assert by_key[("0", "first", "past")] == bundle.phi[0, 0, 0]
        assert by_key[("0", "third", "present")] == bundle.phi[0, 1, 1]

        with open(paths["pi.csv"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == ["property", "frame", "probability"]
        assert [r["frame"] for r in rows] == list(bundle.frames)
        assert [float(r["probability"]) for r in rows] == list(bundle.pi[0])

        with open(paths["verb_scores.csv"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["verb"], float(r["score"])) for r in rows] == rank_verbs(bundle)

        with open(paths["bundle.json"], encoding="utf-8") as handle:
            assert handle.read() == json_text(bundle.to_dict()) + "\n"

    def test_larger_bundle_skips_verb_scores(self, tmp_path):
        bundle = analyze(make_model(seed=12, hyper=Hyperparams(2, 2)))
        paths = write_analysis(bundle, tmp_path / "out")
        assert "verb_scores.csv" not in paths
        assert not (tmp_path / "out" / "verb_scores.csv").exists()
        with open(paths["omega.csv"], newline="") as handle:
            assert len(list(csv.DictReader(handle))) == 8
