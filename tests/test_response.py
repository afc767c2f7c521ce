"""Response link and loss tests with independently derived expected values."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit, logit

import negfactor
from negfactor import response
from negfactor.dataset import FRAME_LABELS, ResponseTable
from negfactor.errors import ConsistencyError
from negfactor.factorization import FactorParams, Hyperparams
from negfactor.optim import prior_backward, total_loss
from negfactor.response import AcceptabilityCells, EffectsParams, _divergence, channel_losses

from conftest import (
    bernoulli_kl_reference,
    cell_probability,
    probabilities_to_logits,
    random_factor_params,
    random_table,
)


def single_record_table(negraising, acceptability):
    return ResponseTable.build(
        verbs=("verb",),
        frames=(FRAME_LABELS[0],),
        participants=("p0",),
        verb_idx=np.array([0]),
        frame_idx=np.array([0]),
        subj_idx=np.array([0]),
        tense_idx=np.array([0]),
        part_idx=np.array([0]),
        negraising=np.array([negraising]),
        acceptability=np.array([acceptability]),
    )


def predict_negraising(nu, effects, participant):
    """Expected neg-raising response: the link's unclamped prediction."""
    _, pred, _ = channel_losses(np.asarray(nu, dtype=float), np.asarray(participant), 0.5,
                                effects.beta0, effects.sigma0, effects.beta, effects.sigma)
    return pred


def predict_acceptability(alpha, effects, participant):
    """Expected acceptability response, with the primed link parameters."""
    _, pred, _ = channel_losses(np.asarray(alpha, dtype=float), np.asarray(participant), 0.5,
                                effects.beta0_acc, effects.sigma0_acc,
                                effects.beta_acc, effects.sigma_acc)
    return pred


def prior_penalty(effects):
    """The prior term of the objective, as `optim.prior_backward` returns it."""
    return prior_backward(effects, dict.fromkeys(vars(effects), 0.0))


class TestSigmoidAndLogit:
    """The package's numpy sigmoid and logit against scipy's, which only the
    tests import."""

    def test_expit_matches_scipy(self):
        x = np.concatenate([np.linspace(-800, 800, 200001),
                            np.random.default_rng(0).normal(0.0, 10.0, 100_000)])
        assert_allclose(response.expit(x), expit(x), rtol=5e-16, atol=0)

    def test_logit_matches_scipy(self):
        p = np.concatenate([np.linspace(1e-15, 1 - 1e-15, 200001),
                            np.random.default_rng(1).uniform(1e-15, 1 - 1e-15, 100_000)])
        assert_allclose(response.logit(p), logit(p), rtol=0, atol=2e-15)

    def test_expit_is_the_plain_formula_bit_for_bit(self):
        x = np.concatenate([np.linspace(-800, 800, 20001), np.random.default_rng(2).normal(size=1000)])
        with np.errstate(over="ignore"):
            assert_array_equal(response.expit(x), 1.0 / (1.0 + np.exp(-x)))

    def test_extremes_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_array_equal(response.expit(np.array([-1000.0, 1000.0])), [0.0, 1.0])
            assert response.expit(-1000.0) == 0.0

    def test_scalar_in_gives_scalar_out(self):
        assert type(response.expit(0.5)) is np.float64
        assert type(response.logit(0.25)) is np.float64
        assert response.expit(0.0) == 0.5
        assert response.logit(0.5) == 0.0

    def test_importing_the_package_loads_no_scipy(self):
        env = {**os.environ, "PYTHONPATH": str(Path(negfactor.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", "import sys, negfactor; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[]"


class TestPredictNegraising:
    def test_zero_link(self):
        effects = EffectsParams.zeros(1)
        assert predict_negraising(0.0, effects, 0) == 0.5

    def test_identity_link(self):
        effects = EffectsParams.zeros(1)
        assert_allclose(predict_negraising(logit(0.9), effects, 0), 0.9, rtol=0, atol=1e-15)

    def test_scaled_shifted_link(self):
        # nu=1, sigma0=ln 2, beta0=0.5, beta_l=-0.5 -> logit^-1(2.0)
        effects = EffectsParams.zeros(1)
        effects.beta0 = 0.5
        effects.sigma0 = math.log(2.0)
        effects.beta = np.array([-0.5])
        assert_allclose(predict_negraising(1.0, effects, 0), 0.8807970779778823, rtol=0, atol=1e-15)

    def test_unknown_participant_raises(self):
        effects = EffectsParams.zeros(2)
        with pytest.raises(IndexError):
            predict_negraising(0.0, effects, 7)

    def test_monotone_in_nu_and_shift(self):
        effects = EffectsParams.zeros(1)
        effects.sigma0 = 0.3
        nus = np.linspace(-4, 4, 33)
        preds = predict_negraising(nus, effects, np.zeros(33, dtype=int))
        assert np.all(np.diff(preds) > 0)
        effects_shifted = EffectsParams.zeros(1)
        effects_shifted.sigma0 = 0.3
        effects_shifted.beta0 = 0.25
        shifted = predict_negraising(nus, effects_shifted, np.zeros(33, dtype=int))
        assert np.all(shifted > preds)


class TestPredictAcceptability:
    def test_zero_link(self):
        effects = EffectsParams.zeros(1)
        assert predict_acceptability(0.0, effects, 0) == 0.5

    def test_identity_link(self):
        effects = EffectsParams.zeros(1)
        assert_allclose(predict_acceptability(logit(0.8), effects, 0), 0.8, rtol=0, atol=1e-15)

    def test_shifted_link(self):
        # alpha=-1, beta0'=0.25 -> logit^-1(-0.75)
        effects = EffectsParams.zeros(1)
        effects.beta0_acc = 0.25
        assert_allclose(predict_acceptability(-1.0, effects, 0), 0.320821300824607, rtol=0, atol=1e-15)


class TestKlLoss:
    """The Bernoulli divergence kernel that both channels apply."""

    def test_exact_zero_at_equality(self):
        for r in (0.3, 0.5, 1e-4, 1 - 1e-4):
            assert _divergence(r, r) == 0.0

    def test_frozen_value(self):
        value = _divergence(0.5, 0.25)
        assert_allclose(value, 0.14384103622589042, rtol=0, atol=1e-15)
        assert_allclose(value, bernoulli_kl_reference(0.5, 0.25), rtol=0, atol=1e-15)

    def test_nonnegative_sweep(self):
        rng = np.random.default_rng(808)
        r = rng.uniform(1e-4, 1 - 1e-4, size=10_000)
        r_hat = rng.uniform(1e-4, 1 - 1e-4, size=10_000)
        values = _divergence(r, r_hat)
        assert np.all(values >= 0.0)
        spot = rng.integers(0, 10_000, size=50)
        for i in spot:
            assert_allclose(values[i], bernoulli_kl_reference(r[i], r_hat[i]), rtol=1e-12, atol=1e-15)

    def test_convex_in_rhat(self):
        grid = np.linspace(0.01, 0.99, 197)
        for r in (0.2, 0.5, 0.85):
            values = _divergence(np.full_like(grid, r), grid)
            second = np.diff(values, 2)
            assert np.all(second > -1e-12)

    def test_moving_toward_target_never_increases(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            r = rng.uniform(0.05, 0.95)
            far = rng.uniform(0.01, 0.99)
            mid = far + 0.5 * (r - far)
            assert _divergence(r, mid) <= _divergence(r, far) + 1e-15


class TestPriorPenalty:
    def test_zero_effects_zero_logvars(self):
        assert prior_penalty(EffectsParams.zeros(3)) == 0.0

    def test_normalizer_only(self):
        effects = EffectsParams.zeros(4)
        effects.log_var_beta = 0.5
        # x = 0 everywhere, so only (n/2) * log_var remains
        assert_allclose(prior_penalty(effects), 4 / 2 * 0.5, rtol=0, atol=1e-15)

    def test_quadratic_term(self):
        effects = EffectsParams.zeros(2)
        effects.beta = np.array([1.0, -2.0])
        effects.log_var_beta = math.log(4.0)
        expected = (1.0 + 4.0) / (2 * 4.0) + (2 / 2) * math.log(4.0)
        assert_allclose(prior_penalty(effects), expected, rtol=0, atol=1e-14)


class TestTotalLoss:
    def make_matched_setup(self, seed=1234, n_verbs=3, n_frames=2, n_participants=2):
        """A table whose responses equal the model's predictions exactly."""
        rng = np.random.default_rng(seed)
        table = random_table(rng, n_verbs, n_frames, n_participants)
        params = random_factor_params(rng, Hyperparams(1, 1), n_verbs, n_frames, scale=1.0)
        effects = EffectsParams.zeros(n_participants)
        cells = table.cells
        pn = cell_probability(params, cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3])
        nu = logit(np.clip(pn, 1e-7, 1 - 1e-7))
        alpha = rng.normal(0, 0.5, size=table.n_cells)
        matched = ResponseTable.build(
            verbs=table.verbs,
            frames=table.frames,
            participants=table.participants,
            verb_idx=table.verb_idx,
            frame_idx=table.frame_idx,
            subj_idx=table.subj_idx,
            tense_idx=table.tense_idx,
            part_idx=table.part_idx,
            negraising=expit(nu)[table.cell_idx],
            acceptability=expit(alpha)[table.cell_idx],
        )
        return matched, params, effects, AcceptabilityCells(alpha)

    def test_perfect_predictions_leave_only_normalizers(self):
        table, params, effects, cells = self.make_matched_setup()
        assert total_loss(table, params, effects, cells) == 0.0
        effects.log_var_sigma = 0.25
        expected = (table.n_participants / 2) * 0.25
        assert_allclose(total_loss(table, params, effects, cells), expected, rtol=0, atol=1e-15)

    def test_doubling_records_doubles_data_terms(self):
        rng = np.random.default_rng(4321)
        table = random_table(rng, 3, 2, 2)
        params = random_factor_params(rng, Hyperparams(1, 1), 3, 2, scale=1.0)
        effects = EffectsParams.zeros(2)
        effects.beta = np.array([0.2, -0.1])
        effects.sigma = np.array([0.05, 0.0])
        cells = AcceptabilityCells(rng.normal(size=table.n_cells))
        doubled = ResponseTable.build(
            verbs=table.verbs,
            frames=table.frames,
            participants=table.participants,
            verb_idx=np.concatenate([table.verb_idx] * 2),
            frame_idx=np.concatenate([table.frame_idx] * 2),
            subj_idx=np.concatenate([table.subj_idx] * 2),
            tense_idx=np.concatenate([table.tense_idx] * 2),
            part_idx=np.concatenate([table.part_idx] * 2),
            negraising=np.concatenate([table.negraising] * 2),
            acceptability=np.concatenate([table.acceptability] * 2),
        )
        prior = prior_penalty(effects)
        single = total_loss(table, params, effects, cells) - prior
        double = total_loss(doubled, params, effects, cells) - prior
        assert_allclose(double, 2 * single, rtol=1e-12, atol=1e-12)

    def test_weighted_composition_on_single_record(self):
        # alpha = 0 gives weight exactly 0.5; check L = 0.5 * D_nr + D_acc
        table = single_record_table(0.7, 0.6)
        params = FactorParams(
            Hyperparams(1, 1),
            n_verbs=1,
            n_frames=1,
            lambda_logits=probabilities_to_logits([[0.9]]),
            pi_logits=probabilities_to_logits([[0.8]]),
            omega_logits=probabilities_to_logits([[[0.7, 0.7], [0.7, 0.7]]]),
            psi_logits=probabilities_to_logits([[0.6]]),
            phi_logits=probabilities_to_logits([[[0.9, 0.9], [0.9, 0.9]]]),
        )
        effects = EffectsParams.zeros(1)
        cells = AcceptabilityCells(np.array([0.0]))
        pn = cell_probability(params, 0, 0, 0, 0)
        d_nr = bernoulli_kl_reference(table.negraising[0],
                                      expit(logit(np.clip(pn, 1e-7, 1 - 1e-7))))
        d_acc = bernoulli_kl_reference(table.acceptability[0], expit(0.0))
        assert_allclose(
            total_loss(table, params, effects, cells),
            0.5 * d_nr + d_acc,
            rtol=0,
            atol=1e-15,
        )

    def test_weighted_objective_is_the_per_record_sum(self):
        rng = np.random.default_rng(777)
        table = random_table(rng, 4, 2, 3)
        params = random_factor_params(rng, Hyperparams(2, 1), 4, 2, scale=1.0)
        effects = EffectsParams.zeros(3)
        effects.beta = rng.normal(0, 0.3, size=3)
        effects.sigma = rng.normal(0, 0.1, size=3)
        effects.log_var_beta = -0.2
        effects.beta0_acc = 0.3
        effects.sigma_acc = rng.normal(0, 0.1, size=3)
        effects.log_var_sigma_acc = 0.4
        cells = AcceptabilityCells(rng.normal(size=table.n_cells))
        got = total_loss(table, params, effects, cells)
        grid = table.cells
        pn = cell_probability(params, grid[:, 0], grid[:, 1], grid[:, 2], grid[:, 3])
        nu = logit(np.clip(pn, 1e-7, 1 - 1e-7))
        manual = 0.0
        for n in range(table.n_records):
            c, p = table.cell_idx[n], table.part_idx[n]
            r_hat = expit(math.exp(effects.sigma0 + effects.sigma[p]) * nu[c]
                          + effects.beta0 + effects.beta[p])
            a_hat = expit(math.exp(effects.sigma0_acc + effects.sigma_acc[p]) * cells.alpha[c]
                          + effects.beta0_acc + effects.beta_acc[p])
            manual += expit(cells.alpha[c]) * bernoulli_kl_reference(
                table.negraising[n], float(np.clip(r_hat, 1e-15, 1 - 1e-15)))
            manual += bernoulli_kl_reference(
                table.acceptability[n], float(np.clip(a_hat, 1e-15, 1 - 1e-15)))
        for values, log_var in ((effects.beta, effects.log_var_beta),
                                (effects.sigma, effects.log_var_sigma),
                                (effects.beta_acc, effects.log_var_beta_acc),
                                (effects.sigma_acc, effects.log_var_sigma_acc)):
            manual += float(np.sum(values ** 2)) / (2 * math.exp(log_var))
            manual += len(values) / 2 * log_var
        assert_allclose(got, manual, rtol=1e-12, atol=1e-12)

    def test_nr_mask_restricts_data_term(self):
        table, params, effects, cells = self.make_matched_setup(seed=5)
        rng = np.random.default_rng(12)
        noisy = ResponseTable.build(
            verbs=table.verbs,
            frames=table.frames,
            participants=table.participants,
            verb_idx=table.verb_idx,
            frame_idx=table.frame_idx,
            subj_idx=table.subj_idx,
            tense_idx=table.tense_idx,
            part_idx=table.part_idx,
            negraising=np.clip(table.negraising + rng.normal(0, 0.05, table.n_records), 1e-4, 1 - 1e-4),
            acceptability=table.acceptability,
        )
        mask = np.zeros(noisy.n_records, dtype=bool)
        mask[::2] = True
        full = total_loss(noisy, params, effects, cells)
        masked = total_loss(noisy, params, effects, cells, nr_mask=mask)
        assert masked < full
        assert masked >= 0.0

    def test_missing_alpha_rejected(self):
        table, params, effects, cells = self.make_matched_setup()
        short = AcceptabilityCells(cells.alpha[:-1])
        with pytest.raises(ConsistencyError):
            total_loss(table, params, effects, short)

    def test_parameters_sized_for_another_table_are_rejected(self):
        # the objective indexes every parameter by the table's cells and
        # participants, so a larger parameter would be read in part
        table, params, effects, cells = self.make_matched_setup()
        rng = np.random.default_rng(3)
        wider = random_factor_params(rng, Hyperparams(1, 1), table.n_verbs + 1, table.n_frames)
        more = EffectsParams.zeros(table.n_participants + 1)
        for args in ((wider, effects, cells), (params, more, cells),
                     (np.zeros(table.n_cells + 1), effects, cells)):
            with pytest.raises(ConsistencyError, match="do not match the table's"):
                total_loss(table, *args)
        total_loss(table, np.zeros(table.n_cells), effects, cells)
