"""Gradient correctness against finite differences, Adam behavior, fitting,
and evaluation."""

from __future__ import annotations

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit, logit

from negfactor import response
from negfactor.dataset import PlantedSpec, ResponseTable, generate_synthetic
from negfactor.errors import CoverageError, DimensionError, FitError
from negfactor.factorization import FactorParams, Hyperparams, _scatter, link_values
from negfactor.model import FittedModel
from negfactor.optim import (
    CONVERGENCE_WINDOW,
    FitConfig,
    ParameterPack,
    _forward_backward,
    _objective,
    _scored_records,
    adam_minimize,
    evaluate,
    evaluate_per_cell,
    fit,
)
from negfactor.response import EffectsParams

from conftest import (
    bernoulli_kl_reference,
    cell_probability,
    finite_difference_gradient,
    random_factor_params,
    random_table,
    reference_objective,
)

# None stands for the normalization layout: one free nu per cell
FD_HYPERS = [
    Hyperparams(1, 1), Hyperparams(2, 1), Hyperparams(1, 2), Hyperparams(2, 2),
    Hyperparams(0, 1), Hyperparams(1, 0), Hyperparams(0, 3), Hyperparams(3, 0),
    None,
]


def layout_id(hyper):
    return "free-nu" if hyper is None else "{},{}".format(*hyper.as_tuple())


def random_effects(rng, n_participants, scale=0.3):
    return EffectsParams(
        beta0=float(rng.normal(0.0, scale)),
        sigma0=float(rng.normal(0.0, scale * 0.5)),
        beta=rng.normal(0.0, scale, size=n_participants),
        sigma=rng.normal(0.0, scale * 0.5, size=n_participants),
        beta0_acc=float(rng.normal(0.0, scale)),
        sigma0_acc=float(rng.normal(0.0, scale * 0.5)),
        beta_acc=rng.normal(0.0, scale, size=n_participants),
        sigma_acc=rng.normal(0.0, scale * 0.5, size=n_participants),
        log_var_beta=float(rng.normal(0.0, scale)),
        log_var_sigma=float(rng.normal(0.0, scale)),
        log_var_beta_acc=float(rng.normal(0.0, scale)),
        log_var_sigma_acc=float(rng.normal(0.0, scale)),
    )


def random_instance(seed):
    """A small random problem with all quantities strictly interior.

    The latent is factor logits or, for the normalization layout, one free
    nu per cell. Returns None when a draw lands a cell probability inside
    the link clamp, where the objective is intentionally flat and the
    analytic gradient is exactly zero but finite differences can straddle
    the boundary.
    """
    rng = np.random.default_rng(seed)
    hyper = FD_HYPERS[int(rng.integers(len(FD_HYPERS)))]
    n_verbs = int(rng.integers(1, 6))
    n_frames = int(rng.integers(1, 4))
    n_participants = int(rng.integers(1, 5))
    table = random_table(
        rng, n_verbs=n_verbs, n_frames=n_frames, n_participants=n_participants,
        ratings_per_cell=int(rng.integers(1, n_participants + 1)),
    )
    if hyper is None:
        latent = rng.normal(0.0, 1.5, size=table.n_cells)
    else:
        latent = random_factor_params(rng, hyper, n_verbs, n_frames, scale=0.7)
    effects = random_effects(rng, n_participants)
    alpha = rng.normal(0.0, 0.5, size=table.n_cells)
    nr_mask = None
    if rng.random() < 0.5:
        nr_mask = rng.random(table.n_records) < 0.8
    if hyper is not None:
        nu, _ = link_values(latent, table.cells)
        if np.any(np.abs(nu) > logit(1.0 - 1e-5)):
            return None
    return table, latent, effects, alpha, nr_mask


def packed(instance):
    """The instance's parameter layout and its flat point."""
    table, latent, effects, alpha, _ = instance
    hyper = latent.hyper if isinstance(latent, FactorParams) else None
    pack = ParameterPack(hyper, table)
    return pack, pack.pack(latent, effects, alpha)


def fd_relative_error(instance, h=1e-5):
    """Worst relative gap between the analytic gradient and central
    differences of the total loss, with the per-record weights frozen the
    way the gradient treats them."""
    table, latent, effects, alpha, nr_mask = instance
    pack, x0 = packed(instance)
    _, grads = _objective(latent, effects, alpha, table, nr_mask)
    analytic = pack.flat(grads)

    def loss_at(x):
        return reference_objective(table, *pack.unpack(x), weight_alpha=alpha, nr_mask=nr_mask)

    numeric = finite_difference_gradient(loss_at, x0, h=h)
    rel = np.abs(analytic - numeric) / np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4
    )
    return float(rel.max())


class TestGradientAgainstFiniteDifferences:
    def test_many_random_instances(self):
        checked = 0
        worst = 0.0
        for seed in range(200):
            instance = random_instance(seed)
            if instance is None:
                continue
            worst = max(worst, fd_relative_error(instance))
            checked += 1
            if checked >= 60:
                break
        assert checked >= 50
        assert worst < 1e-4, f"max relative error {worst} over {checked} instances"

    def test_frozen_sides_have_no_gradient_entries(self):
        rng = np.random.default_rng(0)
        table = random_table(rng, n_verbs=2, n_frames=2, n_participants=2)
        factors = random_factor_params(rng, Hyperparams(0, 2), 2, 2)
        _, grads = _objective(factors, random_effects(rng, 2), np.zeros(table.n_cells),
                              table, None)
        assert "psi" not in grads
        assert "phi" not in grads
        assert grads["lambda"].shape == (2, 2)

    def test_alpha_gradient_ignores_negraising_channel(self):
        # with the acceptability channel dropped conceptually: alpha's
        # gradient must equal the acceptability-only gradient, so zeroing
        # acceptability residuals zeroes it regardless of neg-raising fit
        rng = np.random.default_rng(1)
        table = random_table(rng, n_verbs=2, n_frames=1, n_participants=1,
                             ratings_per_cell=1)
        factors = random_factor_params(rng, Hyperparams(1, 1), 2, 1)
        alpha = logit(table.acceptability[np.argsort(table.cell_idx)])
        _, grads = _objective(factors, EffectsParams.zeros(1), alpha, table, None)
        # each record is its own cell and alpha reproduces the responses
        # exactly, so the acceptability channel is at its optimum
        assert_allclose(grads["alpha"], np.zeros_like(alpha), atol=1e-12)

    @pytest.mark.parametrize("hyper", [None] + [
        Hyperparams(i, t) for i in range(5) for t in range(5) if (i, t) != (0, 0)
    ], ids=layout_id)
    def test_gradient_names_are_the_layout_slots(self, hyper):
        # the flat gradient is written by name, and flat() ignores a name
        # outside the layout, so a stray or missing name must show here
        rng = np.random.default_rng(5)
        table = random_table(rng, n_verbs=3, n_frames=2, n_participants=2)
        if hyper is None:
            latent = rng.normal(size=table.n_cells)
        else:
            latent = random_factor_params(rng, hyper, 3, 2, scale=0.7)
        _, grads = _objective(latent, random_effects(rng, 2), np.zeros(table.n_cells),
                              table, None)
        pack = ParameterPack(hyper, table)
        slots = {pack.name_at(i).split("[")[0] for i in range(pack.size)}
        assert set(grads) == slots

    @pytest.mark.parametrize("hyper", [None, Hyperparams(2, 3), Hyperparams(0, 2),
                                       Hyperparams(3, 0)], ids=layout_id)
    def test_unpack_inverts_pack(self, hyper):
        rng = np.random.default_rng(6)
        table = random_table(rng, n_verbs=3, n_frames=2, n_participants=3)
        if hyper is None:
            latent = rng.normal(size=table.n_cells)
        else:
            latent = random_factor_params(rng, hyper, 3, 2)
        effects = random_effects(rng, 3)
        alpha = rng.normal(size=table.n_cells)
        pack = ParameterPack(hyper, table)
        x = pack.pack(latent, effects, alpha)
        assert x.shape == (pack.size,)
        got_latent, got_effects, got_alpha = pack.unpack(x)
        if hyper is None:
            assert_array_equal(got_latent, latent)
        else:
            for slot, value in latent.arrays().items():
                got = got_latent.arrays()[slot]
                assert got is None if value is None else np.array_equal(got, value)
        for name, value in vars(effects).items():
            assert_array_equal(getattr(got_effects, name), value)
            assert type(getattr(got_effects, name)) is type(value)
        assert_array_equal(got_alpha, alpha)

    def test_flat_gradient_is_the_named_gradient(self):
        for seed in (3, 7, 19):
            instance = random_instance(seed)
            if instance is None:
                continue
            table, latent, effects, alpha, nr_mask = instance
            pack, x0 = packed(instance)
            loss, g = _forward_backward(x0, pack, table, nr_mask)
            expected_loss, grads = _objective(latent, effects, alpha, table, nr_mask)
            assert loss == expected_loss
            assert_array_equal(g, pack.flat(grads))

    def test_gradient_scatter_is_bit_identical_to_add_at(self):
        # the factor gradients are summed per verb, frame or (subject,
        # tense) in record order; np.add.at is the reference
        rng = np.random.default_rng(4)
        for _ in range(50):
            n, k = int(rng.integers(1, 30)), int(rng.integers(1, 5))
            index = rng.integers(0, n, size=int(rng.integers(0, 400)))
            values = rng.normal(size=(index.size, k)) * 10.0 ** rng.integers(-8, 8, size=(1, k))
            expected = np.zeros((n, k))
            np.add.at(expected, index, values)
            assert_array_equal(_scatter(index, values, n), expected)


class TestLossConsistency:
    def test_fused_loss_matches_reference_composition(self):
        for seed in (3, 7, 19, 42):
            instance = random_instance(seed)
            if instance is None:
                continue
            table, latent, effects, alpha, nr_mask = instance
            pack, x0 = packed(instance)
            loss, _ = _forward_backward(x0, pack, table, nr_mask)
            reference = reference_objective(table, latent, effects, alpha, nr_mask=nr_mask)
            assert_allclose(loss, reference, rtol=1e-12)


class TestAdamMinimize:
    def test_quadratic_convergence(self):
        target = np.array([1.5, -2.0, 0.25])

        def objective(x):
            delta = x - target
            return float(delta @ delta), 2.0 * delta

        config = FitConfig(learning_rate=0.05, max_iterations=10_000,
                           convergence_tol=1e-9, patience=2)
        x, trajectory, converged, steps = adam_minimize(np.zeros(3), objective, config)
        assert converged
        assert_allclose(x, target, atol=1e-3)
        assert trajectory[-1] < 1e-5
        assert steps < 10_000

    def test_zero_iterations_returns_initialization(self):
        def objective(x):
            return float(np.sum(x * x)), 2.0 * x

        config = FitConfig(max_iterations=0)
        x0 = np.array([1.0, 2.0])
        x, trajectory, converged, steps = adam_minimize(x0, objective, config)
        assert_array_equal(x, x0)
        assert trajectory == [5.0]
        assert not converged
        assert steps == 0

    def test_trajectory_final_entry_is_loss_at_returned_point(self):
        def objective(x):
            return float(np.sum(x * x)), 2.0 * x

        config = FitConfig(max_iterations=37, convergence_tol=0.0)
        x, trajectory, converged, steps = adam_minimize(np.array([3.0]), objective, config)
        assert steps == 37
        assert len(trajectory) == 38
        assert trajectory[-1] == objective(x)[0]

    def test_non_finite_loss_raises_with_recent_losses(self):
        calls = {"n": 0}

        def objective(x):
            calls["n"] += 1
            if calls["n"] > 3:
                return float("nan"), np.zeros_like(x)
            return 1.0 / calls["n"], np.ones_like(x)

        with pytest.raises(FitError, match="recent losses"):
            adam_minimize(np.zeros(2), objective, FitConfig(max_iterations=100))

    def test_non_finite_gradient_names_parameter(self):
        def objective(x):
            grad = np.zeros_like(x)
            grad[1] = np.inf
            return 1.0, grad

        with pytest.raises(FitError, match="beta"):
            adam_minimize(np.zeros(2), objective, FitConfig(max_iterations=10),
                          name_at=lambda i: f"beta[{i}]")

    def test_convergence_waits_for_patience(self):
        # loss drops only at specific checkpoints: one quiet window is not
        # enough at patience=2, two consecutive quiet windows are
        losses = iter(range(10_000))

        def objective(x):
            it = next(losses)
            if it < CONVERGENCE_WINDOW:
                value = 100.0 - it
            else:
                value = 1.0
            return float(value), np.zeros_like(x)

        config = FitConfig(max_iterations=1_000, convergence_tol=1e-6, patience=2)
        _, trajectory, converged, steps = adam_minimize(np.zeros(1), objective, config)
        assert converged
        # windows end at 100 (loss changed), 200, 300 (first and second
        # quiet checks): convergence declared at iteration 300
        assert len(trajectory) == 3 * CONVERGENCE_WINDOW + 1


class TestFit:
    def test_same_seed_same_model(self):
        rng = np.random.default_rng(8)
        table = random_table(rng, n_verbs=3, n_frames=2, n_participants=3,
                             ratings_per_cell=2)
        config = FitConfig(max_iterations=150, n_restarts=2, seed=5)
        first = fit(table, Hyperparams(1, 1), config)
        second = fit(table, Hyperparams(1, 1), config)
        assert first.model.to_json() == second.model.to_json()
        assert first.trajectory == second.trajectory

    def test_zero_iterations_returns_initialization(self):
        rng = np.random.default_rng(9)
        table = random_table(rng, n_verbs=2, n_frames=2, n_participants=2)
        config = FitConfig(max_iterations=0, n_restarts=1, seed=3)
        result = fit(table, Hyperparams(1, 1), config)
        assert not result.converged
        assert result.iterations_run == 0
        init_rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
        expected = FactorParams.random(Hyperparams(1, 1), 2, 2, init_rng, scale=0.5)
        assert_array_equal(result.model.factors.lambda_logits, expected.lambda_logits)
        assert_array_equal(result.model.factors.phi_logits, expected.phi_logits)
        assert result.model.effects.beta0 == 0.0
        # alpha starts at the package's logit of the clipped cell mean, bit for bit
        assert_array_equal(
            result.model.alpha,
            response.logit(np.clip(table.cell_mean(table.acceptability), 1e-4, 1 - 1e-4)),
        )

    def test_empty_mask_shape_rejected(self):
        rng = np.random.default_rng(10)
        table = random_table(rng)
        with pytest.raises(DimensionError, match="nr_mask"):
            fit(table, Hyperparams(1, 1), FitConfig(max_iterations=1),
                nr_mask=np.ones(3, dtype=bool))

    def test_divergent_learning_rate_raises_fit_error(self):
        rng = np.random.default_rng(11)
        table = random_table(rng, n_verbs=2, n_frames=2, n_participants=2)
        config = FitConfig(learning_rate=1e4, max_iterations=50, n_restarts=1)
        with pytest.raises(FitError):
            fit(table, Hyperparams(1, 1), config)

    def test_loss_decreases_on_synthetic_data(self):
        spec = PlantedSpec(n_verbs=6, n_frames=3, n_participants=8,
                           ratings_per_cell=4, noise_scale=0.05, seed=0)
        table, _ = generate_synthetic(spec)
        result = fit(table, Hyperparams(1, 1),
                     FitConfig(max_iterations=400, n_restarts=1, seed=1))
        assert result.trajectory[-1] < result.trajectory[0] * 0.8

    def test_fit_approaches_planted_loss(self):
        # the planted parameters score the data as well as anything in the
        # model class can up to noise; a converged fit should land within
        # a few percent of that residual loss
        spec = PlantedSpec(n_verbs=10, n_frames=4, n_participants=10,
                           ratings_per_cell=6, noise_scale=0.05, seed=4)
        table, resolved = generate_synthetic(spec)
        alpha = logit(np.clip(table.cell_mean(table.acceptability), 1e-4, 1 - 1e-4))
        planted = FittedModel(
            hyper=Hyperparams(1, 1),
            verbs=table.verbs, frames=table.frames, participants=table.participants,
            cells=table.cells.copy(),
            factors=resolved.true_factors.as_factor_params(),
            effects=EffectsParams.zeros(table.n_participants),
            alpha=alpha,
            seed=0, final_loss=0.0, final_data_loss=0.0,
            converged=True, iterations=0,
        )
        oracle_loss = evaluate(planted, table)
        result = fit(table, Hyperparams(1, 1),
                     FitConfig(max_iterations=4000, n_restarts=2, seed=2))
        fitted_loss = evaluate(result.model, table)
        assert fitted_loss <= oracle_loss * 1.05
        assert fitted_loss >= oracle_loss * 0.80


class TestEvaluate:
    def test_training_evaluation_matches_recorded_data_loss(self):
        rng = np.random.default_rng(13)
        table = random_table(rng, n_verbs=3, n_frames=2, n_participants=3)
        result = fit(table, Hyperparams(1, 1),
                     FitConfig(max_iterations=80, n_restarts=1))
        assert evaluate(result.model, table) == result.model.final_data_loss

    def test_mask_restricts_records(self):
        rng = np.random.default_rng(14)
        table = random_table(rng, n_verbs=3, n_frames=2, n_participants=3)
        result = fit(table, Hyperparams(1, 1),
                     FitConfig(max_iterations=40, n_restarts=1))
        mask = np.zeros(table.n_records, dtype=bool)
        mask[::2] = True
        full = evaluate(result.model, table)
        part = evaluate(result.model, table, record_mask=mask)
        rest = evaluate(result.model, table, record_mask=~mask)
        assert_allclose(part + rest, full, rtol=1e-12)
        assert part < full

    def test_zero_one_int_mask_selects_like_bool(self):
        rng = np.random.default_rng(16)
        table = random_table(rng, n_verbs=3, n_frames=2, n_participants=3)
        result = fit(table, Hyperparams(1, 1), FitConfig(max_iterations=40, n_restarts=1))
        mask = np.zeros(table.n_records, dtype=bool)
        mask[::3] = True
        for score in (evaluate, evaluate_per_cell):
            assert_array_equal(score(result.model, table, record_mask=mask.astype(int)),
                               score(result.model, table, record_mask=mask))

    def test_mask_of_wrong_length_rejected(self):
        rng = np.random.default_rng(17)
        table = random_table(rng, n_verbs=3, n_frames=2, n_participants=3)
        result = fit(table, Hyperparams(1, 1), FitConfig(max_iterations=5, n_restarts=1))
        short = np.ones(table.n_records - 1, dtype=bool)
        for score in (evaluate, evaluate_per_cell):
            with pytest.raises(DimensionError, match="record_mask"):
                score(result.model, table, record_mask=short)

    def test_per_cell_sums_to_total(self):
        rng = np.random.default_rng(15)
        table = random_table(rng, n_verbs=4, n_frames=2, n_participants=3)
        result = fit(table, Hyperparams(2, 1),
                     FitConfig(max_iterations=40, n_restarts=1))
        mask = np.zeros(table.n_records, dtype=bool)
        mask[: table.n_records // 2] = True
        per_cell = evaluate_per_cell(result.model, table, record_mask=mask)
        assert per_cell.shape == (table.n_cells,)
        assert_allclose(per_cell.sum(), evaluate(result.model, table, record_mask=mask),
                        rtol=1e-9)

    def test_planted_parameters_beat_random_initializations(self):
        spec = PlantedSpec(n_verbs=8, n_frames=3, n_participants=6,
                           ratings_per_cell=4, noise_scale=0.0, seed=6)
        table, resolved = generate_synthetic(spec)
        alpha = logit(np.clip(table.cell_mean(table.acceptability), 1e-4, 1 - 1e-4))

        def model_for(factors):
            return FittedModel(
                hyper=factors.hyper, verbs=table.verbs, frames=table.frames,
                participants=table.participants, cells=table.cells.copy(),
                factors=factors, effects=EffectsParams.zeros(table.n_participants),
                alpha=alpha, seed=0, final_loss=0.0, final_data_loss=0.0,
                converged=True, iterations=0,
            )

        planted_loss = evaluate(model_for(resolved.true_factors.as_factor_params()), table)
        rng = np.random.default_rng(123)
        for _ in range(20):
            factors = random_factor_params(rng, Hyperparams(1, 1),
                                           table.n_verbs, table.n_frames)
            assert planted_loss <= evaluate(model_for(factors), table)

    def test_unseen_verb_or_frame_is_coverage_error(self):
        rng = np.random.default_rng(16)
        table = random_table(rng, n_verbs=3, n_frames=2, n_participants=2)
        result = fit(table, Hyperparams(1, 1),
                     FitConfig(max_iterations=10, n_restarts=1))
        bigger = random_table(rng, n_verbs=4, n_frames=2, n_participants=2)
        with pytest.raises(CoverageError, match="verb"):
            evaluate(result.model, bigger)
        wider = random_table(rng, n_verbs=3, n_frames=3, n_participants=2)
        with pytest.raises(CoverageError, match="frame"):
            evaluate(result.model, wider)

    def test_unseen_participant_scored_with_population_effects(self):
        rng = np.random.default_rng(17)
        table = random_table(rng, n_verbs=2, n_frames=2, n_participants=2)
        result = fit(table, Hyperparams(1, 1),
                     FitConfig(max_iterations=60, n_restarts=1))
        model = result.model

        renamed = random_table(np.random.default_rng(17), n_verbs=2, n_frames=2,
                               n_participants=2)
        renamed.participants = ("someone-new", "p01")
        # verbs and frames listed in reverse order, a subset of the cells,
        # and one seen and one unseen participant
        keep = renamed.cell_idx % 3 != 0
        reordered = ResponseTable.build(
            verbs=renamed.verbs[::-1], frames=renamed.frames[::-1],
            participants=("p00", "stranger"),
            verb_idx=1 - renamed.verb_idx[keep], frame_idx=1 - renamed.frame_idx[keep],
            subj_idx=renamed.subj_idx[keep], tense_idx=renamed.tense_idx[keep],
            part_idx=renamed.part_idx[keep], negraising=renamed.negraising[keep],
            acceptability=renamed.acceptability[keep],
        )
        assert reordered.n_cells < table.n_cells

        # reference: each record scored by label, with zero random effects
        # for an unseen participant
        lookup = {(model.verbs[v], model.frames[f], int(j), int(k)): row
                  for row, (v, f, j, k) in enumerate(model.cells)}
        for scored in (renamed, reordered):
            expected = np.empty(scored.n_records)
            for n in range(scored.n_records):
                v, f, j, k = scored.cells[scored.cell_idx[n]]
                verb, frame = scored.verbs[v], scored.frames[f]
                pn = cell_probability(model.factors, model.verbs.index(verb),
                                      model.frames.index(frame), int(j), int(k))
                nu = logit(np.clip(pn, 1e-7, 1 - 1e-7))
                part = scored.participants[scored.part_idx[n]]
                if part in model.participants:
                    idx = model.participants.index(part)
                    beta = model.effects.beta[idx]
                    sigma = model.effects.sigma[idx]
                else:
                    beta = 0.0
                    sigma = 0.0
                scale = np.exp(model.effects.sigma0 + sigma)
                r_hat = expit(scale * nu + model.effects.beta0 + beta)
                weight = expit(model.alpha[lookup[(verb, frame, int(j), int(k))]])
                expected[n] = weight * bernoulli_kl_reference(
                    scored.negraising[n], float(np.clip(r_hat, 1e-15, 1 - 1e-15)))
            assert_allclose(_scored_records(model, scored, None)[0], expected,
                            rtol=1e-9, atol=1e-15)
            assert_allclose(evaluate(model, scored), expected.sum(), rtol=1e-9)
