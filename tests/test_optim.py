"""Gradient correctness against finite differences, Adam behavior, fitting,
and evaluation."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit, logit

from negfactor import normalization, optim, response
from negfactor.dataset import FRAME_LABELS, PlantedSpec, ResponseTable, generate_synthetic
from negfactor.errors import CoverageError, DimensionError, FitError
from negfactor.factorization import (FactorParams, Hyperparams, _scatter, _scatter_bins,
                                     link_values)
from negfactor.model import FittedModel
from negfactor.normalization import normalize
from negfactor.optim import (
    CONVERGENCE_WINDOW,
    FitConfig,
    Objective,
    ParameterPack,
    _scored_records,
    evaluate,
    evaluate_per_cell,
    fit,
    total_loss,
)
from negfactor.response import AcceptabilityCells, EffectsParams

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
        nu = link_values(latent, table.cells)
        if np.any(np.abs(nu) > logit(1.0 - 1e-5)):
            return None
    return table, latent, effects, alpha, nr_mask


def packed(instance):
    """The instance's parameter layout and its point: the lane's block and
    the acceptability block, each flat."""
    table, latent, effects, alpha, _ = instance
    hyper = latent.hyper if isinstance(latent, FactorParams) else None
    pack = ParameterPack(hyper, table)
    return pack, pack.pack(latent, effects, alpha), pack.shared.pack(latent, effects, alpha)


def evaluated(pack, table, nr_mask, x, shared_x):
    """The objective's loss at (x, shared_x), as one lane, and the gradient
    of the lane's block and of the acceptability block."""
    latent, effects, alpha = pack.unpack(x, shared_x)
    _, gradient, acceptability, lanes = optim._start(table, pack, [latent], effects, alpha,
                                                     [nr_mask])
    loss, = Objective(pack, table)(*acceptability, lanes)
    return loss, gradient[lanes[0].block], gradient[:pack.shared.size]


def named_gradient(latent, effects, alpha, table, nr_mask):
    """The objective's loss and a copy of its gradient, keyed by slot name."""
    pack, x, shared_x = packed((table, latent, effects, alpha, nr_mask))
    loss, gradient, shared_gradient = evaluated(pack, table, nr_mask, x, shared_x)
    return loss, pack.views(gradient.copy()) | pack.shared.views(shared_gradient.copy())


def fd_relative_error(instance, h=1e-5):
    """Worst relative gap between the analytic gradient and central
    differences of the total loss, with the per-record weights frozen the
    way the gradient treats them, over both blocks."""
    table, latent, effects, alpha, nr_mask = instance
    pack, x, shared_x = packed(instance)
    _, gradient, shared_gradient = evaluated(pack, table, nr_mask, x, shared_x)
    analytic = np.concatenate([gradient, shared_gradient])
    x0 = np.concatenate([x, shared_x])

    def loss_at(point):
        return reference_objective(table, *pack.unpack(point[:pack.size], point[pack.size:]),
                                   weight_alpha=alpha, nr_mask=nr_mask)

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
        _, grads = named_gradient(factors, random_effects(rng, 2), np.zeros(table.n_cells),
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
        _, grads = named_gradient(factors, EffectsParams.zeros(1), alpha, table, None)
        # each record is its own cell and alpha reproduces the responses
        # exactly, so the acceptability channel is at its optimum
        assert_allclose(grads["alpha"], np.zeros_like(alpha), atol=1e-12)

    @pytest.mark.parametrize("hyper", [None] + [
        Hyperparams(i, t) for i in range(5) for t in range(5) if (i, t) != (0, 0)
    ], ids=layout_id)
    def test_gradient_names_are_the_layout_slots(self, hyper):
        # each block's gradient is written by slot into one vector that every
        # call reuses, so a slot a call skips would keep a stale value:
        # poisoned with nan, each vector must come back whole and unchanged
        rng = np.random.default_rng(5)
        table = random_table(rng, n_verbs=3, n_frames=2, n_participants=2)
        if hyper is None:
            latent = rng.normal(size=table.n_cells)
        else:
            latent = random_factor_params(rng, hyper, 3, 2, scale=0.7)
        pack = ParameterPack(hyper, table)
        objective = Objective(pack, table)
        effects, alpha = random_effects(rng, 2), np.zeros(table.n_cells)
        _, vector, acceptability, lanes = optim._start(table, pack, [latent], effects, alpha,
                                                       [None])
        lane, = lanes
        for block, block_pack in ((lane.block, pack), (slice(0, pack.shared.size), pack.shared)):
            gradient = vector[block]
            objective(*acceptability, lanes)
            first = gradient.copy()
            gradient[:] = np.nan
            objective(*acceptability, lanes)
            again = vector[block]
            assert np.shares_memory(again, gradient)
            assert np.all(np.isfinite(first))
            assert_array_equal(again, first)
            slots = {block_pack.first_non_finite(np.arange(block_pack.size) != i).split("[")[0]
                     for i in range(block_pack.size)}
            assert set(block_pack.views(gradient)) == slots
        assert all(np.shares_memory(view, vector) for view in lane.grads.values())
        assert set(acceptability[1]) == set(optim.ACCEPTABILITY_SLOTS)
        assert not set(lane.grads) & set(optim.ACCEPTABILITY_SLOTS)

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
        x, shared_x = pack.pack(latent, effects, alpha), pack.shared.pack(latent, effects, alpha)
        assert x.shape == (pack.size,)
        assert shared_x.shape == (pack.shared.size,)
        got_latent, got_effects, got_alpha = pack.unpack(x, shared_x)
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
        # the slot views tile the flat gradient in layout order, and the
        # objective a fit runs is the one total_loss evaluates
        for seed in (3, 7, 19):
            instance = random_instance(seed)
            if instance is None:
                continue
            table, latent, effects, alpha, nr_mask = instance
            pack, x, shared_x = packed(instance)
            loss, gradient, shared_gradient = evaluated(pack, table, nr_mask, x, shared_x)
            assert loss == total_loss(table, latent, effects, AcceptabilityCells(alpha),
                                      nr_mask=nr_mask)
            for g, block_pack in ((gradient, pack), (shared_gradient, pack.shared)):
                views = block_pack.views(g)
                assert all(np.shares_memory(view, g) for view in views.values())
                assert_array_equal(np.concatenate([np.ravel(v) for v in views.values()]), g)

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
            assert_array_equal(_scatter(_scatter_bins(index, k), values, n), expected)


class TestLossConsistency:
    def test_fused_loss_matches_reference_composition(self):
        for seed in (3, 7, 19, 42):
            instance = random_instance(seed)
            if instance is None:
                continue
            table, latent, effects, alpha, nr_mask = instance
            pack, x, shared_x = packed(instance)
            loss, _, _ = evaluated(pack, table, nr_mask, x, shared_x)
            reference = reference_objective(table, latent, effects, alpha, nr_mask=nr_mask)
            assert_allclose(loss, reference, rtol=1e-12)


def cells_table(n_cells):
    """A one-participant table with one record in each of ``n_cells`` cells
    of one verb and frame."""
    subject, tense = np.divmod(np.arange(n_cells), 2)
    return ResponseTable.build(
        verbs=("v",), frames=FRAME_LABELS[:1], participants=("p",),
        verb_idx=[0] * n_cells, frame_idx=[0] * n_cells, subj_idx=subject, tense_idx=tense,
        part_idx=[0] * n_cells, negraising=[0.5] * n_cells, acceptability=[0.9] * n_cells)


def quadratic_objective(target):
    """An `Objective.__call__` whose lane loss is sum((nu - target)^2) over
    the lane's free nu, flat in every other slot."""
    def call(self, params, grads, lanes):
        for grad in grads.values():
            grad[...] = 0.0
        losses = []
        for lane in lanes:
            for grad in lane.grads.values():
                grad[...] = 0.0
            delta = lane.params["nu"] - target
            lane.grads["nu"][:] = 2.0 * delta
            losses.append(float(delta @ delta))
        return losses
    return call


def minimize_quadratic(monkeypatch, x0, target, config):
    """The lane of `optim._minimize` from the free nu ``x0`` on the
    quadratic objective of ``target``."""
    monkeypatch.setattr(Objective, "__call__", quadratic_objective(np.asarray(target)))
    table = cells_table(len(x0))
    lane, = optim._minimize(table, ParameterPack(None, table), [np.array(x0, dtype=float)],
                            config, [None])
    return lane


def bare_lane():
    """A lane whose `_Lane.record` is driven by hand."""
    table = cells_table(1)
    pack = ParameterPack(None, table)
    x = np.zeros(pack.size)
    return optim._Lane(pack, x, np.zeros_like(x), slice(0, pack.size), None)


class TestAdamMinimize:
    """The driver's Adam steps, stopping rule and failure messages."""

    def test_quadratic_convergence(self, monkeypatch):
        target = np.array([1.5, -2.0, 0.25])
        config = FitConfig(learning_rate=0.05, max_iterations=10_000,
                           convergence_tol=1e-9, patience=2)
        lane = minimize_quadratic(monkeypatch, np.zeros(3), target, config)
        assert lane.error is None
        assert lane.converged
        assert_allclose(lane.result[0], target, atol=1e-3)
        assert lane.trajectory[-1] < 1e-5
        assert lane.steps < 10_000

    def test_zero_iterations_returns_initialization(self, monkeypatch):
        config = FitConfig(max_iterations=0)
        x0 = np.array([1.0, 2.0])
        lane = minimize_quadratic(monkeypatch, x0, np.zeros(2), config)
        nu, effects, alpha = lane.result
        assert_array_equal(nu, x0)
        assert all(np.all(value == 0.0) for value in vars(effects).values())
        assert_array_equal(alpha, response.logit(np.full(2, 0.9)))
        assert lane.trajectory == [5.0]
        assert not lane.converged
        assert lane.steps == 0

    def test_trajectory_final_entry_is_loss_at_returned_point(self):
        # every lane, stopped at the cap or converged before the others
        table, pack, starts, masks = TestLockstepLanes().problem()
        for config in (FitConfig(max_iterations=37, convergence_tol=0.0),
                       TestLockstepLanes.STAGGERED):
            lanes = optim._minimize(table, pack, starts, config, masks)
            for lane, mask in zip(lanes, masks):
                factors, effects, alpha = lane.result
                assert lane.trajectory[-1] == total_loss(
                    table, factors, effects, AcceptabilityCells(alpha), nr_mask=mask)
                assert len(lane.trajectory) == lane.steps + 1
            if config.max_iterations == 37:
                assert [lane.steps for lane in lanes] == [37] * 3
                assert [len(lane.trajectory) for lane in lanes] == [38] * 3

    def test_non_finite_loss_raises_with_recent_losses(self):
        lane, config = bare_lane(), FitConfig(max_iterations=100)
        assert all(lane.record(it, 1.0 / (it + 1), config, None) for it in range(3))
        assert not lane.record(3, float("nan"), config, None)
        with pytest.raises(FitError, match="recent losses"):
            raise lane.error
        assert str(lane.error) == (
            "loss became non-finite at iteration 3; recent losses [1, 0.5, 0.333333]")
        last = bare_lane()
        assert not last.record(0, float("inf"), FitConfig(max_iterations=0), None)
        assert str(last.error) == "loss became non-finite after the final step; recent losses []"

    def test_non_finite_gradient_names_parameter(self, monkeypatch):
        # a lane names the first non-finite entry of its own block, else the
        # acceptability block's, which stops every lane
        table, pack, starts, masks = TestLockstepLanes().problem()
        real_call = Objective.__call__

        def poisoned(self, params, grads, lanes):
            losses = real_call(self, params, grads, lanes)
            grads["alpha"][4] = np.nan
            lanes[0].grads["beta"][1] = np.inf
            return losses

        monkeypatch.setattr(Objective, "__call__", poisoned)
        lanes = optim._minimize(table, pack, starts[:2], FitConfig(max_iterations=10), masks[:2])
        assert [str(lane.error) for lane in lanes] == [
            "non-finite gradient for beta[1] at iteration 0",
            "non-finite gradient for alpha[4] at iteration 0"]
        lane = bare_lane()
        assert not lane.record(2, 1.0, FitConfig(max_iterations=10), "beta[1]")
        with pytest.raises(FitError, match="beta"):
            raise lane.error

    def test_convergence_waits_for_patience(self):
        # loss drops only at specific checkpoints: one quiet window is not
        # enough at patience=2, two consecutive quiet windows are
        lane = bare_lane()
        config = FitConfig(max_iterations=1_000, convergence_tol=1e-6, patience=2)
        it = 0
        while lane.record(it, 100.0 - it if it < CONVERGENCE_WINDOW else 1.0, config, None):
            it += 1
        assert lane.converged
        assert lane.error is None
        # windows end at 100 (loss changed), 200, 300 (first and second
        # quiet checks): convergence declared at iteration 300
        assert len(lane.trajectory) == 3 * CONVERGENCE_WINDOW + 1


class TestLockstepLanes:
    """`_minimize` advances its lanes in lockstep around one acceptability
    block, evaluated and stepped once per iteration; every lane must still
    give exactly what it gives alone."""

    SPEC = PlantedSpec(n_verbs=5, n_frames=3, n_participants=6, ratings_per_cell=3, seed=2)
    HYPER = Hyperparams(2, 1)
    # lanes 0 and 2 converge after 500 steps and lane 1 after 600, so the
    # acceptability block steps on for lane 1 alone for the last 100
    STAGGERED = FitConfig(max_iterations=700, convergence_tol=0.275, patience=1)

    def problem(self):
        """The table, its layout, and three latent starts: two seeds and two masks."""
        table, _ = generate_synthetic(self.SPEC)
        pack = ParameterPack(self.HYPER, table)
        mask = np.random.default_rng(7).random(table.n_records) < 0.8
        starts = [FactorParams.random(self.HYPER, table.n_verbs, table.n_frames,
                                      np.random.default_rng(seed), 0.5)
                  for seed in (1, 0, 0)]
        return table, pack, starts, [mask, None, mask]

    @staticmethod
    def outcome(lane):
        latent, effects, alpha = lane.result
        arrays = [*latent.arrays().values(), *vars(effects).values(), alpha]
        return ([np.asarray(a).tobytes() for a in arrays if a is not None], lane.trajectory,
                lane.converged, lane.steps, str(lane.error))

    @pytest.mark.parametrize("config", [FitConfig(max_iterations=250, convergence_tol=0.0),
                                        STAGGERED], ids=["to-cap", "staggered"])
    def test_each_lane_is_bit_identical_to_running_alone(self, config):
        table, pack, starts, masks = self.problem()
        lanes = optim._minimize(table, pack, starts, config, masks)
        for lane, start, mask in zip(lanes, starts, masks):
            alone, = optim._minimize(table, pack, [start], config, [mask])
            assert self.outcome(lane) == self.outcome(alone)
            assert lane.error is None
        if config is self.STAGGERED:
            assert [(lane.steps, lane.converged) for lane in lanes] == [
                (500, True), (600, True), (500, True)]
        # lanes that took the same steps keep one acceptability block, and
        # each keeps it as it stood where the lane stopped
        def acceptability(lane):
            return pack.shared.pack(None, *lane.result[1:]).tobytes()

        first = lanes[0]
        for lane in lanes:
            assert (acceptability(lane) == acceptability(first)) == (lane.steps == first.steps)

    def test_failing_lane_stops_alone(self):
        table, pack, starts, masks = self.problem()
        config = FitConfig(max_iterations=150, convergence_tol=0.0)
        healthy = [self.outcome(lane)
                   for lane in optim._minimize(table, pack, starts[1:], config, masks[1:])]
        # the first lane fails at once
        starts[0].lambda_logits[0, 0] = np.nan
        lanes = optim._minimize(table, pack, starts, config, masks)
        alone, = optim._minimize(table, pack, starts[:1], config, masks[:1])
        assert str(lanes[0].error) == str(alone.error) == (
            "loss became non-finite at iteration 0; recent losses []")
        assert lanes[0].trajectory == [] and lanes[0].steps == 0
        assert [self.outcome(lane) for lane in lanes[1:]] == healthy

    def test_lane_with_non_finite_gradient_stops_alone(self, monkeypatch):
        # the failed lane's block stays in the one Adam update, which must
        # step it by exactly 0.0 without an inf / inf warning
        table, pack, starts, masks = self.problem()
        config = FitConfig(max_iterations=150, convergence_tol=0.0)
        healthy = [self.outcome(lane)
                   for lane in optim._minimize(table, pack, starts[1:], config, masks[1:])]
        real_call, iterations = Objective.__call__, []

        def poisoned(self, params, grads, lanes):
            losses = real_call(self, params, grads, lanes)
            iterations.append(len(iterations))
            if iterations[-1] == 5:
                lanes[0].grads["beta"][1] = np.inf
            return losses

        monkeypatch.setattr(Objective, "__call__", poisoned)
        lanes = optim._minimize(table, pack, starts, config, masks)
        assert str(lanes[0].error) == "non-finite gradient for beta[1] at iteration 5"
        assert lanes[0].steps == 5 and len(lanes[0].trajectory) == 6
        assert [self.outcome(lane) for lane in lanes[1:]] == healthy

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "loss became non-finite at iteration 0; recent losses []"),
        (np.inf, "non-finite gradient for sigma0_acc[0] at iteration 0"),
    ], ids=["nan", "inf"])
    def test_non_finite_alpha_stops_every_lane_at_once(self, monkeypatch, bad, message):
        # alpha lives in the one acceptability block: a non-finite entry
        # there stops every lane at the iteration it shows, with one message
        table, pack, starts, masks = self.problem()
        real_logit = optim.logit

        def poisoned(p):
            alpha = real_logit(p)
            alpha[3] = bad
            return alpha

        monkeypatch.setattr(optim, "logit", poisoned)
        lanes = optim._minimize(table, pack, starts, FitConfig(max_iterations=50), masks)
        assert [str(lane.error) for lane in lanes] == [message] * 3
        for lane in lanes:
            assert lane.steps == 0
            assert not np.isfinite(lane.result[2][3])

    def test_fit_raises_the_error_of_the_lowest_failing_restart(self, monkeypatch):
        table, _ = generate_synthetic(self.SPEC)
        real_random, real_minimize = FactorParams.random, optim._minimize
        drawn, runs = [], []

        def poisoned(*args, **kwargs):
            # restarts 1 and 3 of four start from a non-finite logit
            factors = real_random(*args, **kwargs)
            if len(drawn) in (1, 3):
                factors.lambda_logits[0, 0] = np.nan
            drawn.append(factors)
            return factors

        def recording(*args, **kwargs):
            runs.append(real_minimize(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(optim.FactorParams, "random", poisoned)
        monkeypatch.setattr(optim, "_minimize", recording)
        with pytest.raises(FitError) as raised:
            fit(table, self.HYPER, FitConfig(max_iterations=20, n_restarts=4))
        lanes, = runs
        assert [lane.error is None for lane in lanes] == [True, False, True, False]
        assert raised.value is lanes[1].error


class TestRestartOutcomes:
    def test_kept_restart_is_the_lowest_final_loss(self):
        table, _ = generate_synthetic(TestLockstepLanes.SPEC)
        result = fit(table, Hyperparams(1, 2),
                     FitConfig(max_iterations=120, n_restarts=3, seed=6))
        losses = [restart.final_loss for restart in result.restarts]
        assert len(set(losses)) == 3
        kept = result.restarts[losses.index(min(losses))]
        assert kept.final_loss == result.model.final_loss == result.trajectory[-1]
        assert (kept.steps, kept.converged) == (result.iterations_run, result.converged)
        assert all(restart.steps == 120 for restart in result.restarts)

    def test_tied_restarts_keep_the_earliest(self, monkeypatch):
        table, _ = generate_synthetic(TestLockstepLanes.SPEC)
        real_random, real_minimize = FactorParams.random, optim._minimize
        runs = []

        def same_draw(hyper, n_verbs, n_frames, rng, scale):
            return real_random(hyper, n_verbs, n_frames, np.random.default_rng(0), scale)

        def recording(*args, **kwargs):
            runs.append(real_minimize(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(optim.FactorParams, "random", same_draw)
        monkeypatch.setattr(optim, "_minimize", recording)
        result = fit(table, Hyperparams(1, 1), FitConfig(max_iterations=30, n_restarts=3))
        lanes, = runs
        assert len({restart.final_loss for restart in result.restarts}) == 1
        assert result.trajectory is lanes[0].trajectory


class TestPinnedRuns:
    """Seeded 200-iteration runs reproduce, bit for bit, the final loss and
    the loss trajectory recorded from the objective as it was before it was
    built once per fit (with per-evaluation unpacking). A change to the
    order of the floating-point operations in the objective or in Adam
    moves the last bits, which these catch."""

    SPEC = PlantedSpec(n_verbs=6, n_frames=3, n_participants=8, ratings_per_cell=4, seed=3)
    CONFIG = FitConfig(max_iterations=200, n_restarts=2, convergence_tol=0.0, seed=4)

    @staticmethod
    def digest(trajectory):
        return hashlib.sha256(np.asarray(trajectory, dtype=float).tobytes()).hexdigest()[:16]

    def test_fit_unmasked(self):
        table, _ = generate_synthetic(self.SPEC)
        trajectory = fit(table, Hyperparams(1, 1), self.CONFIG).trajectory
        assert repr(trajectory[-1]) == "-24.350178416484926"
        assert self.digest(trajectory) == "1a2f8f0768bce566"

    def test_fit_masked(self):
        table, _ = generate_synthetic(self.SPEC)
        mask = np.random.default_rng(5).random(table.n_records) < 0.8
        trajectory = fit(table, Hyperparams(2, 3), self.CONFIG, nr_mask=mask).trajectory
        assert repr(trajectory[-1]) == "-25.34784201709133"
        assert self.digest(trajectory) == "9d020556826bb5a3"

    def test_normalize(self, monkeypatch):
        table, _ = generate_synthetic(self.SPEC)
        runs = []

        def recording(*args, **kwargs):
            runs.append(optim._minimize(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(normalization, "_minimize", recording)
        normalize(table, FitConfig(max_iterations=200, convergence_tol=0.0))
        (lane,), = runs
        trajectory = lane.trajectory
        assert repr(trajectory[-1]) == "-25.228106027040784"
        assert self.digest(trajectory) == "0f0e27228fb69637"


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
