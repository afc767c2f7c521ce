"""Gradient computation and Adam fitting of all model parameters.

Gradients are derived by hand and fully vectorized. The per-cell
weights alpha' on the neg-raising loss are deliberately treated as
constants: alpha receives gradients only through the acceptability
channel, so the optimizer cannot shrink the weighted loss by discounting
hard cells.

`Objective` is the one objective, evaluated by `total_loss` and
minimized by `_minimize`, the one optimizer driver, for `fit` (over the
factor logits), for `cross_validate`'s fold fits and for
`normalization.normalize` (one free nu per cell). The driver runs
several start points, its lanes, in lockstep as one Adam state over one
vector: the acceptability block once (alpha is blocked, and Adam updates
each coordinate on its own), then each lane's block. Its nu comes from
`factorization.CellLink`, its link and divergence from `response`. Each
piece writes the gradient of what it reads into its parameter's view of
the gradient vector; only `ParameterPack` knows the layout of a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import ResponseTable, clamp_responses
from .errors import ConsistencyError, CoverageError, DimensionError, FitError
from .factorization import (FACTOR_SLOTS, CellLink, FactorParams, FactorProbs, Hyperparams,
                            factor_shapes, link_values, require_integers)
from .model import FittedModel
from .response import (PREDICTION_CLAMP, AcceptabilityCells, EffectsParams, channel_losses, expit,
                       logit)

CONVERGENCE_WINDOW = 100
# Adam moment decay rates and denominator offset, and the standard
# deviation of the random initial factor logits
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
INIT_SCALE = 0.5
# the slots of the acceptability block, which the lanes of a `_minimize` call share
ACCEPTABILITY_SLOTS = ("beta0_acc", "sigma0_acc", "beta_acc", "sigma_acc", "log_var_beta_acc",
                       "log_var_sigma_acc", "alpha")


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings; defaults follow the published fitting recipe."""

    learning_rate: float = 0.01
    max_iterations: int = 30_000
    convergence_tol: float = 1e-6
    patience: int = 2
    n_restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        require_integers(self, ValueError)
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.max_iterations < 0 or self.n_restarts < 1:
            raise ValueError("max_iterations must be >= 0 and n_restarts >= 1")
        if not self.convergence_tol >= 0 or self.seed < 0:
            raise ValueError("convergence_tol and seed must be >= 0")


class Restart(NamedTuple):
    """How one restart of a fit ended."""

    final_loss: float
    steps: int
    converged: bool


@dataclass
class FitResult:
    """The kept restart's model, trajectory, update steps and convergence,
    and the outcome of every restart in seed order."""

    model: FittedModel
    trajectory: list[float]
    iterations_run: int
    converged: bool
    restarts: list[Restart]


class ParameterPack:
    """Flat-vector layout of one block of the optimized parameters of
    ``table``: the only code that builds or reads the optimizer's flat
    vectors.

    A lane's block holds the latent block, the factor logits of ``hyper``
    (``fit``) or, when ``hyper`` is None, one free nu per cell
    (``normalize``), then the neg-raising effects; frozen boundary factor
    arrays are absent, so they can never receive updates. Its ``shared``
    pack, built with ``shared=True``, holds the ACCEPTABILITY_SLOTS.
    """

    def __init__(self, hyper: Hyperparams | None, table: ResponseTable, shared: bool = False):
        self.hyper = hyper
        self.n_verbs = table.n_verbs
        self.n_frames = table.n_frames
        self.shared = None if shared else ParameterPack(None, table, shared=True)
        if hyper is None:
            layout = [("nu", (table.n_cells,))]
        else:
            shapes = factor_shapes(hyper, table.n_verbs, table.n_frames)
            layout = [(slot, shape) for slot, shape in shapes.items() if math.prod(shape)]
        self.latent = slice(0, sum(math.prod(shape) for _, shape in layout))
        layout += [(name, np.shape(value))
                   for name, value in vars(EffectsParams.zeros(table.n_participants)).items()]
        layout.append(("alpha", (table.n_cells,)))
        layout = [(name, shape) for name, shape in layout if (name in ACCEPTABILITY_SLOTS) == shared]
        ends = np.cumsum([math.prod(shape) for _, shape in layout]).tolist()
        self._slices = {name: (slice(end - math.prod(shape), end), shape)
                        for (name, shape), end in zip(layout, ends)}
        self.size = ends[-1]

    def pack(self, latent: FactorParams | np.ndarray | None, effects: EffectsParams,
             alpha: np.ndarray | None) -> np.ndarray:
        """The block's slots of (latent, effects, alpha), flat."""
        named = {"nu": latent} if self.hyper is None else latent.arrays()
        named.update(vars(effects), alpha=alpha)
        return np.concatenate([np.ravel(named[name]) for name in self._slices])

    def unpack(self, x: np.ndarray, shared_x: np.ndarray
               ) -> tuple[FactorParams | np.ndarray, EffectsParams, np.ndarray]:
        """(latent, effects, alpha) from a lane's block ``x`` and the
        acceptability block ``shared_x``."""
        named = {name: view.copy() if view.ndim else float(view)
                 for name, view in (self.views(x) | self.shared.views(shared_x)).items()}
        if self.hyper is None:
            latent = named.pop("nu")
        else:
            latent = FactorParams(self.hyper, self.n_verbs, self.n_frames, **{
                field: named.pop(slot, None) for slot, field in FACTOR_SLOTS.items()
            })
        alpha = named.pop("alpha")
        return latent, EffectsParams(**named), alpha

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Each slot of ``vector``, laid out like the block (its point, its
        gradient, or the factor probabilities of its latent block), as a
        view in the slot's shape, keyed by slot name; a scalar slot is a
        0-d view."""
        return {name: vector[sl].reshape(shape) for name, (sl, shape) in self._slices.items()}

    def first_non_finite(self, finite: np.ndarray) -> str | None:
        """The slot entry at the first False of ``finite``, laid out like
        the block, if any."""
        if finite.all():
            return None
        flat_index = int(np.argmin(finite))
        for name, (sl, _) in self._slices.items():
            if sl.start <= flat_index < sl.stop:
                return f"{name}[{flat_index - sl.start}]"


class _Channel(NamedTuple):
    """A response channel's constants: its responses r, their complement
    1 - r, the suffix of its link parameters' names ("" or "_acc") and
    the record mask of its data term (None for every record)."""

    responses: np.ndarray
    complement: np.ndarray
    suffix: str
    mask: np.ndarray | None


def channel_backward(values: np.ndarray, table: ResponseTable, channel: _Channel,
                     params: dict, grads: dict, weights: np.ndarray | None = None):
    """Loss of one response channel with per-cell latents ``values``.

    The channel's link parameters are the entries beta0, sigma0, beta and
    sigma of ``params``, each name followed by the channel's suffix. Writes
    their gradients into the same entries of ``grads`` and returns (loss,
    d loss / d values per cell). ``weights`` are per-record constants (the
    blocked alpha' weights). `Objective` calls it under its np.errstate.
    """
    responses, complement, suffix, mask = channel
    beta0, sigma0, beta, sigma = (params[name + suffix]
                                  for name in ("beta0", "sigma0", "beta", "sigma"))
    cell_idx, part_idx = table.cell_idx, table.part_idx
    n_participants = beta.shape[0]
    vals_rec = values[cell_idx]
    each, pred, scale = channel_losses(vals_rec, part_idx, responses, complement,
                                       beta0, sigma0, beta, sigma)
    if weights is not None:
        each *= weights
    loss = float(np.sum(each[mask])) if mask is not None else float(np.sum(each))
    inside = (pred >= PREDICTION_CLAMP) & (pred <= 1.0 - PREDICTION_CLAMP)
    g_z = np.subtract(pred, responses, out=pred)
    np.copyto(g_z, 0.0, where=~inside)
    if weights is not None:
        g_z *= weights
    if mask is not None:
        np.copyto(g_z, 0.0, where=~mask)
    g_scaled = scale
    g_scaled *= g_z
    g_spread = vals_rec
    g_spread *= g_scaled
    grads["beta0" + suffix][...] = np.sum(g_z)
    grads["beta" + suffix][:] = np.bincount(part_idx, weights=g_z, minlength=n_participants)
    grads["sigma0" + suffix][...] = np.sum(g_spread)
    grads["sigma" + suffix][:] = np.bincount(part_idx, weights=g_spread,
                                             minlength=n_participants)
    return loss, np.bincount(cell_idx, weights=g_scaled, minlength=table.n_cells)


def prior_backward(params: dict, grads: dict, groups: tuple[str, ...]) -> list[float]:
    """Gaussian negative log prior over the random-effect ``groups``, up
    to constants.

    Each group contributes sum(x^2) / (2 v) plus the normalizer
    (n/2) log v, with v the group's optimized variance. Adds the gradient
    of each random effect into its entry of ``grads``, writes that of each
    log-variance, and returns each group's penalty in order. Uses numpy
    float semantics so that degenerate log-variances produce inf/nan
    values (caught by the optimizer's finiteness checks) instead of range
    errors; `Objective` calls it under its np.errstate, which silences
    their warnings.
    """
    penalties = []
    for name in groups:
        values, log_var = params[name], params["log_var_" + name]
        variance = np.exp(np.float64(log_var))
        sum_sq = np.float64(np.sum(values * values))
        n = values.shape[0]
        penalties.append(float(sum_sq / (2.0 * variance) + 0.5 * n * log_var))
        grads[name] += values / variance
        grads["log_var_" + name][...] = -sum_sq / (2.0 * variance) + 0.5 * n
    return penalties


class _Lane:
    """One start point of a `_minimize` call: its ``block`` of the
    vectors ``x`` and ``gradient`` with the slot views of each and the view
    of its latent block in ``x``, its ``nr_mask`` and losses so far, how it
    ended (``converged``, ``steps`` and ``error``, the FitError that
    stopped it) and ``result``, its (latent, effects, alpha) there."""

    def __init__(self, pack: ParameterPack, x: np.ndarray, gradient: np.ndarray, block: slice,
                 nr_mask: np.ndarray | None):
        self.block = block
        self.params, self.grads = pack.views(x[block]), pack.views(gradient[block])
        self.latent = x[block][pack.latent]
        self.nr_mask = nr_mask
        self.trajectory: list[float] = []
        self.streak = 0
        self.converged = False
        self.steps = 0
        self.error: FitError | None = None
        self.result: tuple[FactorParams | np.ndarray, EffectsParams, np.ndarray] | None = None

    def record(self, it: int, loss: float, config: FitConfig, bad: str | None) -> bool:
        """Record the loss at iteration ``it``; False if the lane stops
        there: at the iteration cap, converged, or failed with a non-finite
        loss or with ``bad``, the name of the first non-finite gradient
        entry it reads."""
        if not np.isfinite(loss):
            tail = ", ".join(f"{value:.6g}" for value in self.trajectory[-8:])
            when = "after the final step" if it == config.max_iterations else f"at iteration {it}"
            self.error = FitError(f"loss became non-finite {when}; recent losses [{tail}]")
            return False
        self.trajectory.append(float(loss))
        if it == config.max_iterations:
            return False
        if bad is not None:
            self.error = FitError(f"non-finite gradient for {bad} at iteration {it}")
            return False
        if it > 0 and it % CONVERGENCE_WINDOW == 0:
            previous = self.trajectory[it - CONVERGENCE_WINDOW]
            relative = abs(self.trajectory[it] - previous) / max(abs(previous), 1e-12)
            self.streak = self.streak + 1 if relative < config.convergence_tol else 0
            self.converged = self.streak >= config.patience
        return not self.converged


class Objective:
    """The one objective: weighted neg-raising and acceptability
    divergences plus the prior, over the blocks of ``pack`` on ``table``,
    in two halves.

    The acceptability half is that channel, the prior on its effects, and
    the neg-raising weights expit(alpha); it reads only the acceptability
    block. The neg-raising half reads a lane's own block and the weights:
    its nu comes from the free nu of the latent block (``hyper`` None) or
    from the factor logits, through one sigmoid over the whole block and
    the `CellLink`.

    Called on the slot views of the acceptability block's point and
    gradient and on the lanes that share it, it evaluates that half once
    and each lane's neg-raising half under the lane's own ``nr_mask``,
    writes every block's gradient in full, and returns the lanes' losses.
    What does not depend on the point is built once: 1 - r of each channel
    and the cell link's constants.
    """

    def __init__(self, pack: ParameterPack, table: ResponseTable):
        self.pack = pack
        self.table = table
        self.negraising = _Channel(table.negraising, 1.0 - table.negraising, "", None)
        self.acceptability = _Channel(table.acceptability, 1.0 - table.acceptability, "_acc", None)
        self.link = None
        if pack.hyper is not None:
            self.link = CellLink(pack.hyper, table.n_verbs, table.n_frames, table.cells)
            # the sigmoid of the latent block, laid out like x for its slot views
            self._probabilities = np.empty(pack.size)
            views = pack.views(self._probabilities)
            self._probs = FactorProbs.widened(
                factor_shapes(pack.hyper, table.n_verbs, table.n_frames),
                {slot: views[slot] for slot in FACTOR_SLOTS if slot in views})

    def __call__(self, params: dict, grads: dict, lanes: list[_Lane]) -> list[float]:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            halves = self._acceptability_half(params, grads)
            return [self._negraising_half(lane, *halves) for lane in lanes]

    def _acceptability_half(self, params: dict, grads: dict):
        """The acceptability loss and prior penalties, and the neg-raising
        weights; writes the acceptability block's gradient."""
        alpha = params["alpha"]
        acc_loss, g_alpha = channel_backward(alpha, self.table, self.acceptability, params, grads)
        grads["alpha"][:] = g_alpha
        penalties = prior_backward(params, grads, ("beta_acc", "sigma_acc"))
        return acc_loss, penalties, expit(alpha)[self.table.cell_idx]

    def _negraising_half(self, lane: _Lane, acc_loss: float, acc_penalties: list[float],
                         weights: np.ndarray) -> float:
        """The lane's total loss; writes the gradient of its own block."""
        params, grads = lane.params, lane.grads
        if self.link is None:
            nu = params["nu"]
        else:
            latent = self.pack.latent
            expit(lane.latent, out=self._probabilities[latent])
            nu, backward = self.link.values(self._probs)
        nr_loss, g_nu = channel_backward(nu, self.table, self.negraising._replace(mask=lane.nr_mask),
                                         params, grads, weights=weights)
        if self.link is None:
            grads["nu"][:] = g_nu
        else:
            backward(g_nu, grads)
        penalties = prior_backward(params, grads, ("beta", "sigma"))
        # the penalties summed in the order beta, sigma, beta_acc, sigma_acc
        return nr_loss + acc_loss + sum(penalties + acc_penalties)


def total_loss(table: ResponseTable, factors: FactorParams | np.ndarray, effects: EffectsParams,
               cells: AcceptabilityCells, *, nr_mask: np.ndarray | None = None) -> float:
    """The objective that `fit` and `normalization.normalize` minimize,
    `Objective`, at the given parameters, as one lane.

    ``factors`` holds the factor logits or one free nu per cell;
    ``nr_mask``, one boolean per record, restricts the neg-raising term.
    """
    free = isinstance(factors, np.ndarray)
    got = (np.shape(factors) if free else (factors.n_verbs, factors.n_frames),
           effects.n_participants, cells.alpha.shape[0])
    want = ((table.n_cells,) if free else (table.n_verbs, table.n_frames),
            table.n_participants, table.n_cells)
    if got != want:
        raise ConsistencyError(f"(latent, participant, alpha) sizes {got} do not match the "
                               f"table's {want}")
    pack = ParameterPack(None if free else factors.hyper, table)
    _, _, acceptability, lanes = _start(table, pack, [factors], effects, cells.alpha, [nr_mask])
    return Objective(pack, table)(*acceptability, lanes)[0]


def _start(table: ResponseTable, pack: ParameterPack, latents, effects: EffectsParams,
           alpha: np.ndarray, nr_masks):
    """The point vector at ``effects``, ``alpha`` and each latent of
    ``latents`` (the acceptability block, then one block per latent), a
    gradient vector laid out like it, the slot views of their acceptability
    blocks, and one lane per latent with its entry of ``nr_masks``."""
    acc = pack.shared
    x = np.concatenate([acc.pack(None, effects, alpha),
                        *(pack.pack(latent, effects, None) for latent in latents)], dtype=float)
    gradient = np.zeros_like(x)
    lanes = [_Lane(pack, x, gradient, slice(start, start + pack.size),
                   _record_mask(nr_mask, table, "nr_mask"))
             for start, nr_mask in zip(range(acc.size, x.size, pack.size), nr_masks, strict=True)]
    return x, gradient, (acc.views(x[:acc.size]), acc.views(gradient[:acc.size])), lanes


def _minimize(table: ResponseTable, pack: ParameterPack, latents, config: FitConfig,
              nr_masks) -> list[_Lane]:
    """Minimize `Objective` by Adam from each start of ``latents``, its
    neg-raising term restricted to its entry of ``nr_masks``, as lanes in
    lockstep that share one acceptability block; effects start at zero and
    alpha at the logit of each cell's clamped mean acceptability.

    One vector holds every block, so one Adam update steps them all. Each
    live lane records its loss (`_Lane.record`); a non-finite entry of the
    acceptability gradient stops every live lane. Convergence: relative
    loss change below convergence_tol across consecutive
    CONVERGENCE_WINDOW-iteration windows, ``patience`` times in a row. A
    lane that stops keeps its ``result``, the point whose loss is its last
    trajectory entry; its gradient and first moment are zeroed, so Adam
    steps its block by exactly 0.0. Returns the lanes in the order of
    ``latents``, each as it runs alone.
    """
    if table.n_records == 0:
        raise DimensionError("cannot fit an empty table")
    effects = EffectsParams.zeros(table.n_participants)
    alpha = logit(clamp_responses(table.cell_mean(table.acceptability)))
    x, gradient, acceptability, lanes = _start(table, pack, latents, effects, alpha, nr_masks)
    objective = Objective(pack, table)
    acc = pack.shared
    m, v = np.zeros_like(x), np.zeros_like(x)
    step, denominator = np.empty_like(x), np.empty_like(x)
    live = list(lanes)
    # the pass after the last update only records the loss at the returned point
    for it in range(config.max_iterations + 1):
        losses = objective(*acceptability, live)
        finite = np.isfinite(gradient)
        acc_bad = acc.first_non_finite(finite[:acc.size])
        for lane, loss in zip(live, losses):
            bad = pack.first_non_finite(finite[lane.block]) or acc_bad
            if not lane.record(it, loss, config, bad):
                lane.steps, lane.result = it, pack.unpack(x[lane.block], x[:acc.size])
                gradient[lane.block] = m[lane.block] = 0.0
        live = [lane for lane in live if lane.result is None]
        if not live:
            break
        # the order of operations of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
        # x -= lr m_hat / (sqrt(v_hat) + eps), in place
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * gradient
        v *= ADAM_BETA2
        np.multiply(gradient, gradient, out=step)
        step *= 1.0 - ADAM_BETA2
        v += step
        np.divide(m, 1.0 - ADAM_BETA1 ** (it + 1), out=step)
        step *= config.learning_rate
        np.divide(v, 1.0 - ADAM_BETA2 ** (it + 1), out=denominator)
        np.sqrt(denominator, out=denominator)
        denominator += ADAM_EPSILON
        step /= denominator
        x -= step
    return lanes


def fit_group(table: ResponseTable, hyper: Hyperparams, config: FitConfig, seeds,
              nr_masks) -> list[FitResult | FitError]:
    """`fit` of ``table`` once per seed of ``seeds``, each with its entry
    of ``nr_masks``, as one `_minimize` whose lanes are every fit's
    restarts.

    Returns per fit its FitResult, or the FitError that `fit` would raise:
    that of its lowest-numbered failing restart. Each result is bit for
    bit what `fit` gives with that seed and mask alone.
    """
    latents, masks = [], []
    for seed, nr_mask in zip(seeds, nr_masks, strict=True):
        for child in np.random.SeedSequence(seed).spawn(config.n_restarts):
            latents.append(FactorParams.random(hyper, table.n_verbs, table.n_frames,
                                               np.random.default_rng(child), INIT_SCALE))
            masks.append(nr_mask)
    pack = ParameterPack(hyper, table)
    lanes = _minimize(table, pack, latents, config, masks)
    results = []
    for k, (seed, nr_mask) in enumerate(zip(seeds, nr_masks)):
        restarts = lanes[k * config.n_restarts:(k + 1) * config.n_restarts]
        failed = [lane.error for lane in restarts if lane.error is not None]
        if failed:
            results.append(failed[0])
            continue
        # the lowest final loss, the earliest on a tie
        best = min(restarts, key=lambda lane: lane.trajectory[-1])
        factors, effects, alpha = best.result
        model = FittedModel(
            hyper=hyper,
            verbs=table.verbs,
            frames=table.frames,
            participants=table.participants,
            cells=table.cells.copy(),
            factors=factors,
            effects=effects,
            alpha=alpha,
            seed=seed,
            final_loss=float(best.trajectory[-1]),
            final_data_loss=0.0,
            converged=best.converged,
            iterations=best.steps,
        )
        # scored the way a saved model is scored, so evaluate() on the training
        # table reproduces it exactly
        model.final_data_loss = float(np.sum(_scored_records(model, table, nr_mask)[0]))
        results.append(FitResult(
            model=model, trajectory=best.trajectory, iterations_run=best.steps,
            converged=best.converged,
            restarts=[Restart(lane.trajectory[-1], lane.steps, lane.converged)
                      for lane in restarts]))
    return results


def fit(table: ResponseTable, hyper: Hyperparams, config: FitConfig | None = None,
        nr_mask: np.ndarray | None = None) -> FitResult:
    """Fit all parameters to the table by Adam with random restarts.

    Args:
        table: judgment data; the acceptability channel always uses every
            record.
        hyper: latent dimensionality of the factorization.
        config: optimizer settings (defaults: FitConfig()).
        nr_mask: boolean record mask restricting the neg-raising data term,
            used by cross-validation to hold sentences out.

    The restarts run as lanes of one `_minimize` (see `fit_group`).
    Returns the best restart by final training loss, with every restart's
    outcome in ``restarts``; raises the FitError of the lowest-numbered
    failing restart. Deterministic for a fixed seed: restart
    initializations come from spawned child streams of config.seed and
    ties keep the earliest restart.
    """
    if config is None:
        config = FitConfig()
    outcome, = fit_group(table, hyper, config, [config.seed], [nr_mask])
    if isinstance(outcome, FitError):
        raise outcome
    return outcome


def _record_mask(mask: np.ndarray | None, table: ResponseTable, name: str) -> np.ndarray | None:
    """``mask`` as one boolean per record of ``table`` (None stays None)."""
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (table.n_records,):
        raise DimensionError(f"{name} must have one entry per record")
    return mask


def _positions(labels: tuple[str, ...], within: tuple[str, ...],
               kind: str | None = None) -> np.ndarray:
    """Index of each label in ``within``, -1 where absent; when ``kind``
    names the labels, an absent one raises CoverageError instead."""
    index = {label: i for i, label in enumerate(within)}
    out = np.array([index.get(label, -1) for label in labels], dtype=np.int64)
    missing = [labels[i] for i in np.flatnonzero(out < 0)[:5]]
    if missing and kind is not None:
        raise CoverageError(f"model does not cover {kind}: {missing}")
    return out


def _scored_records(model: FittedModel, table: ResponseTable,
                    record_mask: np.ndarray | None):
    """Weighted neg-raising loss of the selected records (all when
    ``record_mask`` is None) and their cell rows in the table.

    The table may list any subset of the model's verbs, frames and cells,
    in any order. Participants unseen during fitting are scored with zero
    random effects (the prior mean). Verbs, frames, or cells outside the
    model raise CoverageError.
    """
    verb_map = _positions(table.verbs, model.verbs, "verbs")
    frame_map = _positions(table.frames, model.frames, "frames")
    part_map = _positions(table.participants, model.participants)
    cells = np.column_stack([verb_map[table.cells[:, 0]], frame_map[table.cells[:, 1]],
                             table.cells[:, 2], table.cells[:, 3]])
    lookup = np.full((len(model.verbs), len(model.frames), 2, 2), -1, dtype=np.int64)
    lookup[tuple(model.cells.T)] = np.arange(model.cells.shape[0])
    rows = lookup[tuple(cells.T)]
    if np.any(rows < 0):
        v, f, j, k = table.cells[int(np.argmax(rows < 0))]
        raise CoverageError(
            f"model does not cover cell {(table.verbs[v], table.frames[f], int(j), int(k))}"
        )

    nu = link_values(model.factors, cells)
    seen = part_map >= 0
    beta = np.where(seen, model.effects.beta[part_map], 0.0)
    sigma = np.where(seen, model.effects.sigma[part_map], 0.0)
    cell_idx, part_idx, responses = table.cell_idx, table.part_idx, table.negraising
    record_mask = _record_mask(record_mask, table, "record_mask")
    if record_mask is not None:
        cell_idx, part_idx, responses = (a[record_mask] for a in (cell_idx, part_idx, responses))
    each, _, _ = channel_losses(nu[cell_idx], part_idx, responses, 1.0 - responses,
                                model.effects.beta0, model.effects.sigma0, beta, sigma)
    return expit(model.alpha[rows])[cell_idx] * each, cell_idx


def evaluate(model: FittedModel, table: ResponseTable,
             record_mask: np.ndarray | None = None) -> float:
    """Weighted neg-raising data loss (no priors) on the given records."""
    return float(np.sum(_scored_records(model, table, record_mask)[0]))


def evaluate_per_cell(model: FittedModel, table: ResponseTable,
                      record_mask: np.ndarray | None = None) -> np.ndarray:
    """Per-cell sums of the weighted neg-raising loss; cells with no
    selected records get 0."""
    losses, cell_idx = _scored_records(model, table, record_mask)
    return np.bincount(cell_idx, weights=losses, minlength=table.n_cells)
