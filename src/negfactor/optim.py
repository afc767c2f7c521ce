"""Gradient computation and Adam fitting of all model parameters.

Gradients are derived by hand and fully vectorized. The per-cell
weights alpha' on the neg-raising loss are deliberately treated as
constants: alpha receives gradients only through the acceptability
channel, so the optimizer cannot shrink the weighted loss by discounting
hard cells.

`_objective` is the one objective, evaluated by `total_loss` and
minimized by `_minimize`, the one optimizer driver, for `fit` (over the
factor logits) and for `normalization.normalize` (one free nu per cell).
Its nu comes from `factorization.link_values`, whose backward pass gives
the factor-logit gradient, and its link and divergence from `response`.
Each piece returns the gradient of what it reads, keyed by parameter
name; only `ParameterPack` lays the names out in a flat vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ResponseTable, clamp_responses
from .errors import ConsistencyError, CoverageError, DimensionError, FitError
from .factorization import (FACTOR_SLOTS, FactorParams, Hyperparams, factor_shapes, link_values,
                            require_integers)
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


@dataclass
class FitResult:
    model: FittedModel
    trajectory: list[float]
    iterations_run: int
    converged: bool


class ParameterPack:
    """Flat-vector layout of every optimized parameter of ``table``: the
    only code that builds or reads the optimizer's flat vector.

    The latent block holds the factor logits of ``hyper`` (``fit``) or,
    when ``hyper`` is None, one free nu per cell (``normalize``). Frozen
    boundary factor arrays are simply absent from the layout, so they can
    never receive updates. The slots of every ``EffectsParams`` field and
    of alpha follow the latent block.
    """

    def __init__(self, hyper: Hyperparams | None, table: ResponseTable):
        self.hyper = hyper
        self.n_verbs = table.n_verbs
        self.n_frames = table.n_frames
        if hyper is None:
            layout = [("nu", (table.n_cells,))]
        else:
            shapes = factor_shapes(hyper, table.n_verbs, table.n_frames)
            layout = [(slot, shape) for slot, shape in shapes.items() if math.prod(shape)]
        layout += [(name, np.shape(value))
                   for name, value in vars(EffectsParams.zeros(table.n_participants)).items()]
        layout.append(("alpha", (table.n_cells,)))
        ends = np.cumsum([math.prod(shape) for _, shape in layout]).tolist()
        self._slices = {name: (slice(end - math.prod(shape), end), shape)
                        for (name, shape), end in zip(layout, ends)}
        self.size = ends[-1]

    def flat(self, named: dict) -> np.ndarray:
        """The flat vector of each slot's value (a parameter or its
        gradient) in ``named``, keyed by slot name."""
        return np.concatenate([np.ravel(named[name]) for name in self._slices])

    def pack(self, latent: FactorParams | np.ndarray, effects: EffectsParams,
             alpha: np.ndarray) -> np.ndarray:
        named = {"nu": latent} if self.hyper is None else latent.arrays()
        return self.flat({**named, **vars(effects), "alpha": alpha})

    def unpack(self, x: np.ndarray) -> tuple[FactorParams | np.ndarray, EffectsParams, np.ndarray]:
        named = {name: x[sl].reshape(shape).copy() if shape else float(x[sl][0])
                 for name, (sl, shape) in self._slices.items()}
        if self.hyper is None:
            latent = named.pop("nu")
        else:
            latent = FactorParams(self.hyper, self.n_verbs, self.n_frames, **{
                field: named.pop(slot, None) for slot, field in FACTOR_SLOTS.items()
            })
        alpha = named.pop("alpha")
        return latent, EffectsParams(**named), alpha

    def name_at(self, flat_index: int) -> str:
        for name, (sl, _) in self._slices.items():
            if sl.start <= flat_index < sl.stop:
                return f"{name}[{flat_index - sl.start}]"
        return f"component {flat_index}"


def channel_backward(values: np.ndarray, table: ResponseTable, responses: np.ndarray,
                     effects: EffectsParams, suffix: str, weights: np.ndarray | None = None,
                     mask: np.ndarray | None = None):
    """Loss of one response channel with per-cell latents ``values``.

    The channel's link parameters are the ``EffectsParams`` fields beta0,
    sigma0, beta and sigma, each name followed by ``suffix`` ("" or
    "_acc"). Returns (loss, d loss / d values per cell, the gradient of
    each link parameter keyed by field name). ``weights`` are per-record
    constants (the blocked alpha' weights); ``mask`` restricts the data
    term.
    """
    beta0, sigma0, beta, sigma = (getattr(effects, name + suffix)
                                  for name in ("beta0", "sigma0", "beta", "sigma"))
    cell_idx, part_idx = table.cell_idx, table.part_idx
    n_participants = beta.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals_rec = values[cell_idx]
        each, pred, scale = channel_losses(vals_rec, part_idx, responses,
                                           beta0, sigma0, beta, sigma)
        if weights is not None:
            each = weights * each
        loss = float(np.sum(each[mask])) if mask is not None else float(np.sum(each))
        inside = (pred >= PREDICTION_CLAMP) & (pred <= 1.0 - PREDICTION_CLAMP)
        g_z = np.where(inside, pred - responses, 0.0)
        if weights is not None:
            g_z = weights * g_z
        if mask is not None:
            g_z = np.where(mask, g_z, 0.0)
        g_scaled = g_z * scale
        g_spread = g_scaled * vals_rec
        grads = {
            "beta0" + suffix: np.sum(g_z),
            "beta" + suffix: np.bincount(part_idx, weights=g_z, minlength=n_participants),
            "sigma0" + suffix: np.sum(g_spread),
            "sigma" + suffix: np.bincount(part_idx, weights=g_spread, minlength=n_participants),
        }
        g_values = np.bincount(cell_idx, weights=g_scaled, minlength=table.n_cells)
    return loss, g_values, grads


def prior_backward(effects: EffectsParams, grads: dict) -> float:
    """Gaussian negative log prior over random effects, up to constants.

    Each group contributes sum(x^2) / (2 v) plus the normalizer
    (n/2) log v, with v the group's optimized variance. Adds the gradient
    of each random effect into its entry of ``grads``, sets that of each
    log-variance, and returns the penalty. Uses numpy float semantics so
    that degenerate log-variances produce inf/nan values (caught by the
    optimizer's finiteness checks) instead of range errors.
    """
    penalty = 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for name in ("beta", "sigma", "beta_acc", "sigma_acc"):
            values, log_var = getattr(effects, name), getattr(effects, "log_var_" + name)
            variance = np.exp(np.float64(log_var))
            sum_sq = np.float64(np.sum(values * values))
            n = values.shape[0]
            penalty += float(sum_sq / (2.0 * variance) + 0.5 * n * log_var)
            grads[name] = grads[name] + values / variance
            grads["log_var_" + name] = -sum_sq / (2.0 * variance) + 0.5 * n
    return penalty


def _objective(latent: FactorParams | np.ndarray, effects: EffectsParams, alpha: np.ndarray,
               table: ResponseTable, nr_mask: np.ndarray | None):
    """The objective and its gradient keyed by slot name, at factor
    logits or, for ``normalize``, one free nu per cell (``latent``)."""
    if isinstance(latent, np.ndarray):
        nu, latent_backward = latent, lambda g_nu: {"nu": g_nu}
    else:
        nu, latent_backward = link_values(latent, table.cells)
    nr_loss, g_nu, grads = channel_backward(nu, table, table.negraising, effects, "",
                                            weights=expit(alpha)[table.cell_idx], mask=nr_mask)
    acc_loss, g_alpha, acc_grads = channel_backward(alpha, table, table.acceptability,
                                                    effects, "_acc")
    grads.update(acc_grads, alpha=g_alpha, **latent_backward(g_nu))
    penalty = prior_backward(effects, grads)
    return nr_loss + acc_loss + penalty, grads


def _forward_backward(x: np.ndarray, pack: ParameterPack, table: ResponseTable,
                      nr_mask: np.ndarray | None):
    """Objective value and flat gradient at the flat point x."""
    loss, grads = _objective(*pack.unpack(x), table, nr_mask)
    return loss, pack.flat(grads)


def total_loss(table: ResponseTable, factors: FactorParams | np.ndarray, effects: EffectsParams,
               cells: AcceptabilityCells, *, nr_mask: np.ndarray | None = None) -> float:
    """The objective that `fit` and `normalization.normalize` minimize:
    weighted neg-raising and acceptability divergences plus the prior.

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
    return _objective(factors, effects, cells.alpha, table,
                      _record_mask(nr_mask, table, "nr_mask"))[0]


def adam_minimize(x0: np.ndarray, fun, config: FitConfig, name_at=None):
    """Minimize fun(x) -> (loss, grad) with Adam and windowed convergence.

    Convergence: relative loss change below convergence_tol across
    consecutive CONVERGENCE_WINDOW-iteration windows, ``patience`` times in
    a row. Returns (x, trajectory, converged, update_steps); the last
    trajectory entry is the loss at the returned x.
    """
    x = np.array(x0, dtype=float, copy=True)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    trajectory: list[float] = []
    streak = 0
    converged = False
    steps = 0
    # the pass after the last update only records the loss at the returned x
    for it in range(config.max_iterations + 1):
        loss, grad = fun(x)
        if not np.isfinite(loss):
            tail = ", ".join(f"{value:.6g}" for value in trajectory[-8:])
            when = "after the final step" if it == config.max_iterations else f"at iteration {it}"
            raise FitError(f"loss became non-finite {when}; recent losses [{tail}]")
        trajectory.append(float(loss))
        if it == config.max_iterations:
            break
        if not np.all(np.isfinite(grad)):
            bad = int(np.argmin(np.isfinite(grad)))
            where = name_at(bad) if name_at else f"component {bad}"
            raise FitError(f"non-finite gradient for {where} at iteration {it}")
        if it > 0 and it % CONVERGENCE_WINDOW == 0:
            previous = trajectory[it - CONVERGENCE_WINDOW]
            relative = abs(trajectory[it] - previous) / max(abs(previous), 1e-12)
            streak = streak + 1 if relative < config.convergence_tol else 0
            converged = streak >= config.patience
            if converged:
                break
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (grad * grad)
        steps = it + 1
        m_hat = m / (1.0 - ADAM_BETA1 ** steps)
        v_hat = v / (1.0 - ADAM_BETA2 ** steps)
        x -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return x, trajectory, converged, steps


def _minimize(table: ResponseTable, pack: ParameterPack, starts, config: FitConfig,
              nr_mask: np.ndarray | None):
    """Run Adam on the objective from each (latent, effects, alpha) of
    ``starts`` and keep the lowest final loss, the earliest on a tie.

    Returns the kept parameters as (latent, effects, alpha), its
    trajectory, whether it converged and its update steps.
    """
    if table.n_records == 0:
        raise DimensionError("cannot fit an empty table")
    nr_mask = _record_mask(nr_mask, table, "nr_mask")
    best = None
    for start in starts:
        outcome = adam_minimize(pack.pack(*start),
                                lambda x: _forward_backward(x, pack, table, nr_mask),
                                config, pack.name_at)
        if best is None or outcome[1][-1] < best[1][-1]:
            best = outcome
    x, trajectory, converged, steps = best
    return pack.unpack(x), trajectory, converged, steps


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

    Returns the best restart by final training loss. Deterministic for a
    fixed seed: restart initializations come from spawned child streams of
    config.seed and ties keep the earliest restart.
    """
    if config is None:
        config = FitConfig()
    alpha0 = logit(clamp_responses(table.cell_mean(table.acceptability)))
    effects0 = EffectsParams.zeros(table.n_participants)
    starts = ((FactorParams.random(hyper, table.n_verbs, table.n_frames,
                                   np.random.default_rng(child), INIT_SCALE), effects0, alpha0)
              for child in np.random.SeedSequence(config.seed).spawn(config.n_restarts))
    (factors, effects, alpha), trajectory, converged, steps = _minimize(
        table, ParameterPack(hyper, table), starts, config, nr_mask)
    model = FittedModel(
        hyper=hyper,
        verbs=table.verbs,
        frames=table.frames,
        participants=table.participants,
        cells=table.cells.copy(),
        factors=factors,
        effects=effects,
        alpha=alpha,
        seed=config.seed,
        final_loss=float(trajectory[-1]),
        final_data_loss=0.0,
        converged=converged,
        iterations=steps,
    )
    # scored the way a saved model is scored, so evaluate() on the training
    # table reproduces it exactly
    model.final_data_loss = float(np.sum(_scored_records(model, table, nr_mask)[0]))
    return FitResult(model=model, trajectory=trajectory, iterations_run=steps, converged=converged)


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

    nu, _ = link_values(model.factors, cells)
    seen = part_map >= 0
    beta = np.where(seen, model.effects.beta[part_map], 0.0)
    sigma = np.where(seen, model.effects.sigma[part_map], 0.0)
    cell_idx, part_idx, responses = table.cell_idx, table.part_idx, table.negraising
    record_mask = _record_mask(record_mask, table, "record_mask")
    if record_mask is not None:
        cell_idx, part_idx, responses = (a[record_mask] for a in (cell_idx, part_idx, responses))
    each, _, _ = channel_losses(nu[cell_idx], part_idx, responses,
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
