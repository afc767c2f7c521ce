"""Gradient computation and Adam fitting of all model parameters.

Gradients are derived by hand and fully vectorized. The factorization
chain uses two identities: the derivative of the cell probability with
respect to one pairing term zeta is the product of all other (1 - zeta)
factors, computed stably as exp(sum log1p(-zeta) - log1p(-zeta_own)); and
the derivative of a probability with respect to its logit is p (1 - p).

The per-cell weights alpha' on the neg-raising loss are deliberately
treated as constants: alpha receives gradients only through the
acceptability channel, so the optimizer cannot shrink the weighted loss
by discounting hard cells.

`_forward_backward` is the one objective, minimized by `fit` over the
factor logits and by `normalization.normalize` over one free nu per
cell; its link, divergence and prior come from `response`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.special import expit, logit

from .dataset import ResponseTable, clamp_responses
from .errors import ConsistencyError, CoverageError, DimensionError, FitError
from .factorization import FactorParams, Hyperparams, negraising_from_probs
from .model import FittedModel
from .response import (
    PREDICTION_CLAMP,
    PROB_CLAMP,
    AcceptabilityCells,
    EffectsParams,
    channel_losses,
    negraising_record_losses,
    prior_backward,
)

CONVERGENCE_WINDOW = 100


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings; defaults follow the published fitting recipe."""

    learning_rate: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    max_iterations: int = 30_000
    convergence_tol: float = 1e-6
    patience: int = 2
    n_restarts: int = 3
    seed: int = 0
    init_scale: float = 0.5

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError("adam betas must lie in (0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.max_iterations < 0 or self.n_restarts < 1:
            raise ValueError("max_iterations must be >= 0 and n_restarts >= 1")
        if self.adam_epsilon <= 0:
            raise ValueError("adam_epsilon must be positive")
        if self.convergence_tol < 0 or self.init_scale < 0:
            raise ValueError("convergence_tol and init_scale must be >= 0")


@dataclass
class FitResult:
    model: FittedModel
    trajectory: list[float]
    iterations_run: int
    converged: bool


@dataclass
class Gradient:
    """Objective gradient, in the same containers as the parameters.

    Frozen boundary factors are represented by None entries: they are not
    parameters, so they have no gradient components at all.
    """

    factors: FactorParams
    effects: EffectsParams
    alpha: np.ndarray
    loss: float


FACTOR_SLOTS = {
    "lambda": "lambda_logits",
    "pi": "pi_logits",
    "omega": "omega_logits",
    "psi": "psi_logits",
    "phi": "phi_logits",
}


class ParameterPack:
    """Flat-vector view over every optimized parameter.

    The latent block holds the factor logits of ``hyper`` (``fit``) or,
    when ``hyper`` is None, one free nu per cell (``normalize``). Frozen
    boundary factor arrays are simply absent from the layout, so they can
    never receive updates. The slots of every ``EffectsParams`` field and
    of alpha follow the latent block.
    """

    def __init__(self, hyper: Hyperparams | None, n_verbs: int, n_frames: int,
                 n_participants: int, n_cells: int):
        self.hyper = hyper
        self.n_verbs = n_verbs
        self.n_frames = n_frames
        layout: list[tuple[str, tuple[int, ...]]] = []
        if hyper is None:
            layout.append(("nu", (n_cells,)))
        else:
            if hyper.n_structural:
                layout += [
                    ("lambda", (n_verbs, hyper.n_structural)),
                    ("pi", (hyper.n_structural, n_frames)),
                    ("omega", (hyper.n_structural, 2, 2)),
                ]
            if hyper.n_lexical:
                layout += [
                    ("psi", (n_verbs, hyper.n_lexical)),
                    ("phi", (hyper.n_lexical, 2, 2)),
                ]
        layout += [(name, np.shape(value))
                   for name, value in vars(EffectsParams.zeros(n_participants)).items()]
        layout.append(("alpha", (n_cells,)))
        self._slices: dict[str, tuple[slice, tuple[int, ...]]] = {}
        offset = 0
        for name, shape in layout:
            size = int(np.prod(shape)) if shape else 1
            self._slices[name] = (slice(offset, offset + size), shape)
            offset += size
        self.size = offset

    def put(self, x: np.ndarray, name: str, value) -> None:
        """Write one named parameter, or its gradient, into the flat vector x."""
        sl, shape = self._slices[name]
        x[sl] = np.reshape(value, -1) if shape else float(value)

    def take(self, x: np.ndarray, name: str):
        sl, shape = self._slices[name]
        return x[sl].reshape(shape).copy() if shape else float(x[sl][0])

    def pack(self, latent: FactorParams | np.ndarray, effects: EffectsParams,
             alpha: np.ndarray) -> np.ndarray:
        if self.hyper is None:
            values = {"nu": latent}
        else:
            values = {slot: getattr(latent, field) for slot, field in FACTOR_SLOTS.items()}
        values.update(vars(effects), alpha=alpha)
        x = np.empty(self.size)
        for name in self._slices:
            self.put(x, name, values[name])
        return x

    def unpack(self, x: np.ndarray) -> tuple[FactorParams | np.ndarray, EffectsParams, np.ndarray]:
        if self.hyper is None:
            latent = self.take(x, "nu")
        else:
            latent = FactorParams(
                hyper=self.hyper,
                n_verbs=self.n_verbs,
                n_frames=self.n_frames,
                **{field: self.take(x, slot) if slot in self._slices else None
                   for slot, field in FACTOR_SLOTS.items()},
            )
        effects = EffectsParams(**{f.name: self.take(x, f.name) for f in fields(EffectsParams)})
        return latent, effects, self.take(x, "alpha")

    def name_at(self, flat_index: int) -> str:
        for name, (sl, _) in self._slices.items():
            if sl.start <= flat_index < sl.stop:
                return f"{name}[{flat_index - sl.start}]"
        return f"component {flat_index}"


def channel_backward(values: np.ndarray, cell_idx: np.ndarray, part_idx: np.ndarray,
                     responses: np.ndarray, beta0: float, sigma0: float,
                     beta: np.ndarray, sigma: np.ndarray, n_cells: int,
                     weights: np.ndarray | None = None,
                     mask: np.ndarray | None = None):
    """Loss and gradients for one response channel with per-cell latents.

    Returns (loss, g_values, g_beta0, g_sigma0, g_beta, g_sigma) where
    g_values is per cell. ``weights`` are per-record constants (the
    blocked alpha' weights); ``mask`` restricts the data term.
    """
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
        g_beta0 = float(np.sum(g_z))
        g_beta = np.bincount(part_idx, weights=g_z, minlength=n_participants)
        g_scaled = g_z * scale
        g_sigma0 = float(np.sum(g_scaled * vals_rec))
        g_sigma = np.bincount(part_idx, weights=g_scaled * vals_rec, minlength=n_participants)
        g_values = np.bincount(cell_idx, weights=g_scaled, minlength=n_cells)
    return loss, g_values, g_beta0, g_sigma0, g_beta, g_sigma


def _factor_forward(factors: FactorParams, cells: np.ndarray):
    """Clamped-logit nu per cell from the factorization, and the backward
    pass that writes the factor-logit gradient for a given d loss / d nu."""
    probs = factors.probabilities()
    cv, cf, cj, ck = (cells[:, i] for i in range(4))
    lam_c = probs.lambda_[cv]           # (C, eff_t)
    pi_c = probs.pi[:, cf].T
    om_c = probs.omega[:, cj, ck].T
    psi_c = probs.psi[cv]               # (C, eff_i)
    phi_c = probs.phi[:, cj, ck].T
    a = lam_c * pi_c * om_c
    b = psi_c * phi_c
    zeta = a[:, :, None] * b[:, None, :]
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-zeta)
    s = log_miss.sum(axis=(1, 2))
    pn = -np.expm1(s)
    pn_c = np.clip(pn, PROB_CLAMP, 1.0 - PROB_CLAMP)

    def backward(g_nu: np.ndarray, pack: ParameterPack, g: np.ndarray) -> None:
        # chain g_nu back through the clamped logit and the factorization
        active = (pn >= PROB_CLAMP) & (pn <= 1.0 - PROB_CLAMP)
        g_pn = np.where(active, g_nu / (pn_c * (1.0 - pn_c)), 0.0)
        with np.errstate(invalid="ignore", over="ignore"):
            others = np.exp(s[:, None, None] - log_miss)
        g_zeta = g_pn[:, None, None] * others
        g_zeta[~active] = 0.0
        g_a = (g_zeta * b[:, None, :]).sum(axis=2)
        g_b = (g_zeta * a[:, :, None]).sum(axis=1)
        if factors.hyper.n_structural:
            n_t = factors.hyper.n_structural
            g_lambda = np.zeros((factors.n_verbs, n_t))
            np.add.at(g_lambda, cv, g_a * pi_c * om_c)
            g_pi = np.zeros((factors.n_frames, n_t))
            np.add.at(g_pi, cf, g_a * lam_c * om_c)
            g_omega = np.zeros((4, n_t))
            np.add.at(g_omega, cj * 2 + ck, g_a * lam_c * pi_c)
            lam, pi, om = probs.lambda_, probs.pi, probs.omega
            pack.put(g, "lambda", g_lambda * lam * (1.0 - lam))
            pack.put(g, "pi", g_pi.T * pi * (1.0 - pi))
            pack.put(g, "omega", g_omega.T.reshape(n_t, 2, 2) * om * (1.0 - om))
        if factors.hyper.n_lexical:
            n_i = factors.hyper.n_lexical
            g_psi = np.zeros((factors.n_verbs, n_i))
            np.add.at(g_psi, cv, g_b * phi_c)
            g_phi = np.zeros((4, n_i))
            np.add.at(g_phi, cj * 2 + ck, g_b * psi_c)
            psi, phi = probs.psi, probs.phi
            pack.put(g, "psi", g_psi * psi * (1.0 - psi))
            pack.put(g, "phi", g_phi.T.reshape(n_i, 2, 2) * phi * (1.0 - phi))

    return logit(pn_c), backward


def _forward_backward(x: np.ndarray, pack: ParameterPack, table: ResponseTable,
                      nr_mask: np.ndarray | None):
    """Objective value and packed gradient at the packed point x."""
    latent, effects, alpha = pack.unpack(x)
    if pack.hyper is None:
        nu = latent
    else:
        nu, factor_backward = _factor_forward(latent, table.cells)

    weights = expit(alpha)[table.cell_idx]
    nr_loss, g_nu, g_beta0, g_sigma0, g_beta, g_sigma = channel_backward(
        nu, table.cell_idx, table.part_idx, table.negraising,
        effects.beta0, effects.sigma0, effects.beta, effects.sigma,
        table.n_cells, weights=weights, mask=nr_mask,
    )
    acc_loss, g_alpha, g_beta0_acc, g_sigma0_acc, g_beta_acc, g_sigma_acc = channel_backward(
        alpha, table.cell_idx, table.part_idx, table.acceptability,
        effects.beta0_acc, effects.sigma0_acc, effects.beta_acc, effects.sigma_acc,
        table.n_cells,
    )
    penalty, value_grads, log_var_grads = prior_backward(effects)

    g = np.empty(pack.size)
    if pack.hyper is None:
        pack.put(g, "nu", g_nu)
    else:
        factor_backward(g_nu, pack, g)
    pack.put(g, "beta0", g_beta0)
    pack.put(g, "sigma0", g_sigma0)
    pack.put(g, "beta", g_beta + value_grads[0])
    pack.put(g, "sigma", g_sigma + value_grads[1])
    pack.put(g, "beta0_acc", g_beta0_acc)
    pack.put(g, "sigma0_acc", g_sigma0_acc)
    pack.put(g, "beta_acc", g_beta_acc + value_grads[2])
    pack.put(g, "sigma_acc", g_sigma_acc + value_grads[3])
    pack.put(g, "log_var_beta", log_var_grads[0])
    pack.put(g, "log_var_sigma", log_var_grads[1])
    pack.put(g, "log_var_beta_acc", log_var_grads[2])
    pack.put(g, "log_var_sigma_acc", log_var_grads[3])
    pack.put(g, "alpha", g_alpha)
    return nr_loss + acc_loss + penalty, g


def gradient(table: ResponseTable, factors: FactorParams, effects: EffectsParams,
             cells: AcceptabilityCells, *, nr_mask: np.ndarray | None = None) -> Gradient:
    """Analytic gradient of the full objective at the given parameters.

    Honors the weight-blocking rule: alpha components reflect only the
    acceptability channel. Raises FitError naming the offending parameter
    if any component is non-finite.
    """
    if factors.n_verbs != table.n_verbs or factors.n_frames != table.n_frames:
        raise DimensionError("factor dimensions do not match the table")
    if cells.alpha.shape[0] != table.n_cells:
        raise ConsistencyError(
            f"alpha has {cells.alpha.shape[0]} cells, table has {table.n_cells}"
        )
    pack = ParameterPack(factors.hyper, table.n_verbs, table.n_frames,
                         table.n_participants, table.n_cells)
    x = pack.pack(factors, effects, cells.alpha)
    loss, g = _forward_backward(x, pack, table, nr_mask)
    if not np.all(np.isfinite(g)):
        bad = int(np.argmin(np.isfinite(g)))
        raise FitError(f"non-finite gradient for {pack.name_at(bad)}")
    grad_factors, grad_effects, grad_alpha = pack.unpack(g)
    return Gradient(factors=grad_factors, effects=grad_effects, alpha=grad_alpha, loss=loss)


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
    one_m_b1 = 1.0 - config.adam_beta1
    one_m_b2 = 1.0 - config.adam_beta2
    for it in range(config.max_iterations):
        loss, grad = fun(x)
        if not np.isfinite(loss):
            tail = ", ".join(f"{value:.6g}" for value in trajectory[-8:])
            raise FitError(f"loss became non-finite at iteration {it}; recent losses [{tail}]")
        if not np.all(np.isfinite(grad)):
            bad = int(np.argmin(np.isfinite(grad)))
            where = name_at(bad) if name_at else f"component {bad}"
            raise FitError(f"non-finite gradient for {where} at iteration {it}")
        trajectory.append(float(loss))
        if it > 0 and it % CONVERGENCE_WINDOW == 0:
            previous = trajectory[it - CONVERGENCE_WINDOW]
            relative = abs(trajectory[it] - previous) / max(abs(previous), 1e-12)
            if relative < config.convergence_tol:
                streak += 1
                if streak >= config.patience:
                    converged = True
                    break
            else:
                streak = 0
        m = config.adam_beta1 * m + one_m_b1 * grad
        v = config.adam_beta2 * v + one_m_b2 * (grad * grad)
        steps = it + 1
        m_hat = m / (1.0 - config.adam_beta1 ** steps)
        v_hat = v / (1.0 - config.adam_beta2 ** steps)
        x -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)
    if not converged:
        # x moved after the last recorded loss (or never ran); record its loss
        final_loss, _ = fun(x)
        if not np.isfinite(final_loss):
            tail = ", ".join(f"{value:.6g}" for value in trajectory[-8:])
            raise FitError(f"loss became non-finite after the final step; recent losses [{tail}]")
        trajectory.append(float(final_loss))
    return x, trajectory, converged, steps


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
    if table.n_records == 0:
        raise DimensionError("cannot fit an empty table")
    if nr_mask is not None:
        nr_mask = np.asarray(nr_mask, dtype=bool)
        if nr_mask.shape != (table.n_records,):
            raise DimensionError("nr_mask must have one entry per record")
    pack = ParameterPack(hyper, table.n_verbs, table.n_frames,
                         table.n_participants, table.n_cells)
    alpha0 = logit(clamp_responses(table.cell_mean_acceptability()))
    effects0 = EffectsParams.zeros(table.n_participants)

    def objective(x):
        return _forward_backward(x, pack, table, nr_mask)

    best = None
    for child in np.random.SeedSequence(config.seed).spawn(config.n_restarts):
        rng = np.random.default_rng(child)
        factors0 = FactorParams.random(hyper, table.n_verbs, table.n_frames, rng,
                                       scale=config.init_scale)
        x0 = pack.pack(factors0, effects0, alpha0)
        outcome = adam_minimize(x0, objective, config, pack.name_at)
        if best is None or outcome[1][-1] < best[1][-1]:
            best = outcome
    x, trajectory, converged, steps = best
    factors, effects, alpha = pack.unpack(x)
    cells = AcceptabilityCells(alpha)
    nr_losses = negraising_record_losses(table, factors, effects, cells)
    if nr_mask is not None:
        nr_losses = nr_losses[nr_mask]
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
        final_data_loss=float(np.sum(nr_losses)),
        converged=converged,
        iterations=steps,
    )
    return FitResult(model=model, trajectory=trajectory, iterations_run=steps, converged=converged)


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


def record_losses(model: FittedModel, table: ResponseTable) -> np.ndarray:
    """Per-record weighted neg-raising loss of a model on (possibly new) data.

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

    pn = negraising_from_probs(model.factors.probabilities(), *cells.T)
    nu = logit(np.clip(pn, PROB_CLAMP, 1.0 - PROB_CLAMP))
    seen = part_map >= 0
    beta = np.where(seen, model.effects.beta[part_map], 0.0)
    sigma = np.where(seen, model.effects.sigma[part_map], 0.0)
    each, _, _ = channel_losses(nu[table.cell_idx], table.part_idx, table.negraising,
                                model.effects.beta0, model.effects.sigma0, beta, sigma)
    return expit(model.alpha[rows])[table.cell_idx] * each


def evaluate(model: FittedModel, table: ResponseTable,
             record_mask: np.ndarray | None = None) -> float:
    """Weighted neg-raising data loss (no priors) on the given records."""
    losses = record_losses(model, table)
    if record_mask is not None:
        losses = losses[record_mask]
    return float(np.sum(losses))


def evaluate_per_cell(model: FittedModel, table: ResponseTable,
                      record_mask: np.ndarray | None = None) -> np.ndarray:
    """Per-cell sums of the weighted neg-raising loss; cells with no
    selected records get 0."""
    losses = record_losses(model, table)
    if record_mask is not None:
        losses = np.where(record_mask, losses, 0.0)
    return np.bincount(table.cell_idx, weights=losses, minlength=table.n_cells)
