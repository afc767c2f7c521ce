"""Response links, participant effects, and the weighted divergence loss.

Both slider channels share the same link shape: the latent cell value is
scaled by a per-participant factor exp(sigma0 + sigma_l), shifted by
beta0 + beta_l, and squashed through the inverse logit. The neg-raising
channel reads its latent value off the factor model; the acceptability
channel optimizes one free alpha per cell, whose inverse logit also serves
as that cell's weight on the neg-raising loss.

The link, the divergence and the prior are each written once here; the
optimizer's objective and gradient and the scoring of saved models
(`optim`) reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .dataset import ResponseTable
from .errors import ConsistencyError
from .factorization import FactorParams, negraising_from_probs

PROB_CLAMP = 1e-7
PREDICTION_CLAMP = 1e-15


@dataclass
class EffectsParams:
    """Fixed and per-participant link parameters for both channels.

    ``beta``/``sigma`` hold per-participant shift and log-scale offsets for
    the neg-raising channel; the ``_acc`` fields are their acceptability
    counterparts. Random-effect variances are optimized on the log scale,
    which keeps them positive by construction.
    """

    beta0: float
    sigma0: float
    beta: np.ndarray
    sigma: np.ndarray
    beta0_acc: float
    sigma0_acc: float
    beta_acc: np.ndarray
    sigma_acc: np.ndarray
    log_var_beta: float = 0.0
    log_var_sigma: float = 0.0
    log_var_beta_acc: float = 0.0
    log_var_sigma_acc: float = 0.0

    @classmethod
    def zeros(cls, n_participants: int) -> "EffectsParams":
        return cls(
            beta0=0.0,
            sigma0=0.0,
            beta=np.zeros(n_participants),
            sigma=np.zeros(n_participants),
            beta0_acc=0.0,
            sigma0_acc=0.0,
            beta_acc=np.zeros(n_participants),
            sigma_acc=np.zeros(n_participants),
        )

    @property
    def n_participants(self) -> int:
        return self.beta.shape[0]


@dataclass
class AcceptabilityCells:
    """One free alpha per observed (verb, frame, subject, tense) cell."""

    alpha: np.ndarray

    def weights(self) -> np.ndarray:
        """Neg-raising loss weights: the inverse logit of each alpha."""
        return expit(self.alpha)


def _link(values, participant, beta0, sigma0, beta, sigma):
    """logit^-1(exp(sigma0 + sigma_l) v + beta0 + beta_l), and the scale exp(sigma0 + sigma_l)."""
    scale = np.exp(sigma0 + sigma[participant])
    return expit(scale * values + beta0 + beta[participant]), scale


def _divergence(r, r_hat):
    return r * np.log(r / r_hat) + (1.0 - r) * np.log((1.0 - r) / (1.0 - r_hat))


def channel_losses(values, participant, responses, beta0, sigma0, beta, sigma):
    """Per-record D(r || r_hat) of one response channel.

    ``values`` holds each record's latent (nu or alpha) and r_hat is the
    link prediction clamped to [PREDICTION_CLAMP, 1 - PREDICTION_CLAMP].
    Also returns the unclamped prediction and the scale, which the
    gradient needs.
    """
    pred, scale = _link(values, participant, beta0, sigma0, beta, sigma)
    pred_c = np.clip(pred, PREDICTION_CLAMP, 1.0 - PREDICTION_CLAMP)
    return _divergence(responses, pred_c), pred, scale


def kl_loss(r, r_hat):
    """KL divergence between Bernoulli(r) and Bernoulli(r_hat).

    Zero exactly when the arguments are equal; both must lie strictly
    inside (0, 1).
    """
    r = np.asarray(r, dtype=float)
    r_hat = np.asarray(r_hat, dtype=float)
    if np.any((r <= 0.0) | (r >= 1.0) | (r_hat <= 0.0) | (r_hat >= 1.0)):
        raise ValueError("kl_loss arguments must lie strictly inside (0, 1)")
    out = _divergence(r, r_hat)
    return float(out) if out.ndim == 0 else out


def prior_backward(effects: EffectsParams):
    """Gaussian negative log prior over random effects, up to constants,
    with its gradients for the random effects and the log-variances.

    Each group contributes sum(x^2) / (2 v) plus the normalizer
    (n/2) log v, with v the group's optimized variance. Uses numpy float
    semantics so that degenerate log-variances produce inf/nan values
    (caught by the optimizer's finiteness checks) instead of range errors.
    """
    penalty = 0.0
    value_grads = []
    log_var_grads = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for name in ("beta", "sigma", "beta_acc", "sigma_acc"):
            values, log_var = getattr(effects, name), getattr(effects, "log_var_" + name)
            variance = np.exp(np.float64(log_var))
            sum_sq = np.float64(np.sum(values * values))
            n = values.shape[0]
            penalty += float(sum_sq / (2.0 * variance) + 0.5 * n * log_var)
            value_grads.append(values / variance)
            log_var_grads.append(float(-sum_sq / (2.0 * variance) + 0.5 * n))
    return penalty, value_grads, log_var_grads


def prior_penalty(effects: EffectsParams) -> float:
    """The prior term of the objective (see `prior_backward`)."""
    penalty, _, _ = prior_backward(effects)
    return penalty


def cell_link_values(cells: np.ndarray, factors: FactorParams | np.ndarray) -> np.ndarray:
    """Latent nu per cell (rows of ``cells``): the logit of the clamped
    forward probability, or the given free nu array itself."""
    if isinstance(factors, np.ndarray):
        return factors
    pn = negraising_from_probs(
        factors.probabilities(), cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3]
    )
    return logit(np.clip(pn, PROB_CLAMP, 1.0 - PROB_CLAMP))


def _check_cells(table: ResponseTable, cells: AcceptabilityCells) -> None:
    if cells.alpha.shape[0] != table.n_cells:
        raise ConsistencyError(
            f"alpha has {cells.alpha.shape[0]} cells, table has {table.n_cells}"
        )


def negraising_record_losses(table: ResponseTable, factors: FactorParams | np.ndarray,
                             effects: EffectsParams, cells: AcceptabilityCells) -> np.ndarray:
    """Per-record weighted divergence alpha' * D(r || r_hat).

    ``factors`` may be one free nu per cell instead of factor logits (the
    latent that normalization fits in their place).
    """
    _check_cells(table, cells)
    nu = cell_link_values(table.cells, factors)
    each, _, _ = channel_losses(nu[table.cell_idx], table.part_idx, table.negraising,
                                effects.beta0, effects.sigma0, effects.beta, effects.sigma)
    return cells.weights()[table.cell_idx] * each


def acceptability_record_losses(table: ResponseTable, effects: EffectsParams,
                                cells: AcceptabilityCells) -> np.ndarray:
    """Per-record divergence D(a || a_hat) for the acceptability channel."""
    _check_cells(table, cells)
    each, _, _ = channel_losses(cells.alpha[table.cell_idx], table.part_idx, table.acceptability,
                                effects.beta0_acc, effects.sigma0_acc,
                                effects.beta_acc, effects.sigma_acc)
    return each


def total_loss(table: ResponseTable, factors: FactorParams | np.ndarray, effects: EffectsParams,
               cells: AcceptabilityCells, *, nr_mask: np.ndarray | None = None) -> float:
    """Full objective: weighted neg-raising and acceptability divergences plus priors.

    The per-cell weights alpha' enter as constants here and in the gradient;
    alpha receives gradients only through the acceptability channel, so the
    optimizer cannot zero out the neg-raising loss by driving weights down.

    Args:
        factors: the factor logits, or one free nu per cell (the latent
            that normalization fits in their place).
        nr_mask: boolean record mask restricting the neg-raising term (the
            acceptability term always covers every record).
    """
    acc = acceptability_record_losses(table, effects, cells)
    nr = negraising_record_losses(table, factors, effects, cells)
    if nr_mask is not None:
        nr = nr[nr_mask]
    return float(np.sum(nr)) + float(np.sum(acc)) + prior_penalty(effects)
