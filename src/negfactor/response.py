"""Response links, participant effects, and the weighted divergence loss.

Both slider channels share the same link shape: the latent cell value is
scaled by a per-participant factor exp(sigma0 + sigma_l), shifted by
beta0 + beta_l, and squashed through the inverse logit. The neg-raising
channel reads its latent value nu off the factor model
(`factorization.link_values`); the acceptability channel optimizes one
free alpha per cell, whose inverse logit also serves as that cell's
weight on the neg-raising loss.

The link and the divergence are each written once here. The one
objective (`optim`, which adds the prior on the random effects) and the
scoring of saved models reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

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
