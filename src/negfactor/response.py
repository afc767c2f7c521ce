"""Response links, participant effects, and the weighted divergence loss.

Both slider channels share the same link shape: the latent cell value is
scaled by a per-participant factor exp(sigma0 + sigma_l), shifted by
beta0 + beta_l, and squashed through the inverse logit. The neg-raising
channel reads its latent value nu off the factor model
(`factorization.link_values`); the acceptability channel optimizes one
free alpha per cell, whose inverse logit also serves as that cell's
weight on the neg-raising loss.

The link and the divergence are each written once here, and so are the
sigmoid `expit` and its inverse `logit`, in numpy, which every module of
the package imports from here. The one objective (`optim`, which adds the
prior on the random effects), the scoring of saved models and the
synthesis of planted tables (`dataset.generate_synthetic`) reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PREDICTION_CLAMP = 1e-15


@np.errstate(over="ignore")
def expit(x, out=None):
    """The sigmoid 1 / (1 + exp(-x)), bit for bit; a scalar gives an np.float64.

    It fills ``out`` in place (a new array if None), which may be ``x``
    itself. Below x = -709, exp(-x) overflows and the result is 0, without
    a warning.
    """
    x = np.asarray(x, dtype=float)
    out = np.negative(x, out=np.empty_like(x) if out is None else out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out[()]


def logit(p):
    """The inverse of ``expit``, log(p / (1 - p)), for p inside (0, 1)."""
    return np.log(p / (1.0 - p))


@dataclass
class EffectsParams:
    """Fixed and per-participant link parameters for both channels.

    ``beta``/``sigma`` hold per-participant shift and log-scale offsets for
    the neg-raising channel; the ``_acc`` fields are their acceptability
    counterparts. The scalar fields, the fixed effects beta0, sigma0,
    beta0_acc, sigma0_acc and the four random-effect log-variances, have
    no slot in the optimizer's layout (`optim.ParameterPack`), so a
    fit holds them at their start, 0; the link and the prior still read
    them.
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
    """logit^-1(exp(sigma0 + sigma_l) v + beta0 + beta_l), and the scale exp(sigma0 + sigma_l).

    ``participant`` holds one entry per record and ``values`` one per
    record or one for all.
    """
    scale = np.exp(sigma0 + sigma)[participant]
    z = scale * values
    z += beta0
    z += beta[participant]
    return expit(z, out=z), scale


def _divergence(r, complement, r_hat):
    """D(r || r_hat) = r log(r / r_hat) + (1 - r) log((1 - r) / (1 - r_hat))
    of Bernoulli distributions, where ``complement`` is 1 - r.

    Each term is computed in one buffer of its own; a scalar gives an
    np.float64.
    """
    shape = np.broadcast_shapes(np.shape(r), np.shape(r_hat))
    each = np.divide(r, r_hat, out=np.empty(shape))
    np.log(each, out=each)
    each *= r
    other = np.subtract(1.0, r_hat, out=np.empty(shape))
    np.divide(complement, other, out=other)
    np.log(other, out=other)
    other *= complement
    each += other
    return each[()]


def channel_losses(values, participant, responses, complement, beta0, sigma0, beta, sigma):
    """Per-record D(r || r_hat) of one response channel.

    ``values`` holds each record's latent (nu or alpha), ``complement`` is
    1 - ``responses``, and r_hat is the link prediction clamped to
    [PREDICTION_CLAMP, 1 - PREDICTION_CLAMP]. Also returns the unclamped
    prediction and the scale, which the gradient needs.
    """
    pred, scale = _link(values, participant, beta0, sigma0, beta, sigma)
    pred_c = np.clip(pred, PREDICTION_CLAMP, 1.0 - PREDICTION_CLAMP)
    return _divergence(responses, complement, pred_c), pred, scale
