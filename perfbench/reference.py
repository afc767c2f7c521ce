"""Reference objective, written apart from negfactor, for checking its losses.

Nothing here calls the package. The cell probability is the plain product
1 - prod_{t,i} (1 - zeta_ti) over pairing events, and `enumerated_probability`
checks that product by summing every joint on/off state of the events. The
Bernoulli divergence uses scipy's `rel_entr`, and the Gaussian prior is the
full normal density from `scipy.stats.norm`, less the constant (n/2) log 2 pi
that negfactor's objective leaves out.

The two clamps are part of the model's definition: a cell probability is
clamped to [1e-7, 1 - 1e-7] before its logit, and a predicted response to
[1e-15, 1 - 1e-15] before the divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr
from scipy.stats import norm

PROB_CLAMP = 1e-7
PREDICTION_CLAMP = 1e-15


def sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def _side(logits, ones_shape):
    """Probabilities of one factor array; a frozen side is a single always-true property."""
    return np.ones(ones_shape) if logits is None else sigmoid(logits)


def pair_events(factors, cells: np.ndarray) -> np.ndarray:
    """zeta[c, t, i]: probability that pairing (t, i) fires in cell c = (v, f, j, k)."""
    n_verbs, n_frames = factors.n_verbs, factors.n_frames
    lam = _side(factors.lambda_logits, (n_verbs, 1))
    pi = _side(factors.pi_logits, (1, n_frames))
    omega = _side(factors.omega_logits, (1, 2, 2))
    psi = _side(factors.psi_logits, (n_verbs, 1))
    phi = _side(factors.phi_logits, (1, 2, 2))
    v, f, j, k = (cells[:, n] for n in range(4))
    structural = lam[v] * pi[:, f].T * omega[:, j, k].T
    lexical = psi[v] * phi[:, j, k].T
    return structural[:, :, None] * lexical[:, None, :]


def cell_probabilities(factors, cells: np.ndarray) -> np.ndarray:
    """P(some pairing fires) per cell, as the plain product over pairings."""
    return 1.0 - np.prod(1.0 - pair_events(factors, cells), axis=(1, 2))


def enumerated_probability(zeta: np.ndarray) -> float:
    """P(some pairing fires) for one cell, summed over every joint on/off state."""
    z = zeta.ravel()
    # every state but the one where no pairing fires, as rows of on/off bits
    states = ((np.arange(1, 2 ** z.size)[:, None] >> np.arange(z.size)) & 1).astype(bool)
    return math.fsum(np.where(states, z, 1.0 - z).prod(axis=1).tolist())


def link_values(factors, cells: np.ndarray) -> np.ndarray:
    """Latent nu per cell: the logit of the clamped cell probability."""
    p = np.clip(cell_probabilities(factors, cells), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return np.log(p) - np.log1p(-p)


def bernoulli_kl(r, r_hat):
    r_hat = np.clip(r_hat, PREDICTION_CLAMP, 1.0 - PREDICTION_CLAMP)
    return rel_entr(r, r_hat) + rel_entr(1.0 - r, 1.0 - r_hat)


def gaussian_prior(values: np.ndarray, log_var: float) -> float:
    """-log N(values | 0, exp(log_var)), less (n/2) log 2 pi."""
    sd = math.exp(0.5 * log_var)
    density = -math.fsum(norm.logpdf(values, loc=0.0, scale=sd).tolist())
    return density - 0.5 * values.size * math.log(2.0 * math.pi)


@dataclass
class Terms:
    """The objective split into its three terms."""

    negraising: float
    acceptability: float
    prior: float

    @property
    def total(self) -> float:
        return self.negraising + self.acceptability + self.prior

    @property
    def scale(self) -> float:
        """Sum of the terms' magnitudes, the yardstick for comparing totals."""
        return abs(self.negraising) + abs(self.acceptability) + abs(self.prior)


def objective(table, nu: np.ndarray, alpha: np.ndarray, effects,
              nr_mask: np.ndarray | None = None) -> Terms:
    """Weighted neg-raising and acceptability divergences plus the prior.

    ``nu`` and ``alpha`` hold one latent per table cell; expit(alpha) weights
    each cell's neg-raising divergence. ``nr_mask`` keeps only the selected
    records in the neg-raising term.
    """
    cell, part = table.cell_idx, table.part_idx
    e = effects
    r_hat = sigmoid(np.exp(e.sigma0 + e.sigma[part]) * nu[cell] + e.beta0 + e.beta[part])
    nr = sigmoid(alpha)[cell] * bernoulli_kl(table.negraising, r_hat)
    if nr_mask is not None:
        nr = nr[nr_mask]
    a_hat = sigmoid(np.exp(e.sigma0_acc + e.sigma_acc[part]) * alpha[cell]
                    + e.beta0_acc + e.beta_acc[part])
    acc = bernoulli_kl(table.acceptability, a_hat)
    prior = (gaussian_prior(e.beta, e.log_var_beta) + gaussian_prior(e.sigma, e.log_var_sigma)
             + gaussian_prior(e.beta_acc, e.log_var_beta_acc)
             + gaussian_prior(e.sigma_acc, e.log_var_sigma_acc))
    return Terms(math.fsum(nr.tolist()), math.fsum(acc.tolist()), prior)


def model_objective(table, model, nr_mask: np.ndarray | None = None) -> Terms:
    """The objective of a fitted model on the table it was fitted to."""
    return objective(table, link_values(model.factors, table.cells), model.alpha,
                     model.effects, nr_mask)


def unseen_participant_losses(model, table) -> np.ndarray:
    """Per-record weighted neg-raising divergence of a model on a table whose
    participants it has never seen, scored with zero participant effects.

    Verbs, frames and cells are matched to the model's by label.
    """
    verb_ids = {name: i for i, name in enumerate(model.verbs)}
    frame_ids = {name: i for i, name in enumerate(model.frames)}
    cells = table.cells.copy()
    cells[:, 0] = np.array([verb_ids[name] for name in table.verbs])[cells[:, 0]]
    cells[:, 1] = np.array([frame_ids[name] for name in table.frames])[cells[:, 1]]
    model_row = {tuple(c): row for row, c in enumerate(model.cells.tolist())}
    rows = np.array([model_row[tuple(c)] for c in cells.tolist()])
    nu = link_values(model.factors, cells)
    e = model.effects
    r_hat = sigmoid(np.exp(e.sigma0) * nu[table.cell_idx] + e.beta0)
    return sigmoid(model.alpha[rows])[table.cell_idx] * bernoulli_kl(table.negraising, r_hat)
