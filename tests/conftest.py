"""Shared fixtures and independent reference routines.

The reference implementations here are deliberately naive (itertools
enumeration, scalar loops, scipy primitives) so that they cannot share
bugs with the vectorized library code they check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import expit, logit, rel_entr

from negfactor.dataset import ResponseTable, FRAME_LABELS
from negfactor import response
from negfactor.factorization import PROB_CLAMP, FactorParams


def reference_or_probability(p_lambda, p_pi, p_omega, p_psi, p_phi) -> float:
    """Exact P(some (t, i) pairing fires), by itertools enumeration.

    Arguments are 1-D probability sequences for one cell: lambda, pi, omega
    over the structural axis, psi, phi over the lexical axis. Pairing
    (t, i) is an independent event of probability
    lambda_t pi_t omega_t psi_i phi_i; this walks every joint on/off
    assignment of the pairings and adds up the weight of those with at
    least one pairing on.
    """
    zetas = [
        float(p_lambda[t]) * float(p_pi[t]) * float(p_omega[t])
        * float(p_psi[i]) * float(p_phi[i])
        for t in range(len(p_lambda))
        for i in range(len(p_psi))
    ]
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(zetas)):
        if any(bits):
            weight = 1.0
            for zeta, bit in zip(zetas, bits):
                weight *= zeta if bit else 1.0 - zeta
            total += weight
    return total


def cell_link_oracle(params: FactorParams, cells, g_nu=None):
    """The cell link written plainly with the cell axis first.

    Each of the m ``cells`` gets its (|T|, |I|) pair events
    zeta = a_t b_i, and log P(no event fires) is their
    ``sum(axis=(1, 2))``. Returns each cell's unclamped probability p, its
    nu = logit(clip(p, PROB_CLAMP, 1 - PROB_CLAMP)) and, given d loss / d nu
    ``g_nu``, each active slot's logit gradient (else None), with the
    per-cell terms added into the factor arrays by ``np.add.at`` in cell
    order. `factorization.CellLink` must give the same bits.
    """
    probs = params.probabilities()
    v, f, j, k = np.asarray(cells).T
    at = {"lambda": probs.lambda_[v], "pi": probs.pi[:, f].T, "omega": probs.omega[:, j, k].T,
          "psi": probs.psi[v], "phi": probs.phi[:, j, k].T}  # each (m, eff)
    a = at["lambda"] * at["pi"] * at["omega"]
    b = at["psi"] * at["phi"]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_miss = np.log1p(-(a[:, :, None] * b[:, None, :]))
        s = log_miss.sum(axis=(1, 2))
        p = -np.expm1(s)
        p_c = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
        if g_nu is None:
            return p, response.logit(p_c), None
        active = (p >= PROB_CLAMP) & (p <= 1.0 - PROB_CLAMP)
        g_p = np.where(active, g_nu / (p_c * (1.0 - p_c)), 0.0)
        g_zeta = np.exp(s[:, None, None] - log_miss) * g_p[:, None, None]
    g_zeta[~active] = 0.0
    g_a = (g_zeta * b[:, None, :]).sum(axis=2)
    g_b = (g_zeta * a[:, :, None]).sum(axis=1)
    g_at = {"lambda": g_a * at["pi"] * at["omega"], "pi": g_a * at["lambda"] * at["omega"],
            "omega": g_a * at["lambda"] * at["pi"], "psi": g_b * at["phi"], "phi": g_b * at["psi"]}
    index = {"lambda": v, "pi": f, "omega": j * 2 + k, "psi": v, "phi": j * 2 + k}
    grads = {}
    for (slot, logits), prob in zip(params.arrays().items(), vars(probs).values()):
        if logits is None:
            continue
        # lambda and psi are (verb, property); the others put properties first
        verb_first = slot in ("lambda", "psi")
        g = np.zeros(prob.shape if verb_first else (prob[0].size, len(prob)))
        np.add.at(g, index[slot], g_at[slot])
        grads[slot] = (g if verb_first else g.T.reshape(prob.shape)) * prob * (1.0 - prob)
    return p, response.logit(p_c), grads


def cell_probability(params: FactorParams, v, f, j, k):
    """The unclamped cell probability at scalar ids (a float) or at
    equal-length index arrays, by `cell_link_oracle`."""
    cells = np.stack(np.broadcast_arrays(*(np.atleast_1d(i) for i in (v, f, j, k))), axis=1)
    out = cell_link_oracle(params, cells)[0]
    return float(out[0]) if np.ndim(v) == 0 else out


def reference_objective(table, latent, effects, alpha, *, weight_alpha=None,
                        nr_mask=None) -> float:
    """The fitted objective written out from its definition, one term per record.

    ``latent`` is factor logits or one free nu per cell. A cell
    probability is 1 - prod(1 - zeta) over the cell's pairing events,
    clamped to [1e-7, 1 - 1e-7] before its logit; predictions are clamped
    to [1e-15, 1 - 1e-15] before the divergence. expit(weight_alpha), by
    default expit(alpha), weights each cell's neg-raising divergence:
    passing a fixed array holds the weights constant, the way the gradient
    treats them. ``nr_mask`` keeps the selected records in the neg-raising
    term. Each random-effect group adds sum(x^2) / (2 v) + (n/2) log v.
    """
    if isinstance(latent, np.ndarray):
        nu = latent
    else:
        probs = latent.probabilities()
        v, f, j, k = table.cells.T
        structural = probs.lambda_[v] * probs.pi[:, f].T * probs.omega[:, j, k].T
        lexical = probs.psi[v] * probs.phi[:, j, k].T
        zeta = structural[:, :, None] * lexical[:, None, :]
        p = -np.expm1(np.log1p(-zeta).sum(axis=(1, 2)))
        nu = logit(np.clip(p, 1e-7, 1 - 1e-7))
    weight_alpha = alpha if weight_alpha is None else weight_alpha
    cell, part, e = table.cell_idx, table.part_idx, effects

    def divergence(r, pred):
        r_hat = np.clip(pred, 1e-15, 1 - 1e-15)
        return rel_entr(r, r_hat) + rel_entr(1.0 - r, 1.0 - r_hat)

    r_hat = expit(np.exp(e.sigma0 + e.sigma[part]) * nu[cell] + e.beta0 + e.beta[part])
    nr = expit(weight_alpha)[cell] * divergence(table.negraising, r_hat)
    if nr_mask is not None:
        nr = nr[nr_mask]
    a_hat = expit(np.exp(e.sigma0_acc + e.sigma_acc[part]) * alpha[cell]
                  + e.beta0_acc + e.beta_acc[part])
    acc = divergence(table.acceptability, a_hat)
    prior = 0.0
    for values, log_var in ((e.beta, e.log_var_beta), (e.sigma, e.log_var_sigma),
                            (e.beta_acc, e.log_var_beta_acc), (e.sigma_acc, e.log_var_sigma_acc)):
        prior += float(np.sum(values ** 2)) / (2.0 * math.exp(log_var)) + values.size / 2 * log_var
    return float(np.sum(nr)) + float(np.sum(acc)) + prior


def random_factor_params(rng, hyper, n_verbs, n_frames, scale=2.0) -> FactorParams:
    """Factor logits drawn wide enough to cover near-0 and near-1 probabilities."""
    return FactorParams.random(hyper, n_verbs, n_frames, rng, scale=scale)


def random_table(rng, n_verbs=3, n_frames=2, n_participants=2, ratings_per_cell=2) -> ResponseTable:
    """A dense random table over every (verb, frame, subject, tense) cell."""
    verbs = tuple(f"v{i:02d}" for i in range(n_verbs))
    frames = tuple(FRAME_LABELS[:n_frames])
    participants = tuple(f"p{i:02d}" for i in range(n_participants))
    v_idx, f_idx, j_idx, k_idx, p_idx = [], [], [], [], []
    for v in range(n_verbs):
        for f in range(n_frames):
            for j in range(2):
                for k in range(2):
                    chosen = rng.choice(n_participants, size=min(ratings_per_cell, n_participants), replace=False)
                    for p in sorted(chosen):
                        v_idx.append(v)
                        f_idx.append(f)
                        j_idx.append(j)
                        k_idx.append(k)
                        p_idx.append(int(p))
    n = len(v_idx)
    return ResponseTable.build(
        verbs=verbs,
        frames=frames,
        participants=participants,
        verb_idx=np.array(v_idx),
        frame_idx=np.array(f_idx),
        subj_idx=np.array(j_idx),
        tense_idx=np.array(k_idx),
        part_idx=np.array(p_idx),
        negraising=rng.uniform(0.05, 0.95, size=n),
        acceptability=rng.uniform(0.05, 0.95, size=n),
    )


def finite_difference_gradient(fun, x, h=1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    grad = np.empty_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (fun(hi) - fun(lo)) / (2.0 * h)
    return grad


def bernoulli_kl_reference(r, r_hat) -> float:
    """Independent Bernoulli KL via scipy's rel_entr."""
    from scipy.special import rel_entr

    return float(rel_entr(r, r_hat) + rel_entr(1.0 - r, 1.0 - r_hat))


def probabilities_to_logits(p):
    from scipy.special import logit

    return logit(np.asarray(p, dtype=float))


def saturated(*shape, value=50.0):
    """Logits that push probabilities to float-exact 0 or 1."""
    return np.full(shape, value)


def identity_link_effects(n_participants):
    from negfactor.response import EffectsParams

    return EffectsParams.zeros(n_participants)


def planted_probability_grid(params) -> np.ndarray:
    """Cell probabilities for every (v, f, j, k), one cell at a time."""
    grid = np.empty((params.n_verbs, params.n_frames, 2, 2))
    for v in range(params.n_verbs):
        for f in range(params.n_frames):
            for j in range(2):
                for k in range(2):
                    grid[v, f, j, k] = cell_probability(params, v, f, j, k)
    return grid


def expit_array(x):
    return expit(np.asarray(x, dtype=float))
