"""Shared fixtures and independent reference routines.

The reference implementations here are deliberately naive (itertools
enumeration, scalar loops, scipy primitives) so that they cannot share
bugs with the vectorized library code they check.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import expit

from negfactor.dataset import ResponseTable, FRAME_LABELS
from negfactor.factorization import FactorParams, Hyperparams


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


def random_factor_params(rng, hyper, n_verbs, n_frames, scale=2.0) -> FactorParams:
    """Factor logits drawn wide enough to cover near-0 and near-1 probabilities."""

    def draw(*shape):
        return rng.normal(0.0, scale, size=shape)

    n_t, n_i = hyper.n_structural, hyper.n_lexical
    return FactorParams(
        hyper=hyper,
        n_verbs=n_verbs,
        n_frames=n_frames,
        lambda_logits=draw(n_verbs, n_t) if n_t else None,
        pi_logits=draw(n_t, n_frames) if n_t else None,
        omega_logits=draw(n_t, 2, 2) if n_t else None,
        psi_logits=draw(n_verbs, n_i) if n_i else None,
        phi_logits=draw(n_i, 2, 2) if n_i else None,
    )


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
    """Cell probabilities for every (v, f, j, k), via the scalar forward path."""
    from negfactor.factorization import forward_negraising

    grid = np.empty((params.n_verbs, params.n_frames, 2, 2))
    for v in range(params.n_verbs):
        for f in range(params.n_frames):
            for j in range(2):
                for k in range(2):
                    grid[v, f, j, k] = forward_negraising(params, v, f, j, k)
    return grid


def expit_array(x):
    return expit(np.asarray(x, dtype=float))
