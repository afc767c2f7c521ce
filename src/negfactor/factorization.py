"""Latent boolean factor model of per-cell inference probabilities.

Every latent entry (a verb bearing lexical property i, structural property
t projecting onto frame f, a property licensing the inference for a given
subject and tense) is an independent Bernoulli variable. A cell's inference
probability is the probability that at least one (structural, lexical)
property pairing has all five of its participating entries true:

    P(cell) = 1 - prod_{t,i} (1 - P(lambda) P(pi) P(omega) P(psi) P(phi))

Sides requested with zero properties are frozen to a single always-true
property, which contributes multiplicative ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .errors import CapacityError, DimensionError

MAX_PROPERTIES = 4
ORACLE_PAIR_BUDGET = 12


@dataclass(frozen=True)
class Hyperparams:
    """Number of latent lexical and structural properties; not both zero."""

    n_lexical: int
    n_structural: int

    def __post_init__(self):
        for name, value in (("n_lexical", self.n_lexical), ("n_structural", self.n_structural)):
            if not 0 <= value <= MAX_PROPERTIES:
                raise DimensionError(f"{name} must be in 0..{MAX_PROPERTIES}, got {value}")
        if self.n_lexical == 0 and self.n_structural == 0:
            raise DimensionError("at least one of n_lexical, n_structural must be positive")

    def as_tuple(self) -> tuple[int, int]:
        return (self.n_lexical, self.n_structural)

    def representative(self) -> Hyperparams:
        """The grid point that stands for this point's prediction class.

        (0, t) and (1, t), for t >= 1, predict the same cell probabilities.
        A (1, t) model maps onto a (0, t) model by absorbing the single
        lexical property into the structural side,

            lambda'_vt = lambda_vt * psi_v,    omega'_tjk = omega_tjk * phi_jk,

        which leaves every pair event's product unchanged; a (0, t) model is
        the limit psi = phi = 1 of (1, t) models. Both belong to the class
        of (1, t); every other point is a class of its own.
        """
        if self.n_lexical == 0:
            return Hyperparams(1, self.n_structural)
        return self


@dataclass
class FactorProbs:
    """Probability-scale factor arrays with frozen sides widened to ones.

    Shapes use the effective dimensions max(n, 1), so downstream code never
    branches on boundary models.
    """

    lambda_: np.ndarray  # (n_verbs, eff_structural)
    pi: np.ndarray       # (eff_structural, n_frames)
    omega: np.ndarray    # (eff_structural, 2, 2)
    psi: np.ndarray      # (n_verbs, eff_lexical)
    phi: np.ndarray      # (eff_lexical, 2, 2)


def _check_shape(name: str, arr: np.ndarray | None, shape: tuple[int, ...], frozen: bool):
    if frozen:
        if arr is not None:
            raise DimensionError(f"{name} must be None for a frozen side")
        return
    if arr is None:
        raise DimensionError(f"{name} is required when its side is active")
    if arr.shape != shape:
        raise DimensionError(f"{name} has shape {arr.shape}, expected {shape}")


@dataclass
class FactorParams:
    """Unconstrained logits for the five factor arrays.

    A side with zero requested properties stores None and is treated as a
    single property with probability exactly 1 (never optimized).
    """

    hyper: Hyperparams
    n_verbs: int
    n_frames: int
    lambda_logits: np.ndarray | None
    pi_logits: np.ndarray | None
    omega_logits: np.ndarray | None
    psi_logits: np.ndarray | None
    phi_logits: np.ndarray | None

    def __post_init__(self):
        if self.n_verbs <= 0 or self.n_frames <= 0:
            raise DimensionError("n_verbs and n_frames must be positive")
        n_t, n_i = self.hyper.n_structural, self.hyper.n_lexical
        _check_shape("lambda_logits", self.lambda_logits, (self.n_verbs, n_t), n_t == 0)
        _check_shape("pi_logits", self.pi_logits, (n_t, self.n_frames), n_t == 0)
        _check_shape("omega_logits", self.omega_logits, (n_t, 2, 2), n_t == 0)
        _check_shape("psi_logits", self.psi_logits, (self.n_verbs, n_i), n_i == 0)
        _check_shape("phi_logits", self.phi_logits, (n_i, 2, 2), n_i == 0)

    @classmethod
    def random(cls, hyper: Hyperparams, n_verbs: int, n_frames: int, rng: np.random.Generator,
               scale: float = 0.5) -> "FactorParams":
        """Logits drawn from Normal(0, scale^2); frozen sides stay None."""
        n_t, n_i = hyper.n_structural, hyper.n_lexical

        def draw(*shape):
            return rng.normal(0.0, scale, size=shape)

        return cls(
            hyper=hyper,
            n_verbs=n_verbs,
            n_frames=n_frames,
            lambda_logits=draw(n_verbs, n_t) if n_t else None,
            pi_logits=draw(n_t, n_frames) if n_t else None,
            omega_logits=draw(n_t, 2, 2) if n_t else None,
            psi_logits=draw(n_verbs, n_i) if n_i else None,
            phi_logits=draw(n_i, 2, 2) if n_i else None,
        )

    @classmethod
    def from_probabilities(cls, hyper: Hyperparams, n_verbs: int, n_frames: int,
                           lambda_=None, pi=None, omega=None, psi=None, phi=None) -> "FactorParams":
        """Build params whose logistic transforms equal the given probabilities."""

        def to_logits(p):
            return None if p is None else logit(np.asarray(p, dtype=float))

        return cls(
            hyper=hyper,
            n_verbs=n_verbs,
            n_frames=n_frames,
            lambda_logits=to_logits(lambda_),
            pi_logits=to_logits(pi),
            omega_logits=to_logits(omega),
            psi_logits=to_logits(psi),
            phi_logits=to_logits(phi),
        )

    def probabilities(self) -> FactorProbs:
        n_t, n_i = self.hyper.n_structural, self.hyper.n_lexical
        if n_t:
            lam, pi, omega = expit(self.lambda_logits), expit(self.pi_logits), expit(self.omega_logits)
        else:
            lam = np.ones((self.n_verbs, 1))
            pi = np.ones((1, self.n_frames))
            omega = np.ones((1, 2, 2))
        if n_i:
            psi, phi = expit(self.psi_logits), expit(self.phi_logits)
        else:
            psi = np.ones((self.n_verbs, 1))
            phi = np.ones((1, 2, 2))
        return FactorProbs(lambda_=lam, pi=pi, omega=omega, psi=psi, phi=phi)


def _as_index_arrays(*indices):
    arrays = [np.asarray(ix) for ix in indices]
    scalar = all(a.ndim == 0 for a in arrays)
    arrays = np.broadcast_arrays(*[np.atleast_1d(a) for a in arrays])
    return arrays, scalar


def negraising_from_probs(probs: FactorProbs, v, f, j, k):
    """Cell probabilities for index arrays, on probability-scale factors."""
    (v, f, j, k), scalar = _as_index_arrays(v, f, j, k)
    a = probs.lambda_[v] * probs.pi[:, f].T * probs.omega[:, j, k].T  # (m, eff_t)
    b = probs.psi[v] * probs.phi[:, j, k].T                           # (m, eff_i)
    zeta = a[:, :, None] * b[:, None, :]
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-zeta)
    out = -np.expm1(log_miss.sum(axis=(1, 2)))
    return float(out[0]) if scalar else out


def forward_negraising(params: FactorParams, v, f, j, k):
    """P(inference) for cell(s) (v, f, j, k); scalar ids or index arrays.

    Returns raw probabilities in [0, 1]. The response link clamps them
    away from the endpoints before taking logits.
    """
    return negraising_from_probs(params.probabilities(), v, f, j, k)


def negraising_grid(params: FactorParams) -> np.ndarray:
    """Dense (n_verbs, n_frames, 2, 2) array of cell probabilities."""
    probs = params.probabilities()
    a = (
        probs.lambda_[:, None, None, None, :]
        * probs.pi.T[None, :, None, None, :]
        * np.transpose(probs.omega, (1, 2, 0))[None, None, :, :, :]
    )  # (V, F, 2, 2, eff_t)
    b = (
        probs.psi[:, None, None, :]
        * np.transpose(probs.phi, (1, 2, 0))[None, :, :, :]
    )  # (V, 2, 2, eff_i)
    zeta = a[..., :, None] * b[:, None, :, :, None, :]
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-zeta)
    return -np.expm1(log_miss.sum(axis=(4, 5)))


def enumeration_oracle(params: FactorParams, v: int, f: int, j: int, k: int) -> float:
    """Exact cell probability by exhaustive boolean enumeration.

    The model takes each pairing event (t, i) to fire independently with
    probability zeta = P(lambda) P(pi) P(omega) P(psi) P(phi); the cell
    probability is that at least one pairing fires. This routine sums the
    Bernoulli weight of every one of the 2^(T_eff * I_eff) joint assignments
    to the pairing events where some pairing is on, with exactly-rounded
    accumulation. Exponentially slow by construction; refuses dimension
    pairs past the enumeration budget.
    """
    if params.hyper.n_lexical * params.hyper.n_structural > ORACLE_PAIR_BUDGET:
        raise CapacityError(
            f"enumeration over n_lexical*n_structural = "
            f"{params.hyper.n_lexical * params.hyper.n_structural} > {ORACLE_PAIR_BUDGET}"
        )
    probs = params.probabilities()
    structural = probs.lambda_[v] * probs.pi[:, f] * probs.omega[:, j, k]
    lexical = probs.psi[v] * probs.phi[:, j, k]
    zeta = (structural[:, None] * lexical[None, :]).ravel()
    n_pairs = zeta.size
    states = (np.arange(1, 2 ** n_pairs, dtype=np.int64)[:, None] >> np.arange(n_pairs)) & 1
    weights = np.where(states == 1, zeta, 1.0 - zeta).prod(axis=1)
    return math.fsum(weights.tolist())
