"""Latent boolean factor model of per-cell inference probabilities.

Every latent entry (a verb bearing lexical property i, structural property
t projecting onto frame f, a property licensing the inference for a given
subject and tense) is an independent Bernoulli variable. A cell's inference
probability is the probability that at least one (structural, lexical)
property pairing has all five of its participating entries true:

    P(cell) = 1 - prod_{t,i} (1 - P(lambda) P(pi) P(omega) P(psi) P(phi))

Sides requested with zero properties are frozen to a single always-true
property, which contributes multiplicative ones.

`link_values` is the one forward pass from factor logits to the latent
nu of each cell, the logit of its clamped probability; fitting, the
scoring of saved models and synthesis all read nu from it. Its backward
pass uses two identities: the derivative of the cell probability with
respect to one pairing term zeta is the product of all other (1 - zeta)
factors, computed stably as exp(sum log1p(-zeta) - log1p(-zeta_own)); and
the derivative of a probability with respect to its logit is p (1 - p).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionError
from .response import expit, logit

MAX_PROPERTIES = 4
# a cell probability is clamped to [PROB_CLAMP, 1 - PROB_CLAMP] before its logit
PROB_CLAMP = 1e-7


def require_integers(settings, error: type[Exception]) -> None:
    """Raise ``error`` unless every ``int`` field of the dataclass
    ``settings`` holds an integer, and store each as a Python int."""
    for name in (f.name for f in fields(settings) if f.type == "int"):
        try:
            object.__setattr__(settings, name, operator.index(getattr(settings, name)))
        except TypeError:
            raise error(f"{name} must be an integer") from None


@dataclass(frozen=True)
class Hyperparams:
    """Number of latent lexical and structural properties; not both zero."""

    n_lexical: int
    n_structural: int

    def __post_init__(self):
        require_integers(self, DimensionError)
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
    branches on boundary models. `pair_events` also returns one holding
    each factor's entries at m cells, every array (m, eff).
    """

    lambda_: np.ndarray  # (n_verbs, eff_structural)
    pi: np.ndarray       # (eff_structural, n_frames)
    omega: np.ndarray    # (eff_structural, 2, 2)
    psi: np.ndarray      # (n_verbs, eff_lexical)
    phi: np.ndarray      # (eff_lexical, 2, 2)


# Each factor array's slot name (in the flat parameter layout and the
# model JSON) and its FactorParams field. The order is that of the
# FactorProbs and PlantedFactors fields and of random draws.
FACTOR_SLOTS = {
    "lambda": "lambda_logits",
    "pi": "pi_logits",
    "omega": "omega_logits",
    "psi": "psi_logits",
    "phi": "phi_logits",
}


def factor_shapes(hyper: Hyperparams, n_verbs: int, n_frames: int) -> dict[str, tuple[int, ...]]:
    """Shape of each slot's array; the arrays of a frozen side have size zero."""
    n_t, n_i = hyper.n_structural, hyper.n_lexical
    return {
        "lambda": (n_verbs, n_t),
        "pi": (n_t, n_frames),
        "omega": (n_t, 2, 2),
        "psi": (n_verbs, n_i),
        "phi": (n_i, 2, 2),
    }


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
        arrays = self.arrays()
        for slot, shape in self.shapes().items():
            name, arr = FACTOR_SLOTS[slot], arrays[slot]
            if math.prod(shape) == 0:
                if arr is not None:
                    raise DimensionError(f"{name} must be None for a frozen side")
            elif arr is None:
                raise DimensionError(f"{name} is required when its side is active")
            elif np.shape(arr) != shape:
                raise DimensionError(f"{name} has shape {np.shape(arr)}, expected {shape}")

    @classmethod
    def random(cls, hyper: Hyperparams, n_verbs: int, n_frames: int, rng: np.random.Generator,
               scale: float) -> "FactorParams":
        """Logits drawn from Normal(0, scale^2); frozen sides stay None."""
        return cls(hyper, n_verbs, n_frames, **{
            FACTOR_SLOTS[slot]: rng.normal(0.0, scale, size=shape) if math.prod(shape) else None
            for slot, shape in factor_shapes(hyper, n_verbs, n_frames).items()
        })

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return factor_shapes(self.hyper, self.n_verbs, self.n_frames)

    def arrays(self) -> dict[str, np.ndarray | None]:
        """Each slot's logit array, None for a frozen side."""
        return {slot: getattr(self, field) for slot, field in FACTOR_SLOTS.items()}

    def probabilities(self) -> FactorProbs:
        # a frozen side becomes one always-true property: its zero-size
        # property axis widens to size one
        return FactorProbs(*(
            np.ones(tuple(max(d, 1) for d in shape)) if logits is None else expit(logits)
            for logits, shape in zip(self.arrays().values(), self.shapes().values())
        ))


def pair_events(probs: FactorProbs, v, f, j, k):
    """The factorization kernel for index arrays of m cells.

    Returns each factor's probabilities at the cells (a FactorProbs of
    (m, eff) arrays), the structural products a (m, eff_t), the lexical
    products b (m, eff_i), log(1 - zeta) for every pair event
    zeta = a_t b_i (m, eff_t, eff_i), and its sum over the pairs: the
    log-probability that no pair fires.
    """
    at = FactorProbs(probs.lambda_[v], probs.pi[:, f].T, probs.omega[:, j, k].T,
                     probs.psi[v], probs.phi[:, j, k].T)
    a = at.lambda_ * at.pi * at.omega
    b = at.psi * at.phi
    zeta = a[:, :, None] * b[:, None, :]
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-zeta)
    return at, a, b, log_miss, log_miss.sum(axis=(1, 2))


def _scatter(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n, k) sums of the (m, k) rows of ``values`` grouped by ``index``,
    added in row order like ``np.add.at``, so bit-identical to it."""
    k = values.shape[1]
    flat = (index[:, None] * k + np.arange(k)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * k).reshape(n, k)


def link_values(factors: FactorParams, cells: np.ndarray):
    """The forward pass from factor logits to the latent nu of each cell
    (rows of ``cells``): the logit of its probability clamped to
    [PROB_CLAMP, 1 - PROB_CLAMP].

    Also returns the backward pass, which maps d loss / d nu to the
    gradient of each active slot's logits, keyed by slot.
    """
    probs = factors.probabilities()
    cv, cf, cj, ck = (cells[:, i] for i in range(4))
    at, a, b, log_miss, s = pair_events(probs, cv, cf, cj, ck)
    pn = -np.expm1(s)
    pn_c = np.clip(pn, PROB_CLAMP, 1.0 - PROB_CLAMP)

    def backward(g_nu: np.ndarray) -> dict[str, np.ndarray]:
        # chain g_nu back through the clamped logit and the factorization
        active = (pn >= PROB_CLAMP) & (pn <= 1.0 - PROB_CLAMP)
        g_pn = np.where(active, g_nu / (pn_c * (1.0 - pn_c)), 0.0)
        with np.errstate(invalid="ignore", over="ignore"):
            others = np.exp(s[:, None, None] - log_miss)
        g_zeta = g_pn[:, None, None] * others
        g_zeta[~active] = 0.0
        g_a = (g_zeta * b[:, None, :]).sum(axis=2)
        g_b = (g_zeta * a[:, :, None]).sum(axis=1)
        grads = {}
        if factors.hyper.n_structural:
            n_t = factors.hyper.n_structural
            g_lambda = _scatter(cv, g_a * at.pi * at.omega, factors.n_verbs)
            g_pi = _scatter(cf, g_a * at.lambda_ * at.omega, factors.n_frames)
            g_omega = _scatter(cj * 2 + ck, g_a * at.lambda_ * at.pi, 4)
            lam, pi, om = probs.lambda_, probs.pi, probs.omega
            grads["lambda"] = g_lambda * lam * (1.0 - lam)
            grads["pi"] = g_pi.T * pi * (1.0 - pi)
            grads["omega"] = g_omega.T.reshape(n_t, 2, 2) * om * (1.0 - om)
        if factors.hyper.n_lexical:
            n_i = factors.hyper.n_lexical
            g_psi = _scatter(cv, g_b * at.phi, factors.n_verbs)
            g_phi = _scatter(cj * 2 + ck, g_b * at.psi, 4)
            psi, phi = probs.psi, probs.phi
            grads["psi"] = g_psi * psi * (1.0 - psi)
            grads["phi"] = g_phi.T.reshape(n_i, 2, 2) * phi * (1.0 - phi)
        return grads

    return logit(pn_c), backward
