"""Latent boolean factor model of per-cell inference probabilities.

Every latent entry (a verb bearing lexical property i, structural property
t projecting onto frame f, a property licensing the inference for a given
subject and tense) is an independent Bernoulli variable. A cell's inference
probability is the probability that at least one (structural, lexical)
property pairing has all five of its participating entries true:

    P(cell) = 1 - prod_{t,i} (1 - P(lambda) P(pi) P(omega) P(psi) P(phi))

Sides requested with zero properties are frozen to a single always-true
property, which contributes multiplicative ones.

`CellLink.values` is the one forward pass from factor probabilities to
the latent nu of each cell, the logit of its clamped probability. A fit
builds one `CellLink` for its cells and runs it at every evaluation; the
scoring of saved models and synthesis read nu from it through
`link_values`. Its arrays put the cell axis last, so each operation runs
along the m cells, not along |T| or |I| (at most 4): log(1 - zeta) of
every pair event is one (|T|, |I|, m) array, summed over the events in
the order numpy's ``sum(axis=(1, 2))`` adds a cells-first array, which
keeps fits bit for bit equal to earlier versions. The backward pass
uses two identities: the derivative of the cell probability with respect
to one pairing term zeta is the product of all other (1 - zeta)
factors, computed stably as exp(sum log1p(-zeta) - log1p(-zeta_own)) in
place of that array; and the derivative of a probability with respect
to its logit is p (1 - p).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionError
from .response import expit, logit

MAX_PROPERTIES = 4
# a cell probability is clamped to [PROB_CLAMP, 1 - PROB_CLAMP] before its logit
PROB_CLAMP = 1e-7


def require_numbers(settings, error: type[Exception]) -> None:
    """Raise ``error`` unless every ``int`` field of the dataclass
    ``settings`` holds an integer and every ``float`` field a real number,
    neither a bool, and store each integer as a Python int (a float stays
    as given)."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if f.type == "float" and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise error(f"{f.name} must be a number")
        if f.type != "int":
            continue
        try:
            if isinstance(value, bool):  # which operator.index takes as 0 or 1
                raise TypeError
            object.__setattr__(settings, f.name, operator.index(value))
        except TypeError:
            raise error(f"{f.name} must be an integer") from None


@dataclass(frozen=True)
class Hyperparams:
    """Number of latent lexical and structural properties; not both zero."""

    n_lexical: int
    n_structural: int

    def __post_init__(self):
        require_numbers(self, DimensionError)
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

    @classmethod
    def widened(cls, shapes: dict[str, tuple[int, ...]],
                probs: dict[str, np.ndarray]) -> "FactorProbs":
        """Each slot's array of ``probs``, keyed by slot; a slot it lacks (a
        frozen side, whose ``shapes`` entry has size zero) becomes one
        always-true property: ones, its property axis widened to size one."""
        return cls(*(probs[slot] if slot in probs else np.ones(tuple(max(d, 1) for d in shape))
                     for slot, shape in shapes.items()))


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
        return FactorProbs.widened(self.shapes(), {
            slot: expit(logits) for slot, logits in self.arrays().items() if logits is not None
        })


def _sum_pair_events(rows: np.ndarray) -> np.ndarray:
    """The sum of the n <= 16 rows of ``rows``, one per pair event, in the
    order numpy sums a contiguous run of n numbers: one by one below 8;
    otherwise eight running sums, x_j + x_{j+8} where both are present,
    added as a tree, then the rows past the last full 8 one by one."""
    n = len(rows)
    if n < 8:
        s, rest = rows[0].copy(), rows[1:]
    else:
        r = rows[:8] if n < 16 else rows[:8] + rows[8:16]
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        s, rest = r[0] + r[1], rows[n - n % 8:]
    for row in rest:
        s += row
    return s


class CellLink:
    """The forward pass from factor probabilities to the latent nu of each
    row of ``cells``: the logit of its probability clamped to
    [PROB_CLAMP, 1 - PROB_CLAMP].

    It holds what depends only on the cells, so a fit builds one and calls
    `values` at every evaluation: each slot's (k, m) index of its k
    properties at the m cells into its raveled probabilities, which
    gathers the forward pass's entries and bins the backward pass's sums.
    """

    def __init__(self, hyper: Hyperparams, n_verbs: int, n_frames: int, cells: np.ndarray):
        self.hyper = hyper
        cv, cf, cj, ck = (cells[:, i] for i in range(4))
        subject_tense = cj * 2 + ck
        t, i = (np.arange(max(n, 1))[:, None] for n in (hyper.n_structural, hyper.n_lexical))
        # lambda and psi are (verb, property); the others put properties first
        self.index = {"lambda": cv * len(t) + t, "pi": t * n_frames + cf,
                      "omega": t * 4 + subject_tense, "psi": cv * len(i) + i,
                      "phi": i * 4 + subject_tense}

    def values(self, probs: FactorProbs):
        """nu of each cell under ``probs``, and the backward pass.

        ``backward(g_nu, grads)`` chains d loss / d nu back to the logits
        and writes each active slot's gradient into ``grads[slot]``; it
        reuses the forward pass's pair-event array, so call it at most once.
        Run it under ``np.errstate(invalid="ignore", over="ignore")``: a
        pair event of probability one overflows the product of the others.
        """
        by_slot = dict(zip(FACTOR_SLOTS, vars(probs).values()))
        lambda_, pi, omega, psi, phi = (np.take(p, self.index[slot]) for slot, p in by_slot.items())
        a = lambda_ * pi * omega  # (|T|, m)
        b = psi * phi             # (|I|, m)
        # log(1 - zeta) of each pair event zeta = a_t b_i, (|T|, |I|, m)
        log_miss = np.multiply(a[:, None], -b)
        with np.errstate(divide="ignore"):
            np.log1p(log_miss, out=log_miss)
        s = _sum_pair_events(log_miss.reshape(-1, log_miss.shape[-1]))
        pn = -np.expm1(s)
        pn_c = np.clip(pn, PROB_CLAMP, 1.0 - PROB_CLAMP)

        def backward(g_nu: np.ndarray, grads: dict[str, np.ndarray]) -> None:
            def write(slot, g_at):
                # g_at holds d loss / d (the slot's probabilities at each cell)
                p, out = by_slot[slot], grads[slot]
                g = np.bincount(self.index[slot].ravel(), weights=g_at.ravel(), minlength=p.size)
                np.multiply(g.reshape(p.shape), p, out=out)
                out *= 1.0 - p

            # chain g_nu back through the clamped logit and the factorization
            active = (pn >= PROB_CLAMP) & (pn <= 1.0 - PROB_CLAMP)
            g_pn = np.where(active, g_nu / (pn_c * (1.0 - pn_c)), 0.0)
            g_zeta = np.subtract(s, log_miss, out=log_miss)
            np.exp(g_zeta, out=g_zeta)
            g_zeta *= g_pn
            g_zeta[..., ~active] = 0.0
            g_a, g_b = g_zeta[:, 0] * b[0], g_zeta[0] * a[0]
            for i in range(1, len(b)):
                g_a += g_zeta[:, i] * b[i]
            for t in range(1, len(a)):
                g_b += g_zeta[t] * a[t]
            if self.hyper.n_structural:
                write("lambda", g_a * pi * omega)
                write("pi", g_a * lambda_ * omega)
                write("omega", g_a * lambda_ * pi)
            if self.hyper.n_lexical:
                write("psi", g_b * phi)
                write("phi", g_b * psi)

        return logit(pn_c), backward


def link_values(factors: FactorParams, cells: np.ndarray) -> np.ndarray:
    """The latent nu of each row of ``cells`` under the factor logits
    ``factors``, by `CellLink`."""
    link = CellLink(factors.hyper, factors.n_verbs, factors.n_frames, cells)
    return link.values(factors.probabilities())[0]
