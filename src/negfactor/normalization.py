"""Per-cell normalization of the raw judgments.

This is the objective that model fitting minimizes, with one free latent
nu per (verb, frame, subject, tense) cell in place of the factorization:
the same response links, random effects, priors, acceptability latents
and weighted KL loss (``optim.ParameterPack`` with no hyperparameters).
The resulting score summarizes a cell's neg-raising strength with
participant variation regressed out.

The reported score is logit^-1(exp(sigma0) * nu) + beta0. With the
intercept added outside the inverse link the score can leave [0, 1]; pass
inside_link=True for the variant logit^-1(exp(sigma0) * nu + beta0),
which is always a probability.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .dataset import ResponseTable, clamp_responses
from .errors import DimensionError
from .optim import FitConfig, ParameterPack, _forward_backward, adam_minimize
from .response import EffectsParams


@dataclass
class NormalizedScores:
    """Fitted free latents and scores, one row per cell."""

    verbs: tuple[str, ...]
    frames: tuple[str, ...]
    cells: np.ndarray
    nu: np.ndarray
    alpha: np.ndarray
    score: np.ndarray
    effects: EffectsParams
    converged: bool
    iterations: int

    def write_csv(self, path) -> None:
        from .dataset import SUBJECT_LABELS, TENSE_LABELS

        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["verb", "frame", "subject", "tense", "nu", "alpha", "score"])
            for row, (v, f, j, k) in enumerate(self.cells):
                writer.writerow([
                    self.verbs[v], self.frames[f],
                    SUBJECT_LABELS[j], TENSE_LABELS[k],
                    repr(float(self.nu[row])),
                    repr(float(self.alpha[row])),
                    repr(float(self.score[row])),
                ])


def normalize(table: ResponseTable, config: FitConfig | None = None,
              inside_link: bool = False) -> NormalizedScores:
    """Fit free per-cell latents against the standard objective.

    The neg-raising loss keeps its acceptability weighting, and alpha is
    still optimized only through the acceptability channel. A single run
    suffices: initialization from cell means is deterministic and the free
    parametrization has no factor symmetries to escape.
    """
    if config is None:
        config = FitConfig()
    if table.n_records == 0:
        raise DimensionError("cannot normalize an empty table")
    pack = ParameterPack(None, table.n_verbs, table.n_frames,
                         table.n_participants, table.n_cells)
    x0 = pack.pack(
        logit(clamp_responses(table.cell_mean_negraising())),
        EffectsParams.zeros(table.n_participants),
        logit(clamp_responses(table.cell_mean_acceptability())),
    )
    x, trajectory, converged, steps = adam_minimize(
        x0, lambda point: _forward_backward(point, pack, table, None), config, pack.name_at,
    )
    nu, effects, alpha = pack.unpack(x)
    scaled = np.exp(effects.sigma0) * nu
    if inside_link:
        score = expit(scaled + effects.beta0)
    else:
        score = expit(scaled) + effects.beta0
    return NormalizedScores(
        verbs=table.verbs,
        frames=table.frames,
        cells=table.cells.copy(),
        nu=nu,
        alpha=alpha,
        score=score,
        effects=effects,
        converged=converged,
        iterations=steps,
    )
