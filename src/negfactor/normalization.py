"""Per-cell normalization of the raw judgments.

This is the objective that model fitting minimizes, with one free latent
nu per (verb, frame, subject, tense) cell in place of the factorization,
run by the optimizer driver of `optim.fit`: the same response links,
random effects, priors, acceptability latents and weighted KL loss. The
resulting score summarizes a cell's neg-raising strength with
participant variation regressed out.

The reported score is logit^-1(nu): fitting holds sigma0 and beta0 at 0,
so nu is the cell's latent on the link's own scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import (SUBJECT_LABELS, TENSE_LABELS, ResponseTable, clamp_responses, labels_at,
                      write_rows)
from .optim import FitConfig, ParameterPack, _minimize
from .response import EffectsParams, expit, logit


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
        v, f, j, k = self.cells.T
        write_rows(path, ["verb", "frame", "subject", "tense", "nu", "alpha", "score"], zip(
            labels_at(self.verbs, v), labels_at(self.frames, f),
            labels_at(SUBJECT_LABELS, j), labels_at(TENSE_LABELS, k),
            self.nu.tolist(), self.alpha.tolist(), self.score.tolist(),
        ))


def normalize(table: ResponseTable, config: FitConfig | None = None) -> NormalizedScores:
    """Fit free per-cell latents against the standard objective.

    The neg-raising loss keeps its acceptability weighting, and alpha is
    still optimized only through the acceptability channel. A single run
    suffices: initialization from cell means is deterministic and the free
    parametrization has no factor symmetries to escape.
    """
    if config is None:
        config = FitConfig()
    nu0 = logit(clamp_responses(table.cell_mean(table.negraising)))
    lane, = _minimize(table, ParameterPack(None, table), [nu0], config, [None])
    if lane.error is not None:
        raise lane.error
    nu, effects, alpha = lane.result
    return NormalizedScores(
        verbs=table.verbs,
        frames=table.frames,
        cells=table.cells.copy(),
        nu=nu,
        alpha=alpha,
        score=expit(nu),
        effects=effects,
        converged=lane.converged,
        iterations=lane.steps,
    )
