"""Analysis artifacts from a fitted model.

Turns stored logits into probability tables for the structure mapping
(phi), the structure gate (omega), the frame loadings (pi), and the
per-verb properties, plus the per-verb score P(psi) * P(lambda) that
summarizes how strongly a verb licenses the inference in the
one-lexical/one-structural model. Everything is emitted as CSV (tables)
and JSON (the whole bundle).
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import SUBJECT_LABELS, TENSE_LABELS, write_json, write_rows
from .errors import DimensionError
from .factorization import Hyperparams
from .model import FittedModel
from .response import expit

BUNDLE_FORMAT = "negfactor-analysis"
BUNDLE_VERSION = 1


@dataclass
class AnalysisBundle:
    """Probability-scale view of a fitted model's factor parameters.

    verb_scores and psi_lambda_spearman are populated only for the
    (1, 1) model, where the per-verb product is a scalar; larger models
    keep the full psi and lambda_ matrices instead.
    """

    hyper: Hyperparams
    verbs: tuple[str, ...]
    frames: tuple[str, ...]
    phi: np.ndarray
    omega: np.ndarray
    pi: np.ndarray
    lambda_: np.ndarray
    psi: np.ndarray
    verb_scores: np.ndarray | None
    psi_lambda_spearman: float | None

    def to_dict(self) -> dict:
        spearman = self.psi_lambda_spearman
        if spearman is not None and np.isnan(spearman):
            spearman = None
        return {
            "format": BUNDLE_FORMAT,
            "version": BUNDLE_VERSION,
            "n_lexical": self.hyper.n_lexical,
            "n_structural": self.hyper.n_structural,
            "verbs": list(self.verbs),
            "frames": list(self.frames),
            "subjects": list(SUBJECT_LABELS),
            "tenses": list(TENSE_LABELS),
            "phi": self.phi.tolist(),
            "omega": self.omega.tolist(),
            "pi": self.pi.tolist(),
            "lambda": self.lambda_.tolist(),
            "psi": self.psi.tolist(),
            "verb_scores": None if self.verb_scores is None else self.verb_scores.tolist(),
            "psi_lambda_spearman": spearman,
        }


def analyze(model: FittedModel) -> AnalysisBundle:
    """Probability tables for a fitted model.

    Boundary models yield empty arrays for the absent side. For the (1, 1)
    model the bundle adds per-verb scores P(psi_v) * P(lambda_v) and the
    rank correlation between the two columns (a diagnostic: they tend to
    be nearly interchangeable in that model).
    """
    shapes = model.factors.shapes()
    probs = {slot: np.zeros(shapes[slot]) if logits is None else expit(logits)
             for slot, logits in model.factors.arrays().items()}
    n_verbs = len(model.verbs)
    psi, lambda_ = probs["psi"], probs["lambda"]

    verb_scores = None
    psi_lambda_spearman = None
    if model.hyper.as_tuple() == (1, 1):
        verb_scores = psi[:, 0] * lambda_[:, 0]
        if n_verbs >= 2:
            # this is the package's only use of scipy, whose import would more
            # than double the start-up of every CLI call and every
            # cross_validate worker: import it only here
            from scipy.stats import spearmanr

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                psi_lambda_spearman = float(spearmanr(psi[:, 0], lambda_[:, 0]).statistic)
        else:
            psi_lambda_spearman = float("nan")
    return AnalysisBundle(
        hyper=model.hyper,
        verbs=model.verbs,
        frames=model.frames,
        phi=probs["phi"],
        omega=probs["omega"],
        pi=probs["pi"],
        lambda_=lambda_,
        psi=psi,
        verb_scores=verb_scores,
        psi_lambda_spearman=psi_lambda_spearman,
    )


def rank_verbs(bundle: AnalysisBundle) -> list[tuple[str, float]]:
    """Verbs ordered by score, best first; ties broken alphabetically."""
    if bundle.verb_scores is None:
        raise DimensionError(
            "verb ranking needs the (1, 1) model; this bundle is "
            f"{bundle.hyper.as_tuple()}"
        )
    pairs = [(verb, float(score)) for verb, score in zip(bundle.verbs, bundle.verb_scores)]
    return sorted(pairs, key=lambda pair: (-pair[1], pair[0]))


def _table_rows(array: np.ndarray, *labels) -> list:
    """(property, label..., probability) rows of a (property, ...) array,
    in the array's row-major order."""
    keys = itertools.product(range(array.shape[0]), *labels)
    return [(*key, value) for key, value in zip(keys, array.ravel().tolist())]


def write_analysis(bundle: AnalysisBundle, out_dir) -> dict[str, str]:
    """Write phi.csv, omega.csv, pi.csv, verb_scores.csv, bundle.json.

    verb_scores.csv is ranked and only written for (1, 1) bundles; other
    shapes keep the full matrices in bundle.json. Returns name -> path.
    """
    os.makedirs(out_dir, exist_ok=True)
    by_subject_tense = ["property", "subject", "tense", "probability"]
    tables = {
        "phi.csv": (by_subject_tense, _table_rows(bundle.phi, SUBJECT_LABELS, TENSE_LABELS)),
        "omega.csv": (by_subject_tense, _table_rows(bundle.omega, SUBJECT_LABELS, TENSE_LABELS)),
        "pi.csv": (["property", "frame", "probability"], _table_rows(bundle.pi, bundle.frames)),
    }
    if bundle.verb_scores is not None:
        tables["verb_scores.csv"] = (["verb", "score"], rank_verbs(bundle))
    paths = {name: os.path.join(out_dir, name) for name in [*tables, "bundle.json"]}
    for name, (header, rows) in tables.items():
        write_rows(paths[name], header, rows)
    write_json(paths["bundle.json"], bundle.to_dict())
    return paths
