"""Fitted model container with byte-stable JSON serialization.

Logits are stored, not probabilities, so that serialization is lossless:
floats are written with Python's shortest round-trip representation and
keys are sorted, which makes identical fits produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import JsonArtifact
from .errors import SchemaError
from .factorization import FACTOR_SLOTS, FactorParams, Hyperparams
from .response import EffectsParams

MODEL_FORMAT = "negfactor-model"
MODEL_VERSION = 1


@dataclass
class FittedModel(JsonArtifact):
    """Everything needed to score new records and reproduce a fit."""

    hyper: Hyperparams
    verbs: tuple[str, ...]
    frames: tuple[str, ...]
    participants: tuple[str, ...]
    cells: np.ndarray
    factors: FactorParams
    effects: EffectsParams
    alpha: np.ndarray
    seed: int
    final_loss: float
    final_data_loss: float
    converged: bool
    iterations: int

    def to_dict(self) -> dict:
        def arr(a):
            return a.tolist() if isinstance(a, np.ndarray) else a

        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "hyper": {"n_lexical": self.hyper.n_lexical, "n_structural": self.hyper.n_structural},
            "verbs": list(self.verbs),
            "frames": list(self.frames),
            "participants": list(self.participants),
            "cells": self.cells.tolist(),
            "factors": {slot: arr(a) for slot, a in self.factors.arrays().items()},
            "effects": {name: arr(value) for name, value in vars(self.effects).items()},
            "alpha": self.alpha.tolist(),
            "seed": self.seed,
            "final_loss": self.final_loss,
            "final_data_loss": self.final_data_loss,
            "converged": self.converged,
            "iterations": self.iterations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FittedModel":
        try:
            if data["format"] != MODEL_FORMAT:
                raise SchemaError(f"unexpected format tag {data['format']!r}")
            hyper = Hyperparams(
                n_lexical=int(data["hyper"]["n_lexical"]),
                n_structural=int(data["hyper"]["n_structural"]),
            )
            verbs = tuple(data["verbs"])
            frames = tuple(data["frames"])
            participants = tuple(data["participants"])

            def arr(value):
                # a JSON list is an array, a number a float, null a frozen side
                if isinstance(value, list):
                    return np.asarray(value, dtype=float)
                return None if value is None else float(value)

            def checked(name, value, shape):
                """A number for shape (), else a list of ``shape`` numbers as an array."""
                if shape == () and isinstance(value, (int, float)) and not isinstance(value, bool):
                    return float(value)
                if shape and isinstance(value, list) and np.shape(value) == shape:
                    return np.asarray(value, dtype=float)
                raise SchemaError(f"{name} must be {f'{shape[0]} numbers' if shape else 'a number'}")

            cells = np.asarray(data["cells"], dtype=np.int64)
            bounds = (len(verbs), len(frames), 2, 2)
            if cells.shape[1:] != (4,) or not np.all((cells >= 0) & (cells < bounds)):
                raise SchemaError(f"cells must be rows of four indices below {bounds}")
            factors = FactorParams(hyper, len(verbs), len(frames), **{
                field: arr(data["factors"][slot]) for slot, field in FACTOR_SLOTS.items()
            })
            effects = EffectsParams(**{
                name: checked(f"effects.{name}", data["effects"][name], np.shape(zero))
                for name, zero in vars(EffectsParams.zeros(len(participants))).items()
            })
            return cls(
                hyper=hyper,
                verbs=verbs,
                frames=frames,
                participants=participants,
                cells=cells,
                factors=factors,
                effects=effects,
                alpha=checked("alpha", data["alpha"], (len(cells),)),
                seed=int(data["seed"]),
                final_loss=float(data["final_loss"]),
                final_data_loss=float(data["final_data_loss"]),
                converged=bool(data["converged"]),
                iterations=int(data["iterations"]),
            )
        except KeyError as missing:
            raise SchemaError(f"model JSON missing key {missing}") from None
