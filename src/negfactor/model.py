"""Fitted model container with byte-stable JSON serialization.

Logits are stored, not probabilities, so that serialization is lossless:
floats are written with Python's shortest round-trip representation and
keys are sorted, which makes identical fits produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import JsonArtifact, json_numbers
from .errors import SchemaError
from .factorization import FACTOR_SLOTS, FactorParams, Hyperparams, factor_shapes
from .response import EffectsParams

MODEL_FORMAT = "negfactor-model"
MODEL_VERSION = 1


def json_checked(name: str, value, shape: tuple):
    """A number for shape (), else nested lists of ``shape`` numbers as an
    array; else SchemaError."""
    array = json_numbers(value)
    if array is None or array.shape != shape:
        raise SchemaError(f"{name} must be "
                          + (" x ".join(map(str, shape)) + " numbers" if shape else "a number"))
    return array if shape else float(value)


def json_cells(value, verbs: tuple, frames: tuple) -> np.ndarray:
    """Distinct rows of four cell indices inside the vocabulary; else
    SchemaError."""
    cells = json_numbers(value, int)
    bounds = (len(verbs), len(frames), 2, 2)
    if cells is None or cells.shape[1:] != (4,) or not np.all((cells >= 0) & (cells < bounds)):
        raise SchemaError(f"cells must be rows of four indices below {bounds}")
    if np.bincount(np.ravel_multi_index(cells.T, bounds)).max() > 1:
        raise SchemaError("cells must not repeat a row")
    return cells


def json_labels(name: str, value) -> tuple[str, ...]:
    """A JSON list of distinct strings as a tuple; else SchemaError."""
    if (not isinstance(value, list) or not all(type(label) is str for label in value)
            or len(set(value)) != len(value)):
        raise SchemaError(f"{name} must be a list of distinct strings")
    return tuple(value)


def json_object(name: str, value) -> dict:
    """A JSON object; else SchemaError."""
    if not isinstance(value, dict):
        raise SchemaError(f"{name} must be an object")
    return value


def json_integer(name: str, value) -> int:
    """A JSON integer (not a bool), of any size; else SchemaError."""
    if type(value) is not int:
        raise SchemaError(f"{name} must be an integer")
    return value


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
        data = json_object("model", data)
        try:
            if data["format"] != MODEL_FORMAT:
                raise SchemaError(f"unexpected format tag {data['format']!r}")
            if json_integer("version", data["version"]) > MODEL_VERSION:
                raise SchemaError(f"model version {data['version']} is newer than this "
                                  f"package's {MODEL_VERSION}")
            verbs = json_labels("verbs", data["verbs"])
            frames = json_labels("frames", data["frames"])
            participants = json_labels("participants", data["participants"])

            sizes = json_object("hyper", data["hyper"])
            hyper = Hyperparams(
                n_lexical=json_integer("hyper.n_lexical", sizes["n_lexical"]),
                n_structural=json_integer("hyper.n_structural", sizes["n_structural"]))
            if not isinstance(data["converged"], bool):
                raise SchemaError("converged must be true or false")
            cells = json_cells(data["cells"], verbs, frames)
            shapes = factor_shapes(hyper, len(verbs), len(frames))
            logits = json_object("factors", data["factors"])
            effect_values = json_object("effects", data["effects"])
            factors = FactorParams(hyper, len(verbs), len(frames), **{
                field: None if (value := logits[slot]) is None
                else json_checked(f"factors.{slot}", value, shapes[slot])
                for slot, field in FACTOR_SLOTS.items()
            })
            effects = EffectsParams(**{
                name: json_checked(f"effects.{name}", effect_values[name], np.shape(zero))
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
                alpha=json_checked("alpha", data["alpha"], (len(cells),)),
                seed=json_integer("seed", data["seed"]),
                final_loss=json_checked("final_loss", data["final_loss"], ()),
                final_data_loss=json_checked("final_data_loss", data["final_data_loss"], ()),
                converged=data["converged"],
                iterations=json_integer("iterations", data["iterations"]),
            )
        except KeyError as missing:
            raise SchemaError(f"model JSON missing key {missing}") from None
