"""Serialization fidelity of fitted models."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from negfactor.errors import SchemaError
from negfactor.factorization import Hyperparams
from negfactor.model import FittedModel
from negfactor.response import EffectsParams

from conftest import random_factor_params, random_table

DATA = Path(__file__).parent / "data"


def saved_model_data():
    """The JSON of a model written by an earlier version, as a dict to edit."""
    return json.loads((DATA / "model_2_1.json").read_text(encoding="utf-8"))


def make_model(seed=0, hyper=Hyperparams(2, 1)):
    rng = np.random.default_rng(seed)
    table = random_table(rng, n_verbs=3, n_frames=2, n_participants=3)
    factors = random_factor_params(rng, hyper, table.n_verbs, table.n_frames)
    effects = EffectsParams(
        beta0=rng.normal(), sigma0=rng.normal() * 0.1,
        beta=rng.normal(size=3), sigma=rng.normal(size=3) * 0.1,
        beta0_acc=rng.normal(), sigma0_acc=rng.normal() * 0.1,
        beta_acc=rng.normal(size=3), sigma_acc=rng.normal(size=3) * 0.1,
        log_var_beta=rng.normal() * 0.2, log_var_sigma=rng.normal() * 0.2,
        log_var_beta_acc=rng.normal() * 0.2, log_var_sigma_acc=rng.normal() * 0.2,
    )
    return FittedModel(
        hyper=hyper,
        verbs=table.verbs,
        frames=table.frames,
        participants=table.participants,
        cells=table.cells.copy(),
        factors=factors,
        effects=effects,
        alpha=rng.normal(size=table.n_cells),
        seed=7,
        final_loss=12.5,
        final_data_loss=9.25,
        converged=True,
        iterations=321,
    )


class TestJsonRoundTrip:
    @pytest.mark.parametrize("hyper", [
        Hyperparams(2, 1), Hyperparams(1, 1), Hyperparams(0, 2), Hyperparams(3, 0),
    ])
    def test_round_trip_is_byte_identical(self, hyper):
        model = make_model(seed=int(hyper.n_lexical * 5 + hyper.n_structural), hyper=hyper)
        text = model.to_json()
        back = FittedModel.from_dict(json.loads(text))
        assert back.to_json() == text

    def test_round_trip_preserves_values(self):
        model = make_model(seed=4)
        back = FittedModel.from_dict(json.loads(model.to_json()))
        assert back.hyper == model.hyper
        assert back.verbs == model.verbs
        assert back.frames == model.frames
        assert back.participants == model.participants
        assert_array_equal(back.cells, model.cells)
        assert_array_equal(back.alpha, model.alpha)
        assert_array_equal(back.factors.lambda_logits, model.factors.lambda_logits)
        assert_array_equal(back.factors.psi_logits, model.factors.psi_logits)
        assert_array_equal(back.effects.beta, model.effects.beta)
        assert back.effects.log_var_sigma == model.effects.log_var_sigma
        assert back.final_loss == model.final_loss
        assert back.final_data_loss == model.final_data_loss
        assert back.converged is True
        assert back.iterations == 321

    def test_boundary_model_keeps_frozen_sides_absent(self):
        model = make_model(seed=9, hyper=Hyperparams(0, 2))
        back = FittedModel.from_dict(json.loads(model.to_json()))
        assert back.factors.psi_logits is None
        assert back.factors.phi_logits is None
        assert back.factors.lambda_logits is not None

    def test_save_load(self, tmp_path):
        model = make_model(seed=2)
        path = tmp_path / "model.json"
        model.save(path)
        back = FittedModel.load(path)
        assert back.to_json() == model.to_json()
        assert path.read_text().endswith("\n")

    def test_missing_field_is_schema_error(self):
        data = json.loads(make_model().to_json())
        del data["factors"]
        with pytest.raises(SchemaError, match="factors"):
            FittedModel.from_dict(data)
        for block, key in (("factors", "phi"), ("effects", "log_var_sigma_acc")):
            data = json.loads(make_model().to_json())
            del data[block][key]
            with pytest.raises(SchemaError, match=key):
                FittedModel.from_dict(data)

    def test_wrong_format_tag(self):
        data = json.loads(make_model().to_json())
        data["format"] = "something-else"
        with pytest.raises(SchemaError, match="something-else"):
            FittedModel.from_dict(data)


class TestEarlierVersions:
    @pytest.mark.parametrize("name", ["model_2_1.json", "model_0_2.json"])
    def test_saved_file_is_reproduced_byte_for_byte(self, name):
        # written by an earlier version of the package from a short fit
        path = DATA / name
        assert FittedModel.load(path).to_json() + "\n" == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("version, message", [
        (99, "model version 99 is newer than this package's 1"),
        ("two", "version must be an integer"),
        (True, "version must be an integer"),
        (None, "model JSON missing key 'version'"),
    ], ids=["newer", "string", "bool", "absent"])
    def test_version_must_be_an_integer_no_newer_than_the_package(self, version, message):
        data = json.loads((DATA / "model_0_2.json").read_text(encoding="utf-8"))
        if version is None:
            del data["version"]
        else:
            data["version"] = version
        with pytest.raises(SchemaError, match=message):
            FittedModel.from_dict(data)


class TestSizesAgainstTheVocabulary:
    """A model file whose arrays contradict its own vocabulary is refused
    on load, instead of failing later inside scoring."""

    @pytest.mark.parametrize("field", ["beta", "sigma", "beta_acc", "sigma_acc"])
    def test_per_participant_field_needs_one_entry_per_participant(self, field):
        data = saved_model_data()
        data["effects"][field] = data["effects"][field][:1]
        with pytest.raises(SchemaError, match=f"effects.{field} must be 4 numbers"):
            FittedModel.from_dict(data)

    @pytest.mark.parametrize("value", [[0.5], "0.5", None, True])
    def test_scalar_field_must_be_a_number(self, value):
        data = saved_model_data()
        data["effects"]["beta0"] = value
        with pytest.raises(SchemaError, match="effects.beta0 must be a number"):
            FittedModel.from_dict(data)

    def test_alpha_needs_one_entry_per_cell(self):
        data = saved_model_data()
        data["alpha"] = data["alpha"][:-1]
        with pytest.raises(SchemaError, match=f"alpha must be {len(data['cells'])} numbers"):
            FittedModel.from_dict(data)

    @pytest.mark.parametrize("column, value", [(0, 99), (1, -1), (2, 2), (3, 5), (0, 10**30)])
    def test_cells_must_index_inside_the_vocabulary(self, column, value):
        data = saved_model_data()
        data["cells"][0][column] = value
        with pytest.raises(SchemaError, match="cells must be rows of four indices"):
            FittedModel.from_dict(data)

    def test_cells_must_be_rows_of_four(self):
        data = saved_model_data()
        data["cells"] = [row[:3] for row in data["cells"]]
        with pytest.raises(SchemaError, match="cells must be rows of four indices"):
            FittedModel.from_dict(data)


class TestEntriesAreNumbers:
    """Array entries are JSON numbers: a numeric string or a bool is refused
    instead of converted, and a cell index must be an integer."""

    def test_alpha_of_numeric_strings(self):
        data = saved_model_data()
        data["alpha"] = [str(a) for a in data["alpha"]]
        with pytest.raises(SchemaError, match=f"alpha must be {len(data['cells'])} numbers"):
            FittedModel.from_dict(data)

    @pytest.mark.parametrize("row", [[0.7, 0.7, 0.7, 0.7], [True, False, 0, 1]])
    def test_cell_indices_must_be_integers(self, row):
        data = saved_model_data()
        data["cells"][0] = row
        with pytest.raises(SchemaError, match="cells must be rows of four indices"):
            FittedModel.from_dict(data)

    def test_factor_of_numeric_strings(self):
        data = saved_model_data()
        data["factors"]["lambda"] = [[str(x) for x in row] for row in data["factors"]["lambda"]]
        with pytest.raises(SchemaError, match="factors.lambda must be 3 x 1 numbers"):
            FittedModel.from_dict(data)

    def test_per_participant_effect_of_booleans(self):
        data = saved_model_data()
        data["effects"]["beta"] = [True, False, True, False]
        with pytest.raises(SchemaError, match="effects.beta must be 4 numbers"):
            FittedModel.from_dict(data)

    @pytest.mark.parametrize("path, value, message", [
        (("seed",), 7.9, "seed must be an integer"),
        (("iterations",), True, "iterations must be an integer"),
        (("hyper", "n_lexical"), 2.7, "hyper.n_lexical must be an integer"),
        (("hyper", "n_structural"), "1", "hyper.n_structural must be an integer"),
        (("final_loss",), "1e3", "final_loss must be a number"),
        (("final_data_loss",), False, "final_data_loss must be a number"),
        (("converged",), "no", "converged must be true or false"),
        (("verbs",), "abc", "verbs must be a list of distinct strings"),
        (("frames",), [1], "frames must be a list of distinct strings"),
        (("participants",), ["p000", None, "p002", "p003"],
         "participants must be a list of distinct strings"),
        (("participants",), ["p000", "p001", "p002", "p000"],
         "participants must be a list of distinct strings"),
    ], ids=lambda v: ".".join(v) if isinstance(v, tuple) else None)
    def test_scalar_fields_are_not_converted(self, path, value, message):
        # each of these used to load through int(), float() or bool()
        data = saved_model_data()
        *parents, key = path
        target = data
        for name in parents:
            target = target[name]
        target[key] = value
        with pytest.raises(SchemaError, match=message):
            FittedModel.from_dict(data)


class TestObjectsAndRepeats:
    """A model file whose objects are not JSON objects, or whose cells
    repeat a row, is refused on load."""

    @pytest.mark.parametrize("value", [[1], "model"], ids=["list", "string"])
    def test_top_level_must_be_an_object(self, value):
        with pytest.raises(SchemaError, match="model must be an object"):
            FittedModel.from_dict(value)

    @pytest.mark.parametrize("key", ["hyper", "factors", "effects"])
    @pytest.mark.parametrize("value", [[1, 2], "abc"], ids=["list", "string"])
    def test_nested_block_must_be_an_object(self, key, value):
        data = json.loads((DATA / "model_0_2.json").read_text(encoding="utf-8"))
        data[key] = value
        with pytest.raises(SchemaError, match=f"{key} must be an object"):
            FittedModel.from_dict(data)

    def test_cells_must_not_repeat_a_row(self):
        # the scorer's cell lookup would keep only one of the rows' alpha
        data = json.loads((DATA / "model_0_2.json").read_text(encoding="utf-8"))
        data["cells"].append(data["cells"][0])
        data["alpha"].append(data["alpha"][-1] + 1.0)
        with pytest.raises(SchemaError, match="cells must not repeat a row"):
            FittedModel.from_dict(data)


class TestFiniteNumbers:
    """A model file whose number is not finite, written as the non-standard
    token NaN or Infinity or as a literal too large for a float, is refused
    on load."""

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("path, message", [
        (("alpha", 0), "alpha must be"),
        (("factors", "lambda", 1, 0), "factors.lambda must be"),
        (("effects", "beta", 1), "effects.beta must be"),
        (("effects", "sigma0"), "effects.sigma0 must be a number"),
        (("final_loss",), "final_loss must be a number"),
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_non_finite_number_is_a_schema_error(self, tmp_path, token, path, message):
        data = json.loads((DATA / "model_0_2.json").read_text(encoding="utf-8"))
        *parents, key = path
        target = data
        for name in parents:
            target = target[name]
        target[key] = "TOKEN"
        file = tmp_path / "model.json"
        file.write_text(json.dumps(data).replace('"TOKEN"', token), encoding="utf-8")
        with pytest.raises(SchemaError, match=message):
            FittedModel.load(file)
