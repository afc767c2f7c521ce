"""End-to-end runs of the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from negfactor.cli import _parse_grid, _parse_point, main
from negfactor.evaluation import EvalReport
from negfactor.model import FittedModel
from negfactor.response import EffectsParams

DATA = Path(__file__).parent / "data"


def planted_spec_with(slot: str, index: int, value) -> dict:
    """The spec of a saved truth file, one planted factor entry replaced."""
    spec = json.loads((DATA / "truth_1_1.json").read_text(encoding="utf-8"))
    factor = np.array(spec["true_factors"][slot], dtype=object)
    factor.flat[index] = value
    spec["true_factors"][slot] = factor.tolist()
    return spec


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path, runner):
    """A synthetic dataset plus a fast optimizer config, ready on disk."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "n_verbs": 4, "n_frames": 2, "n_participants": 3,
        "ratings_per_cell": 2, "noise_scale": 0.05, "seed": 0,
    }))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "max_iterations": 150, "n_restarts": 1, "convergence_tol": 1e-5,
        "patience": 1, "seed": 0,
    }))
    data_path = tmp_path / "data.csv"
    result = runner.invoke(main, [
        "data", "synth", "--spec", str(spec_path), "--out", str(data_path),
        "--truth", str(tmp_path / "truth.json"),
    ])
    assert result.exit_code == 0, result.output
    return tmp_path


class TestDataCommands:
    def test_synth_reports_counts_and_writes_truth(self, workspace):
        assert (workspace / "data.csv").exists()
        truth = json.loads((workspace / "truth.json").read_text())
        assert truth["true_factors"] is not None

    @pytest.mark.parametrize("sizes", [
        {"n_lexical": 0, "n_structural": 2}, {"n_lexical": 3, "n_structural": 0},
    ])
    def test_truth_of_a_frozen_side_regenerates_the_data(self, runner, tmp_path, sizes):
        # a frozen side's pi/omega or phi is an empty array, which JSON
        # writes as [] without its shape
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n_verbs": 5, **sizes}))
        for spec, out in ((spec_path, "data.csv"), (tmp_path / "truth.json", "again.csv")):
            result = runner.invoke(main, [
                "data", "synth", "--spec", str(spec), "--out", str(tmp_path / out),
                "--truth", str(tmp_path / "truth.json"),
            ])
            assert result.exit_code == 0, result.output
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "data.csv").read_bytes()

    def test_negative_spec_seed_is_a_clean_error(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n_verbs": 2, "seed": -1}))
        result = runner.invoke(main, [
            "data", "synth", "--spec", str(spec_path), "--out", str(tmp_path / "data.csv"),
        ])
        assert result.exit_code == 1, result.output
        assert "seed must be nonnegative" in result.output

    @pytest.mark.parametrize("spec", [{"n_verbs": 2.5}, {"n_verb": 3}, {},
                                      {"n_verbs": 3, "true_factors": {}},
                                      {"n_verbs": 3, "noise_scale": float("nan")},
                                      {"n_verbs": 3, "seed": True},
                                      planted_spec_with("psi", 0, float("nan")),
                                      planted_spec_with("pi", 1, 1.7),
                                      planted_spec_with("phi", 1, -0.5),
                                      planted_spec_with("psi", 0, "0.5")])
    def test_bad_spec_is_a_clean_error(self, runner, tmp_path, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        result = runner.invoke(main, [
            "data", "synth", "--spec", str(spec_path), "--out", str(tmp_path / "data.csv"),
        ])
        assert result.exit_code == 1, result.output
        assert "bad spec" in result.output

    def test_summarize_prints_json(self, runner, workspace):
        result = runner.invoke(main, ["data", "summarize", str(workspace / "data.csv")])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["n_verbs"] == 4
        assert summary["n_records"] == 4 * 2 * 4 * 2


class TestFitAndReport:
    def test_fit_then_report(self, runner, workspace):
        model_path = workspace / "model.json"
        result = runner.invoke(main, [
            "fit", "--data", str(workspace / "data.csv"),
            "--n-lexical", "1", "--n-structural", "1",
            "--config", str(workspace / "config.json"),
            "--out", str(model_path),
        ])
        assert result.exit_code == 0, result.output
        assert "loss " in result.output and "iterations" in result.output
        model = FittedModel.load(model_path)
        assert model.hyper.as_tuple() == (1, 1)

        out_dir = workspace / "analysis"
        result = runner.invoke(main, [
            "report", "--model", str(model_path), "--out-dir", str(out_dir),
        ])
        assert result.exit_code == 0, result.output
        for name in ("phi.csv", "omega.csv", "pi.csv", "verb_scores.csv", "bundle.json"):
            assert (out_dir / name).exists()

    def test_default_fit_converges(self, runner, tmp_path):
        model_path = tmp_path / "model.json"
        result = runner.invoke(main, [
            "fit", "--data", str(DATA / "data_small.csv"),
            "--n-lexical", "1", "--n-structural", "1", "--out", str(model_path),
        ])
        assert result.exit_code == 0, result.output
        assert "(max iterations reached)" not in result.output
        effects = json.loads(model_path.read_text(encoding="utf-8"))["effects"]
        # the scalar fields of EffectsParams, which fits hold at 0
        held = [name for name, value in vars(EffectsParams.zeros(1)).items() if not np.ndim(value)]
        assert [effects[name] for name in held] == [0.0] * 8

    def test_library_errors_become_clean_messages(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("verb,frame\nthink,S\n")
        result = runner.invoke(main, [
            "fit", "--data", str(bad), "--n-lexical", "1", "--n-structural", "1",
            "--out", str(tmp_path / "model.json"),
        ])
        assert result.exit_code == 1
        assert "Error:" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("sizes, message", [
        (("9", "1"), "n_lexical must be in 0..4, got 9"),
        (("1", "-1"), "n_structural must be in 0..4, got -1"),
        (("0", "0"), "at least one of n_lexical, n_structural must be positive"),
    ], ids=["9,1", "1,-1", "0,0"])
    def test_bad_size_is_a_usage_error_before_the_data_is_loaded(self, runner, tmp_path,
                                                                  sizes, message):
        data = tmp_path / "unloadable.csv"
        data.write_text("not,a,judgment,table\n", encoding="utf-8")
        result = runner.invoke(main, [
            "fit", "--data", str(data), "--n-lexical", sizes[0], "--n-structural", sizes[1],
            "--out", str(tmp_path / "model.json"),
        ])
        assert result.exit_code == 2, result.output
        assert f"Invalid value: {message}" in result.output
        assert "missing column" not in result.output

    def test_malformed_model_is_a_one_line_error(self, runner, workspace):
        for text in ("not json at all", json.dumps({"format": "negfactor-model"})):
            bad = workspace / "bad_model.json"
            bad.write_text(text, encoding="utf-8")
            result = runner.invoke(main, ["report", "--model", str(bad),
                                          "--out-dir", str(workspace / "analysis")])
            assert result.exit_code == 1, result.output
            assert result.output.startswith(f"Error: bad model {bad}: ")
            assert len(result.output.splitlines()) == 1

    def test_missing_data_file_rejected(self, runner, tmp_path):
        result = runner.invoke(main, [
            "fit", "--data", str(tmp_path / "nope.csv"),
            "--n-lexical", "1", "--n-structural", "1",
            "--out", str(tmp_path / "model.json"),
        ])
        assert result.exit_code == 2
        assert "does not exist" in result.output

    def test_bad_config_rejected(self, runner, workspace):
        bad = workspace / "bad_config.json"
        for config in ({"learning_rte": 0.01}, {"patience": 0}, {"convergence_tol": -1e-6},
                       {"learning_rate": 0}, {"seed": -1}, {"max_iterations": 1.5},
                       {"n_restarts": 2.0}, {"seed": 1.5}, {"patience": 1.5},
                       {"n_restarts": True, "max_iterations": 3},
                       {"convergence_tol": float("nan")}, {"learning_rate": float("nan")},
                       {"learning_rate": True}):
            bad.write_text(json.dumps(config))
            result = runner.invoke(main, [
                "fit", "--data", str(workspace / "data.csv"),
                "--n-lexical", "1", "--n-structural", "1",
                "--config", str(bad), "--out", str(workspace / "model.json"),
            ])
            assert result.exit_code == 1, config
            assert "bad fit config" in result.output

    @pytest.mark.parametrize("name", ["learning_rate", "convergence_tol"])
    def test_infinite_config_value_rejected(self, runner, workspace, name):
        bad = workspace / "bad_config.json"
        bad.write_text(json.dumps({name: float("inf"), "max_iterations": 5, "n_restarts": 1}))
        result = runner.invoke(main, [
            "fit", "--data", str(workspace / "data.csv"),
            "--n-lexical", "1", "--n-structural", "1",
            "--config", str(bad), "--out", str(workspace / "model.json"),
        ])
        assert result.exit_code == 1
        assert f"bad fit config {bad}: {name} must be finite" in result.output


class TestCvAndCompare:
    def test_cv_then_compare(self, runner, workspace):
        report_path = workspace / "report.json"
        result = runner.invoke(main, [
            "cv", "--data", str(workspace / "data.csv"), "--grid", "1,0;1,1",
            "--config", str(workspace / "config.json"), "--out", str(report_path),
        ])
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert sum("held-out loss" in line for line in lines) == 2
        assert lines[-1].startswith("report saved to")

        compare_path = workspace / "comparison.json"
        result = runner.invoke(main, [
            "compare", "--report", str(report_path), "--a", "1,0", "--b", "1,1",
            "--n-boot", "200", "--seed", "1", "--out", str(compare_path),
        ])
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["a"] == [1, 0] and record["b"] == [1, 1]
        assert record["lower"] <= record["upper"]
        assert json.loads(compare_path.read_text()) == record

    def test_cv_names_shared_prediction_class(self, runner, workspace):
        result = runner.invoke(main, [
            "cv", "--data", str(workspace / "data.csv"), "--grid", "0,1;1,1",
            "--config", str(workspace / "config.json"),
            "--out", str(workspace / "report.json"),
        ])
        assert result.exit_code == 0, result.output
        output = result.output.strip().splitlines()
        lines = {line.split(" ")[0]: line for line in output}
        assert lines["(0,1)"].endswith("(same prediction class as (1,1))")
        assert "prediction class" not in lines["(1,1)"]
        assert lines["(0,1)"].split()[3] == lines["(1,1)"].split()[3]
        # equal totals: the class representative ranks first
        assert output[0].startswith("(1,1)")
        assert EvalReport.load(workspace / "report.json").ranking()[0] == (1, 1)

    def test_bad_grid_string(self, runner, workspace):
        result = runner.invoke(main, [
            "cv", "--data", str(workspace / "data.csv"), "--grid", "1;2",
            "--out", str(workspace / "report.json"),
        ])
        assert result.exit_code != 0
        assert "expected n_lexical,n_structural" in result.output

    def test_bad_counts_are_usage_errors(self, runner, workspace):
        data = str(workspace / "data.csv")
        for args in (
            ["cv", "--data", data, "--folds", "1", "--out", str(workspace / "report.json")],
            ["compare", "--report", data, "--a", "1,0", "--b", "1,1", "--n-boot", "0"],
            ["compare", "--report", data, "--a", "1,0", "--b", "1,1", "--n-boot", "-3"],
            ["cv", "--data", data, "--fold-seed", "-1", "--out", str(workspace / "report.json")],
            ["compare", "--report", data, "--a", "1,0", "--b", "1,1", "--seed", "-1"],
            ["cv", "--data", data, "--grid", ";", "--out", str(workspace / "report.json")],
            ["cv", "--data", data, "--grid", "", "--out", str(workspace / "report.json")],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args, result.output)
            assert "Invalid value" in result.output
            assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_bad_grid_is_reported_before_the_data_is_loaded(self, runner, tmp_path):
        data = tmp_path / "unloadable.csv"
        data.write_text("not,a,judgment,table\n", encoding="utf-8")
        result = runner.invoke(main, ["cv", "--data", str(data), "--grid", ";",
                                      "--out", str(tmp_path / "report.json")])
        assert result.exit_code == 2, result.output
        assert "Invalid value: no grid point in ';'" in result.output
        assert "missing column" not in result.output

    def test_point_missing_from_the_report_is_a_one_line_error(self, runner, workspace):
        result = runner.invoke(main, ["compare", "--report", str(DATA / "report.json"),
                                      "--a", "3,3", "--b", "1,1"])
        assert result.exit_code == 1
        assert result.output == "Error: grid point (3, 3) is not in the report\n"
        # a file that is no report is named in a one-line error too
        result = runner.invoke(main, ["compare", "--report", str(workspace / "data.csv"),
                                      "--a", "1,0", "--b", "1,1"])
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: bad report {workspace / 'data.csv'}: ")
        assert len(result.output.splitlines()) == 1

    def test_malformed_report_is_a_bad_report(self, runner, tmp_path):
        # a report edited to compare five of its cells is refused, not compared
        data = json.loads((DATA / "report.json").read_text(encoding="utf-8"))
        data["grid"][0]["cell_losses"] = data["grid"][0]["cell_losses"][:5]
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        result = runner.invoke(main, ["compare", "--report", str(path), "--a", "1,0",
                                      "--b", "1,1"])
        assert result.exit_code == 1
        assert result.output == (f"Error: bad report {path}: grid point (0, 1) must have one "
                                 "cell loss per cell and one fold loss per fold\n")

    def test_report_that_held_out_no_cell_is_a_bad_report(self, runner, tmp_path):
        data = json.loads((DATA / "report.json").read_text(encoding="utf-8"))
        data["n_folds"], data["fold_of"] = 0, [-1] * len(data["fold_of"])
        for entry in data["grid"]:
            entry["fold_losses"] = []
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        result = runner.invoke(main, ["compare", "--report", str(path), "--a", "1,0",
                                      "--b", "1,1"])
        assert result.exit_code == 1
        assert result.output == f"Error: bad report {path}: n_folds must be at least 2\n"

    def test_report_with_a_grid_entry_that_is_no_object_is_a_bad_report(self, runner, tmp_path):
        data = json.loads((DATA / "report.json").read_text(encoding="utf-8"))
        data["grid"][1] = 1
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        result = runner.invoke(main, ["compare", "--report", str(path), "--a", "1,0",
                                      "--b", "1,1"])
        assert result.exit_code == 1
        assert result.output == f"Error: bad report {path}: grid entry must be an object\n"

    def test_out_of_range_point(self, runner, workspace):
        result = runner.invoke(main, [
            "compare", "--report", str(workspace / "data.csv"),
            "--a", "9,9", "--b", "1,1",
        ])
        assert result.exit_code != 0


class TestNormalize:
    def test_writes_cell_scores(self, runner, workspace):
        out_path = workspace / "scores.csv"
        result = runner.invoke(main, [
            "normalize", "--data", str(workspace / "data.csv"),
            "--config", str(workspace / "config.json"), "--out", str(out_path),
        ])
        assert result.exit_code == 0, result.output
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "verb,frame,subject,tense,nu,alpha,score"
        assert len(lines) == 1 + 4 * 2 * 4

    def test_inside_link_is_refused(self, runner, workspace):
        # the score is expit(nu), with no intercept to place
        out_path = workspace / "scores.csv"
        result = runner.invoke(main, [
            "normalize", "--data", str(workspace / "data.csv"), "--inside-link",
            "--out", str(out_path),
        ])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--inside-link" in result.output
        assert not out_path.exists()


class TestParsing:
    def test_grid_all_is_the_full_lattice(self):
        grid = _parse_grid("all")
        assert len(grid) == 24
        assert all(point.as_tuple() != (0, 0) for point in grid)
        assert len({point.as_tuple() for point in grid}) == 24

    def test_point_rejects_out_of_range(self):
        import click

        with pytest.raises(click.BadParameter):
            _parse_point("9,9")
        with pytest.raises(click.BadParameter):
            _parse_point("1")

    def test_version_flag(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "0.1.0" in result.output
