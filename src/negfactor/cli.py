"""Command-line interface.

Every command is a thin wrapper: load inputs, call the library, write
outputs. Grid points and hyperparameter pairs are written as
"n_lexical,n_structural", e.g. --a 1,0 --b 1,1.
"""

from __future__ import annotations

import functools
import json

import click

from . import __version__
from .dataset import PlantedSpec, generate_synthetic, load_csv, summarize, write_csv
from .errors import NegfactorError
from .evaluation import EvalReport, bootstrap_compare, cross_validate
from .factorization import MAX_PROPERTIES, Hyperparams
from .model import FittedModel
from .normalization import normalize
from .optim import FitConfig, fit
from .report import analyze, write_analysis


def _friendly(command):
    """Turn library errors into clean CLI failures instead of tracebacks."""

    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except NegfactorError as err:
            raise click.ClickException(str(err)) from err

    return wrapper


def _load_config(path: str | None) -> FitConfig | None:
    if path is None:
        return None
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    try:
        return FitConfig(**data)
    except (TypeError, ValueError) as err:
        raise click.ClickException(f"bad fit config {path}: {err}") from err


def _parse_point(text: str) -> Hyperparams:
    parts = text.split(",")
    if len(parts) != 2:
        raise click.BadParameter(f"expected n_lexical,n_structural, got {text!r}")
    try:
        return Hyperparams(int(parts[0]), int(parts[1]))
    except (ValueError, NegfactorError) as err:
        raise click.BadParameter(str(err))


def _parse_grid(text: str) -> list[Hyperparams]:
    if text.strip().lower() == "all":
        return [
            Hyperparams(i, t)
            for i in range(MAX_PROPERTIES + 1)
            for t in range(MAX_PROPERTIES + 1)
            if (i, t) != (0, 0)
        ]
    return [_parse_point(entry) for entry in text.split(";") if entry.strip()]


@click.group()
@click.version_option(version=__version__)
def main():
    """Induce lexical and structural neg-raising properties from graded
    judgment data by fitting a probabilistic boolean factorization."""


@main.group()
def data():
    """Inspect or generate judgment datasets."""


@data.command("summarize")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_friendly
def data_summarize(path):
    """Print dataset counts and response means as JSON."""
    table = load_csv(path)
    click.echo(json.dumps(summarize(table), indent=2, sort_keys=True))


@data.command("synth")
@click.option("--spec", "spec_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON generator settings (see PlantedSpec).")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--truth", "truth_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the resolved generator (with drawn factors) as JSON.")
@_friendly
def data_synth(spec_path, out_path, truth_path):
    """Generate a synthetic judgment dataset from planted factors."""
    spec = PlantedSpec.from_json_file(spec_path)
    table, resolved = generate_synthetic(spec)
    write_csv(table, out_path)
    if truth_path is not None:
        with open(truth_path, "w", encoding="utf-8") as handle:
            json.dump(resolved.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    click.echo(f"wrote {table.n_records} records ({table.n_cells} cells) to {out_path}")


@main.command("fit")
@click.option("--data", "data_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--n-lexical", type=int, required=True,
              help="Number of lexical properties (0-4).")
@click.option("--n-structural", type=int, required=True,
              help="Number of structural properties (0-4).")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON file of optimizer settings.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_friendly
def fit_command(data_path, n_lexical, n_structural, config_path, out_path):
    """Fit the factorization model and save it as JSON."""
    table = load_csv(data_path)
    result = fit(table, Hyperparams(n_lexical, n_structural), _load_config(config_path))
    result.model.save(out_path)
    status = "" if result.converged else " (max iterations reached)"
    click.echo(
        f"loss {result.model.final_loss:.6f} after {result.iterations_run} "
        f"iterations{status}; model saved to {out_path}"
    )


@main.command("cv")
@click.option("--data", "data_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--grid", default="all", show_default=True,
              help='"all" or semicolon list like "1,0;0,1;1,1".')
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None)
@click.option("--folds", default=5, show_default=True, type=click.IntRange(min=2))
@click.option("--fold-seed", default=None, type=int,
              help="Seed for the fold assignment (default: the fit seed).")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_friendly
def cv_command(data_path, grid, config_path, folds, fold_seed, out_path):
    """Cross-validate the hyperparameter grid and save the report."""
    table = load_csv(data_path)
    report = cross_validate(
        table, _parse_grid(grid), _load_config(config_path),
        n_folds=folds, fold_seed=fold_seed,
    )
    report.save(out_path)
    for n_lexical, n_structural in report.ranking():
        point = report.point((n_lexical, n_structural))
        total = point.total
        shown = "failed" if total != total else f"{total:.6f}"
        if point.equivalent_to is not None:
            shown += " (same prediction class as ({},{}))".format(*point.equivalent_to)
        click.echo(f"({n_lexical},{n_structural}) held-out loss {shown}")
    click.echo(f"report saved to {out_path}")


@main.command("compare")
@click.option("--report", "report_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--a", "point_a", required=True, help="Grid point, e.g. 1,0.")
@click.option("--b", "point_b", required=True, help="Grid point, e.g. 1,1.")
@click.option("--n-boot", default=10_000, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the comparison record JSON here.")
@_friendly
def compare_command(report_path, point_a, point_b, n_boot, seed, out_path):
    """Bootstrap the paired held-out loss difference between two grid points."""
    report = EvalReport.load(report_path)
    record = bootstrap_compare(
        report, _parse_point(point_a), _parse_point(point_b),
        n_boot=n_boot, seed=seed,
    )
    text = json.dumps(record.to_dict(), indent=2, sort_keys=True)
    click.echo(text)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")


@main.command("normalize")
@click.option("--data", "data_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None)
@click.option("--inside-link", is_flag=True,
              help="Add the intercept inside the inverse link (score stays in (0,1)).")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_friendly
def normalize_command(data_path, config_path, inside_link, out_path):
    """Fit free per-cell scores and write them as CSV."""
    table = load_csv(data_path)
    scores = normalize(table, _load_config(config_path), inside_link=inside_link)
    scores.write_csv(out_path)
    status = "" if scores.converged else " (max iterations reached)"
    click.echo(f"wrote {len(scores.nu)} cell scores to {out_path}{status}")


@main.command("report")
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", "out_dir", required=True, type=click.Path(file_okay=False))
@_friendly
def report_command(model_path, out_dir):
    """Write probability tables and verb scores for a saved model."""
    model = FittedModel.load(model_path)
    bundle = analyze(model)
    paths = write_analysis(bundle, out_dir)
    for name in sorted(paths):
        click.echo(f"wrote {paths[name]}")


if __name__ == "__main__":
    main()
