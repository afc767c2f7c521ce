"""Benchmark of negfactor on seeded synthetic workloads.

    python3 perfbench/run.py --workload cv-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --quick

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records spans
around the package's calls and reports per-layer metrics and the tracing
overhead. Each run repeats whole rounds of its workload until ``--seconds``
of rounds have run (at least one round). ``--quick`` runs the same workloads
and checks at tiny sizes, to test the harness itself. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; ``--workload all`` runs each workload in a process of its own
and ends with one such object per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper-pipeline", "cv-grid", "converge")
SETUPS = 3
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}
# the per-layer metrics that every workload measures; each workload's readable
# report adds those of the layers only it calls
PER_LAYER = {
    "dataset.generate_synthetic_s": "s", "dataset.records": "count", "dataset.cells": "count",
    "factorization.grid_ms": "ms", "factorization.forward_ms": "ms",
    "response.nr_record_losses_ms": "ms", "optim.objective_ms": "ms",
    "optim.channel_nr_ms": "ms", "optim.channel_acc_ms": "ms",
    "optim.objective_other_ms": "ms", "optim.adam_step_ms": "ms", "optim.iterations": "count",
    "optim.objective_calls": "count", "optim.fits": "count", "optim.restarts": "count",
    "optim.fits_at_cap": "count",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="seconds of rounds to measure; at least one round runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, to test the harness")
    return parser.parse_args(argv)


def hold_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use, before numpy loads."""
    cpus = len(os.sched_getaffinity(0))
    for name in THREAD_VARIABLES:
        value = os.environ.get(name, "")
        if not value.isdigit() or not 1 <= int(value) <= cpus:
            os.environ[name] = str(cpus)
    return cpus


def import_program() -> float:
    """Import negfactor from this checkout's src/ and return the seconds it took."""
    src = ROOT / "src"
    if not (src / "negfactor" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no negfactor package under {src}")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import negfactor
    seconds = perf_counter() - start
    if Path(negfactor.__file__).resolve().parent != (src / "negfactor").resolve():
        raise SystemExit(f"perfbench: imported negfactor from {negfactor.__file__}, not {src}")
    return seconds


def run_rounds(workload, seconds: float, problems: list[str]):
    """Rounds until `seconds` of them have run; the first is checked, later ones must match it.

    Each round keeps only its counts, step times and end-to-end figures.
    """
    rounds, walls, first = [], [], None
    while not walls or sum(walls) < seconds:
        start = perf_counter()
        r = workload.run_round()
        walls.append(perf_counter() - start)
        if first is None:
            first = workload.fingerprint(r)
            problems += workload.check(r)
        elif workload.fingerprint(r) != first:
            problems.append(f"round {len(rounds)} did not reproduce the first round's results")
        r.end_to_end = workload.end_to_end(r)
        r.values.clear()
        rounds.append(r)
    return rounds, walls


def layer_metrics(stats, setup_stats, counts, workload, n_rounds: int):
    """Per-layer metrics from the spans: those every workload has, and this workload's others.

    Times are means per call; counts are per round.
    """
    import workloads

    per_round = 1.0 / n_rounds
    iterations = counts["optim.iterations"]
    common = {
        "dataset.generate_synthetic_s": statistics.median(
            setup_stats.durations["dataset.generate_synthetic"]),
        "dataset.records": workload.table.n_records,
        "dataset.cells": workload.table.n_cells,
        "factorization.grid_ms": setup_stats.mean_ms("factorization.negraising_grid"),
        "factorization.forward_ms": stats.mean_ms("factorization.negraising_from_probs"),
        "response.nr_record_losses_ms": stats.mean_ms("response.negraising_record_losses"),
        "optim.objective_ms": stats.mean_ms("optim.objective"),
        "optim.channel_nr_ms": stats.mean_ms("optim.channel_nr"),
        "optim.channel_acc_ms": stats.mean_ms("optim.channel_acc"),
        "optim.objective_other_ms": stats.self_ms("optim.objective"),
        "optim.adam_step_ms": (1e3 * stats.total_self("optim.adam_minimize") / iterations
                               if iterations else 0.0),
        "optim.iterations": iterations * per_round,
        "optim.objective_calls": stats.calls("optim.objective") * per_round,
        "optim.fits": stats.calls("optim.fit") * per_round,
        "optim.restarts": stats.calls("optim.adam_minimize") * per_round,
        "optim.fits_at_cap": counts["optim.fits_at_cap"] * per_round,
    }
    extra = {}
    if stats.calls("optim.evaluate"):
        extra["optim.evaluate_ms"] = (stats.mean_ms("optim.evaluate"), "ms")
        extra["optim.evaluate_per_cell_ms"] = (stats.mean_ms("optim.evaluate_per_cell"), "ms")
    if stats.calls("dataset.write_csv"):
        records = workload.table.n_records
        extra["dataset.write_csv_rows_per_s"] = (
            records / statistics.fmean(stats.durations["dataset.write_csv"]), "rows/s")
        extra["dataset.csv_bytes"] = (getattr(workload, "csv_bytes", None), "bytes")
        extra["dataset.load_csv_rows_per_s"] = (
            records / statistics.fmean(stats.durations["dataset.load_csv"]), "rows/s")
    if stats.calls("evaluation.cross_validate"):
        cv_fits = stats.under["optim.fit", "evaluation.cross_validate"]
        # (1, t) and (0, t) give the same cell probabilities: one prediction class
        classes = len({(0 if i == 1 and t >= 1 else i, t) for i, t in workloads.FULL_GRID})
        extra.update({
            "evaluation.assign_folds_ms": (stats.mean_ms("evaluation.assign_folds"), "ms"),
            "evaluation.fit_ms": (1e3 * statistics.fmean(cv_fits) if cv_fits else 0.0, "ms"),
            "evaluation.self_ms": (stats.self_ms("evaluation.cross_validate"), "ms"),
            "evaluation.fits": (len(cv_fits) * per_round, "count"),
            "evaluation.prediction_classes": (classes, "count"),
            "evaluation.fits_per_class": (
                len(cv_fits) * per_round / (classes * workloads.N_FOLDS), "ratio"),
            "evaluation.bootstrap_ms": (stats.mean_ms("evaluation.bootstrap_compare"), "ms"),
        })
    if stats.calls("normalization.normalize"):
        extra["normalization.objective_ms"] = (stats.mean_ms("normalization.objective"), "ms")
        extra["normalization.iterations"] = (counts["normalization.iterations"] * per_round,
                                             "count")
    if stats.calls("model.save"):
        extra["model.save_ms"] = (stats.mean_ms("model.save"), "ms")
        extra["model.load_ms"] = (stats.mean_ms("model.load"), "ms")
        extra["model.json_bytes"] = (getattr(workload, "json_bytes", None), "bytes")
    if stats.calls("report.analyze"):
        extra["report.analyze_ms"] = (stats.mean_ms("report.analyze"), "ms")
        extra["report.write_analysis_ms"] = (stats.mean_ms("report.write_analysis"), "ms")
    return {name: (value, PER_LAYER[name]) for name, value in common.items()}, extra


def measure(args, import_s: float, workdir: Path) -> dict:
    """Set up and run one workload; return its counts, problems and metrics."""
    import workloads
    from spans import Recorder, SpanStats, layer_wrappers

    problems = workloads.check_reference()
    setup_rec, round_rec = Recorder(), Recorder()
    sizes = workloads.QUICK if args.quick else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](sizes, args.seed, setup_rec, str(workdir))

    setup_times = []
    with layer_wrappers(setup_rec) if args.trace else nullcontext():
        for _ in range(SETUPS):
            start = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - start)
    workload.rec = round_rec

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.trace:
            untraced_wall = run_rounds(workload, 0.0, problems)[1][0]
            with layer_wrappers(round_rec) as absent:
                rounds, walls = run_rounds(workload, args.seconds, problems)
        else:
            rounds, walls = run_rounds(workload, args.seconds, problems)

    result = {
        "rounds": len(rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "errors": sorted({e for r in rounds for e in r.errors}),
        "warnings": sorted({str(w.message) for w in caught}),
        "problems": problems,
    }
    if args.trace:
        common, extra = layer_metrics(SpanStats(round_rec.spans), SpanStats(setup_rec.spans),
                                      round_rec.counts, workload, len(rounds))
        traced_wall = statistics.median(walls)
        result["metrics"] = common
        result["readable"] = {
            **common, **extra,
            "trace.untraced_round_s": (untraced_wall, "s"),
            "trace.traced_round_s": (traced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
            "trace.overhead_pct": (100.0 * (traced_wall - untraced_wall) / untraced_wall, "%"),
        }
        result["untraced_attributes"] = absent
        spans_path = workdir.parent / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "setup": setup_rec.spans,
                       "rounds": round_rec.spans, "counts": dict(round_rec.counts)}, handle)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "round_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["metrics"] = {name: (value, END_TO_END[name]) for name, value in metrics.items()}
        readable = {"import_s": (import_s, "s"),
                    "table_setup_s": (statistics.median(setup_times), "s"),
                    "fit_s": (statistics.median(workload.fit_seconds(r) for r in rounds), "s")}
        for name, (_, unit) in rounds[0].end_to_end.items():
            readable[name] = (workloads.median(r.end_to_end[name][0] for r in rounds), unit)
        result["readable"] = {**result["metrics"], **readable}
    return result


def run_one(args) -> int:
    cpus = hold_threads()
    import_s = import_program()
    import numpy
    import scipy

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "quick": args.quick, "cpus_usable": cpus,
           "cpu_count": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "threads": {name: os.environ[name] for name in THREAD_VARIABLES}}
    print("env " + json.dumps(env))
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"rounds {result['rounds']}  attempted {result['attempted']}  "
          f"failed {result['failed']}")
    for line in result["errors"]:
        print(f"failed: {line}")
    for line in result["warnings"]:
        print(f"warning: {line}")
    for line in result["problems"]:
        print(f"check failed: {line}")
    for line in result.get("untraced_attributes", []):
        print(f"not traced (attribute absent): {line}")
    if "spans_file" in result:
        print(f"spans written to {result['spans_file']}")
    for name, (value, unit) in result["readable"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {name:34s} {shown:>14s} {unit}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own, one after another."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        print(f"== {name}", flush=True)
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
        if child.returncode != 0 or not (results[name] or {}).get("correct"):
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
