"""The benchmark's workloads: their inputs, one round of operations, and the checks.

Every input is a `generate_synthetic(PlantedSpec(...))` table with 200
participants, 10 ratings per cell, all six frames, the planted (1, 1)
factorization, and planted participant effects (shift sd 0.3, log-scale sd
0.2). The program receives only the generated tables; every FitConfig keeps
its default seed.

A round is one pass over the workload's operations, the same operations in
every round, so failures are the same share of attempts however many rounds
a run makes. The first round is checked in full against computations made
apart from the program; each later round must reproduce its results exactly.
"""

from __future__ import annotations

import math
import os
import statistics
from collections import Counter
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import negfactor as nf
import reference as ref
from spans import traced_fit

SHIFT_SD = 0.3
SCALE_SD = 0.2
UNSEEN_SEED_OFFSET = 1_000_003  # the unseen-participant table's seed is the run seed plus this
CONVERGE_SEED = 0
N_FOLDS = 5
FULL_GRID = tuple((i, t) for i in range(5) for t in range(5) if (i, t) != (0, 0))
REL_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    participants: int = 200
    ratings: int = 10
    pipeline_verbs: int = 900
    pipeline_iterations: int = 50
    cv_verbs: int = 30
    cv_iterations: int = 100
    converge_verbs: int = 30
    converge_cap: int = nf.FitConfig().max_iterations


FULL = Sizes()
QUICK = Sizes(participants=40, ratings=10, pipeline_verbs=6, pipeline_iterations=5,
              cv_verbs=6, cv_iterations=100, converge_verbs=4, converge_cap=600)


def planted(sizes: Sizes, n_verbs: int, seed: int) -> nf.PlantedSpec:
    return nf.PlantedSpec(n_verbs=n_verbs, n_frames=len(nf.FRAME_LABELS),
                          n_participants=sizes.participants, ratings_per_cell=sizes.ratings,
                          participant_shift_sd=SHIFT_SD, participant_scale_sd=SCALE_SD, seed=seed)


def close(value: float, expected: float, scale: float | None = None) -> bool:
    return abs(value - expected) <= REL_TOL * max(1.0, abs(expected) if scale is None else scale)


@dataclass
class Round:
    """Operations attempted and failed in one round, with each step's seconds and value."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    seconds: dict[str, float] = field(default_factory=dict)
    values: dict[str, object] = field(default_factory=dict)

    def step(self, key: str, thunk, ops: int = 1, run: bool = True):
        """Run one step standing for ``ops`` operations; an exception fails all of them.

        A step that is not run, because one it needs has failed, fails too.
        """
        self.attempted += ops
        if not run:
            self.failed += ops
            return None
        start = perf_counter()
        try:
            value = thunk()
        except Exception as err:  # a failing operation is counted, and the round goes on
            self.failed += ops
            self.errors.append(f"{key}: {type(err).__name__}: {err}")
            return None
        self.seconds[key] = perf_counter() - start
        self.values[key] = value
        return value

    def total(self, *keys: str) -> float:
        return sum(self.seconds.get(key, 0.0) for key in keys)


class Workload:
    name = ""
    fit_steps: tuple[str, ...] = ()

    def __init__(self, sizes: Sizes, seed: int, rec, workdir):
        self.sizes = sizes
        self.seed = seed
        self.rec = rec
        self.workdir = workdir

    def call(self, name, fn, *args, **kwargs):
        return self.rec.call(name, fn, *args, **kwargs)

    def fit(self, *args, **kwargs):
        return traced_fit(self.rec, nf.fit)(*args, **kwargs)

    def generate(self, spec):
        return self.call("dataset.generate_synthetic", nf.generate_synthetic, spec)

    def fit_seconds(self, r: Round) -> float:
        return r.total(*self.fit_steps)


class PaperPipeline(Workload):
    """The steps a user runs on a paper-scale table, from CSV to written analysis."""

    name = "paper-pipeline"
    fit_steps = ("fit_1x1", "fit_4x4", "normalize")

    def setup(self):
        self.table, self.spec = self.generate(planted(self.sizes, self.sizes.pipeline_verbs,
                                                      self.seed))
        drawn, _ = self.generate(replace(self.spec, seed=self.seed + UNSEEN_SEED_OFFSET))
        self.unseen = replace(drawn, participants=tuple("u" + p for p in drawn.participants))
        self.config = nf.FitConfig(max_iterations=self.sizes.pipeline_iterations, n_restarts=1,
                                   convergence_tol=0.0)

    def run_round(self) -> Round:
        r, cfg = Round(), self.config
        csv_path = os.path.join(self.workdir, "table.csv")
        model_path = os.path.join(self.workdir, "model.json")
        out_dir = os.path.join(self.workdir, "analysis")
        r.step("write_csv", lambda: self.call("dataset.write_csv", nf.write_csv, self.table,
                                              csv_path))
        loaded = r.step("load_csv", lambda: self.call("dataset.load_csv", nf.load_csv, csv_path),
                        run=not r.errors)
        fit11 = r.step("fit_1x1", lambda: self.fit(loaded, nf.Hyperparams(1, 1), cfg),
                       run=not r.errors)
        r.step("fit_4x4", lambda: self.fit(loaded, nf.Hyperparams(4, 4), cfg), run=not r.errors)
        r.step("normalize", lambda: self.call("normalization.normalize", nf.normalize, loaded,
                                              cfg), run=not r.errors)
        r.step("save", lambda: self.call("model.save", fit11.model.save, model_path),
               run=not r.errors)
        model = r.step("load", lambda: self.call("model.load", nf.FittedModel.load, model_path),
                       run=not r.errors)
        r.step("evaluate", lambda: self.call("optim.evaluate", nf.evaluate, model, self.unseen),
               run=not r.errors)
        r.step("evaluate_per_cell", lambda: self.call("optim.evaluate_per_cell",
                                                      nf.evaluate_per_cell, model, self.unseen),
               run=not r.errors)
        bundle = r.step("analyze", lambda: self.call("report.analyze", nf.analyze, model),
                        run=not r.errors)
        r.step("write_analysis", lambda: self.call("report.write_analysis", nf.write_analysis,
                                                   bundle, out_dir), run=not r.errors)
        if not r.errors:
            self.csv_bytes = os.path.getsize(csv_path)
            self.json_bytes = os.path.getsize(model_path)
            with open(model_path, encoding="utf-8") as handle:
                r.values["saved_text"] = handle.read()
        return r

    def end_to_end(self, r: Round) -> dict:
        def per_second(key, iterations):
            result = r.values.get(key)
            return getattr(result, iterations) / r.seconds[key] if result is not None else None
        return {
            "write_csv_s": (r.seconds.get("write_csv"), "s"),
            "load_csv_s": (r.seconds.get("load_csv"), "s"),
            "fit_1x1_iters_per_s": (per_second("fit_1x1", "iterations_run"), "iterations/s"),
            "fit_4x4_iters_per_s": (per_second("fit_4x4", "iterations_run"), "iterations/s"),
            "normalize_iters_per_s": (per_second("normalize", "iterations"), "iterations/s"),
            "score_saved_model_s": (r.total("load", "evaluate", "evaluate_per_cell", "analyze",
                                            "write_analysis"), "s"),
        }

    def fingerprint(self, r: Round):
        v = r.values
        if r.errors:
            return tuple(r.errors)
        return (v["fit_1x1"].model.final_loss, v["fit_4x4"].model.final_loss,
                float(np.sum(v["normalize"].score)), v["evaluate"], v["saved_text"])

    def check(self, r: Round) -> list[str]:
        v, problems = r.values, []
        table, loaded = self.table, v.get("load_csv")
        if loaded is not None:
            problems += _check_round_trip(table, loaded)
            problems += _check_counts(self.spec, table, loaded)
        for key in ("fit_1x1", "fit_4x4"):
            if key in v:
                problems += _check_fit(key, loaded, v[key], first_below_final=True)
        if "normalize" in v:
            scores = v["normalize"]
            if scores.iterations != self.sizes.pipeline_iterations:
                problems.append(f"normalize ran {scores.iterations} iterations, "
                                f"not {self.sizes.pipeline_iterations}")
            e = scores.effects
            expected = ref.sigmoid(math.exp(e.sigma0) * scores.nu) + e.beta0
            if scores.score.shape != (loaded.n_cells,) or not np.allclose(
                    scores.score, expected, rtol=1e-12, atol=1e-12):
                problems.append("normalize scores differ from expit(exp(sigma0) nu) + beta0")
        model = v.get("load")
        if model is not None and model.to_json() + "\n" != v["saved_text"]:
            problems.append("the reloaded model does not re-serialize byte-identically")
        if "evaluate" in v:
            losses = ref.unseen_participant_losses(model, self.unseen)
            expected = math.fsum(losses.tolist())
            if not close(v["evaluate"], expected):
                problems.append(f"evaluate on unseen participants gave {v['evaluate']!r}, "
                                f"reference {expected!r}")
        if "evaluate_per_cell" in v:
            per_cell = np.bincount(self.unseen.cell_idx, weights=losses,
                                   minlength=self.unseen.n_cells)
            if not np.allclose(v["evaluate_per_cell"], per_cell, rtol=REL_TOL, atol=1e-12):
                problems.append("evaluate_per_cell on unseen participants differs from reference")
        if "analyze" in v:
            scores = v["analyze"].verb_scores
            expected = (ref.sigmoid(model.factors.psi_logits[:, 0])
                        * ref.sigmoid(model.factors.lambda_logits[:, 0]))
            if scores is None or not np.allclose(scores, expected, rtol=1e-12, atol=0.0):
                problems.append("analyze verb scores differ from P(psi) P(lambda)")
        if "write_analysis" in v:
            missing = [p for p in v["write_analysis"].values() if not os.path.isfile(p)]
            if missing:
                problems.append(f"write_analysis did not write {missing}")
        return problems


class CvGrid(Workload):
    """Constrained 5-fold cross-validation over the full 24-point grid, then the bootstrap."""

    name = "cv-grid"
    fit_steps = ("cross_validate",)

    def setup(self):
        self.table, self.spec = self.generate(planted(self.sizes, self.sizes.cv_verbs, self.seed))
        self.config = nf.FitConfig(max_iterations=self.sizes.cv_iterations, n_restarts=1)

    def run_round(self) -> Round:
        r = Round()
        n_fits = len(FULL_GRID) * N_FOLDS
        report = r.step("cross_validate", lambda: self.call(
            "evaluation.cross_validate", nf.cross_validate, self.table, FULL_GRID, self.config,
            n_folds=N_FOLDS), ops=n_fits)
        if report is not None:
            r.failed += sum(loss is None for p in report.results for loss in p.fold_losses)
            best = report.ranking()[0]
        for point in FULL_GRID:
            if report is None or point != best:
                r.step(f"compare {point}", lambda: self.call(
                    "evaluation.bootstrap_compare", nf.bootstrap_compare, report, point, best),
                    run=report is not None)
        return r

    def end_to_end(self, r: Round) -> dict:
        compare = [s for key, s in r.seconds.items() if key.startswith("compare")]
        return {"cv_s": (r.seconds.get("cross_validate"), "s"),
                "compare_s": (sum(compare) if compare else None, "s"),
                "frames_margin": (getattr(self, "frames_margin", None), "loss"),
                "no_frames_margin": (getattr(self, "no_frames_margin", None), "loss")}

    def fingerprint(self, r: Round):
        report = r.values.get("cross_validate")
        if report is None:
            return tuple(r.errors)
        return (tuple(tuple(p.fold_losses) for p in report.results),
                tuple((c.lower, c.upper) for c in _comparisons(r)))

    def check(self, r: Round) -> list[str]:
        report = r.values.get("cross_validate")
        if report is None:
            return []
        problems = _check_folds(self.table, report.assignment.fold_of)
        fold_of = report.assignment.fold_of
        for point in report.results:
            for fold, loss in enumerate(point.fold_losses):
                if loss is None:
                    continue
                held = fold_of == fold
                cell_losses = point.cell_losses[held]
                if not np.all(np.isfinite(cell_losses)):
                    problems.append(f"{point.hyper.as_tuple()} fold {fold}: a held-out cell "
                                    "has no loss")
                elif not close(loss, math.fsum(cell_losses.tolist())):
                    problems.append(f"{point.hyper.as_tuple()} fold {fold}: fold loss {loss!r} "
                                    "is not the sum of its held-out cell losses")
        totals = {p.hyper.as_tuple(): p.total for p in report.results
                  if math.isfinite(p.total)}
        # only |T| >= 1 points can express the planted frame variation, so the
        # best of them beats every |T| = 0 point; any one of them may still be
        # under-fitted at the iteration cap, even (1, 1), so none is held to more
        no_frames = [total for (i, t), total in totals.items() if t == 0]
        with_frames = [total for (i, t), total in totals.items() if t >= 1]
        if no_frames and with_frames:
            self.frames_margin = min(no_frames) - min(with_frames)
            self.no_frames_margin = min(no_frames) - max(with_frames)
            if self.frames_margin <= 0.0:
                problems.append(f"a |T| = 0 point is not worse than the best |T| >= 1 point "
                                f"(margin {self.frames_margin:.4g})")
        for c in _comparisons(r):
            a, b = report.point(c.a).cell_losses, report.point(c.b).cell_losses
            held = np.isfinite(a)
            if not close(c.observed, float(np.mean(a[held] - b[held]))):
                problems.append(f"bootstrap {c.a} vs {c.b}: observed mean is not the mean "
                                "held-out difference")
            if not c.lower <= c.observed <= c.upper:
                problems.append(f"bootstrap {c.a} vs {c.b}: interval [{c.lower:.4g}, "
                                f"{c.upper:.4g}] misses the observed mean {c.observed:.4g}")
        return problems


class Converge(Workload):
    """One (1, 1) restart left to the default convergence rule and iteration cap.

    Its table does not vary with the run seed: the fit stops at the cap on
    every input tried (the variance components collapse), so it is counted as
    failed, and a fixed input keeps that count the same in every run.
    """

    name = "converge"
    fit_steps = ("fit",)

    def setup(self):
        self.table, self.spec = self.generate(planted(self.sizes, self.sizes.converge_verbs,
                                                      CONVERGE_SEED))
        self.config = nf.FitConfig(n_restarts=1, max_iterations=self.sizes.converge_cap)

    def run_round(self) -> Round:
        r = Round()
        result = r.step("fit", lambda: self.fit(self.table, nf.Hyperparams(1, 1), self.config))
        if result is not None and not result.converged:
            r.failed += 1
            r.errors.append(f"fit: stopped at the iteration cap ({result.iterations_run}) "
                            "without meeting the convergence rule")
        return r

    def end_to_end(self, r: Round) -> dict:
        result = r.values.get("fit")
        return {"converge_s": (r.seconds.get("fit"), "s"),
                "converge_iterations": (result.iterations_run if result else None,
                                        "iterations")}

    def fingerprint(self, r: Round):
        result = r.values.get("fit")
        return (result.model.final_loss, result.iterations_run) if result else tuple(r.errors)

    def check(self, r: Round) -> list[str]:
        result = r.values.get("fit")
        if result is None:
            return []
        problems = _check_fit("fit", self.table, result, first_below_final=False)
        if result.iterations_run > self.config.max_iterations:
            problems.append(f"fit ran {result.iterations_run} iterations past its cap")
        return problems


WORKLOADS = {w.name: w for w in (PaperPipeline, CvGrid, Converge)}


def _comparisons(r: Round) -> list:
    return [value for key, value in r.values.items() if key.startswith("compare")]


def _check_round_trip(table, loaded) -> list[str]:
    """load_csv(write_csv(t)) equals t, column by column of the CSV."""
    def columns(t):
        return {
            "verb": np.array(t.verbs)[t.verb_idx], "frame": np.array(t.frames)[t.frame_idx],
            "subject": t.subj_idx, "tense": t.tense_idx,
            "participant": np.array(t.participants)[t.part_idx],
            "negraising": t.negraising, "acceptability": t.acceptability,
        }
    want, got = columns(table), columns(loaded)
    return [f"column {name} changed in the CSV round trip" for name in want
            if not np.array_equal(want[name], got[name])]


def _check_counts(spec, table, loaded) -> list[str]:
    """Counts of the loaded table and `summarize` against the generator's arrays."""
    n_cells = spec.n_verbs * spec.n_frames * 4
    n_records = n_cells * min(spec.ratings_per_cell, spec.n_participants)
    participants = np.array(table.participants)[table.part_idx]
    summary = nf.summarize(loaded)
    verbs_per = {}
    for k, tense in enumerate(nf.TENSE_LABELS):
        verbs_per[tense] = {frame: len(set(table.verb_idx[(table.tense_idx == k)
                                                          & (table.frame_idx == f)].tolist()))
                            for f, frame in enumerate(table.frames)}
    expected = {
        "n_records": n_records, "n_verbs": spec.n_verbs, "n_cells": n_cells,
        "n_participants": len(set(participants.tolist())),
        "verbs_per_tense_frame": verbs_per,
        "records_per_participant": dict(Counter(participants.tolist())),
    }
    problems = [f"summarize {key} = {summary[key]!r}, expected {value!r}"
                for key, value in expected.items() if summary[key] != value]
    if (table.n_records, table.n_cells) != (n_records, n_cells):
        problems.append("the generated table has the wrong record or cell count")
    if (loaded.n_records, loaded.n_cells) != (n_records, n_cells):
        problems.append("the loaded table has the wrong record or cell count")
    return problems


def _check_fit(key, table, result, first_below_final: bool) -> list[str]:
    """final_loss against the reference objective at the returned parameters."""
    model, problems = result.model, []
    terms = ref.model_objective(table, model)
    if not close(model.final_loss, terms.total, terms.scale):
        problems.append(f"{key}: final_loss {model.final_loss!r} but the reference objective "
                        f"is {terms.total!r}")
    if first_below_final and not model.final_loss < result.trajectory[0]:
        problems.append(f"{key}: final loss {model.final_loss!r} is not below the first "
                        f"iteration's {result.trajectory[0]!r}")
    sample = np.random.default_rng(0).choice(table.n_cells, size=min(8, table.n_cells),
                                             replace=False)
    zeta = ref.pair_events(model.factors, table.cells[sample])
    product = ref.cell_probabilities(model.factors, table.cells[sample])
    enumerated = np.array([ref.enumerated_probability(z) for z in zeta])
    if not np.allclose(product, enumerated, rtol=0.0, atol=1e-12):
        problems.append(f"{key}: plain-product cell probabilities disagree with enumeration")
    return problems


def _check_folds(table, fold_of: np.ndarray) -> list[str]:
    """Each cell is held out in exactly one fold or pinned, and every (verb,
    frame) pair keeps a training cell in every fold."""
    problems = []
    held_in = sum((fold_of == fold).astype(int) for fold in range(N_FOLDS))
    if np.any(held_in + (fold_of == -1) != 1):
        problems.append("a cell is held out in no fold, or in several, without being pinned")
    pairs = table.cells[:, 0] * table.n_frames + table.cells[:, 1]
    every_pair = set(pairs.tolist())
    for fold in range(N_FOLDS):
        if set(pairs[fold_of != fold].tolist()) != every_pair:
            problems.append(f"fold {fold} leaves some (verb, frame) pair without a training cell")
    return problems


def check_reference() -> list[str]:
    """The reference objective agrees with `negfactor.response.total_loss` on small random
    tables, and its plain-product cell probabilities with pair-event enumeration."""
    rng = np.random.default_rng(20_191_908)
    problems = []
    for case, (n_lexical, n_structural) in enumerate(((1, 1), (0, 2), (3, 0), (2, 3), (4, 4))):
        hyper = nf.Hyperparams(n_lexical, n_structural)
        n_verbs, n_frames, n_participants = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 4
        cells = np.array([(v, f, j, k) for v in range(n_verbs) for f in range(n_frames)
                          for j in range(2) for k in range(2)])
        raters = [rng.choice(n_participants, size=2, replace=False) for _ in cells]
        rows = np.array([(*cell, p) for cell, chosen in zip(cells, raters) for p in chosen])
        table = nf.ResponseTable.build(
            verbs=tuple(f"v{i}" for i in range(n_verbs)), frames=nf.FRAME_LABELS[:n_frames],
            participants=tuple(f"p{i}" for i in range(n_participants)),
            verb_idx=rows[:, 0], frame_idx=rows[:, 1], subj_idx=rows[:, 2], tense_idx=rows[:, 3],
            part_idx=rows[:, 4], negraising=rng.uniform(0.02, 0.98, len(rows)),
            acceptability=rng.uniform(0.02, 0.98, len(rows)))
        factors = nf.FactorParams.random(hyper, n_verbs, n_frames, rng, scale=2.0)

        def draw(size=None):
            return rng.normal(0.0, 0.5, size=size)
        effects = nf.EffectsParams(
            beta0=float(draw()), sigma0=float(draw()), beta=draw(n_participants),
            sigma=draw(n_participants), beta0_acc=float(draw()), sigma0_acc=float(draw()),
            beta_acc=draw(n_participants), sigma_acc=draw(n_participants),
            log_var_beta=float(draw()), log_var_sigma=float(draw()),
            log_var_beta_acc=float(draw()), log_var_sigma_acc=float(draw()))
        alpha = rng.normal(0.0, 1.5, size=table.n_cells)
        nu = ref.link_values(factors, table.cells)
        for mask in (None, rng.random(table.n_records) < 0.7):
            expected = nf.total_loss(table, factors, effects, nf.AcceptabilityCells(alpha),
                                     nr_mask=mask)
            terms = ref.objective(table, nu, alpha, effects, mask)
            if not close(terms.total, expected, terms.scale):
                problems.append(f"reference objective {terms.total!r} differs from total_loss "
                                f"{expected!r} on random table {case}")
        sample = table.cells[:4]
        enumerated = [ref.enumerated_probability(z) for z in ref.pair_events(factors, sample)]
        if not np.allclose(ref.cell_probabilities(factors, sample), enumerated,
                           rtol=0.0, atol=1e-12):
            problems.append(f"plain-product probabilities disagree with enumeration on "
                            f"random table {case}")
    return problems


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None
