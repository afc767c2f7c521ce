"""Loading, validation, indexing, and synthesis of judgment tables.

The canonical file format is a long-format UTF-8 CSV with header
``verb,frame,subject,tense,participant,negraising,acceptability``; one row
per rating, both slider responses in [0, 1]. A leading byte-order mark is
accepted. Responses exactly at 0 or 1 are clamped inward by 1e-4 at load
time because the divergence loss is undefined at the endpoints.

The data path holds little beyond the table. Loading collects each
record's indexes and responses in typed buffers, under 200 bytes per
record at its peak; writing streams records in blocks of
``WRITE_BLOCK_RECORDS``; and synthesis draws its rater scores in blocks
of at most ``ASSIGN_BLOCK_SCORES``, whatever the participant count.

Every file the package saves follows the conventions written once here:
JSON artifacts are sorted-key, two-space-indented text ending in a newline
(`JsonArtifact`, `json_text`, `write_json`, `read_json`) whose numbers are
read back as JSON numbers only (`json_numbers`), and tables are
UTF-8 CSV written from a header and rows (`write_rows`). Floats keep
Python's shortest round-trip form in both, so identical values produce
identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, RowError, SchemaError
from .factorization import (FACTOR_SLOTS, FactorParams, Hyperparams, factor_shapes, link_values,
                            require_numbers)
from .response import expit, logit

FRAME_LABELS = (
    "NP __ that S",
    "NP __ to VP[+ev]",
    "NP __ to VP[-ev]",
    "NP be __ that S",
    "NP be __ to VP[+ev]",
    "NP be __ to VP[-ev]",
)
SUBJECT_LABELS = ("first", "third")
TENSE_LABELS = ("past", "present")

CANONICAL_COLUMNS = ("verb", "frame", "subject", "tense", "participant", "negraising", "acceptability")

RESPONSE_EPS = 1e-4
# a planted factor probability is clipped to [PLANTED_CLIP, 1 - PLANTED_CLIP]
# before its logit
PLANTED_CLIP = 1e-9
# synthesis draws rater scores at most this many at a time, and write_csv
# formats this many records at a time
ASSIGN_BLOCK_SCORES = 1 << 18
WRITE_BLOCK_RECORDS = 1 << 12


def json_text(data: dict) -> str:
    """An artifact's JSON text, without the final newline."""
    return json.dumps(data, indent=2, sort_keys=True)


def write_json(path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json_text(data) + "\n")


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def json_numbers(value, kind=float, null: bool = False) -> np.ndarray | None:
    """``value`` (nested lists, or one entry) as an array of ``kind``, or
    None if an entry is not a number of that kind (an int is a float too,
    and a bool or a string is neither) or does not fit in it; with
    ``null``, a null entry is NaN."""
    entries = np.asarray(value, dtype=object)
    if null:
        entries[np.equal(entries, None)] = np.nan
    allowed = (int, float) if kind is float else int
    if any(t is bool or not issubclass(t, allowed) for t in set(map(type, entries.flat))):
        return None
    try:
        return entries.astype(kind)
    except OverflowError:
        return None


def write_rows(path, header, rows) -> None:
    """A CSV table; floats are written by csv as their repr."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


class JsonArtifact:
    """``to_json``, ``save`` and ``load`` for a class with ``to_dict`` and
    ``from_dict``: a file the package reads back as well as writes. An
    output-only file (the analysis bundle, a comparison record) is written
    with ``write_json`` from its ``to_dict``."""

    def to_json(self) -> str:
        return json_text(self.to_dict())

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path):
        return cls.from_dict(read_json(path))


def clamp_responses(values: np.ndarray) -> np.ndarray:
    return np.clip(values, RESPONSE_EPS, 1.0 - RESPONSE_EPS)


@dataclass
class ResponseTable:
    """Column-oriented judgment records with dense integer indexes.

    ``cells`` lists the distinct observed (verb, frame, subject, tense)
    combinations in lexicographic index order; ``cell_idx`` maps each
    record to its row in that list.
    """

    verbs: tuple[str, ...]
    frames: tuple[str, ...]
    participants: tuple[str, ...]
    verb_idx: np.ndarray
    frame_idx: np.ndarray
    subj_idx: np.ndarray
    tense_idx: np.ndarray
    part_idx: np.ndarray
    negraising: np.ndarray
    acceptability: np.ndarray
    cells: np.ndarray = field(repr=False)
    cell_idx: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, verbs, frames, participants, verb_idx, frame_idx, subj_idx, tense_idx,
              part_idx, negraising, acceptability) -> "ResponseTable":
        """Construct a table from raw columns, deriving the cell index;
        unequal columns or an index outside its labels raise DimensionError."""
        verb_idx = np.asarray(verb_idx, dtype=np.int64)
        frame_idx = np.asarray(frame_idx, dtype=np.int64)
        subj_idx = np.asarray(subj_idx, dtype=np.int64)
        tense_idx = np.asarray(tense_idx, dtype=np.int64)
        part_idx = np.asarray(part_idx, dtype=np.int64)
        negraising = np.asarray(negraising, dtype=float)
        acceptability = np.asarray(acceptability, dtype=float)
        columns = (verb_idx, frame_idx, subj_idx, tense_idx, part_idx, negraising, acceptability)
        if len({column.shape for column in columns}) > 1:
            raise DimensionError("every column must hold one entry per record")
        if np.any((part_idx < 0) | (part_idx >= len(participants))):
            raise DimensionError(
                f"a participant index lies outside the {len(participants)} participants")
        shape = (len(verbs), len(frames), len(SUBJECT_LABELS), len(TENSE_LABELS))
        try:
            key = np.ravel_multi_index((verb_idx, frame_idx, subj_idx, tense_idx), shape)
        except ValueError:
            raise DimensionError(f"an index lies outside its labels, of sizes {shape}") from None
        cell_keys, cell_idx = np.unique(key, return_inverse=True)
        return cls(
            verbs=tuple(verbs),
            frames=tuple(frames),
            participants=tuple(participants),
            verb_idx=verb_idx,
            frame_idx=frame_idx,
            subj_idx=subj_idx,
            tense_idx=tense_idx,
            part_idx=part_idx,
            negraising=negraising,
            acceptability=acceptability,
            cells=np.stack(np.unravel_index(cell_keys, shape), axis=1),
            cell_idx=cell_idx,
        )

    @property
    def n_records(self) -> int:
        return self.negraising.shape[0]

    @property
    def n_verbs(self) -> int:
        return len(self.verbs)

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def n_participants(self) -> int:
        return len(self.participants)

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    def cell_pair_ids(self) -> np.ndarray:
        """(verb, frame) pair id per cell, for coverage constraints."""
        return self.cells[:, 0] * self.n_frames + self.cells[:, 1]

    def cell_mean(self, values: np.ndarray) -> np.ndarray:
        sums = np.bincount(self.cell_idx, weights=values, minlength=self.n_cells)
        counts = np.bincount(self.cell_idx, minlength=self.n_cells)
        return sums / counts


def load_csv(path, schema: dict[str, str] | None = None, on_error: str = "fail",
             drop_participants: tuple[str, ...] = ()) -> ResponseTable:
    """Read a judgment CSV into a ResponseTable.

    Args:
        path: CSV file with the canonical header (or the names mapped by
            ``schema``).
        schema: optional map from canonical column names to the names used
            in the file, for ingesting differently labeled exports.
        on_error: "fail" raises RowError at the first bad row; "drop" skips
            bad rows and emits one summary warning.
        drop_participants: participant ids to exclude while loading.

    Raises:
        SchemaError: a required column is missing from the header.
        RowError: a row has an unparseable or out-of-range response, a
            missing or empty verb or participant, or an unknown
            frame/subject/tense label (only when on_error="fail").
    """
    if on_error not in ("fail", "drop"):
        raise ValueError(f'on_error must be "fail" or "drop", got {on_error!r}')
    unknown = sorted(set(schema or ()) - set(CANONICAL_COLUMNS))
    if unknown:
        raise ValueError(f"schema keys name no canonical column: {unknown}")
    if isinstance(drop_participants, str):
        raise TypeError("drop_participants must be a collection of ids, not one string")
    colmap = {name: name for name in CANONICAL_COLUMNS} | (schema or {})
    dropped_participants = set(drop_participants)

    frame_ids = {label: i for i, label in enumerate(FRAME_LABELS)}
    subject_ids = {label: i for i, label in enumerate(SUBJECT_LABELS)}
    tense_ids = {label: i for i, label in enumerate(TENSE_LABELS)}

    verbs: dict[str, int] = {}
    participants: dict[str, int] = {}
    # one typed buffer per index column and response, so a record costs no
    # Python objects once read
    verb_col, frame_col, subj_col, tense_col, part_col = (array("q") for _ in range(5))
    nr_col, acc_col = array("d"), array("d")
    n_dropped = 0

    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        for canonical in CANONICAL_COLUMNS:
            if colmap[canonical] not in header:
                raise SchemaError(f"missing column {colmap[canonical]!r} (for {canonical!r})")
        # a name the header repeats reads its last column
        position = {name: i for i, name in enumerate(header)}
        columns = [position[colmap[canonical]] for canonical in CANONICAL_COLUMNS]
        for row in reader:
            if not row:  # a blank line
                continue
            row += [None] * (len(header) - len(row))  # a short record reads as missing values
            verb, frame, subject, tense, participant, nr, acc = (row[i] for i in columns)
            if participant in dropped_participants:
                continue
            line = reader.line_num  # where the record ends, past blank lines and quoted newlines
            try:
                if not verb or not participant:
                    raise RowError(line, f"missing {'participant' if verb else 'verb'}")
                if frame not in frame_ids:
                    raise RowError(line, f"unknown frame label {frame!r}")
                if subject not in subject_ids:
                    raise RowError(line, f"unknown subject label {subject!r}")
                if tense not in tense_ids:
                    raise RowError(line, f"unknown tense label {tense!r}")
                nr_value = _response(line, "negraising", nr)
                acc_value = _response(line, "acceptability", acc)
            except RowError:
                if on_error == "fail":
                    raise
                n_dropped += 1
                continue
            verb_col.append(verbs.setdefault(verb, len(verbs)))
            frame_col.append(frame_ids[frame])
            subj_col.append(subject_ids[subject])
            tense_col.append(tense_ids[tense])
            part_col.append(participants.setdefault(participant, len(participants)))
            nr_col.append(nr_value)
            acc_col.append(acc_value)

    if n_dropped:
        warnings.warn(f"dropped {n_dropped} malformed rows while loading {path}")
    if not part_col:
        raise SchemaError(f"no usable rows in {path}")

    verb_idx, frame_idx, subj_idx, tense_idx, part_idx = (
        np.frombuffer(column, dtype=np.int64)
        for column in (verb_col, frame_col, subj_col, tense_col, part_col))
    frames_used, frame_idx = np.unique(frame_idx, return_inverse=True)
    return ResponseTable.build(tuple(verbs), tuple(FRAME_LABELS[i] for i in frames_used),
                               tuple(participants), verb_idx, frame_idx, subj_idx, tense_idx,
                               part_idx, clamp_responses(np.frombuffer(nr_col)),
                               clamp_responses(np.frombuffer(acc_col)))


def _response(line_number: int, column: str, raw: str | None) -> float:
    """One slider response, which must be a number in [0, 1]."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise RowError(line_number, f"{column} value {raw!r} is not a number") from None
    if not 0.0 <= value <= 1.0:
        raise RowError(line_number, f"{column} value {value} outside [0, 1]")
    return value


def labels_at(labels, index: np.ndarray) -> list:
    """The label of each index, as a list."""
    return np.asarray(labels, dtype=object)[index].tolist()


def write_csv(table: ResponseTable, path) -> None:
    """Write a table in the canonical format; load_csv(write_csv(t)) == t."""
    def rows():
        for start in range(0, table.n_records, WRITE_BLOCK_RECORDS):
            block = slice(start, start + WRITE_BLOCK_RECORDS)
            yield from zip(
                labels_at(table.verbs, table.verb_idx[block]),
                labels_at(table.frames, table.frame_idx[block]),
                labels_at(SUBJECT_LABELS, table.subj_idx[block]),
                labels_at(TENSE_LABELS, table.tense_idx[block]),
                labels_at(table.participants, table.part_idx[block]),
                table.negraising[block].tolist(),
                table.acceptability[block].tolist(),
            )
    write_rows(path, CANONICAL_COLUMNS, rows())


def summarize(table: ResponseTable) -> dict:
    """Counts of verbs per (tense, frame) cell and records per participant."""
    verbs_per_tense_frame: dict[str, dict[str, int]] = {}
    for k, tense in enumerate(TENSE_LABELS):
        verbs_per_tense_frame[tense] = {}
        for f, frame in enumerate(table.frames):
            mask = (table.tense_idx == k) & (table.frame_idx == f)
            verbs_per_tense_frame[tense][frame] = int(np.unique(table.verb_idx[mask]).size)
    per_participant = np.bincount(table.part_idx, minlength=table.n_participants)
    return {
        "n_records": int(table.n_records),
        "n_verbs": int(table.n_verbs),
        "n_participants": int(table.n_participants),
        "n_cells": int(table.n_cells),
        "frames": list(table.frames),
        "verbs_per_tense_frame": verbs_per_tense_frame,
        "records_per_participant": {
            participant: int(per_participant[i]) for i, participant in enumerate(table.participants)
        },
        "mean_negraising": float(table.negraising.mean()),
        "mean_acceptability": float(table.acceptability.mean()),
    }


@dataclass
class PlantedFactors:
    """Probability-scale factor arrays used to generate synthetic data.

    Boolean planted structure is the special case of entries in {0, 1};
    graded entries are allowed so that recovery on ranked quantities is
    measurable.
    """

    # one field per factor slot, in slot order (see factor_shapes); a
    # frozen side's arrays have size zero
    lambda_: np.ndarray
    pi: np.ndarray
    omega: np.ndarray
    psi: np.ndarray
    phi: np.ndarray

    def hyper(self) -> Hyperparams:
        return Hyperparams(n_lexical=self.psi.shape[1], n_structural=self.lambda_.shape[1])

    def arrays(self) -> dict[str, np.ndarray]:
        return dict(zip(FACTOR_SLOTS, vars(self).values()))

    def to_dict(self) -> dict:
        return {slot: p.tolist() for slot, p in self.arrays().items()}

    @classmethod
    def from_dict(cls, data: dict, n_frames: int) -> "PlantedFactors":
        # JSON keeps no shape for an empty array, so a frozen side's pi,
        # omega or phi comes back as [] and takes its slot's shape here
        arrays = [json_numbers(data[slot]) for slot in FACTOR_SLOTS]
        if any(a is None for a in arrays):
            raise SchemaError("true_factors entries must be numbers")
        shapes = factor_shapes(cls(*arrays).hyper(), len(arrays[0]), n_frames).values()
        return cls(*(a.reshape(shape) if a.size == 0 == math.prod(shape) else a
                     for a, shape in zip(arrays, shapes)))

    def as_factor_params(self) -> FactorParams:
        """Logit-scale view of the planted factors (entries clipped inward by
        PLANTED_CLIP)."""
        return FactorParams(self.hyper(), self.lambda_.shape[0], self.pi.shape[1], **{
            FACTOR_SLOTS[slot]:
                logit(np.clip(p, PLANTED_CLIP, 1 - PLANTED_CLIP)) if p.size else None
            for slot, p in self.arrays().items()
        })


@dataclass
class PlantedSpec(JsonArtifact):
    """Recipe for a synthetic dataset with known latent structure.

    When ``true_factors`` is None, factors are drawn uniformly: membership
    entries from [0.05, 0.95] and licensing entries from [0.6, 0.98], which
    keeps planted cell probabilities spread over the unit interval.
    """

    n_verbs: int
    n_frames: int = 6
    n_participants: int = 20
    n_lexical: int = 1
    n_structural: int = 1
    noise_scale: float = 0.05
    seed: int = 0
    ratings_per_cell: int = 10
    beta0: float = 0.0
    sigma0: float = 0.0
    participant_shift_sd: float = 0.0
    participant_scale_sd: float = 0.0
    acceptability: float = 0.9
    true_factors: PlantedFactors | None = None

    def __post_init__(self):
        require_numbers(self, DimensionError)
        if self.n_verbs <= 0 or self.n_participants <= 0 or self.ratings_per_cell < 1:
            raise DimensionError("n_verbs, n_participants and ratings_per_cell must be positive")
        if not 1 <= self.n_frames <= len(FRAME_LABELS):
            raise DimensionError(f"n_frames must be in 1..{len(FRAME_LABELS)}")
        if not (self.noise_scale >= 0 and self.participant_shift_sd >= 0
                and self.participant_scale_sd >= 0 and self.seed >= 0):
            raise DimensionError("noise_scale, the participant sds and seed must be nonnegative")
        if not 0 <= self.acceptability <= 1:
            raise DimensionError("acceptability must be in [0, 1]")
        if not (math.isfinite(self.beta0) and math.isfinite(self.sigma0)):
            raise DimensionError("beta0 and sigma0 must be finite")
        if self.true_factors is not None:
            hyper = self.true_factors.hyper()
            if hyper.as_tuple() != (self.n_lexical, self.n_structural):
                raise DimensionError(
                    f"true_factors have (n_lexical, n_structural) = {hyper.as_tuple()}, "
                    f"but the spec names ({self.n_lexical}, {self.n_structural})"
                )
            arrays = self.true_factors.arrays()
            expected = factor_shapes(hyper, self.n_verbs, self.n_frames)
            for slot, shape in expected.items():
                if arrays[slot].shape != shape:
                    raise DimensionError(
                        f"true_factors.{slot} has shape {arrays[slot].shape}, expected {shape}"
                    )
                if not np.all((arrays[slot] >= 0) & (arrays[slot] <= 1)):
                    raise DimensionError(f"true_factors.{slot} entries must be in [0, 1]")

    def to_dict(self) -> dict:
        factors = self.true_factors
        return {**vars(self), "true_factors": factors.to_dict() if factors else None}

    @classmethod
    def from_dict(cls, data: dict) -> "PlantedSpec":
        spec = cls(**{**data, "true_factors": None})
        if data.get("true_factors") is None:
            return spec
        return replace(spec, true_factors=PlantedFactors.from_dict(data["true_factors"],
                                                                   spec.n_frames))


def _draw_planted_factors(spec: PlantedSpec, rng: np.random.Generator) -> PlantedFactors:
    # membership entries (lambda, pi, psi) and licensing entries (omega, phi)
    shapes = factor_shapes(Hyperparams(spec.n_lexical, spec.n_structural),
                           spec.n_verbs, spec.n_frames)
    return PlantedFactors(*(
        rng.uniform(*((0.6, 0.98) if slot in ("omega", "phi") else (0.05, 0.95)), size=shape)
        for slot, shape in shapes.items()
    ))


def sample_participant_effects(spec: PlantedSpec):
    """The participant effect draws generate_synthetic uses, reproducibly.

    Returns (shift, log_scale, shift_acc, log_scale_acc), each (n_participants,).
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(5)[1])
    shift = rng.normal(0.0, spec.participant_shift_sd, size=spec.n_participants)
    log_scale = rng.normal(0.0, spec.participant_scale_sd, size=spec.n_participants)
    shift_acc = rng.normal(0.0, spec.participant_shift_sd, size=spec.n_participants)
    log_scale_acc = rng.normal(0.0, spec.participant_scale_sd, size=spec.n_participants)
    return shift, log_scale, shift_acc, log_scale_acc


def generate_synthetic(spec: PlantedSpec) -> tuple[ResponseTable, PlantedSpec]:
    """Draw a synthetic table from planted factors through the response link.

    Every (verb, frame, subject, tense) cell receives ratings_per_cell
    ratings from distinct participants. Gaussian response noise is added on
    the probability scale and the result clamped like loaded data. Returns
    the table and a copy of the spec with ``true_factors`` resolved.

    Deterministic in spec.seed; the factor, effect, assignment, and noise
    draws use independent child streams so that supplying explicit factors
    does not shift the remaining draws.
    """
    streams = np.random.SeedSequence(spec.seed).spawn(5)
    factors = spec.true_factors
    if factors is None:
        factors = _draw_planted_factors(spec, np.random.default_rng(streams[0]))
    resolved = replace(spec, true_factors=factors)

    shift, log_scale, shift_acc, log_scale_acc = sample_participant_effects(spec)

    n_cells = spec.n_verbs * spec.n_frames * 4
    cells = np.stack(np.unravel_index(np.arange(n_cells), (spec.n_verbs, spec.n_frames, 2, 2)),
                     axis=1)
    per_cell = min(spec.ratings_per_cell, spec.n_participants)
    # a cell's raters are the per_cell lowest scores of its row; drawn a
    # block of rows at a time, the scores are those of one draw of them all
    assign_rng = np.random.default_rng(streams[2])
    rows = max(1, ASSIGN_BLOCK_SCORES // spec.n_participants)
    scores = (assign_rng.random((min(rows, n_cells - start), spec.n_participants))
              for start in range(0, n_cells, rows))
    raters = np.concatenate([np.sort(np.argsort(block, axis=1)[:, :per_cell], axis=1)
                             for block in scores])  # (n_cells, per_cell)

    verb_idx, frame_idx, subj_idx, tense_idx = (np.repeat(column, per_cell) for column in cells.T)
    part_idx = raters.reshape(-1)

    nu = link_values(factors.as_factor_params(), cells)
    scale = np.exp(spec.sigma0 + log_scale)[part_idx]
    r_clean = expit(scale * np.repeat(nu, per_cell) + spec.beta0 + shift[part_idx])

    alpha_value = logit(np.clip(spec.acceptability, RESPONSE_EPS, 1.0 - RESPONSE_EPS))
    scale_acc = np.exp(spec.sigma0 + log_scale_acc)[part_idx]
    a_clean = expit(scale_acc * alpha_value + spec.beta0 + shift_acc[part_idx])

    noise_nr = np.random.default_rng(streams[3]).normal(0.0, 1.0, size=r_clean.size)
    noise_acc = np.random.default_rng(streams[4]).normal(0.0, 1.0, size=a_clean.size)

    table = ResponseTable.build(
        verbs=tuple(f"v{i:03d}" for i in range(spec.n_verbs)),
        frames=tuple(FRAME_LABELS[: spec.n_frames]),
        participants=tuple(f"p{i:03d}" for i in range(spec.n_participants)),
        verb_idx=verb_idx,
        frame_idx=frame_idx,
        subj_idx=subj_idx,
        tense_idx=tense_idx,
        part_idx=part_idx,
        negraising=clamp_responses(r_clean + spec.noise_scale * noise_nr),
        acceptability=clamp_responses(a_clean + spec.noise_scale * noise_acc),
    )
    return table, resolved
