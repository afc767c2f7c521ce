"""Loading, validation, synthesis, and round-trip behavior of judgment tables."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from negfactor.dataset import (
    ASSIGN_BLOCK_SCORES,
    CANONICAL_COLUMNS,
    FRAME_LABELS,
    LOAD_BLOCK_RECORDS,
    RESPONSE_EPS,
    SUBJECT_LABELS,
    TENSE_LABELS,
    WRITE_BLOCK_RECORDS,
    PlantedFactors,
    PlantedSpec,
    ResponseTable,
    clamp_responses,
    generate_synthetic,
    json_text,
    load_csv,
    sample_participant_effects,
    summarize,
    write_csv,
    write_rows,
)
from negfactor.errors import DimensionError, RowError, SchemaError
from negfactor.factorization import link_values
from negfactor.response import expit

from conftest import cell_probability, random_table

DATA = Path(__file__).parent / "data"
HEADER = "verb,frame,subject,tense,participant,negraising,acceptability"


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_two_rows(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [
            HEADER,
            f'think,"{FRAME_LABELS[0]}",first,past,p1,0.9,0.8',
            f'know,"{FRAME_LABELS[3]}",third,present,p2,0.1,0.7',
        ])
        table = load_csv(path)
        assert table.verbs == ("think", "know")
        assert table.frames == (FRAME_LABELS[0], FRAME_LABELS[3])
        assert table.participants == ("p1", "p2")
        assert table.n_records == 2
        assert table.n_cells == 2
        assert_array_equal(table.verb_idx, [0, 1])
        assert_array_equal(table.frame_idx, [0, 1])
        assert_array_equal(table.subj_idx, [0, 1])
        assert_array_equal(table.tense_idx, [0, 1])
        assert_allclose(table.negraising, [0.9, 0.1], rtol=0)
        assert_allclose(table.acceptability, [0.8, 0.7], rtol=0)

    def test_missing_column_is_schema_error(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [
            "verb,frame,subject,tense,negraising,acceptability",
            f'think,"{FRAME_LABELS[0]}",first,past,0.9,0.8',
        ])
        with pytest.raises(SchemaError, match="participant"):
            load_csv(path)

    def test_schema_map_renames_columns(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [
            "predicate,frame,subject,tense,worker,nr,acc",
            f'think,"{FRAME_LABELS[0]}",first,past,p1,0.9,0.8',
        ])
        table = load_csv(path, schema={
            "verb": "predicate", "participant": "worker",
            "negraising": "nr", "acceptability": "acc",
        })
        assert table.verbs == ("think",)
        assert table.negraising[0] == 0.9

    def test_bad_response_reports_line_number(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [
            HEADER,
            f'think,"{FRAME_LABELS[0]}",first,past,p1,0.9,0.8',
            f'know,"{FRAME_LABELS[0]}",first,past,p1,high,0.8',
        ])
        with pytest.raises(RowError, match="line 3"):
            load_csv(path)

    def test_line_number_counts_blank_lines(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [
            HEADER,
            f'think,"{FRAME_LABELS[0]}",first,past,p1,0.9,0.8',
            "",
            "",
            f'know,"{FRAME_LABELS[0]}",first,past,p1,high,0.8',
        ])
        with pytest.raises(RowError, match="line 5"):
            load_csv(path)

    def test_line_number_counts_quoted_newlines(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [
            HEADER,
            f'"think\nhard","{FRAME_LABELS[0]}",first,past,p1,0.9,0.8',
            f'know,"{FRAME_LABELS[0]}",first,past,p1,high,0.8',
        ])
        with pytest.raises(RowError, match="line 4"):
            load_csv(path)

    def test_out_of_range_response(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [
            HEADER,
            f'think,"{FRAME_LABELS[0]}",first,past,p1,1.5,0.8',
        ])
        with pytest.raises(RowError, match="outside"):
            load_csv(path)

    def test_unknown_labels(self, tmp_path):
        for column, row in [
            ("frame", 'think,"NP sings",first,past,p1,0.9,0.8'),
            ("subject", f'think,"{FRAME_LABELS[0]}",second,past,p1,0.9,0.8'),
            ("tense", f'think,"{FRAME_LABELS[0]}",first,future,p1,0.9,0.8'),
        ]:
            path = write_lines(tmp_path / f"{column}.csv", [HEADER, row])
            with pytest.raises(RowError, match=column):
                load_csv(path)

    def test_drop_mode_warns_and_skips(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [
            HEADER,
            f'think,"{FRAME_LABELS[0]}",first,past,p1,0.9,0.8',
            f'know,"{FRAME_LABELS[0]}",first,past,p1,oops,0.8',
            f'want,"{FRAME_LABELS[0]}",first,past,p2,7,0.8',
            f'say,"{FRAME_LABELS[0]}",third,present,p2,0.2,0.6',
        ])
        with pytest.warns(UserWarning, match="dropped 2"):
            table = load_csv(path, on_error="drop")
        assert table.verbs == ("think", "say")
        assert table.n_records == 2

    def test_drop_participants(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [
            HEADER,
            f'think,"{FRAME_LABELS[0]}",first,past,p1,0.9,0.8',
            f'think,"{FRAME_LABELS[0]}",first,past,bot,0.5,0.5',
        ])
        table = load_csv(path, drop_participants=("bot",))
        assert table.participants == ("p1",)
        assert table.n_records == 1

    def test_bare_string_drop_participants_rejected(self, tmp_path):
        # set("bot") would drop raters "b", "o" and "t" instead of "bot"
        path = write_lines(tmp_path / "t.csv", [
            HEADER,
            f'think,"{FRAME_LABELS[0]}",first,past,bot,0.5,0.5',
        ])
        with pytest.raises(TypeError, match="drop_participants"):
            load_csv(path, drop_participants="bot")

    def test_schema_key_naming_no_column_rejected(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [
            "predicate,frame,subject,tense,participant,negraising,acceptability",
            f'think,"{FRAME_LABELS[0]}",first,past,p1,0.9,0.8',
        ])
        with pytest.raises(ValueError, match="verbs"):
            load_csv(path, schema={"verbs": "predicate"})

    def test_endpoint_responses_are_clamped(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [
            HEADER,
            f'think,"{FRAME_LABELS[0]}",first,past,p1,0.0,1.0',
        ])
        table = load_csv(path)
        assert table.negraising[0] == RESPONSE_EPS
        assert table.acceptability[0] == 1.0 - RESPONSE_EPS

    def test_short_record_is_a_row_error_naming_its_line(self, tmp_path):
        rows = [HEADER, f'think,"{FRAME_LABELS[0]}",first,past,p1,0.9,0.8',
                f'know,"{FRAME_LABELS[0]}",first,past,p1,0.9']
        path = write_lines(tmp_path / "t.csv", rows)
        with pytest.raises(RowError, match="line 3: acceptability value None is not a number"):
            load_csv(path)
        with pytest.warns(UserWarning, match="dropped 1"):
            assert load_csv(path, on_error="drop").verbs == ("think",)

    @pytest.mark.parametrize("column", ["verb", "participant"])
    def test_missing_or_empty_label_is_a_row_error_naming_its_line(self, tmp_path, column):
        # with the column last in the header, a record one field short lacks
        # it; write_csv would write either kind as an empty label
        values = {"verb": "think", "frame": f'"{FRAME_LABELS[0]}"', "subject": "first",
                  "tense": "past", "participant": "p1", "negraising": "0.9", "acceptability": "0.8"}
        names = [name for name in values if name != column] + [column]
        good = ",".join(values[name] for name in names)
        short = good.rsplit(",", 1)[0]
        for kind, bad in (("missing", short), ("empty", short + ",")):
            path = write_lines(tmp_path / f"{kind}.csv", [",".join(names), good, bad])
            with pytest.raises(RowError, match=f"line 3: missing {column}"):
                load_csv(path)
            with pytest.warns(UserWarning, match="dropped 1"):
                table = load_csv(path, on_error="drop")
            assert (table.verbs, table.participants, table.n_records) == (("think",), ("p1",), 1)

    # each pair of adjacent checks fails together in one record, so any
    # reordering of the checks changes some record's message
    @pytest.mark.parametrize("changes, message", [
        ({"verb": "", "participant": ""}, "missing verb"),
        ({"participant": "", "frame": "NP sings"}, "missing participant"),
        ({"frame": "NP sings", "subject": "second"}, "unknown frame label 'NP sings'"),
        ({"subject": "second", "tense": "future"}, "unknown subject label 'second'"),
        ({"subject": "second", "negraising": "high"}, "unknown subject label 'second'"),
        ({"tense": "future", "negraising": "high"}, "unknown tense label 'future'"),
        ({"frame": "NP sings", "acceptability": "2"}, "unknown frame label 'NP sings'"),
        ({"negraising": "high", "acceptability": "2"}, "negraising value 'high' is not a number"),
        ({"negraising": "nan"}, r"negraising value nan outside \[0, 1\]"),
    ], ids=lambda value: "+".join(value) if isinstance(value, dict) else None)
    def test_first_failing_check_in_row_order_names_the_error(self, tmp_path, changes, message):
        values = {"verb": "think", "frame": FRAME_LABELS[0], "subject": "first", "tense": "past",
                  "participant": "p1", "negraising": "0.9", "acceptability": "0.8"} | changes
        good = f'think,"{FRAME_LABELS[0]}",first,past,p1,0.9,0.8'
        bad = ",".join(f'"{values[name]}"' for name in CANONICAL_COLUMNS)
        path = write_lines(tmp_path / "t.csv", [HEADER, good, bad])
        with pytest.raises(RowError, match=f"^line 3: {message}$"):
            load_csv(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_line_number_of_a_file_read_once(self, tmp_path):
        # a pipe cannot be read twice: the line comes from the one pass, past
        # the first block and after a record that spans lines
        rows = [f'v{k},"{FRAME_LABELS[0]}",first,past,p{k},0.5,0.5' for k in range(600)]
        rows[400] = rows[400].replace("v400", '"v\n400"')
        rows[450] = rows[450].replace("0.5", "high", 1)
        path = tmp_path / "pipe"
        os.mkfifo(path)

        def write():
            try:
                with open(path, "w", encoding="utf-8") as pipe:
                    pipe.write("\n".join([HEADER, *rows]) + "\n")
            except BrokenPipeError:  # the loader stopped reading at the bad record
                pass

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            with pytest.raises(RowError, match="^line 453: negraising value 'high' is not a"):
                load_csv(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_extra_trailing_field_is_ignored(self, tmp_path):
        row = f'think,"{FRAME_LABELS[0]}",first,past,p1,0.9,0.8'
        plain = load_csv(write_lines(tmp_path / "plain.csv", [HEADER, row]))
        extra = load_csv(write_lines(tmp_path / "extra.csv", [HEADER, row + ",note"]))
        assert decoded_records(extra) == decoded_records(plain)

    def test_empty_file_is_schema_error(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [HEADER])
        with pytest.raises(SchemaError, match="no usable rows"):
            load_csv(path)

    def test_byte_order_mark_is_accepted(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with one
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (DATA / "data_small.csv").read_bytes())
        table, plain = load_csv(path), load_csv(DATA / "data_small.csv")
        assert table_fields(table) == table_fields(plain)
        again = tmp_path / "again.csv"
        write_csv(table, again)
        assert again.read_bytes() == (DATA / "data_small.csv").read_bytes()

    def test_bad_on_error_value(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [HEADER])
        with pytest.raises(ValueError, match="on_error"):
            load_csv(path, on_error="ignore")


def table_fields(table):
    """Every field of a table, arrays as (dtype, shape, bytes)."""
    return {name: (value.dtype, value.shape, value.tobytes())
            if isinstance(value, np.ndarray) else value for name, value in vars(table).items()}


def traced_peak(thunk) -> int:
    """Peak bytes traced above the starting level while ``thunk`` runs."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        thunk()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def decoded_records(table):
    return [
        (
            table.verbs[table.verb_idx[n]],
            table.frames[table.frame_idx[n]],
            int(table.subj_idx[n]),
            int(table.tense_idx[n]),
            table.participants[table.part_idx[n]],
            float(table.negraising[n]),
            float(table.acceptability[n]),
        )
        for n in range(table.n_records)
    ]


class TestRoundTrip:
    def test_write_then_load_preserves_content(self, tmp_path):
        rng = np.random.default_rng(11)
        table = random_table(rng, n_verbs=4, n_frames=3, n_participants=5,
                             ratings_per_cell=3)
        path = tmp_path / "round.csv"
        write_csv(table, path)
        back = load_csv(path)
        assert decoded_records(back) == decoded_records(table)
        assert set(back.verbs) == set(table.verbs)
        assert back.frames == table.frames

    def test_round_trip_is_a_byte_stable_fixpoint(self, tmp_path):
        rng = np.random.default_rng(12)
        table = random_table(rng, n_verbs=3, n_frames=2, n_participants=4)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(table, first)
        write_csv(load_csv(first), second)
        assert first.read_bytes() == second.read_bytes()


    def test_file_of_an_earlier_version_is_reproduced_byte_for_byte(self, tmp_path):
        # written by an earlier version of the package (`data synth`)
        path = tmp_path / "again.csv"
        write_csv(load_csv(DATA / "data_small.csv"), path)
        assert path.read_bytes() == (DATA / "data_small.csv").read_bytes()


def row_reader_load_csv(path, schema=None, on_error="fail", drop_participants=()):
    """load_csv as it read a file before it read blocks: one record at a
    time, each check raising at once. The blocked loader must agree with it
    bit for bit, error for error."""
    colmap = {name: name for name in CANONICAL_COLUMNS} | (schema or {})
    dropped_participants = set(drop_participants)
    frame_ids = {label: i for i, label in enumerate(FRAME_LABELS)}
    subject_ids = {label: i for i, label in enumerate(SUBJECT_LABELS)}
    tense_ids = {label: i for i, label in enumerate(TENSE_LABELS)}
    verbs, participants, records = {}, {}, []
    n_dropped = 0

    def response(line, column, raw):
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise RowError(line, f"{column} value {raw!r} is not a number") from None
        if not 0.0 <= value <= 1.0:
            raise RowError(line, f"{column} value {value} outside [0, 1]")
        return value

    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        for canonical in CANONICAL_COLUMNS:
            if colmap[canonical] not in header:
                raise SchemaError(f"missing column {colmap[canonical]!r} (for {canonical!r})")
        position = {name: i for i, name in enumerate(header)}
        columns = [position[colmap[canonical]] for canonical in CANONICAL_COLUMNS]
        for row in reader:
            if not row:
                continue
            row += [None] * (len(header) - len(row))
            verb, frame, subject, tense, participant, nr, acc = (row[i] for i in columns)
            if participant in dropped_participants:
                continue
            line = reader.line_num
            try:
                if not verb or not participant:
                    raise RowError(line, f"missing {'participant' if verb else 'verb'}")
                if frame not in frame_ids:
                    raise RowError(line, f"unknown frame label {frame!r}")
                if subject not in subject_ids:
                    raise RowError(line, f"unknown subject label {subject!r}")
                if tense not in tense_ids:
                    raise RowError(line, f"unknown tense label {tense!r}")
                values = response(line, "negraising", nr), response(line, "acceptability", acc)
            except RowError:
                if on_error == "fail":
                    raise
                n_dropped += 1
                continue
            records.append((verbs.setdefault(verb, len(verbs)), frame_ids[frame],
                            subject_ids[subject], tense_ids[tense],
                            participants.setdefault(participant, len(participants)), *values))
    if n_dropped:
        warnings.warn(f"dropped {n_dropped} malformed rows while loading {path}")
    if not records:
        raise SchemaError(f"no usable rows in {path}")
    verb_idx, frame_idx, subj_idx, tense_idx, part_idx, nr_col, acc_col = zip(*records)
    frames_used, frame_idx = np.unique(np.array(frame_idx, dtype=np.int64), return_inverse=True)
    return ResponseTable.build(tuple(verbs), tuple(FRAME_LABELS[i] for i in frames_used),
                               tuple(participants), verb_idx, frame_idx, subj_idx, tense_idx,
                               part_idx, clamp_responses(np.array(nr_col)),
                               clamp_responses(np.array(acc_col)))


def load_outcome(load, path, **kwargs):
    """The table's fields or the exception's type and text, with the
    warnings' texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = table_fields(load(path, **kwargs))
        except (RowError, SchemaError, csv.Error, UnicodeDecodeError) as err:
            result = (type(err), str(err))
    return result, [str(warning.message) for warning in caught]


def error_place(path, line):
    """The block of the record that ends at ``line``, and whether a record
    before it in its block spans lines."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        next(reader)
        spans = []
        for k, _ in enumerate(reader):
            spans.append(reader.line_num - sum(spans) - 1)
            if reader.line_num == line:
                first = k - k % LOAD_BLOCK_RECORDS
                return k // LOAD_BLOCK_RECORDS, max(spans[first:k], default=1) > 1
    raise AssertionError(f"no record ends at line {line}")


AWKWARD_LABELS = ("say, then", 'quote"d', "cr\rlf\n", " lead", "trail ", "naïve", "")
AWKWARD_FLOATS = (-0.0, 1e-05, 5e-324, 1e16, 0.1 + 0.2, float("nan"), float("inf"))
# labels with quoted commas and line breaks of every kind
FILE_VERBS = ("think", "know", "say, then", 'quote"d', "two\nlines", "cr\rlf\r\n", "cr\r",
              "naïve")
FILE_PARTICIPANTS = ("p1", "p2", "p3", "p,4", "p\n5", "\np6", "p7\r")
# each corruption makes a record malformed, except a long record's extra
# fields and a dropped participant's record
CORRUPTIONS = {
    "verb": "", "participant": "", "frame": "NP sings", "subject": "second",
    "tense": "future", "negraising": "high", "acceptability": "nan",
}


def write_awkward_file(path, seed):
    """A seeded judgment CSV of 600-1,000 records and the load_csv keywords
    to read it. Line endings are CRLF, LF, CR or mixed; there may be a BOM,
    blank lines, a schema map, a repeated header name (its last column is
    read), short and long records, quoted commas and line breaks, unknown
    labels, non-numbers, NaN, out-of-range responses and dropped
    participants. About half the files hold one malformed record past the
    first block, a few records after a record that spans lines."""
    rng = np.random.default_rng(seed)
    pick = lambda options: options[rng.integers(len(options))]  # noqa: E731
    schema = pick([None, {"verb": "predicate", "participant": "worker", "negraising": "nr"}])
    names = {name: (schema or {}).get(name, name) for name in CANONICAL_COLUMNS}
    header = [names[name] for name in CANONICAL_COLUMNS] + ["note"]
    header = [header[i] for i in rng.permutation(len(header))]
    repeated = pick(CANONICAL_COLUMNS)
    header.insert(int(rng.integers(header.index(names[repeated]) + 1)), names[repeated])
    n = int(rng.integers(600, 1001))
    rate = pick([0.0, 0.002, 0.02])
    planted = int(rng.integers(300, n)) if rng.random() < 0.5 else None
    endings = pick([("\r\n",), ("\n",), ("\r",), ("\r\n", "\n", "\r")])
    buffer = io.StringIO()
    buffer.write(pick(["", "\ufeff"]) + ",".join(header) + pick(endings))
    for k in range(n):
        values = {
            "verb": pick(FILE_VERBS), "frame": pick(FRAME_LABELS),
            "subject": pick(SUBJECT_LABELS), "tense": pick(TENSE_LABELS),
            "participant": pick(FILE_PARTICIPANTS),
            "negraising": pick(["0", "1", "1.0", " 0.5", repr(rng.random())]),
            "acceptability": repr(rng.random()),
        }
        if planted is not None and k == planted - 3:
            values["verb"] = "two\nlines"
        if k == planted or rng.random() < rate:
            column = pick(list(CORRUPTIONS) + ["range"])
            if column == "range":
                values[pick(["negraising", "acceptability"])] = pick(["1.5", "-0.1", "inf"])
            else:
                values[column] = CORRUPTIONS[column]
        values = {names[name]: value for name, value in values.items()}
        values["note"] = pick(["", "a, note", "a\nnote", "\nnote\r"])
        # the repeated name's first column holds what would be malformed
        record = [values[name] if name not in header[i + 1:] else "decoy"
                  for i, name in enumerate(header)]
        if k == planted or rng.random() < rate:
            if rng.random() < 0.5:
                record = record[:int(rng.integers(1, len(record)))]
            else:
                record += ["extra", "fields"]
        line = io.StringIO()
        csv.writer(line).writerow(record)  # quotes a field holding "\r" or "\n"
        buffer.write(line.getvalue()[:-len("\r\n")] + pick(endings))
        if rng.random() < 0.02:
            buffer.write(pick(endings))  # a blank line
    path.write_text(buffer.getvalue(), encoding="utf-8", newline="")
    return {"schema": schema, "drop_participants": pick([(), ("p3",), ("p3", "p\n5")])}


class TestBlockedCsvPath:
    """The blocked reader and writer against csv's row-at-a-time path."""

    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("on_error", ["fail", "drop"])
    def test_loader_agrees_with_the_row_reader(self, tmp_path, seed, on_error):
        path = tmp_path / "t.csv"
        kwargs = write_awkward_file(path, seed) | {"on_error": on_error}
        assert load_outcome(load_csv, path, **kwargs) == load_outcome(row_reader_load_csv, path,
                                                                       **kwargs)

    def test_awkward_files_reach_every_outcome(self, tmp_path):
        outcomes = set()
        for seed in range(24):
            path = tmp_path / f"{seed}.csv"
            kwargs = write_awkward_file(path, seed)
            result, _ = load_outcome(load_csv, path, **kwargs)
            if isinstance(result, dict):
                outcomes.add("table")
            else:
                line = int(result[1].split(":")[0].removeprefix("line "))
                block, after_multiline = error_place(path, line)
                outcomes.add(("error", block > 0, after_multiline))
        assert outcomes >= {"table", ("error", False, True), ("error", True, True)}

    @pytest.mark.parametrize("bad", [b"\xff\xfe", b'"' + b"x" * (csv.field_size_limit() + 1)])
    def test_a_reading_error_comes_after_the_rows_read_before_it(self, tmp_path, bad):
        rows = [f'v{k},"{FRAME_LABELS[0]}",first,past,p{k},0.5,0.5' for k in range(400)]
        rows[300] = rows[300].replace("0.5", "high", 1)
        path = tmp_path / "t.csv"
        path.write_bytes("\n".join([HEADER, *rows]).encode() + b"\n" + bad + b"\n")
        for on_error in ("fail", "drop"):
            outcome = load_outcome(load_csv, path, on_error=on_error)
            assert outcome == load_outcome(row_reader_load_csv, path, on_error=on_error)
        assert load_outcome(load_csv, path)[0] == (RowError, "line 302: negraising value 'high' "
                                                             "is not a number")

    def test_writer_bytes_equal_csv_writer_rows(self, tmp_path):
        rng = np.random.default_rng(13)
        n = 2 * WRITE_BLOCK_RECORDS + 808
        verbs = ("think",) + AWKWARD_LABELS
        frames = (FRAME_LABELS[0], "NP, __ \"S\"", "")
        participants = tuple(f"p{i}" for i in range(5)) + AWKWARD_LABELS
        responses = [np.where(rng.random(n) < 0.3, rng.choice(AWKWARD_FLOATS, n), rng.random(n))
                     for _ in range(2)]
        table = ResponseTable.build(verbs, frames, participants, rng.integers(len(verbs), size=n),
                                    rng.integers(len(frames), size=n), rng.integers(2, size=n),
                                    rng.integers(2, size=n), rng.integers(len(participants), size=n),
                                    *responses)
        expected = tmp_path / "rows.csv"
        write_rows(expected, CANONICAL_COLUMNS, zip(
            (verbs[i] for i in table.verb_idx), (frames[i] for i in table.frame_idx),
            (SUBJECT_LABELS[i] for i in table.subj_idx), (TENSE_LABELS[i] for i in table.tense_idx),
            (participants[i] for i in table.part_idx), table.negraising.tolist(),
            table.acceptability.tolist()))
        path = tmp_path / "t.csv"
        write_csv(table, path)
        assert path.read_bytes() == expected.read_bytes()


class TestCellIndex:
    def test_cells_are_unique_and_cover_records(self):
        rng = np.random.default_rng(3)
        table = random_table(rng, n_verbs=3, n_frames=2)
        seen = {tuple(cell) for cell in table.cells}
        assert len(seen) == table.n_cells
        for n in range(table.n_records):
            key = (table.verb_idx[n], table.frame_idx[n],
                   table.subj_idx[n], table.tense_idx[n])
            assert tuple(table.cells[table.cell_idx[n]]) == key

    def test_cells_match_the_lexicographic_unique_of_the_records(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            table = random_table(rng, n_verbs=int(rng.integers(1, 6)),
                                 n_frames=int(rng.integers(1, 7)), ratings_per_cell=2)
            # half the records, shuffled, so that some cells are absent
            pick = rng.permutation(table.n_records)[: table.n_records // 2]
            columns = [getattr(table, name)[pick] for name in
                       ("verb_idx", "frame_idx", "subj_idx", "tense_idx", "part_idx",
                        "negraising", "acceptability")]
            sparse = ResponseTable.build(table.verbs, table.frames, table.participants, *columns)
            cells, cell_idx = np.unique(np.stack(columns[:4], axis=1), axis=0,
                                        return_inverse=True)
            assert_array_equal(sparse.cells, cells)
            assert_array_equal(sparse.cell_idx, cell_idx.reshape(-1))
            assert sparse.cells.dtype == cells.dtype == np.int64
            assert sparse.cell_idx.dtype == np.int64

    def test_index_outside_its_labels_is_rejected(self):
        columns = dict(verb_idx=[0, 0], frame_idx=[0, 1], subj_idx=[0, 0], tense_idx=[0, 0],
                       part_idx=[0, 0], negraising=[0.5, 0.5], acceptability=[0.9, 0.9])
        with pytest.raises(DimensionError, match="outside its labels"):
            ResponseTable.build(("a",), (FRAME_LABELS[0],), ("p1",), **columns)
        two_frames = ResponseTable.build(("a",), FRAME_LABELS[:2], ("p1",), **columns)
        assert two_frames.n_cells == 2
        # a one-entry column is not broadcast over the others
        with pytest.raises(DimensionError, match="one entry per record"):
            ResponseTable.build(("a",), FRAME_LABELS[:2], ("p1",), **{**columns, "verb_idx": [0]})
        # the cell key does not read part_idx, so it is checked on its own
        for part_idx in ([0, 5], [0, 1], [-1, 0]):
            with pytest.raises(DimensionError, match="participant index"):
                ResponseTable.build(("a",), FRAME_LABELS[:2], ("p1",),
                                    **{**columns, "part_idx": part_idx})

    def test_cell_means(self):
        table = ResponseTable.build(
            verbs=("a",), frames=(FRAME_LABELS[0],), participants=("p1", "p2"),
            verb_idx=[0, 0], frame_idx=[0, 0], subj_idx=[0, 0], tense_idx=[0, 0],
            part_idx=[0, 1], negraising=[0.2, 0.6], acceptability=[0.9, 0.7],
        )
        assert table.n_cells == 1
        assert_allclose(table.cell_mean(table.negraising), [0.4])
        assert_allclose(table.cell_mean(table.acceptability), [0.8])

    def test_pair_ids(self):
        rng = np.random.default_rng(5)
        table = random_table(rng, n_verbs=2, n_frames=3)
        pair_ids = table.cell_pair_ids()
        for row, cell in enumerate(table.cells):
            assert pair_ids[row] == cell[0] * table.n_frames + cell[1]


class TestSummarize:
    def test_counts(self):
        table = ResponseTable.build(
            verbs=("a", "b"), frames=FRAME_LABELS[:2], participants=("p1", "p2"),
            verb_idx=[0, 1, 1], frame_idx=[0, 0, 1],
            subj_idx=[0, 0, 1], tense_idx=[0, 0, 1],
            part_idx=[0, 0, 1], negraising=[0.5, 0.5, 0.5], acceptability=[0.9, 0.9, 0.9],
        )
        info = summarize(table)
        assert info["n_records"] == 3
        assert info["n_verbs"] == 2
        assert info["n_cells"] == 3
        assert info["verbs_per_tense_frame"]["past"][FRAME_LABELS[0]] == 2
        assert info["verbs_per_tense_frame"]["past"][FRAME_LABELS[1]] == 0
        assert info["verbs_per_tense_frame"]["present"][FRAME_LABELS[1]] == 1
        assert info["records_per_participant"] == {"p1": 2, "p2": 1}
        assert info["mean_negraising"] == 0.5


class TestPlantedSpec:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(DimensionError):
            PlantedSpec(n_verbs=0)
        with pytest.raises(DimensionError):
            PlantedSpec(n_verbs=3, n_frames=9)
        with pytest.raises(DimensionError):
            PlantedSpec(n_verbs=3, noise_scale=-0.1)
        with pytest.raises(DimensionError, match="seed"):
            PlantedSpec(n_verbs=3, seed=-1)
        with pytest.raises(DimensionError, match="n_verbs must be an integer"):
            PlantedSpec(n_verbs=2.5)
        with pytest.raises(DimensionError, match="seed must be an integer"):
            PlantedSpec(n_verbs=3, seed=1.5)
        with pytest.raises(DimensionError, match="ratings_per_cell must be an integer"):
            PlantedSpec(n_verbs=3, ratings_per_cell=True)
        with pytest.raises(DimensionError, match="noise_scale must be a number"):
            PlantedSpec(n_verbs=3, noise_scale=True, beta0=False)
        with pytest.raises(DimensionError, match="beta0 must be a number"):
            PlantedSpec(n_verbs=3, beta0="0.5")
        for ratings in (-1, 0):
            with pytest.raises(DimensionError, match="ratings_per_cell"):
                PlantedSpec(n_verbs=3, ratings_per_cell=ratings)
        nan, inf = float("nan"), float("inf")
        for setting, match in (({"noise_scale": nan}, "noise_scale"),
                               ({"participant_shift_sd": -1}, "participant sds"),
                               ({"participant_scale_sd": -1}, "participant sds"),
                               ({"participant_shift_sd": nan}, "participant sds"),
                               ({"noise_scale": inf}, "noise_scale and the participant sds "
                                                      "must be finite"),
                               ({"participant_shift_sd": inf}, "participant sds must be finite"),
                               ({"participant_scale_sd": inf}, "participant sds must be finite"),
                               ({"acceptability": 1.5}, "acceptability"),
                               ({"acceptability": -0.1}, "acceptability"),
                               ({"acceptability": nan}, "acceptability"),
                               ({"beta0": nan}, "beta0"),
                               ({"sigma0": float("inf")}, "sigma0")):
            with pytest.raises(DimensionError, match=match):
                PlantedSpec(n_verbs=3, **setting)

    def test_rejects_mismatched_factors(self):
        factors = PlantedFactors(
            lambda_=np.full((2, 1), 0.5), pi=np.full((1, 6), 0.5),
            omega=np.full((1, 2, 2), 0.5), psi=np.full((3, 1), 0.5),
            phi=np.full((1, 2, 2), 0.5),
        )
        with pytest.raises(DimensionError, match="psi"):
            PlantedSpec(n_verbs=2, true_factors=factors)

    @pytest.mark.parametrize("slot, value", [("psi", float("nan")), ("pi", 1.7),
                                             ("phi", -0.5), ("omega", float("inf"))])
    def test_rejects_factor_entries_outside_the_unit_interval(self, slot, value):
        _, resolved = generate_synthetic(PlantedSpec(n_verbs=3, seed=4))
        arrays = resolved.true_factors.arrays()
        arrays[slot] = arrays[slot].copy()
        arrays[slot].flat[1] = value
        with pytest.raises(DimensionError, match=rf"true_factors\.{slot} entries must be in"):
            replace(resolved, true_factors=PlantedFactors(*arrays.values()))
        # the bounds themselves are planted boolean structure
        arrays[slot].flat[1] = 1.0
        arrays[slot].flat[0] = 0.0
        assert replace(resolved, true_factors=PlantedFactors(*arrays.values())).n_verbs == 3

    def test_rejects_sizes_other_than_its_factors(self):
        _, resolved = generate_synthetic(PlantedSpec(n_verbs=3, n_lexical=0, n_structural=2))
        with pytest.raises(DimensionError, match=r"\(0, 2\).*\(4, 1\)"):
            replace(resolved, n_lexical=4, n_structural=1)
        assert replace(resolved, seed=1).n_structural == 2

    def test_dict_round_trip(self):
        spec = PlantedSpec(n_verbs=2, n_frames=3, seed=9, noise_scale=0.02,
                           participant_shift_sd=0.1)
        _, resolved = generate_synthetic(spec)
        again = PlantedSpec.from_dict(resolved.to_dict())
        assert again.seed == 9
        assert again.n_frames == 3
        for name in ("lambda_", "pi", "omega", "psi", "phi"):
            assert_array_equal(getattr(again.true_factors, name),
                               getattr(resolved.true_factors, name))

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n_verbs": 4, "seed": 3}), encoding="utf-8")
        spec = PlantedSpec.load(path)
        assert spec.n_verbs == 4
        assert spec.n_frames == 6

    @pytest.mark.parametrize("slot, index, value", [("psi", 0, "0.5"), ("phi", 1, True),
                                                    ("psi", 1, float("nan")),
                                                    ("phi", 2, float("inf"))])
    def test_factor_entries_must_be_json_numbers(self, slot, index, value):
        data = json.loads((DATA / "truth_1_1.json").read_text(encoding="utf-8"))
        factor = np.array(data["true_factors"][slot], dtype=object)
        factor.flat[index] = value
        data["true_factors"][slot] = factor.tolist()
        with pytest.raises(SchemaError, match="true_factors entries must be numbers"):
            PlantedSpec.from_dict(data)

    def test_json_text_refuses_a_non_finite_number(self):
        with pytest.raises(ValueError):
            json_text({"noise_scale": float("inf")})

    @pytest.mark.parametrize("name", ["truth_1_1.json", "truth_0_2.json"])
    def test_truth_file_of_an_earlier_version_is_reproduced_byte_for_byte(self, tmp_path, name):
        # written by an earlier version of the package (`data synth --truth`)
        path = tmp_path / name
        PlantedSpec.load(DATA / name).save(path)
        assert path.read_bytes() == (DATA / name).read_bytes()


class TestGenerateSynthetic:
    def test_shapes_and_rater_assignment(self):
        spec = PlantedSpec(n_verbs=3, n_frames=2, n_participants=7,
                           ratings_per_cell=4, seed=1)
        table, resolved = generate_synthetic(spec)
        assert table.n_records == 3 * 2 * 4 * 4
        assert table.n_cells == 3 * 2 * 4
        assert resolved.true_factors.lambda_.shape == (3, 1)
        # each cell rated by exactly ratings_per_cell distinct participants
        for cell in range(table.n_cells):
            raters = table.part_idx[table.cell_idx == cell]
            assert raters.size == 4
            assert np.unique(raters).size == 4

    def test_deterministic(self):
        spec = PlantedSpec(n_verbs=4, n_participants=6, seed=21,
                           participant_shift_sd=0.2, participant_scale_sd=0.1)
        first, _ = generate_synthetic(spec)
        second, _ = generate_synthetic(spec)
        assert_array_equal(first.negraising, second.negraising)
        assert_array_equal(first.acceptability, second.acceptability)
        assert_array_equal(first.part_idx, second.part_idx)

    def test_resolved_factors_regenerate_same_table(self):
        spec = PlantedSpec(n_verbs=3, n_participants=5, seed=13,
                           participant_shift_sd=0.2)
        table, resolved = generate_synthetic(spec)
        again, _ = generate_synthetic(resolved)
        assert_array_equal(table.negraising, again.negraising)
        assert_array_equal(table.acceptability, again.acceptability)

    def test_noise_free_identity_link_reproduces_cell_probabilities(self):
        spec = PlantedSpec(n_verbs=3, n_frames=2, n_participants=5,
                           ratings_per_cell=2, noise_scale=0.0, seed=2)
        table, resolved = generate_synthetic(spec)
        expected = cell_probability(resolved.true_factors.as_factor_params(), table.verb_idx,
                                    table.frame_idx, table.subj_idx, table.tense_idx)
        expected = np.clip(expected, RESPONSE_EPS, 1.0 - RESPONSE_EPS)
        assert_allclose(table.negraising, expected, rtol=1e-12)

    @pytest.mark.parametrize("sizes", [(1, 1), (4, 4)])
    def test_noise_free_responses_are_the_fitted_forward_pass_exactly(self, sizes):
        # synthesis and fitting read nu off the same kernels, bit for bit
        n_lexical, n_structural = sizes
        spec = PlantedSpec(n_verbs=5, n_frames=3, n_participants=4, ratings_per_cell=3,
                           noise_scale=0.0, n_lexical=n_lexical, n_structural=n_structural,
                           seed=8)
        table, resolved = generate_synthetic(spec)
        nu = link_values(resolved.true_factors.as_factor_params(), table.cells)
        assert_array_equal(table.negraising, clamp_responses(expit(nu))[table.cell_idx])

    # nonzero fixed effects and both participant sds, recorded before the
    # link was shared with fitting: a change to the order of the link's
    # floating-point operations moves the last bits, which these catch
    @pytest.mark.parametrize("setting, negraising, acceptability", [
        ({"n_verbs": 60, "seed": 1, "beta0": 0.25, "sigma0": 0.15},
         "730d875c5e8b1482", "2d072d1d7f0ad377"),
        ({"n_verbs": 7, "n_lexical": 2, "n_structural": 0, "seed": 2, "beta0": 0.4,
          "sigma0": -0.3}, "d571c070b2c75f1d", "333a4dfff1a342f9"),
        ({"n_verbs": 5, "n_participants": 3, "seed": 4, "acceptability": 1.0, "beta0": -0.2,
          "sigma0": 0.5, "participant_shift_sd": 0.5, "participant_scale_sd": 0.4},
         "43d1e85224453778", "b28c91f7227c39b0"),
    ], ids=["V60", "V7-2x0", "V5-accept1"])
    def test_responses_with_effects_are_pinned(self, setting, negraising, acceptability):
        spec = PlantedSpec(**{"participant_shift_sd": 0.3, "participant_scale_sd": 0.2,
                              **setting})
        table, _ = generate_synthetic(spec)
        for responses, digest in ((table.negraising, negraising),
                                  (table.acceptability, acceptability)):
            assert hashlib.sha256(responses.tobytes()).hexdigest()[:16] == digest

    def test_blocked_rater_draws_equal_one_draw_of_every_score(self):
        spec = PlantedSpec(n_verbs=30, n_participants=5000, seed=6)
        n_cells = 30 * 6 * 4
        assert ASSIGN_BLOCK_SCORES // spec.n_participants < n_cells / 4  # several blocks
        table, _ = generate_synthetic(spec)
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(5)[2])
        scores = rng.random((n_cells, spec.n_participants))
        raters = np.sort(np.argsort(scores, axis=1)[:, :spec.ratings_per_cell], axis=1)
        assert_array_equal(table.part_idx, raters.reshape(-1))

    def test_effect_draws_deterministic_and_zero_at_zero_sd(self):
        spec = PlantedSpec(n_verbs=2, n_participants=4, seed=5)
        shift, log_scale, shift_acc, log_scale_acc = sample_participant_effects(spec)
        for draw in (shift, log_scale, shift_acc, log_scale_acc):
            assert draw.shape == (4,)
            assert_array_equal(draw, np.zeros(4))
        wide = replace(spec, participant_shift_sd=0.5, participant_scale_sd=0.25)
        one = sample_participant_effects(wide)
        two = sample_participant_effects(wide)
        for a, b in zip(one, two):
            assert_array_equal(a, b)
        assert one[0].std() > 0


class TestDataPathMemory:
    """What the data path holds beyond its table, traced by tracemalloc."""

    def test_synthesis_holds_less_than_one_full_score_matrix(self):
        spec = PlantedSpec(n_verbs=30, n_participants=5000)
        scores_bytes = 30 * 6 * 4 * spec.n_participants * 8  # 27.5 MB
        assert traced_peak(lambda: generate_synthetic(spec)) < scores_bytes

    def test_loading_holds_under_200_bytes_per_record(self, tmp_path):
        table, _ = generate_synthetic(PlantedSpec(n_verbs=50))
        assert table.n_records == 12_000
        path = tmp_path / "t.csv"
        write_csv(table, path)
        assert traced_peak(lambda: load_csv(path)) < 200 * table.n_records

    def test_writing_holds_a_bounded_block(self, tmp_path):
        table, _ = generate_synthetic(PlantedSpec(n_verbs=250))
        assert table.n_records > 10 * WRITE_BLOCK_RECORDS
        assert traced_peak(lambda: write_csv(table, tmp_path / "t.csv")) < 2 * 2**20
