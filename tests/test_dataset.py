"""Loading, validation, synthesis, and round-trip behavior of judgment tables."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from negfactor.dataset import (
    ASSIGN_BLOCK_SCORES,
    FRAME_LABELS,
    RESPONSE_EPS,
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
