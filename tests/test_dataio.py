"""Dataset container, CSV IO, splits, and the canonical preprocessors."""

import ast
import csv
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lchoice import (
    ChoiceDataset,
    DataError,
    DataSpec,
    UtilitySpec,
    UtilityTerm,
    build_model,
    correlation_matrix,
    gen_semi_synthetic,
    generic_schema,
    load_csv,
    optima_schema,
    preprocess_optima,
    preprocess_swissmetro,
    save_truth,
    split,
    swissmetro_schema,
    validate_partition,
)
from lchoice import dataio
from lchoice.dataio import OPTIMA_REQUIRED, SWISSMETRO_SCALED, CsvSchema


def tiny_dataset():
    return ChoiceDataset(
        ["x1", "x2"],
        np.array([[1.5, -2.0], [0.25, 3.0], [4.0, 0.125]]),
        np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([0, 1, 1], dtype=np.int64),
        ["1", "2"],
    )


# ----------------------------------------------------------------- container


def test_constructor_validation():
    vals = np.zeros((2, 2))
    with pytest.raises(DataError, match="duplicate column"):
        ChoiceDataset(["a", "a"], vals, np.ones((2, 2)), np.zeros(2, np.int64), ["1", "2"])
    with pytest.raises(DataError, match="values shape"):
        ChoiceDataset(["a"], vals, np.ones((2, 2)), np.zeros(2, np.int64), ["1", "2"])
    with pytest.raises(DataError, match="avail/choice shapes"):
        ChoiceDataset(["a", "b"], vals, np.ones((3, 2)), np.zeros(2, np.int64), ["1", "2"])


def test_col_lookup_error():
    ds = tiny_dataset()
    with pytest.raises(DataError, match="no column named 'zz'"):
        ds.col("zz")
    assert np.array_equal(ds.col("x2"), [-2.0, 3.0, 0.125])


@pytest.mark.parametrize("entry", [2.0, -1.0, 0.5, np.nan])
def test_availability_entries_must_be_0_or_1(entry):
    # 2.0 used to count twice in the null log-likelihood; -1 passed one check and failed another
    avail = np.ones((3, 2))
    avail[1, 1] = entry
    with pytest.raises(DataError, match=f"row 1, alternative '2': availability {entry!r}"):
        ChoiceDataset(["x"], np.zeros((3, 1)), avail, np.zeros(3, np.int64), ["1", "2"])


def test_validate_choices_locates_bad_rows():
    ds = tiny_dataset()
    ds.validate_choices()  # clean as built

    out_of_range = tiny_dataset()
    out_of_range.choice[1] = 5
    with pytest.raises(DataError, match=r"row 1: choice 5 is not in \[0, 2\)"):
        out_of_range.validate_choices()

    unavailable = tiny_dataset()
    unavailable.choice[2] = 0  # alt 1 is masked off in row 2
    with pytest.raises(DataError, match="row 2: chosen alternative is unavailable"):
        unavailable.validate_choices()

    nothing_open = tiny_dataset()
    nothing_open.avail[0] = 0.0
    nothing_open.avail[0, 0] = 1.0
    nothing_open.choice[0] = 0
    nothing_open.avail[0] = 0.0
    with pytest.raises(DataError, match="row 0: no available alternative"):
        nothing_open.validate_choices()


def test_subset_and_with_columns():
    ds = tiny_dataset()
    sub = ds.subset(np.array([2, 0]))
    assert sub.n_rows == 2
    assert np.array_equal(sub.values[0], ds.values[2])
    wide = ds.with_columns(["x3"], ds.col("x1") * 2)
    assert wide.columns == ["x1", "x2", "x3"]
    assert np.array_equal(wide.col("x3"), ds.col("x1") * 2)


# ----------------------------------------------------------------- csv io


def test_csv_round_trip_is_exact(tmp_path):
    ds = DataSpec(n_train=40, n_test=0).dataset(13)
    path = tmp_path / "binary.csv"
    ds.to_csv(str(path))
    back = load_csv(str(path), generic_schema(("1", "2")))
    assert back.columns == ds.columns
    assert np.array_equal(back.values, ds.values)  # repr round-trips floats
    assert np.array_equal(back.avail, ds.avail)
    assert np.array_equal(back.choice, ds.choice)


def cell_by_cell_to_csv(ds, path):
    """The former ``ChoiceDataset.to_csv``: one Python conversion per cell."""
    header = list(ds.columns) + [f"AV_{a}" for a in ds.alt_labels] + ["CHOICE"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n_rows):
            row = [repr(float(x)) for x in ds.values[i]]
            row += [str(int(a)) for a in ds.avail[i]]
            row.append(str(int(ds.choice[i])))
            writer.writerow(row)


def test_to_csv_writes_the_bytes_of_the_cell_by_cell_writer(tmp_path):
    special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e-300, 0.1, 1 / 3, 2.0**62]
    values = np.array(special + [7.5] * 2).reshape(6, 2)
    ds = ChoiceDataset(["x1", "x 2"], values,
                       np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]] * 2),
                       np.array([0, 1, 0, -1, 1, 0], dtype=np.int64), ["1", "2"])
    ds.to_csv(str(tmp_path / "new.csv"))
    cell_by_cell_to_csv(ds, str(tmp_path / "old.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    sim = DataSpec(n_train=30, n_test=5).dataset(2)
    sim.to_csv(str(tmp_path / "sim_new.csv"))
    cell_by_cell_to_csv(sim, str(tmp_path / "sim_old.csv"))
    assert (tmp_path / "sim_new.csv").read_bytes() == (tmp_path / "sim_old.csv").read_bytes()


@pytest.mark.parametrize("delim", ["\t", ";"])
def test_delimiter_sniffing(tmp_path, delim):
    path = tmp_path / "data.txt"
    rows = [["x1", "x2", "AV_1", "AV_2", "CHOICE"],
            ["1.0", "2.0", "1", "1", "0"],
            ["3.5", "-1.0", "1", "1", "1"]]
    path.write_text("\n".join(delim.join(r) for r in rows) + "\n")
    ds = load_csv(str(path), generic_schema(("1", "2")))
    assert ds.n_rows == 2
    assert ds.col("x2")[1] == -1.0


def test_load_csv_located_errors(tmp_path):
    schema = generic_schema(("1", "2"))

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty file"):
        load_csv(str(empty), schema)

    duplicate = tmp_path / "duplicate.csv"
    duplicate.write_text("x1,AV_1,x1,AV_2,CHOICE\n1.0,1,2.0,1,0\n")
    with pytest.raises(DataError, match=re.escape(f"{duplicate}: duplicate column 'x1'")):
        load_csv(str(duplicate), schema)

    no_choice = tmp_path / "nochoice.csv"
    no_choice.write_text("x1,AV_1,AV_2\n1.0,1,1\n")
    with pytest.raises(DataError, match="missing choice column"):
        load_csv(str(no_choice), schema)

    no_avail = tmp_path / "noavail.csv"
    no_avail.write_text("x1,CHOICE\n1.0,0\n")
    with pytest.raises(DataError, match="missing availability columns"):
        load_csv(str(no_avail), schema)

    bad_cell = tmp_path / "badcell.csv"
    bad_cell.write_text("x1,AV_1,AV_2,CHOICE\n1.0,1,1,0\noops,1,1,0\n")
    with pytest.raises(DataError, match="row 3, column 'x1': non-numeric value 'oops'"):
        load_csv(str(bad_cell), schema)

    short_row = tmp_path / "short.csv"
    short_row.write_text("x1,AV_1,AV_2,CHOICE\n1.0,1,0\n")
    with pytest.raises(DataError, match="row 2: expected 4 fields, got 3"):
        load_csv(str(short_row), schema)

    out_of_range = tmp_path / "range.csv"
    out_of_range.write_text("x1,AV_1,AV_2,CHOICE\n1.0,1,1,0\n2.0,1,1,7\n")
    want = f"{out_of_range}: row 3, column 'CHOICE': choice code '7' is out of range"
    with pytest.raises(DataError, match=re.escape(want)):
        load_csv(str(out_of_range), schema)

    unavailable = tmp_path / "unavailable.csv"
    unavailable.write_text("x1,AV_1,AV_2,CHOICE\n1.0,1,1,0\n2.0,0,1,0\n")
    want = f"{unavailable}: row 3, column 'CHOICE': chosen alternative '1' is unavailable"
    with pytest.raises(DataError, match=re.escape(want)):
        load_csv(str(unavailable), schema)

    none_open = tmp_path / "none_open.csv"
    none_open.write_text("x1,AV_1,AV_2,CHOICE\n1.0,1,1,0\n2.0,1,1,1\n3.0,0,0,1\n")
    want = f"{none_open}: row 4, column 'CHOICE': chosen alternative '2' is unavailable"
    with pytest.raises(DataError, match=re.escape(want)):
        load_csv(str(none_open), schema)


@pytest.mark.parametrize("code", ["nan", "inf", "1e30", "1.7"])
@pytest.mark.parametrize("validate", [True, False])
def test_load_csv_rejects_non_integer_choice_code(tmp_path, code, validate):
    path = tmp_path / "codes.csv"
    path.write_text(f"x1,AV_1,AV_2,CHOICE\n1.0,1,1,0\n2.0,1,1,{code}\n")
    with pytest.raises(DataError, match=f"row 3, column 'CHOICE': choice code '{code}'"):
        load_csv(str(path), generic_schema(("1", "2")), validate=validate)


def test_load_csv_can_defer_validation(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("x1,AV_1,AV_2,CHOICE\n1.0,1,1,-1\n2.0,1,1,0\n")
    ds = load_csv(str(path), generic_schema(("1", "2")), validate=False)
    assert ds.choice[0] == -1
    with pytest.raises(DataError):
        load_csv(str(path), generic_schema(("1", "2")))


@pytest.mark.parametrize("cell", ["nan", "0.5", "2", "-1"])
def test_load_csv_rejects_availability_other_than_0_or_1(tmp_path, cell):
    # once read as "> 0": nan was unavailable and 2 available, without a word
    path = tmp_path / "avail.csv"
    path.write_text(f"x1,AV_1,AV_2,CHOICE\n1.0,1,1,0\n2.0,1,{cell},0\n")
    want = f"{path}: row 3, column 'AV_2': availability '{cell}' is not 0 or 1"
    with pytest.raises(DataError, match=re.escape(want)):
        load_csv(str(path), generic_schema(("1", "2")))


def test_load_csv_strips_a_utf8_byte_order_mark(tmp_path):
    choice_first = tmp_path / "choice_first.csv"
    choice_first.write_bytes(b"\xef\xbb\xbfCHOICE,x1,AV_1,AV_2\n1,2.5,1,1\n")
    ds = load_csv(str(choice_first), generic_schema(("1", "2")))
    assert ds.columns == ["x1"] and ds.choice.tolist() == [1]

    feature_first = tmp_path / "feature_first.csv"
    feature_first.write_bytes(b"\xef\xbb\xbfx1,AV_1,AV_2,CHOICE\n2.5,1,1,0\n")
    ds = load_csv(str(feature_first), generic_schema(("1", "2")))
    assert ds.columns == ["x1"] and ds.col("x1").tolist() == [2.5]


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_load_csv_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, bom):
    # a Latin-1 e-acute once surfaced as a bare UnicodeDecodeError, without path or line
    path = tmp_path / "latin1.csv"
    path.write_bytes(bom + "x1,AV_1,AV_2,CHOICE\n1.0,1,1,0\n2.0,1,1,0 é\n".encode("latin-1"))
    want = f"{path}: line 3: not UTF-8 text (invalid continuation byte)"
    with pytest.raises(DataError, match=re.escape(want)):
        load_csv(str(path), generic_schema(("1", "2")))


def write_unclosed_quote(path):
    """A file whose row 3 opens a quoted field of 140,000 characters and never closes it."""
    path.write_text("x1,AV_1,AV_2,CHOICE\n1.0,1,1,0\n\"" + "x" * 140_000 + "\n2.0,1,1,0\n")
    return path


def test_load_csv_names_the_line_of_a_csv_reader_error(tmp_path):
    # a field over the reader's 131,072-character limit once surfaced as a bare
    # _csv.Error, without path or line
    path = write_unclosed_quote(tmp_path / "unclosed.csv")
    want = f"{path}: line 3: field larger than field limit (131072)"
    with pytest.raises(DataError, match=re.escape(want)):
        load_csv(str(path), generic_schema(("1", "2")))


def _reference_load_csv(path, schema, validate=True):
    """The whole-file, cell-by-cell loader that the blocked one replaced, kept as
    its reference: (columns, values, avail, choice), or the DataError it raised."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise DataError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None
    with open(path, encoding="utf-8-sig", newline="") as fh:
        sample = fh.readline()
        if not sample.strip():
            raise DataError(f"{path}: empty file")
        counts = {d: sample.count(d) for d in ("\t", ",", ";")}
        delim = max(counts, key=counts.get) if max(counts.values()) > 0 else ","
        fh.seek(0)
        reader = csv.reader(fh, delimiter=delim)
        header = [h.strip() for h in next(reader)]
        raw_rows = [r for r in reader if any(cell.strip() for cell in r)]
    special = {schema.choice_column} | set(schema.avail_columns or ())
    feat_cols = [h for h in header if h not in special]
    col_pos = {h: j for j, h in enumerate(header)}
    n, n_alts = len(raw_rows), len(schema.alt_labels)
    values = np.empty((n, len(feat_cols)))
    avail = np.ones((n, n_alts))
    choice = np.empty(n, dtype=np.int64)

    def parse(cell, i, name):
        try:
            return float(cell)
        except ValueError:
            raise DataError(f"{path}: row {i + 2}, column {name!r}: "
                            f"non-numeric value {cell.strip()!r}") from None

    for i, row in enumerate(raw_rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i + 2}: expected {len(header)} fields, got {len(row)}")
        for j, name in enumerate(feat_cols):
            values[i, j] = parse(row[col_pos[name]], i, name)
        if schema.avail_columns is not None:
            for k, name in enumerate(schema.avail_columns):
                cell = row[col_pos[name]]
                if (entry := parse(cell, i, name)) not in (0.0, 1.0):
                    raise DataError(f"{path}: row {i + 2}, column {name!r}: "
                                    f"availability {cell.strip()!r} is not 0 or 1")
                avail[i, k] = 1.0 if entry > 0 else 0.0
        cell = row[col_pos[schema.choice_column]]
        raw_choice = parse(cell, i, schema.choice_column)
        if not (raw_choice.is_integer() and abs(raw_choice) < 2.0 ** 62):
            raise DataError(f"{path}: row {i + 2}, column {schema.choice_column!r}: "
                            f"choice code {cell.strip()!r} is not a valid integer code")
        choice[i] = int(raw_choice) - schema.choice_base
        if validate and not 0 <= choice[i] < n_alts:
            raise DataError(f"{path}: row {i + 2}, column {schema.choice_column!r}: "
                            f"choice code {cell.strip()!r} is out of range")
        if validate and avail[i, choice[i]] == 0.0:
            raise DataError(f"{path}: row {i + 2}, column {schema.choice_column!r}: "
                            f"chosen alternative {schema.alt_labels[choice[i]]!r} is unavailable")
    return feat_cols, values, avail, choice


# load_csv's block and chunk sizes: as shipped, then small enough that block and
# chunk boundaries fall inside each test file
SMALL_BLOCKS = [(dataio.LOAD_CELLS, dataio.READ_BYTES), (1, 1), (12, 7)]


def _same_load(path, schema, validate=True):
    """Assert load_csv gives the reference's arrays bit for bit, or its error."""
    try:
        want = _reference_load_csv(path, schema, validate)
    except DataError as err:
        with pytest.raises(DataError) as got:
            load_csv(path, schema, validate)
        assert str(got.value) == str(err)
        return None
    ds = load_csv(path, schema, validate)
    assert ds.columns == want[0]
    for got, ref in zip((ds.values, ds.avail, ds.choice), want[1:]):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()  # bit for bit: nan payloads and signed zeros
    return ds


@pytest.mark.parametrize("block_cells, chunk_bytes", SMALL_BLOCKS)
@pytest.mark.parametrize("name, text, schema, validate", [
    ("quoted_and_padded", 'x1,"x2",AV_1,AV_2,CHOICE\n" 2.5 ","-1e3",1," 1 ","1"\n'
     '  7 ,\t0.125\t, 1.0 ,0,0\n', generic_schema(("1", "2")), True),
    ("blank_rows", "x1,AV_1,AV_2,CHOICE\n\n1.0,1,1,0\n   \n,,,\n \t, ,,\n2.0,1,1,1\n\n",
     generic_schema(("1", "2")), True),
    ("tab", "x1\tx2\tAV_1\tAV_2\tCHOICE\n1.5\t2\t1\t1\t1\n-3\t4e-2\t0\t1\t1\n",
     generic_schema(("1", "2")), True),
    ("semicolon", "x1;AV_1;AV_2;CHOICE\r\n1,5;1;1;0\r\n", generic_schema(("1", "2")), True),
    ("semicolon_decimal_point", "x1;AV_1;AV_2;CHOICE\r\n1.5;1;1;0\r\n-2;1;0;0\r\n",
     generic_schema(("1", "2")), True),
    ("special_columns_first", "CHOICE,AV_2,AV_1,x1,x2\n1,1,0,3.0,4.0\n0,0,1,5.0,6.0\n",
     generic_schema(("1", "2")), True),
    ("choice_base_1", "TRAIN_AV\tSM_AV\tCAR_AV\tCHOICE\tGA\n1\t1\t1\t3\t0\n1\t0\t1\t1\t1\n",
     swissmetro_schema(), True),
    ("missing_responses_kept", "x1,AV_1,AV_2,CHOICE\n1.0,1,1,-1\n2.0,1,0,1\n3.0,1,1,5\n",
     generic_schema(("1", "2")), False),
    ("swissmetro_missing_response", "TRAIN_AV\tSM_AV\tCAR_AV\tCHOICE\n1\t1\t1\t0\n",
     swissmetro_schema(), False),
    ("non_finite_and_underscores", "x1,x2,x3,Choice\nnan,inf,1_000,2\n-Infinity,NaN, 1_0.5 ,0\n",
     optima_schema(), True),
    ("no_rows", "x1,AV_1,AV_2,CHOICE\n", generic_schema(("1", "2")), True),
    ("cr_line_ends", "x1,AV_1,AV_2,CHOICE\r1.0,1,1,0\r2.0,1,1,1\r", generic_schema(("1", "2")),
     True),
    ("utf8_name_crlf", "x\u00e9,AV_1,AV_2,CHOICE\r\n1.0,1,1,0\r\n2.0,1,1,1\r\n3.0,0,1,1\r\n",
     generic_schema(("1", "2")), True),
    # with three rows a block, as at 12 cells: rows 7 to 9 are the third block
    ("bad_row_in_third_block", "x1,AV_1,AV_2,CHOICE\n" + "1.0,1,1,0\n" * 7 + "oops,1,1,0\n"
     "2.0,1,1,1\n", generic_schema(("1", "2")), True),
    ("blank_row_on_block_boundary", "x1,AV_1,AV_2,CHOICE\n1,1,1,0\n2,1,1,1\n3,1,0,0\n\n , ,,\n"
     "4,0,1,1\n5,1,1,0\n6,1,1,1\n7,1,1,0\n", generic_schema(("1", "2")), True),
    ("avail_error_before_field_count", "x1,AV_1,AV_2,CHOICE\n1,1,1,0\n2,1,2,0\n3,1,1,0\n"
     "4,1,1\n", generic_schema(("1", "2")), True),
    ("bad_cell_before_latin1_last_line", "x1,AV_1,AV_2,CHOICE\noops,1,1,0\n2,1,1,0\n3,1,1,0\n"
     "4,1,1,0\n5,1,1,0 \u00e9\n".encode("latin-1"), generic_schema(("1", "2")), True),
    ("truncated_last_character", b"x1,AV_1,AV_2,CHOICE\n1.0,1,1,0\n2.0,1,1,1\n\xc3",
     generic_schema(("1", "2")), True),
    ("quoted_newline_across_blocks", 'x1,AV_1,AV_2,CHOICE\n1,1,1,0\n2,1,1,1\n"3.5\n",1,1,0\n'
     '"\n4.5",1,1,"\r\n1"\n5,1,1,0\n', generic_schema(("1", "2")), True),
])
def test_load_csv_matches_the_cell_by_cell_reference(tmp_path, monkeypatch, name, text, schema,
                                                     validate, block_cells, chunk_bytes):
    monkeypatch.setattr(dataio, "LOAD_CELLS", block_cells)
    monkeypatch.setattr(dataio, "READ_BYTES", chunk_bytes)
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    _same_load(str(path), schema, validate)


_CELLS = {"feature": ["0", "-0", "2.5", " 2.5 ", "1_000", "nan", "-inf", "Infinity", "1e-300",
                      "0.1", "-7", "3.25e2", "oops", ""],
          "avail": ["0", "1", "1.0", " 1 ", "-0", "0e0"],
          "choice": ["0", "1", "2", "-1", "1.0", " 2 ", "1.5", "nan", "x"]}


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_load_csv_matches_the_reference_on_random_files(data):
    n_alts = data.draw(st.integers(2, 3), "n_alts")
    labels = tuple(str(k + 1) for k in range(n_alts))
    with_avail = data.draw(st.booleans(), "with_avail")
    schema = CsvSchema(labels, avail_columns=tuple(f"AV_{a}" for a in labels) if with_avail
                       else None, choice_base=data.draw(st.integers(0, 1), "choice_base"))
    kinds = {f"x{j}": "feature" for j in range(data.draw(st.integers(0, 3), "n_features"))}
    kinds.update({c: "avail" for c in schema.avail_columns or ()}, CHOICE="choice")
    header = data.draw(st.permutations(list(kinds)), "header")
    delim = data.draw(st.sampled_from([",", "\t", ";"]), "delim")
    lines = [delim.join(header)]
    for _ in range(data.draw(st.integers(0, 6), "n_rows")):
        if data.draw(st.integers(0, 5)) == 0:  # a blank or whitespace-only row
            lines.append(data.draw(st.sampled_from(["", "  ", delim * (len(header) - 1)])))
            continue
        cells = [data.draw(st.sampled_from(_CELLS[kinds[h]])) for h in header]
        if data.draw(st.integers(0, 9)) == 0:  # a field too many or too few
            cells = cells[:-1] if data.draw(st.booleans()) else cells + ["1"]
        quote = data.draw(st.booleans())
        lines.append(delim.join(f'"{c}"' if quote else c for c in cells))
    text = data.draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    validate = data.draw(st.booleans(), "validate")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "random.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        block_cells, chunk_bytes = data.draw(st.sampled_from(SMALL_BLOCKS), "block sizes")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "LOAD_CELLS", block_cells)
            mp.setattr(dataio, "READ_BYTES", chunk_bytes)
            _same_load(path, schema, validate)


@pytest.mark.parametrize("n_rows", [9036, 36144])
def test_load_csv_memory_is_its_arrays_and_one_block(tmp_path, n_rows):
    # holding the whole file, then every cell as a string, peaked at 11.7 times
    # the arrays at either length
    path = tmp_path / "survey.csv"
    gen_semi_synthetic(n=n_rows, seed=3).to_csv(str(path))
    tracemalloc.start()
    try:
        ds = load_csv(str(path), generic_schema(("Train", "SM", "Car")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (ds.values.nbytes + ds.avail.nbytes + ds.choice.nbytes)


def test_load_csv_reports_the_first_bad_row(tmp_path):
    schema = generic_schema(("1", "2"))
    path = tmp_path / "two_faults.csv"
    path.write_text("x1,AV_1,AV_2,CHOICE\n1.0,1,1,0\n2.0,1,1,9\n3.0,1,1\noops,1,1,0\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: row 3, column 'CHOICE': "
                                                  f"choice code '9' is out of range")):
        load_csv(str(path), schema)
    # within one row: field count, features, availability, choice code, range, unavailable
    row = {"x1": "oops", "AV_1": "0", "AV_2": "2", "CHOICE": "1.5"}
    cases = [
        (",".join(row.values()) + ",1", "row 2: expected 4 fields, got 5"),
        (",".join(row.values()), "row 2, column 'x1': non-numeric value 'oops'"),
        ("1.0,0,2,1.5", "row 2, column 'AV_2': availability '2' is not 0 or 1"),
        ("1.0,0,1,1.5", "row 2, column 'CHOICE': choice code '1.5' is not a valid integer code"),
        ("1.0,0,1,7", "row 2, column 'CHOICE': choice code '7' is out of range"),
        ("1.0,0,1,0", "row 2, column 'CHOICE': chosen alternative '1' is unavailable"),
    ]
    for k, (line, want) in enumerate(cases):
        path = tmp_path / f"order{k}.csv"
        path.write_text(f"x1,AV_1,AV_2,CHOICE\n{line}\n1.0,1,1,oops\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: {want}")):
            load_csv(str(path), schema)
    ok = tmp_path / "ok.csv"
    ok.write_text("x1,AV_1,AV_2,CHOICE\n1.0,0,1,1\n")
    assert load_csv(str(ok), schema).choice.tolist() == [1]


# ------------------------------------------------------------------- split


def test_split_sizes_and_disjointness():
    ds = DataSpec(n_train=100, n_test=0).dataset(1)
    train, test = split(ds, 0.8, seed=3)
    assert train.n_rows == 80 and test.n_rows == 20
    key = train.values[:, 0].tolist() + test.values[:, 0].tolist()
    assert sorted(key) == sorted(ds.values[:, 0].tolist())


def test_split_rounds_up_fractional_rows():
    ds = DataSpec(n_train=9, n_test=0).dataset(2)
    train, test = split(ds, 0.8, seed=0)  # 7.2 rows -> 8
    assert train.n_rows == 8 and test.n_rows == 1


def test_split_canonical_survey_proportions():
    n = 9036
    ds = ChoiceDataset(["x"], np.arange(n, dtype=float)[:, None],
                       np.ones((n, 2)), np.zeros(n, np.int64), ["1", "2"])
    train, test = split(ds, 0.8, seed=0)
    assert train.n_rows == 7229 and test.n_rows == 1807


def test_split_deterministic_and_seed_sensitive():
    ds = DataSpec(n_train=60, n_test=0).dataset(5)
    a1, _ = split(ds, 0.5, seed=9)
    a2, _ = split(ds, 0.5, seed=9)
    b1, _ = split(ds, 0.5, seed=10)
    assert np.array_equal(a1.values, a2.values)
    assert not np.array_equal(a1.values, b1.values)


def test_split_rejects_an_empty_part():
    ds = DataSpec(n_train=50, n_test=0).dataset(1)
    for f in (0.99, 1e-9):
        with pytest.raises(ValueError, match="empty part"):
            split(ds, f, seed=0)
    train, test = split(ds, 0.98, seed=0)
    assert train.n_rows == 49 and test.n_rows == 1


def test_split_validates_fraction():
    ds = tiny_dataset()
    for f in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match="train_fraction"):
            split(ds, f, seed=0)


# ---------------------------------------------------------- column health


def test_correlation_matrix_hand_values():
    ds = ChoiceDataset(
        ["a", "b", "c"],
        np.array([[1.0, 2.0, -1.0], [2.0, 4.0, -2.0], [3.0, 6.0, -3.0]]),
        np.ones((3, 2)), np.zeros(3, np.int64), ["1", "2"])
    corr, cols = correlation_matrix(ds)
    assert cols == ["a", "b", "c"]
    assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert corr[0, 2] == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(np.diag(corr), 1.0)


def test_correlation_matrix_zero_variance_column():
    ds = ChoiceDataset(
        ["a", "flat"],
        np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]]),
        np.ones((3, 2)), np.zeros(3, np.int64), ["1", "2"])
    with pytest.warns(UserWarning, match="zero-variance"):
        corr, _ = correlation_matrix(ds)
    assert corr[0, 1] == 0.0 and corr[1, 1] == 1.0


def test_validate_partition_errors_and_advisories():
    ds = DataSpec(n_train=300, n_test=0).dataset(7)
    assert validate_partition(ds, ("p1", "p2"), ("q1", "q2")) == []

    # the split's errors are the model's: an overlap at build, an unknown column at compile
    util = UtilitySpec((UtilityTerm.of("beta_p", {"1": "p1", "2": "q1"}),))
    with pytest.raises(ValueError, match="interpretability"):
        build_model("LMNL", ("1", "2"), util, q=("q1", "q2"))
    ghost = build_model("LMNL", ("1", "2"), util, q=("ghost",))
    with pytest.raises(ValueError, match=r"unknown columns \['ghost'\]"):
        ghost.program_for(ds)

    # a near-copy of an X column on the net side is flagged but not fatal
    noisy = ds.with_columns(["p1_echo"], ds.col("p1") + 1e-6)
    advisories = validate_partition(noisy, ("p1",), ("p1_echo",))
    assert len(advisories) == 1 and "proxy" in advisories[0]


# ------------------------------------------------------------ preprocessors


def swissmetro_fixture(tmp_path):
    header = ["TRAIN_AV", "SM_AV", "CAR_AV", "CHOICE", "GA"] + list(SWISSMETRO_SCALED)
    rows = [
        # kept: chooses Train, everything available
        [1, 1, 1, 1, 0, 100, 50, 120, 60, 30, 80, 120, 20],
        # dropped: missing response
        [1, 1, 1, 0, 0, 100, 50, 120, 60, 30, 80, 120, 20],
        # dropped: car unavailable
        [1, 1, 0, 2, 0, 100, 50, 120, 60, 30, 80, 120, 20],
        # kept: season ticket holder choosing Car
        [1, 1, 1, 3, 1, 200, 40, 150, 90, 45, 70, 60, 10],
    ]
    path = tmp_path / "sm_mini.dat"
    path.write_text("\t".join(header) + "\n"
                    + "\n".join("\t".join(str(v) for v in r) for r in rows) + "\n")
    return load_csv(str(path), swissmetro_schema(), validate=False)


def test_preprocess_swissmetro_drops_and_scales(tmp_path):
    raw = swissmetro_fixture(tmp_path)
    out = preprocess_swissmetro(raw)
    assert out.n_rows == 2
    assert out.choice.tolist() == [0, 2]
    assert out.col("TRAIN_TT").tolist() == [1.0, 2.0]
    assert out.col("SM_HE").tolist() == [0.2, 0.1]
    assert out.col("GA").tolist() == [0.0, 1.0]  # untouched without the toggle
    # idempotent: a second call is a no-op on the same object
    assert preprocess_swissmetro(out) is out


def test_preprocess_swissmetro_ga_cost_adjust(tmp_path):
    raw = swissmetro_fixture(tmp_path)
    out = preprocess_swissmetro(raw, ga_cost_adjust=True)
    assert out.col("TRAIN_CO").tolist() == [0.6, 0.0]  # zeroed only for GA = 1
    assert out.col("SM_CO").tolist() == [0.3, 0.0]
    assert out.col("CAR_CO").tolist() == [0.8, 0.7]


def optima_fixture():
    defaults = {c: 1.0 for c in OPTIMA_REQUIRED}
    rows = []

    def add(choice, **over):
        row = dict(defaults)
        row.update(over)
        row["Choice"] = choice
        rows.append(row)

    add(0, TripPurpose=1, LangCode=1, OccupStat=8, UrbRur=1,
        ScaledIncome=2.0, MarginalCostPT=4.0, CostCarCHF=6.0)
    add(-1)  # missing response
    add(1, TimeCar=-1.0)  # missing field
    add(2, ScaledIncome=0.0)  # no income information
    add(2, TripPurpose=2, LangCode=2, OccupStat=1, UrbRur=2,
        ScaledIncome=4.0, MarginalCostPT=2.0, CostCarCHF=10.0)
    cols = list(rows[0])
    values = np.array([[r[c] for c in cols] for r in rows])
    feat_cols = [c for c in cols if c != "Choice"]
    feat = values[:, [cols.index(c) for c in feat_cols]]
    choice = values[:, cols.index("Choice")].astype(np.int64)
    return ChoiceDataset(feat_cols, feat, np.ones((len(rows), 3)), choice,
                         ["PT", "Car", "SlowModes"])


def test_preprocess_optima_drops_and_derives():
    out = preprocess_optima(optima_fixture())
    assert out.n_rows == 2
    assert out.choice.tolist() == [0, 2]
    assert out.col("MCost_PT").tolist() == [2.0, 0.5]
    assert out.col("MCost_Car").tolist() == [3.0, 2.5]
    assert out.col("Work").tolist() == [1.0, 0.0]
    assert out.col("French").tolist() == [1.0, 0.0]
    assert out.col("Student").tolist() == [1.0, 0.0]
    assert out.col("Urban").tolist() == [1.0, 0.0]
    assert preprocess_optima(out) is out


def test_optima_schema_shape():
    s = optima_schema()
    assert s.alt_labels == ("PT", "Car", "SlowModes")
    assert s.choice_column == "Choice"
    assert s.avail_columns is None


# ------------------------------------------------------------ truth sidecar


def test_truth_sidecar_round_trip(tmp_path):
    truth = {"beta_p": -1.0, "beta_qc": 0.5, "n": 1000, "scenario": "binary"}
    path = tmp_path / "truth.txt"
    save_truth(str(path), truth)
    lines = path.read_text().splitlines()
    assert lines == ["beta_p=-1.0", "beta_qc=0.5", "n=1000", "scenario='binary'"]
    # key=repr(value): each value reads back with ast.literal_eval
    assert {k: ast.literal_eval(v) for k, _, v in (s.partition("=") for s in lines)} == truth
