"""Dataset container, CSV IO, splits, and the canonical preprocessors."""

import re

import numpy as np
import pytest

from lchoice import (
    ChoiceDataset,
    DataError,
    correlation_matrix,
    gen_binary,
    generic_schema,
    load_csv,
    load_truth,
    optima_schema,
    preprocess_optima,
    preprocess_swissmetro,
    save_truth,
    split,
    swissmetro_schema,
    validate_partition,
)
from lchoice.dataio import OPTIMA_REQUIRED, SWISSMETRO_SCALED
from lchoice.synthgen import BinaryScenario


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
    with pytest.raises(DataError, match="row 1: choice index out of range"):
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
    with pytest.raises(DataError, match="row 0"):
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
    ds = gen_binary(BinaryScenario(n_train=40, n_test=0, seed=13))
    path = tmp_path / "binary.csv"
    ds.to_csv(str(path))
    back = load_csv(str(path), generic_schema(("1", "2")))
    assert back.columns == ds.columns
    assert np.array_equal(back.values, ds.values)  # repr round-trips floats
    assert np.array_equal(back.avail, ds.avail)
    assert np.array_equal(back.choice, ds.choice)


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


# ------------------------------------------------------------------- split


def test_split_sizes_and_disjointness():
    ds = gen_binary(BinaryScenario(n_train=100, n_test=0, seed=1))
    train, test = split(ds, 0.8, seed=3)
    assert train.n_rows == 80 and test.n_rows == 20
    key = train.values[:, 0].tolist() + test.values[:, 0].tolist()
    assert sorted(key) == sorted(ds.values[:, 0].tolist())


def test_split_rounds_up_fractional_rows():
    ds = gen_binary(BinaryScenario(n_train=9, n_test=0, seed=2))
    train, test = split(ds, 0.8, seed=0)  # 7.2 rows -> 8
    assert train.n_rows == 8 and test.n_rows == 1


def test_split_canonical_survey_proportions():
    n = 9036
    ds = ChoiceDataset(["x"], np.arange(n, dtype=float)[:, None],
                       np.ones((n, 2)), np.zeros(n, np.int64), ["1", "2"])
    train, test = split(ds, 0.8, seed=0)
    assert train.n_rows == 7229 and test.n_rows == 1807


def test_split_deterministic_and_seed_sensitive():
    ds = gen_binary(BinaryScenario(n_train=60, n_test=0, seed=5))
    a1, _ = split(ds, 0.5, seed=9)
    a2, _ = split(ds, 0.5, seed=9)
    b1, _ = split(ds, 0.5, seed=10)
    assert np.array_equal(a1.values, a2.values)
    assert not np.array_equal(a1.values, b1.values)


def test_split_rejects_an_empty_part():
    ds = gen_binary(BinaryScenario(n_train=50, n_test=0, seed=1))
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
    ds = gen_binary(BinaryScenario(n_train=300, n_test=0, seed=7))
    ok = validate_partition(ds, ("p1", "p2"), ("q1", "q2"))
    assert ok.ok and not ok.errors

    overlap = validate_partition(ds, ("p1", "q1"), ("q1", "q2"))
    assert not overlap.ok
    assert any("interpretability" in e for e in overlap.errors)

    unknown = validate_partition(ds, ("p1",), ("ghost",))
    assert not unknown.ok
    assert any("unknown column 'ghost'" in e for e in unknown.errors)

    # a near-copy of an X column on the net side is flagged but not fatal
    noisy = ds.with_columns(["p1_echo"], ds.col("p1") + 1e-6)
    advisory = validate_partition(noisy, ("p1",), ("p1_echo",))
    assert advisory.ok
    assert any("proxy" in a for a in advisory.advisories)


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
    assert load_truth(str(path)) == truth


def test_truth_sidecar_unparseable_value_stays_text(tmp_path):
    path = tmp_path / "truth.txt"
    path.write_text("label=plain words\n\nbeta=2.5\n")
    got = load_truth(str(path))
    assert got == {"label": "plain words", "beta": 2.5}
