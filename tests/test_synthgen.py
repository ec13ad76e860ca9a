"""Synthetic data generators: determinism, planted structure, edge cases."""

import math

import numpy as np
import pytest

from lchoice import DataSpec, gen_semi_synthetic, sample_attribute_table
from lchoice.dataio import ChoiceDataset
from lchoice.numcore.prng import Stream, derive_seed, uniforms
from lchoice.synthgen import SCENARIOS


def test_binary_deterministic_per_seed():
    spec = DataSpec(n_train=200, n_test=50)
    a = spec.dataset(42)
    b = spec.dataset(42)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.choice, b.choice)
    c = spec.dataset(43)
    assert not np.array_equal(a.values, c.values)


def test_binary_columns_and_ranges():
    ds = DataSpec(n_train=500, n_test=0).dataset(1)
    assert ds.columns == ["p1", "a1", "b1", "q1", "c1", "qc1",
                          "p2", "a2", "b2", "q2", "c2", "qc2"]
    p1 = ds.col("p1")
    assert p1.min() > 5.0 - 2.04 and p1.max() < 5.0 + 2.04
    assert np.abs(ds.col("a2")).max() <= 1.0
    # the interaction column is exactly q*c
    assert np.array_equal(ds.col("qc1"), ds.col("q1") * ds.col("c1"))
    assert ds.meta["truth"] == {"beta_p": -1.0, "beta_a": 0.5,
                                "beta_b": 0.5, "beta_qc": 1.0}
    assert set(np.unique(ds.choice)) <= {0, 1}


def test_scenario_split_row_layout():
    ds = DataSpec(n_train=120, n_test=30).dataset(9)
    train, test, _ = DataSpec(n_train=120, n_test=30).make(9)
    assert train.n_rows == 120 and test.n_rows == 30
    assert np.array_equal(train.values, ds.values[:120])
    assert np.array_equal(test.values, ds.values[120:])


def test_correlated_at_zero_reproduces_binary():
    base = DataSpec(n_train=150, n_test=0).dataset(5)
    zero = DataSpec("correlated", n_train=150, n_test=0, s=0.0).dataset(5)
    assert np.array_equal(base.values, zero.values)
    assert np.array_equal(base.choice, zero.choice)


def test_correlated_monotone_in_s():
    r = []
    for s in (0.0, 0.4, 0.8, 1.0):
        ds = DataSpec("correlated", n_train=4000, n_test=0, s=s).dataset(3)
        r.append(np.corrcoef(ds.col("p1"), ds.col("q1"))[0, 1])
    assert r[0] < 0.1
    assert r[0] < r[1] < r[2] < r[3]
    assert r[3] > 0.999


def test_correlated_validates_s():
    for s in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"correlation level s must be in \[0, 1\]"):
            DataSpec("correlated", n_train=10, n_test=0, s=s)


@pytest.mark.parametrize("fields, message", [
    ({"scenario": "binray"}, r"unknown scenario 'binray', not one of \['binary', "),
    ({"scenario": "semi-synthetic"}, "unknown scenario"),
    ({"n_train": 0}, "n_train must be an integer >= 1, got 0"),
    ({"n_train": -5}, "n_train must be an integer >= 1"),
    ({"n_train": 10.0}, "n_train must be an integer"),
    ({"n_train": True}, "n_train must be an integer"),
    ({"n_test": -1}, "n_test must be an integer >= 0"),
    ({"n_test": "5"}, "n_test must be an integer"),
    ({"beta_p": math.nan}, "beta_p must be a finite number, got nan"),
    ({"beta_qc": -math.inf}, "beta_qc must be a finite number"),
    ({"beta_u": "1"}, "beta_u must be a finite number"),
    ({"scenario": "guevara", "s": 1.5}, r"s must be in \[0, 1\], got 1.5"),
    ({"scenario": "unobserved", "s": -0.2}, r"s must be in \[0, 1\]"),
    ({"s": math.nan}, "s must be a finite number"),
])
def test_dataspec_checks_every_field_when_built(fields, message):
    with pytest.raises(ValueError, match=message):
        DataSpec(**fields)


def test_each_scenario_is_drawn_by_its_own_generator():
    for name in SCENARIOS:
        ds = DataSpec(name, n_train=6, n_test=2, s=0.5).dataset(3)
        assert ds.meta["scenario"] == name and ds.meta["seed"] == 3 and ds.n_rows == 8


def test_dataspec_accepts_its_edges_and_numpy_scalars():
    for fields in ({"n_train": 1, "n_test": 0}, {"s": 0.0}, {"s": 1.0},
                   {"n_train": np.int64(5), "beta_p": np.float64(-2.0), "beta_u": 2}):
        DataSpec(**fields)


def test_unobserved_shifts_choices_not_columns():
    base = DataSpec(n_train=800, n_test=0).dataset(2)
    shifted = DataSpec("unobserved", n_train=800, n_test=0, beta_u=3.0).dataset(2)
    assert np.array_equal(base.values, shifted.values)
    assert not np.array_equal(base.choice, shifted.choice)
    assert shifted.meta["truth"]["beta_u"] == 3.0


def test_guevara_price_is_endogenous():
    ds = DataSpec("guevara", n_train=3000, n_test=1000).dataset(0)
    assert ds.n_rows == 4000
    for alt in ("1", "2"):
        rho = np.corrcoef(ds.col(f"p{alt}"), ds.col(f"q{alt}"))[0, 1]
        assert rho > 0.4  # q enters the price equation with coefficient 1
    assert ds.meta["truth"] == {"beta_p": -2.0, "beta_a": 1.0,
                                "beta_b": 1.0, "beta_q": 1.0}
    assert ds.columns == ["p1", "a1", "b1", "q1", "p2", "a2", "b2", "q2"]


def test_stream_gumbel_moments():
    g = Stream(7, 99).gumbel(30_000)
    assert abs(g.mean() - 0.5772) < 0.03  # Euler-Mascheroni location
    assert abs(g.std() - math.pi / math.sqrt(6.0)) < 0.03


def test_attribute_table_marginals():
    ds = sample_attribute_table(2000, seed=4)
    assert ds.col("TT_Train").min() >= 0.6 and ds.col("TT_Train").max() <= 3.0
    assert ds.col("TC_SM").min() >= 0.3 and ds.col("TC_SM").max() <= 2.0
    age = ds.col("AGE")
    assert np.array_equal(age, np.round(age))
    assert age.min() >= 1 and age.max() <= 5
    assert ds.col("DEST").max() <= 26 and ds.col("INCOME").min() >= 0
    assert ds.col("PURPOSE").max() <= 9


@pytest.mark.parametrize("n", [0, -3, 2.5])
def test_attribute_table_rejects_a_bad_row_count(n):
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        sample_attribute_table(n, seed=0)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        gen_semi_synthetic(n=n, seed=0)


def test_semi_synthetic_scaled_categories():
    ds = gen_semi_synthetic(n=1500, seed=0, cat_span=1.4)
    for c in ("AGE", "DEST", "ORIGIN", "INCOME", "PURPOSE"):
        col = ds.col(c)
        assert col.min() == 0.0
        assert col.max() == pytest.approx(1.4, abs=1e-12)
    assert ds.meta["cat_span"] == 1.4
    assert ds.meta["truth"] == {"b_tt": -1.0, "b_tc": -2.0}
    assert tuple(ds.alt_labels) == ("Train", "SM", "Car")


def test_semi_synthetic_validation():
    with pytest.raises(ValueError, match="cat_span"):
        gen_semi_synthetic(n=50, cat_span=0.0)
    table = sample_attribute_table(50, seed=1)
    keep = [c for c in table.columns if c != "PURPOSE"]
    idx = [table.col_index(c) for c in keep]
    broken = ChoiceDataset(keep, table.values[:, idx], table.avail,
                           table.choice, table.alt_labels)
    with pytest.raises(ValueError, match="missing column 'PURPOSE'"):
        gen_semi_synthetic(source=broken)


def test_semi_synthetic_choice_rule_reconstructed():
    # recompute the documented utility + Gumbel(0,1) argmax from the emitted
    # columns and the raw uniform stream; the generator must match exactly
    n, seed = 400, 6
    ds = gen_semi_synthetic(n=n, seed=seed, cat_span=1.2)
    age, dest = ds.col("AGE"), ds.col("DEST")
    origin, income, purpose = ds.col("ORIGIN"), ds.col("INCOME"), ds.col("PURPOSE")
    v = np.zeros((n, 3))
    for i, a in enumerate(("Train", "SM", "Car")):
        v[:, i] = -1.0 * ds.col(f"TT_{a}") - 2.0 * ds.col(f"TC_{a}")
    v[:, 0] += dest ** 3 * age - np.sqrt(age) * origin
    v[:, 1] += dest * age + 3.0 * income ** 5 * purpose ** 2
    v[:, 2] += 5.0 * age * income ** 5 + 2.0 * origin ** 2 * income ** 5
    s = derive_seed(seed, 14)
    g = np.empty((n, 3))
    for k in range(3):
        u = np.clip(uniforms(s, k * n, n), 1e-300, 1.0 - 1e-16)
        g[:, k] = -np.log(-np.log(u))
    assert np.array_equal(ds.choice, (v + g).argmax(axis=1))


def test_semi_synthetic_accepts_external_table():
    table = sample_attribute_table(300, seed=8)
    ds = gen_semi_synthetic(source=table, seed=8)
    assert ds.n_rows == 300
    # travel columns pass through untouched
    assert np.array_equal(ds.col("TT_Car"), table.col("TT_Car"))
