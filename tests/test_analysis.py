"""Experiment drivers: aggregation, failure handling, and output tables."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from lchoice import (
    DataSpec,
    ModelRecipe,
    UtilitySpec,
    UtilityTerm,
    binary_zoo,
    build_model,
    correlation_bias_sweep,
    correlation_zoo,
    feature_impact,
    fit_joint,
    monte_carlo,
    neuron_scan,
    semi_synthetic_study,
    sensitivity_sweep,
    strategy_compare,
)
from lchoice.analysis import (
    FeatureImpactResult,
    MonteCarloResult,
    RepOutcome,
    markdown_table,
    write_csv_rows,
)
from lchoice import estimation
from lchoice.numcore import TrainConfig
from lchoice.numcore.prng import derive_seed

TINY = DataSpec(n_train=80, n_test=40)
TINY_CFG = TrainConfig(epochs=3, batch_size=40, dropout=0.0)


def pa_spec():
    return UtilitySpec(terms=(
        UtilityTerm.of("beta_p", {"1": "p1", "2": "p2"}),
        UtilityTerm.of("beta_a", {"1": "a1", "2": "a2"}),
    ))


# ------------------------------------------------------------- monte carlo


def test_monte_carlo_aggregates_and_is_deterministic():
    recipes = (binary_zoo(4)[0], binary_zoo(4)[3])  # Logit(X1) and LMNL
    a = monte_carlo(TINY, recipes, 2, TINY_CFG, seed=1)
    b = monte_carlo(TINY, recipes, 2, TINY_CFG, seed=1)
    ll_a, ll_b = a.ll_table(), b.ll_table()
    assert ll_a == ll_b
    assert [r["model"] for r in ll_a] == ["Logit(X1)", "LMNL(4,X,Q)"]
    for row in ll_a:
        assert row["replications"] == 2 and row["failed"] == 0
        assert math.isfinite(row["ll_train_mean"])
    err = a.error_table()
    assert {"e_beta_p_mean_pct", "e_beta_p/beta_a_mean_pct"} <= set(err[0])
    tst = a.testing_table()
    assert {"nonreject_coeffs_pct", "nonreject_percoeff_pct",
            "nonreject_ratio_pct"} <= set(tst[0])


def test_monte_carlo_validates_inputs():
    recipes = binary_zoo(4)[:1]
    with pytest.raises(ValueError, match="replications"):
        monte_carlo(TINY, recipes, 0, TINY_CFG)
    with pytest.raises(ValueError, match="one seed per replication"):
        monte_carlo(TINY, recipes, 2, TINY_CFG, seeds=[1])


def test_monte_carlo_single_rep_has_zero_sd():
    res = monte_carlo(TINY, binary_zoo(4)[:1], 1, TINY_CFG, with_tests=False)
    row = res.ll_table()[0]
    assert row["ll_train_sd"] == 0.0


def test_monte_carlo_records_failures_and_excludes_them():
    bad = ModelRecipe("Broken", "Logit",
                      UtilitySpec((UtilityTerm.of("b", {"1": "ghost"}),)))
    good = binary_zoo(4)[0]
    res = monte_carlo(TINY, (good, bad), 2, TINY_CFG, with_tests=False)
    assert len(res.failures) == 2
    assert all(f["model"] == "Broken" for f in res.failures)
    assert all(f["error"].startswith("ValueError: ") and "ghost" in f["error"]
               for f in res.failures)
    assert res.per_model("Broken") == []
    rows = {r["model"]: r for r in res.ll_table()}
    assert rows["Broken"]["failed"] == 2 and rows["Broken"]["replications"] == 0
    assert math.isnan(rows["Broken"]["ll_train_mean"])
    assert rows["Logit(X1)"]["replications"] == 2
    assert "excluded" in res.to_markdown()


def test_monte_carlo_worker_processes_match_serial_run():
    bad = ModelRecipe("Broken", "Logit",
                      UtilitySpec((UtilityTerm.of("b", {"1": "ghost"}),)))
    recipes = (binary_zoo(4)[0], bad, binary_zoo(4)[3])
    serial = monte_carlo(TINY, recipes, 2, TINY_CFG, seed=5)
    pooled = monte_carlo(TINY, recipes, 2, TINY_CFG, seed=5, jobs=2)
    assert [(o.model, o.rep) for o in serial.outcomes] == [
        ("Logit(X1)", 0), ("Logit(X1)", 1), ("LMNL(4,X,Q)", 0), ("LMNL(4,X,Q)", 1)]
    assert pooled.outcomes == serial.outcomes
    assert pooled.failures == serial.failures and len(serial.failures) == 2


def test_recipe_fit_goes_through_the_analysis_module_names(monkeypatch):
    # the benchmark times these two by patching the analysis module's names
    from lchoice import analysis
    calls = []

    def spy(name):
        real = getattr(analysis, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("build_model", "fit_joint"):
        monkeypatch.setattr(analysis, name, spy(name))
    train, test, _ = TINY.make(1)
    model, report = binary_zoo(4)[3].fit(train, test, TINY_CFG, 7, compute_std_errors=False)
    assert calls == ["build_model", "fit_joint"]
    assert model.alt_labels == tuple(train.alt_labels) and report.n_test == test.n_rows


def test_monte_carlo_diverged_rep_takes_no_test_decisions(monkeypatch):
    real = estimation.fit_program

    def diverging(*args, **kwargs):
        return replace(real(*args, **kwargs), status="diverged")

    monkeypatch.setattr(estimation, "fit_program", diverging)
    res = monte_carlo(TINY, (binary_zoo(4)[0],), 1, TINY_CFG, with_tests=True)
    (rep,) = res.outcomes
    assert rep.status == "diverged" and res.failures == []
    assert rep.nonreject_coeffs is None and rep.nonreject_each == {}
    assert rep.nonreject_ratio is None


def test_error_table_skips_pure_net_models():
    recipes = (binary_zoo(4)[1], binary_zoo(4)[0])  # DNN first, then Logit
    res = monte_carlo(TINY, recipes, 1, TINY_CFG, with_tests=False)
    assert [r["model"] for r in res.error_table()] == ["Logit(X1)"]
    assert {r["model"] for r in res.ll_table()} == {"DNN(4,Q)", "Logit(X1)"}


def test_testing_table_pools_per_coefficient_decisions():
    spec = DataSpec()
    reps = [
        RepOutcome("M", 0, 0, "ok", -1.0, -1.0, 0.5, 0.5, 0.1,
                   nonreject_coeffs=True,
                   nonreject_each={"beta_p": True, "beta_a": True},
                   nonreject_ratio=True),
        RepOutcome("M", 1, 1, "ok", -1.0, -1.0, 0.5, 0.5, 0.1,
                   nonreject_coeffs=False,
                   nonreject_each={"beta_p": False, "beta_a": True},
                   nonreject_ratio=None),
    ]
    res = MonteCarloResult(spec, ("M",), reps, [], ("beta_p", "beta_a"),
                           ("beta_p", "beta_a"))
    row = res.testing_table()[0]
    assert row["nonreject_coeffs_pct"] == 50.0
    assert row["nonreject_percoeff_pct"] == 75.0  # 3 of 4 pooled decisions
    assert row["nonreject_ratio_pct"] == 100.0  # None rows drop out


def test_ratio_summary_quartiles():
    spec = DataSpec()
    reps = [RepOutcome("M", i, i, "ok", -1.0, -1.0, 0.5, 0.5, 0.1,
                       ratio_estimate=v)
            for i, v in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])]
    res = MonteCarloResult(spec, ("M",), reps, [], (), ("a", "b"))
    row = res.ratio_summary()[0]
    assert row["ratio_median"] == 3.0
    assert row["ratio_q1"] == 2.0 and row["ratio_q3"] == 4.0


def test_dataspec_make_splits_its_dataset():
    spec = DataSpec("unobserved", n_train=30, n_test=10, beta_u=2.0)
    ds = spec.dataset(4)
    train, test, truth = spec.make(4)
    assert (train.n_rows, test.n_rows) == (30, 10)
    assert np.array_equal(np.vstack([train.values, test.values]), ds.values)
    assert truth == ds.meta["truth"] and truth["beta_u"] == 2.0
    with pytest.raises(ValueError, match="unknown scenario"):
        DataSpec("trinary").dataset(0)


# ------------------------------------------------------------- neuron scan


def test_neuron_scan_width_zero_matches_plain_logit():
    sc_train, sc_test, _ = TINY.make(derive_seed(17, 100))
    scan = neuron_scan((sc_train, sc_test), pa_spec(), ("q1", "q2"),
                       widths=(0, 3), replications=1, base_config=TINY_CFG, seed=17)
    rec0 = [r for r in scan.records if r["width"] == 0][0]
    model = build_model("Logit", ("1", "2"), pa_spec())
    cfg = replace(TINY_CFG, seed=derive_seed(17, 100))
    report = fit_joint(model, sc_train, cfg, test=sc_test, compute_std_errors=False)
    assert rec0["ll_train"] == report.ll_train
    assert rec0["params"] == report.estimates()
    rec3 = [r for r in scan.records if r["width"] == 3][0]
    assert math.isfinite(rec3["ll_test"])


def test_neuron_scan_worker_processes_match_serial_run():
    kwargs = dict(widths=(0, 2), replications=2, base_config=TINY_CFG, seed=3)
    serial = neuron_scan(TINY, pa_spec(), ("q1", "q2"), **kwargs)
    pooled = neuron_scan(TINY, pa_spec(), ("q1", "q2"), jobs=2, **kwargs)
    assert [(r["width"], r["rep"]) for r in serial.records] == [(0, 0), (0, 1), (2, 0), (2, 1)]
    assert pooled.records == serial.records


def test_neuron_scan_reraises_a_failed_fit():
    with pytest.raises(ValueError, match="ghost"):
        neuron_scan(TINY, pa_spec(), ("ghost",), widths=(2,), base_config=TINY_CFG, jobs=2)


def test_neuron_scan_rejects_zero_replications():
    with pytest.raises(ValueError, match="replications must be >= 1"):
        neuron_scan(TINY, pa_spec(), ("q1", "q2"), widths=(0,), replications=0)


def test_neuron_scan_rejects_negative_width():
    with pytest.raises(ValueError, match="widths"):
        neuron_scan(TINY, pa_spec(), ("q1", "q2"), widths=(-1, 5))


# ------------------------------------------------------- correlation sweep


def test_correlation_sweep_validates_levels():
    with pytest.raises(ValueError, match="correlation levels"):
        correlation_bias_sweep((0.0, 1.2), 1)


def test_correlation_sweep_tables_and_access():
    res = correlation_bias_sweep((0.0, 1.0), 2, scenario=TINY,
                                 recipes=correlation_zoo(4)[:1],
                                 base_config=TINY_CFG, seed=2)
    name = "LMNL(4,X,Q)"
    e0 = res.mean_error(name, 0.0, "beta_p")
    e1 = res.mean_error(name, 1.0, "beta_p")
    assert math.isfinite(e0) and math.isfinite(e1)
    assert math.isnan(res.mean_error(name, 0.0, "no_such_key"))
    rows = res.table()
    assert {r["s"] for r in rows} == {0.0, 1.0}


# --------------------------------------------- sensitivity, feature impact


def fitted_hybrid():
    train, test, _ = TINY.make(3)
    model = build_model("LMNL", ("1", "2"), pa_spec(), q=("q1", "q2"),
                        net_width=3, seed=3)
    fit_joint(model, train, TINY_CFG, compute_std_errors=False)
    return model, train


def test_sensitivity_zero_delta_keeps_base_shares():
    model, train = fitted_hybrid()
    res = sensitivity_sweep(model, train, "q1", grid=(0.0, 0.5))
    assert np.array_equal(res.shares[0], res.base_shares)
    rows = res.table()
    zero_rows = [r for r in rows if r["change_pct"] == 0.0]
    assert all(r["share_change_pct"] == 0.0 for r in zero_rows)
    assert np.allclose(res.shares.sum(axis=1), 1.0, atol=1e-12)


def test_sensitivity_rejects_non_net_column():
    model, train = fitted_hybrid()
    with pytest.raises(ValueError, match="not a net input"):
        sensitivity_sweep(model, train, "p1", grid=(0.1,))


def test_feature_impact_zero_net_gives_zero():
    train, _, _ = TINY.make(5)
    model = build_model("LMNL", ("1", "2"), pa_spec(), q=("q1", "q2"),
                        net_width=3, seed=5)  # fresh: output layer all zero
    res = feature_impact(model, train)
    assert np.all(res.impact == 0.0)
    assert res.counts.sum() == train.n_rows
    assert res.overall() == {"q1": 0.0, "q2": 0.0}


def test_feature_impact_detects_active_inputs():
    model, train = fitted_hybrid()
    res = feature_impact(model, train)
    assert max(res.overall().values()) > 0.0
    assert set(res.overall()) == {"q1", "q2"}


def test_feature_impact_without_net_inputs():
    train, _, _ = TINY.make(5)
    model = build_model("Logit", ("1", "2"), pa_spec())
    res = feature_impact(model, train)
    assert res.impact.shape == (2, 0)
    assert res.overall() == {}


def test_feature_impact_overall_weighting():
    res = FeatureImpactResult(("c0", "c1"), ("1", "2"),
                              np.array([[1.0, 0.0], [0.0, 1.0]]),
                              np.array([3, 1]))
    assert res.overall() == {"c0": 0.75, "c1": 0.25}


# --------------------------------------------------- composite experiments


def test_strategy_compare_smoke():
    res = strategy_compare(data=DataSpec(n_train=150, n_test=50), width=3,
                           base_config=TINY_CFG, seed=4)
    rows = res.table()
    assert [r["strategy"] for r in rows] == ["beta_then_net", "net_then_beta", "joint"]
    for row in rows:
        assert math.isfinite(row["ll_train"]) and math.isfinite(row["beta_p"])
    assert "beta_then_net" in res.to_markdown()


def test_semi_synthetic_study_smoke():
    res = semi_synthetic_study(n=300, seed=1, width=3, base_config=TINY_CFG)
    assert res.truth == {"b_tt": -1.0, "b_tc": -2.0}
    rows = res.table()
    assert [r["model"] for r in rows] == ["Logit(Xa)", "Logit(Xb)", "LMNL(3,X,Q)"]
    for row in rows:
        assert math.isfinite(row["beta_tt"]) and math.isfinite(row["ll_train"])
        assert math.isfinite(row["tc_over_tt"])
    assert "Recovery" in res.to_markdown()


# ---------------------------------------------------------- output helpers


def test_markdown_table_union_and_sig_digits():
    rows = [{"a": 1.23456789, "b": "x"}, {"a": math.nan, "c": 2}]
    md = markdown_table(rows, title="T")
    lines = md.splitlines()
    assert lines[0] == "## T"
    assert lines[2] == "| a | b | c |"
    assert "1.235" in md and "nan" in md
    assert markdown_table([]) == "(no rows)\n"
    assert "(no rows)" in markdown_table([], title="Empty")


def test_write_csv_rows_union_of_keys(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv_rows(str(path), [{"a": 1, "b": 2}, {"a": 3, "c": 4}])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0] == {"a": "1", "b": "2", "c": ""}
    assert rows[1] == {"a": "3", "b": "", "c": "4"}
