"""Likelihood metrics, statistical tests, std errors, and fit drivers."""

import csv
import math

import numpy as np
import pytest

from lchoice import (
    BETA_THEN_NET,
    DataSpec,
    NET_THEN_BETA,
    build_model,
    fit_joint,
    fit_sequential,
    hessian_std_errors,
    mcfadden_rho2,
    null_log_likelihood,
    parameter_ratio,
    predict_probabilities,
    ratio_t_test,
    relative_errors,
    t_test,
)
from lchoice import estimation, numcore
from lchoice.dataio import ChoiceDataset, DataError, generic_schema, load_csv
from lchoice.estimation import build_report
from lchoice.models import (NestStructure, UtilitySpec, UtilityTerm, load_model_dict,
                            save_model_dict)
from lchoice.numcore import FitResult, TrainConfig, program


def two_alt_dataset():
    columns = ["x1", "x2"]
    values = np.array([[2.0, 0.0], [0.0, 3.0], [5.0, 1.0]])
    avail = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    choice = np.array([0, 0, 1], dtype=np.int64)
    return ChoiceDataset(columns, values, avail, choice, ("1", "2"))


def unit_beta_model():
    util = UtilitySpec(terms=(UtilityTerm.of("beta_x", {"1": "x1", "2": "x2"}),))
    m = build_model("Logit", ("1", "2"), util)
    m.beta[:] = [1.0]
    return m


def pa_utility():
    return UtilitySpec(
        terms=(
            UtilityTerm.of("beta_p", {"1": "p1", "2": "p2"}),
            UtilityTerm.of("beta_a", {"1": "a1", "2": "a2"}),
        ),
        intercepts=("1",),
    )


# ------------------------------------------------------------------ metrics


def unfitted_report(model, train, test=None):
    """The report of ``model`` as it stands, without standard errors."""
    return build_report(model, train, test, FitResult("ok", 0, 0, np.zeros(0)),
                        compute_std_errors=False)


def test_log_likelihood_hand_value():
    ds = two_alt_dataset()
    m = unit_beta_model()
    # rows: ln(e^2/(e^2+1)), ln(1/(1+e^3)), ln(1) for the masked row
    expect = (math.log(math.exp(2.0) / (math.exp(2.0) + 1.0))
              + math.log(1.0 / (1.0 + math.exp(3.0)))
              + 0.0)
    report = unfitted_report(m, ds, ds)
    assert abs(report.ll_train - expect) < 1e-12
    assert abs(report.ll_test - expect) < 1e-12


def test_accuracy_hand_value():
    ds = two_alt_dataset()
    m = unit_beta_model()
    # row 0 predicted 0 (correct), row 1 predicted 1 (wrong),
    # row 2 masked argmax is 1 (correct)
    report = unfitted_report(m, ds, ds)
    assert report.acc_train == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert report.acc_test == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_scorers_reject_a_bad_choice_code(tmp_path):
    # a missing response kept raw by load_csv(..., validate=False) is coded -1;
    # scoring it as the last alternative once gave log_likelihood = -1.117
    path = tmp_path / "missing.csv"
    path.write_text("x1,x2,AV_1,AV_2,CHOICE\n2.0,0.0,1,1,0\n0.0,3.0,1,1,-1\n")
    ds = load_csv(str(path), generic_schema(("1", "2")), validate=False)
    m = unit_beta_model()
    for score in (lambda: hessian_std_errors(m, ds), lambda: unfitted_report(m, ds),
                  lambda: unfitted_report(m, two_alt_dataset(), ds)):
        with pytest.raises(DataError, match=r"row 1: choice -1 is not in \[0, 2\)"):
            score()


def test_null_log_likelihood_counts_available_alternatives():
    ds = two_alt_dataset()
    assert abs(null_log_likelihood(ds) - (-(math.log(2.0) * 2 + math.log(1.0)))) < 1e-12


def test_mcfadden_rho2_identity_and_guard():
    assert mcfadden_rho2(-50.0, -100.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        mcfadden_rho2(-1.0, 0.0)


# ------------------------------------------------------------- statistics


def test_t_test_frozen_values():
    r = t_test(0.146, 0.0436)
    assert r.t_stat == pytest.approx(3.348623853211009, abs=1e-12)
    assert r.p_value == pytest.approx(0.0008121397265457143, rel=1e-10)
    assert r.reject is True


def test_t_test_boundary_not_rejected():
    # |t| must strictly exceed the critical value
    r = t_test(1.96, 1.0)
    assert r.p_value == pytest.approx(0.04999579029644087, rel=1e-10)
    assert r.reject is False


def test_t_test_against_reference():
    r = t_test(-1.0, 0.5, reference=-2.0)
    assert r.t_stat == pytest.approx(2.0, abs=1e-15)
    assert r.reject is True


def test_t_test_bad_std_error():
    for se in (0.0, -1.0, math.inf, math.nan):
        r = t_test(1.0, se)
        assert math.isnan(r.t_stat) and not r.reject


def test_relative_errors_hand_values():
    truth = {"bp": -2.0, "ba": 1.0}
    est = {"bp": -1.0, "ba": 0.8}
    out = relative_errors(est, truth, ratios=(("bp", "ba"),))
    assert out["bp"] == pytest.approx(0.5, abs=1e-15)
    assert out["ba"] == pytest.approx(0.2, abs=1e-15)
    # the signed-error form must equal the plain relative error of the ratio
    direct = abs(((-1.0 / 0.8) - (-2.0)) / -2.0)
    assert out["bp/ba"] == pytest.approx(direct, abs=1e-12)
    assert out["bp/ba"] == pytest.approx(0.375, abs=1e-12)


def test_relative_errors_with_a_zero_denominator_are_nan():
    # a zero true coefficient once raised ZeroDivisionError in every replication
    out = relative_errors({"bp": -1.0, "ba": 0.3}, {"bp": -1.0, "ba": 0.0},
                          ratios=(("bp", "ba"),))
    assert out["bp"] == 0.0 and math.isnan(out["ba"]) and math.isnan(out["bp/ba"])
    # an estimated ratio denominator of 0: the estimated ratio is undefined
    out = relative_errors({"bp": -1.0, "ba": 0.0}, {"bp": -1.0, "ba": 0.5},
                          ratios=(("bp", "ba"),))
    assert out["ba"] == 1.0 and math.isnan(out["bp/ba"])


def test_relative_errors_skips_missing_estimates():
    out = relative_errors({"a": 1.0}, {"a": 2.0, "b": 3.0})
    assert set(out) == {"a"}


def test_parameter_ratio():
    est = {"n": -1.0, "d": -2.0, "z": 1e-14}
    assert parameter_ratio(est, "n", "d") == pytest.approx(0.5)
    with pytest.raises(ZeroDivisionError):
        parameter_ratio(est, "n", "z")


def test_ratio_t_test_delta_method():
    est = {"bn": -1.0, "bd": -2.0}
    cov = np.array([[0.04, 0.01], [0.01, 0.09]])
    # grad = (1/bd, -bn/bd^2) = (-0.5, 0.25)
    var = 0.25 * 0.04 + 2.0 * (-0.5 * 0.25) * 0.01 + 0.0625 * 0.09
    r = ratio_t_test(est, cov, ("bn", "bd"), "bn", "bd", reference=0.0)
    assert r.t_stat == pytest.approx(0.5 / math.sqrt(var), rel=1e-12)
    shifted = ratio_t_test(est, cov, ("bn", "bd"), "bn", "bd", reference=0.5)
    assert shifted.t_stat == pytest.approx(0.0, abs=1e-15)
    assert shifted.reject is False


# ------------------------------------------------------------- std errors


def test_std_errors_shrink_with_sample_size(binary_data):
    train, _ = binary_data
    util = pa_utility()
    m = build_model("Logit", ("1", "2"), util, seed=1)
    m.beta[:] = [0.1, -0.8, 0.4]
    se1, cov1, _ = hessian_std_errors(m, train)
    doubled = train.subset(np.concatenate([np.arange(train.n_rows)] * 2))
    se2, cov2, _ = hessian_std_errors(m, doubled)
    assert np.allclose(se2, se1 / math.sqrt(2.0), rtol=1e-9)
    assert np.allclose(cov1, cov1.T, atol=0)


def test_hessian_restores_parameters(binary_data):
    train, _ = binary_data
    m = build_model("Logit", ("1", "2"), pa_utility(), seed=4)
    before = m.beta.copy()
    hessian_std_errors(m, train)
    assert np.array_equal(m.beta, before)


def test_singular_hessian_falls_back_to_pseudo_inverse(binary_data):
    train, _ = binary_data
    # two names on the same column make the information matrix exactly singular
    util = UtilitySpec(terms=(
        UtilityTerm.of("b1", {"1": "p1"}),
        UtilityTerm.of("b2", {"1": "p1"}),
    ))
    m = build_model("Logit", ("1", "2"), util, seed=2)
    m.beta[:] = 0.3  # equal values keep the FD columns bitwise identical
    _, _, warns = hessian_std_errors(m, train)
    assert any("pseudo-inverse" in w for w in warns)


def reference_std_errors(model, ds, step_scale=1e-4):
    """The per-point route: each FD point reruns the full `gradients` pass."""
    prog = model.program(ds.columns)
    beta0 = prog.beta.copy()
    hess = np.zeros((prog.n_params, prog.n_params))
    for j in range(prog.n_params):
        h = step_scale * max(1.0, abs(beta0[j]))
        cols = []
        for sign in (1.0, -1.0):
            prog.beta[...] = beta0
            prog.beta[j] += sign * h
            inputs = numcore.compile_inputs(prog, ds.values, ds.avail, ds.choice)
            cols.append(numcore.gradients(prog, *inputs, reduction="sum")[0]["beta"])
        hess[:, j] = (cols[0] - cols[1]) / (2.0 * h)
    prog.beta[...] = beta0
    hess = 0.5 * (hess + hess.T)
    cov = np.linalg.inv(hess)
    if not np.all(np.isfinite(cov)):
        cov = np.linalg.pinv(hess)
    diag = np.diag(cov).copy()
    diag[diag <= 0] = np.nan
    return np.sqrt(diag), cov


def three_alt_dataset(n=300, seed=5):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, 6))
    avail = (rng.random((n, 3)) > 0.2).astype(float)
    avail[avail.sum(axis=1) == 0, 0] = 1.0
    choice = np.array([rng.choice(np.flatnonzero(a)) for a in avail], dtype=np.int64)
    return ChoiceDataset(["x1", "x2", "x3", "q1", "q2", "q3"], values, avail, choice,
                         ("A", "B", "C"))


def oracle_case(kind, binary_data):
    """(model at a trained point, training set) for the Hessian oracle."""
    train, _ = binary_data
    config = TrainConfig(epochs=15, batch_size=50, dropout=0.0, seed=3,
                         learning_rate=0.01)
    if kind == "Logit":
        m = build_model("Logit", ("1", "2"), pa_utility(), seed=1)
    elif kind == "LMNL":
        m = build_model("LMNL", ("1", "2"), pa_utility(), q=("q1", "c1", "q2", "c2"),
                        net_width=6, seed=1)
    elif kind == "DummyLogit":
        m = build_model("DummyLogit", ("1", "2"), pa_utility(), q=("q1", "q2"), seed=1)
    else:  # LNL, one free nest factor, some alternatives unavailable
        train = three_alt_dataset()
        util = UtilitySpec(terms=(UtilityTerm.of("bx", {"A": "x1", "B": "x2", "C": "x3"}),),
                           intercepts=("A", "B"))
        nests = NestStructure((("A", "B"), ("C",)), mu=np.array([1.5, 1.0]),
                              fixed=(False, True))
        m = build_model("LNL", ("A", "B", "C"), util, q=("q1", "q2", "q3"),
                        net_width=5, nests=nests, seed=2)
    fit_joint(m, train, config, compute_std_errors=False)
    return m, train


@pytest.mark.parametrize("kind", ["Logit", "LMNL", "LNL", "DummyLogit"])
def test_hessian_matches_per_point_gradients(binary_data, kind):
    m, train = oracle_case(kind, binary_data)
    if kind == "LNL":
        assert m.nests.mu[0] != 1.5 and (train.avail == 0).any()
    se, cov, _ = hessian_std_errors(m, train)
    ref_se, ref_cov = reference_std_errors(m, train)
    assert np.array_equal(cov, ref_cov)
    assert np.array_equal(se, ref_se, equal_nan=True)


def test_report_runs_the_net_once_per_dataset(binary_data, monkeypatch):
    train, test = binary_data
    m = build_model("LMNL", ("1", "2"), pa_utility(), q=("q1", "c1", "q2", "c2"),
                    net_width=4, seed=1)
    calls = []
    original = program.net_output
    rows = {train.n_rows: "train", test.n_rows: "test"}

    def counting(prog, q, mask=None, cache=None):
        calls.append(rows.get(q.shape[0], "other"))
        return original(prog, q, mask, cache)

    monkeypatch.setattr(program, "net_output", counting)
    report = build_report(m, train, test, FitResult("ok", 0, 0, np.zeros(0)))
    assert all(p.std_error is not None for p in report.params)
    # train: one pass that the report and the Hessian share; test: one for the report
    assert sorted(calls) == ["test", "train"]


def test_fit_checks_each_dataset_once_at_the_door_and_once_in_the_report(monkeypatch):
    # the Hessian reuses the report's checked training set; it once re-checked it
    train, test, _ = DataSpec(n_train=200, n_test=50).make(4)
    m = build_model("LMNL", ("1", "2"), pa_utility(), q=("q1", "q2"), net_width=3, seed=0)
    checked = []
    original = ChoiceDataset.validate_choices

    def spy(ds):
        checked.append(ds.n_rows)
        return original(ds)

    monkeypatch.setattr(ChoiceDataset, "validate_choices", spy)
    report = fit_joint(m, train, TrainConfig(epochs=1, batch_size=50), test=test)
    assert all(p.std_error is not None for p in report.params)
    assert checked == [200, 50, 200, 50]


def test_zero_parameter_model_has_no_std_errors(binary_data):
    train, _ = binary_data
    m = build_model("DNN", ("1", "2"), q=("q1", "q2"), net_width=3, seed=0)
    se, cov, warns = hessian_std_errors(m, train)
    assert se.shape == (0,) and cov.shape == (0, 0) and warns == []


# ------------------------------------------------------------ fit drivers


def test_fit_improves_log_likelihood(binary_data, quick_config):
    train, test = binary_data
    m = build_model("Logit", ("1", "2"), pa_utility(), seed=0)
    before = unfitted_report(m, train).ll_train
    report = fit_joint(m, train, quick_config, test=test, compute_std_errors=False)
    assert report.ll_train > before
    assert report.ll_train == pytest.approx(unfitted_report(m, train).ll_train, abs=1e-12)


def test_report_metric_identities(binary_data, quick_config):
    train, test = binary_data
    m = build_model("Logit", ("1", "2"), pa_utility(), seed=0)
    report = fit_joint(m, train, quick_config, test=test,
                       ratio_defs=(("p_over_a", "beta_p", "beta_a"),))
    ll0 = -sum(math.log(k) for k in train.avail.sum(axis=1))
    assert report.ll0_train == pytest.approx(ll0, abs=1e-10)
    assert report.rho2_train == pytest.approx(1.0 - report.ll_train / ll0, abs=1e-12)
    assert report.rho2_test == pytest.approx(1.0 - report.ll_test / report.ll0_test,
                                             abs=1e-12)
    est = report.estimates()
    assert set(est) == {"asc_1", "beta_p", "beta_a"}
    assert report.ratios["p_over_a"] == pytest.approx(est["beta_p"] / est["beta_a"],
                                                      abs=1e-15)
    assert report.n_train == train.n_rows and report.n_test == test.n_rows
    assert report.parameter("beta_p").estimate == est["beta_p"]
    with pytest.raises(KeyError):
        report.parameter("beta_zz")
    assert report.trace.shape == (quick_config.epochs,)


def test_report_references_shift_rejection(binary_data, quick_config):
    train, _ = binary_data
    m = build_model("Logit", ("1", "2"), pa_utility(), seed=0)
    fit = fit_joint(m, train, quick_config)
    bp = fit.parameter("beta_p")
    assert bp.reject  # clearly nonzero on this scenario
    refit = build_report(m, train, None, FitResult("ok", 0, 0, np.zeros(0)),
                         references={"beta_p": bp.estimate})
    assert refit.parameter("beta_p").reference == bp.estimate
    assert not refit.parameter("beta_p").reject


def test_report_flags_rolled_back_fit(binary_data):
    train, _ = binary_data
    m = build_model("Logit", ("1", "2"), pa_utility(), seed=0)
    bad = FitResult("diverged", 3, 12, np.zeros(3))
    report = build_report(m, train, None, bad, compute_std_errors=False)
    assert report.status == "diverged"
    assert any("rolled back" in w for w in report.warnings)


def test_report_records_a_ratio_over_a_zero_coefficient_as_nan(binary_data, tmp_path):
    # such a ratio once raised ZeroDivisionError out of the whole report
    train, _ = binary_data
    m = build_model("Logit", ("1", "2"), pa_utility(), seed=0)
    m.beta[:] = 0.0
    m.beta[m.param_names.index("beta_p")] = -0.5
    report = build_report(m, train, None, FitResult("ok", 0, 0, np.zeros(0)),
                          compute_std_errors=False,
                          ratio_defs=(("p_over_a", "beta_p", "beta_a"),
                                      ("a_over_p", "beta_a", "beta_p")))
    assert math.isnan(report.ratios["p_over_a"]) and report.ratios["a_over_p"] == 0.0  # 0 / -0.5
    assert report.warnings == ["ratio 'p_over_a' is undefined: "
                               "denominator coefficient 'beta_a' is ~0"]
    report.to_csv(str(tmp_path / "report.csv"))
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["section"] in ("ratio", "warning")]
    assert [(r["section"], r["name"], r["estimate"]) for r in rows] == [
        ("ratio", "p_over_a", "nan"), ("ratio", "a_over_p", "-0.0"),
        ("warning", report.warnings[0], "")]
    assert "| p_over_a | nan |" in report.to_markdown()
    with pytest.raises(ZeroDivisionError):  # the ratio itself still refuses
        parameter_ratio(report.estimates(), "beta_p", "beta_a")


def test_report_skips_std_errors_of_a_diverged_fit(binary_data):
    train, _ = binary_data
    m = build_model("Logit", ("1", "2"), pa_utility(), seed=0)
    bad = FitResult("diverged", 3, 12, np.zeros(3))
    report = build_report(m, train, None, bad)
    assert report.covariance is None
    assert all(p.std_error is None and p.t_stat is None and p.reject is None
               for p in report.params)
    assert any("standard errors not computed" in w and "diverged" in w
               for w in report.warnings)


def test_report_warns_when_fit_is_below_the_null(binary_data):
    train, _ = binary_data
    m = build_model("Logit", ("1", "2"), pa_utility(), seed=0)
    m.beta[:] = [0.0, 5.0, -5.0]  # signs opposite to the data-generating ones
    report = build_report(m, train, None, FitResult("ok", 0, 0, np.zeros(0)),
                          compute_std_errors=False)
    assert report.ll_train < report.ll0_train
    assert any("not above the null" in w for w in report.warnings)
    m.beta[:] = 0.0  # every row at equal shares: exactly the null
    report = build_report(m, train, None, FitResult("ok", 0, 0, np.zeros(0)),
                          compute_std_errors=False)
    assert report.ll_train == report.ll0_train
    assert any("not above the null" in w for w in report.warnings)


def test_report_markdown_and_csv_round_trip(tmp_path, binary_data, quick_config):
    train, test = binary_data
    m = build_model("Logit", ("1", "2"), pa_utility(), seed=0)
    report = fit_joint(m, train, quick_config, test=test,
                       ratio_defs=(("p_over_a", "beta_p", "beta_a"),))
    md = report.to_markdown()
    assert "| beta_p |" in md and "| log-likelihood |" in md and "| p_over_a |" in md
    path = tmp_path / "report.csv"
    report.to_csv(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_name = {(r["section"], r["name"]): r for r in rows}
    assert float(by_name[("parameter", "beta_p")]["estimate"]) == report.parameter("beta_p").estimate
    assert float(by_name[("metric", "ll_train")]["estimate"]) == report.ll_train
    assert ("ratio", "p_over_a") in by_name


def test_sequential_order_validation(binary_data, quick_config):
    train, _ = binary_data
    m = build_model("LMNL", ("1", "2"), pa_utility(), q=("q1", "q2"), net_width=3)
    with pytest.raises(ValueError, match="unknown order"):
        fit_sequential(m, train, quick_config, order="nets_first")


def test_sequential_records_order_and_trace(binary_data, quick_config):
    train, _ = binary_data
    m = build_model("LMNL", ("1", "2"), pa_utility(), q=("q1", "q2"),
                    net_width=3, seed=0)
    report = fit_sequential(m, train, quick_config, order=NET_THEN_BETA,
                            compute_std_errors=False)
    assert report.trace.shape == (2 * quick_config.epochs,)


def test_sequential_beta_phase_is_a_pure_logit_fit(binary_data):
    # with a zero-initialised output layer, the frozen-net phase must walk the
    # same trajectory as a plain logit fit; phase two never touches beta
    train, _ = binary_data
    cfg = TrainConfig(epochs=4, batch_size=64, dropout=0.2, seed=5)
    logit = build_model("Logit", ("1", "2"), pa_utility(), seed=7)
    hybrid = build_model("LMNL", ("1", "2"), pa_utility(), q=("q1", "q2"),
                         net_width=6, seed=7)
    fit_joint(logit, train, cfg, compute_std_errors=False)
    fit_sequential(hybrid, train, cfg, order=BETA_THEN_NET, compute_std_errors=False)
    np.testing.assert_array_equal(hybrid.beta, logit.beta)


def test_joint_and_sequential_reach_different_points(binary_data, quick_config):
    train, _ = binary_data
    a = build_model("LMNL", ("1", "2"), pa_utility(), q=("q1", "q2"),
                    net_width=4, seed=1)
    b = load_model_dict(save_model_dict(a))
    fit_joint(a, train, quick_config, compute_std_errors=False)
    fit_sequential(b, train, quick_config, order=BETA_THEN_NET,
                   compute_std_errors=False)
    assert not np.array_equal(a.beta, b.beta)


# ------------------------------------------------------------ bad training data


def only_the_chosen_available(ds):
    avail = np.eye(ds.n_alts)[ds.choice]
    return ChoiceDataset(ds.columns, ds.values, avail, ds.choice, ds.alt_labels)


def test_empty_training_set_is_a_data_error(binary_data, quick_config, monkeypatch):
    # an empty training or test set, or one with no choice to explain, fails
    # before any training starts; the latter once trained to the last epoch and
    # then raised "null log-likelihood is zero" from the report
    train, test = binary_data
    empty = train.subset(np.zeros(0, dtype=np.int64))
    fixed_train, fixed_test = only_the_chosen_available(train), only_the_chosen_available(test)
    no_variation = "set has no choice variation: every row has exactly one available alternative"

    def never(*args, **kwargs):
        raise AssertionError("fit_program reached")

    monkeypatch.setattr(estimation, "fit_program", never)
    for fit in (fit_joint, fit_sequential):
        for data, held_out, want in ((empty, None, "training set has no rows"),
                                     (empty, test, "training set has no rows"),
                                     (train, empty, "test set has no rows"),
                                     (fixed_train, None, f"training {no_variation}"),
                                     (fixed_train, test, f"training {no_variation}"),
                                     (train, fixed_test, f"test {no_variation}")):
            m = build_model("LMNL", ("1", "2"), pa_utility(), q=("q1", "q2"), net_width=3)
            with pytest.raises(DataError, match=want):
                fit(m, data, quick_config, test=held_out)


@pytest.mark.parametrize("column", ["a2", "q1"])
def test_non_finite_model_column_is_a_data_error(binary_data, quick_config, column):
    # one linear-term column and one net input; the message names the first bad row
    train, _ = binary_data
    values = train.values.copy()
    values[[7, 12], train.col_index(column)] = [np.nan, np.inf]
    bad = ChoiceDataset(train.columns, values, train.avail, train.choice, train.alt_labels)
    for fit in (fit_joint, fit_sequential):
        m = build_model("LMNL", ("1", "2"), pa_utility(), q=("q1", "q2"), net_width=3)
        with pytest.raises(DataError, match=f"row 7: non-finite value in column '{column}'"):
            fit(m, bad, quick_config)


def test_non_finite_unused_column_still_fits(binary_data, quick_config):
    train, _ = binary_data
    values = train.values.copy()
    values[3, train.col_index("qc1")] = np.inf
    odd = ChoiceDataset(train.columns, values, train.avail, train.choice, train.alt_labels)
    m = build_model("LMNL", ("1", "2"), pa_utility(), q=("q1", "q2"), net_width=3)
    report = fit_joint(m, odd, quick_config)
    assert report.status == "ok"
    assert all(math.isfinite(p.std_error) for p in report.params)


# ------------------------------------------------------ the model's data door


@pytest.mark.parametrize("labels", [("2", "1"), ("1", "2", "3")])
def test_alternatives_that_disagree_fail_at_the_door(quick_config, labels):
    # reversed labels would fit and flip the sign of beta_p; a third one broke numpy
    train, test, _ = DataSpec().make(0)
    m = build_model("Logit", labels, pa_utility())
    want = r"dataset alternatives \['1', '2'\] do not match the model's"
    for fit in (fit_joint, fit_sequential):
        with pytest.raises(DataError, match=want):
            fit(m, train, quick_config, test=test)
    with pytest.raises(DataError, match=want):
        predict_probabilities(m, train)


def test_non_finite_test_data_fail_before_training(binary_data, quick_config, monkeypatch):
    train, test = binary_data
    values = test.values.copy()
    values[4, test.col_index("q1")] = np.nan
    bad = ChoiceDataset(test.columns, values, test.avail, test.choice, test.alt_labels)

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(estimation, "fit_program", no_training)
    m = build_model("LMNL", ("1", "2"), pa_utility(), q=("q1", "q2"), net_width=3)
    with pytest.raises(DataError, match="row 4: non-finite value in column 'q1'"):
        fit_joint(m, train, quick_config, test=bad)
