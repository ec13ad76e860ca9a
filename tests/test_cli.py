"""End-to-end CLI behavior: exit codes, run directories, reproducibility."""

import csv
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from lchoice import DataSpec, analysis, cli, fit_joint
from lchoice.analysis import write_csv_rows
from lchoice.cli import main
from lchoice.dataio import (SWISSMETRO_SCALED, generic_schema, load_csv,
                            preprocess_swissmetro, swissmetro_schema)
from lchoice.numcore import TrainConfig
from test_dataio import write_unclosed_quote


def write_config(path, cfg):
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return str(path)


def logit_config(n_train=80, n_test=40, **extra):
    cfg = {
        "model": {
            "kind": "Logit",
            "alternatives": ["1", "2"],
            "terms": [
                {"param": "beta_p", "entries": {"1": "p1", "2": "p2"}},
                {"param": "beta_a", "entries": {"1": "a1", "2": "a2"}},
            ],
            "intercepts": ["1"],
        },
        "dataset": {"scenario": {"name": "binary", "n_train": n_train,
                                 "n_test": n_test}},
        "train": {"epochs": 3, "batch_size": 40, "dropout": 0.0},
        "report": {"std_errors": False},
    }
    cfg.update(extra)
    return cfg


def lmnl_config(q=("q1", "c1", "q2", "c2"), **extra):
    cfg = logit_config(**extra)
    cfg["model"]["kind"] = "LMNL"
    cfg["model"]["q"] = list(q)
    cfg["model"]["net_width"] = 3
    return cfg


def only_run_dir(out_dir):
    dirs = [p for p in out_dir.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


def read_metric(report_csv, name):
    with open(report_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["section"] == "metric" and row["name"] == name:
                return float(row["estimate"])
    raise KeyError(name)


# ------------------------------------------------------------------ generate


def test_generate_writes_dataset_and_truth(tmp_path, capsys):
    out = tmp_path / "data"
    code = main(["generate", "binary", "--n", "50", "--n-test", "10",
                 "--out-dir", str(out), "--seed", "3"])
    assert code == 0
    assert (out / "binary.csv").exists()
    truth = (out / "binary.truth.txt").read_text().splitlines()
    assert "beta_p=-1.0" in truth and "beta_qc=1.0" in truth
    assert "generate: binary rows=60" in capsys.readouterr().out


def test_generate_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["generate", "guevara", "--n", "40",
                     "--out-dir", str(out), "--seed", "7"]) == 0
    assert (a / "guevara.csv").read_bytes() == (b / "guevara.csv").read_bytes()


def test_generate_writes_the_dataspec_dataset(tmp_path):
    out = tmp_path / "data"
    assert main(["generate", "correlated", "--n", "30", "--n-test", "10", "--s", "0.5",
                 "--beta-p", "-2", "--out-dir", str(out), "--seed", "5"]) == 0
    written = load_csv(str(out / "correlated.csv"), generic_schema(("1", "2")))
    want = DataSpec("correlated", 30, 10, beta_p=-2.0, s=0.5).dataset(5)
    assert written.columns == want.columns
    assert np.array_equal(written.values, want.values)
    assert np.array_equal(written.choice, want.choice)
    assert ((out / "correlated.truth.txt").read_text().splitlines()
            == [f"{k}={v!r}" for k, v in want.meta["truth"].items()])
    # guevara has no test block: it writes --n rows, whatever --n-test says
    assert main(["generate", "guevara", "--n", "40", "--n-test", "10",
                 "--out-dir", str(out)]) == 0
    assert len((out / "guevara.csv").read_text().splitlines()) == 1 + 40


def test_generate_flag_defaults_are_the_dataspec_defaults(tmp_path):
    # a flag not given is left to DataSpec, so that semi-synthetic can tell it was not given
    args = cli._build_parser().parse_args(["generate", "binary"])
    assert args.n == DataSpec.n_train
    flags = {f.name: getattr(args, f.name) for f in fields(DataSpec)[2:]}
    assert flags == dict.fromkeys(flags) and len(flags) == 7
    out = tmp_path / "data"
    assert main(["generate", "unobserved", "--n", "30", "--out-dir", str(out)]) == 0
    written = load_csv(str(out / "unobserved.csv"), generic_schema(("1", "2")))
    assert np.array_equal(written.values, DataSpec("unobserved", 30).dataset(0).values)


def test_generate_semi_synthetic(tmp_path):
    out = tmp_path / "semi"
    assert main(["generate", "semi-synthetic", "--n", "60",
                 "--out-dir", str(out)]) == 0
    assert (out / "semi-synthetic.truth.txt").read_text() == "b_tt=-1.0\nb_tc=-2.0\n"


@pytest.mark.parametrize("argv, message", [
    (["binary", "--n", "-3"], "n_train must be an integer >= 1, got -3"),
    (["guevara", "--n", "0"], "n_train must be an integer >= 1, got 0"),
    (["unobserved", "--n-test", "-1"], "n_test must be an integer >= 0, got -1"),
    (["binary", "--s", "1.5"], "correlation level s must be in [0, 1], got 1.5"),
    (["correlated", "--s", "-0.5"], "correlation level s must be in [0, 1], got -0.5"),
    (["guevara", "--s", "2"], "correlation level s must be in [0, 1], got 2.0"),
    (["unobserved", "--beta-u", "inf"], "beta_u must be a finite number, got inf"),
    (["semi-synthetic", "--n", "0"], "n must be an integer >= 1, got 0"),
    (["semi-synthetic", "--n", "-3"], "n must be an integer >= 1, got -3"),
    (["semi-synthetic", "--n", "20", "--s", "5", "--beta-p", "nan", "--n-test", "-4"],
     "semi-synthetic reads only --n and --seed, not --n-test"),
    (["semi-synthetic", "--beta-u", "1.0"], "semi-synthetic reads only --n and --seed, not --beta-u"),
])
def test_generate_refuses_a_bad_scenario_and_writes_nothing(tmp_path, capsys, argv, message):
    # --n -3 once wrote 197 rows, semi-synthetic --n 0 exited with a numpy error, and
    # semi-synthetic once ignored every scenario flag it does not read
    out = tmp_path / "data"
    assert main(["generate", *argv, "--out-dir", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ estimate


def test_estimate_run_dir_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml", logit_config(
        report={"std_errors": False,
                "ratios": [{"name": "p_over_a", "num": "beta_p", "den": "beta_a"}]}))
    out = tmp_path / "runs"
    assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 0
    run = only_run_dir(out)
    assert run.name.startswith("estimate-")
    for artifact in ("config.yaml", "model.json", "report.csv", "report.md", "trace.csv"):
        assert (run / artifact).exists(), artifact
    trace = (run / "trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,mean_nll" and len(trace) == 4
    md = (run / "report.md").read_text()
    assert "| beta_p |" in md and "| p_over_a |" in md
    assert "estimate: Logit ll_train=" in capsys.readouterr().out


def test_eval_only_reports_a_ratio_over_a_zero_coefficient_as_nan(tmp_path, capsys):
    # such a ratio once ended the run with exit 1 and no folder
    cfg = logit_config(report={"std_errors": False,
                               "ratios": [{"name": "p_over_a", "num": "beta_p", "den": "beta_a"}]})
    recipe, labels = cli._parse_model(cfg)
    model = recipe.build(labels, 0)
    model.beta[:] = 0.0
    model.beta[model.param_names.index("beta_p")] = -0.5
    cli.save_model(model, str(tmp_path / "model.json"))
    path = write_config(tmp_path / "cfg.yaml", cfg)
    out = tmp_path / "runs"
    assert main(["estimate", "--config", path, "--out-dir", str(out),
                 "--eval-only", str(tmp_path / "model.json")]) == 0
    with open(only_run_dir(out) / "report.csv", newline="") as fh:
        rows = [(r["section"], r["name"], r["estimate"]) for r in csv.DictReader(fh)
                if r["section"] in ("ratio", "warning")]
    assert rows == [("ratio", "p_over_a", "nan"),
                    ("warning", "ratio 'p_over_a' is undefined: "
                                "denominator coefficient 'beta_a' is ~0", "")]


def test_run_dirs_in_the_same_second_do_not_collide(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101-000000")
    cfg = logit_config()
    first = cli._run_dir(str(tmp_path), cfg, "estimate")
    second = cli._run_dir(str(tmp_path), cfg, "estimate")
    assert first != second and first.is_dir() and second.is_dir()
    assert second.name == first.name + "-1"


def test_estimate_reproducible_across_runs(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml", logit_config())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["estimate", "--config", cfg, "--out-dir", str(out1)]) == 0
    assert main(["estimate", "--config", cfg, "--out-dir", str(out2)]) == 0
    r1 = (only_run_dir(out1) / "report.csv").read_text()
    r2 = (only_run_dir(out2) / "report.csv").read_text()
    assert r1 == r2


def test_estimate_eval_only_reuses_saved_model(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml", logit_config())
    fit_out, eval_out = tmp_path / "fit", tmp_path / "eval"
    assert main(["estimate", "--config", cfg, "--out-dir", str(fit_out)]) == 0
    fit_run = only_run_dir(fit_out)
    assert main(["estimate", "--config", cfg, "--out-dir", str(eval_out),
                 "--eval-only", str(fit_run / "model.json")]) == 0
    eval_run = only_run_dir(eval_out)
    assert not (eval_run / "model.json").exists()  # nothing was fitted
    ll_fit = read_metric(fit_run / "report.csv", "ll_train")
    ll_eval = read_metric(eval_run / "report.csv", "ll_train")
    assert ll_fit == ll_eval


def test_estimate_sequential_order(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml",
                       lmnl_config(sequential="beta_then_net"))
    out = tmp_path / "runs"
    assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 0


def test_estimate_advisory_on_collinear_net_input(tmp_path, capsys):
    cfg_dict = lmnl_config()
    cfg_dict["dataset"]["scenario"]["name"] = "correlated"
    cfg_dict["dataset"]["scenario"]["s"] = 1.0  # net input equals the price column
    cfg = write_config(tmp_path / "cfg.yaml", cfg_dict)
    assert main(["estimate", "--config", cfg, "--out-dir", str(tmp_path / "runs")]) == 0
    assert "advisory:" in capsys.readouterr().err


def swissmetro_config(tmp_path, **dataset):
    """A Logit config over a 12-row Swissmetro-format file whose row 5 is a missing response."""
    # CHOICE 0 is the survey's missing-response code: preprocessing drops the row
    header = ["TRAIN_AV", "SM_AV", "CAR_AV", "CHOICE", "GA"] + list(SWISSMETRO_SCALED)
    rows = [[1, 1, 1, 0 if i == 5 else 1 + i % 3, i % 2]
            + [50 + 10 * ((i * 7 + k) % 9) for k in range(len(SWISSMETRO_SCALED))]
            for i in range(12)]
    data = tmp_path / "sm.dat"
    data.write_text("\n".join("\t".join(str(v) for v in r) for r in [header] + rows) + "\n")
    alts = ["Train", "SM", "Car"]
    cfg_dict = logit_config()
    cfg_dict["model"] = {
        "kind": "Logit", "alternatives": alts, "intercepts": ["Train", "SM"],
        "terms": [{"param": "beta_tt", "entries": {a: f"{a.upper()}_TT" for a in alts}},
                  {"param": "beta_co", "entries": {a: f"{a.upper()}_CO" for a in alts}}]}
    cfg_dict["dataset"] = {"path": str(data), "format": "swissmetro", **dataset}
    return cfg_dict


def test_estimate_on_a_swissmetro_file_drops_missing_responses(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml", swissmetro_config(tmp_path))
    out = tmp_path / "runs"
    assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 0
    assert read_metric(only_run_dir(out) / "report.csv", "n_train") == 11


def test_ga_cost_adjust_is_a_recorded_swissmetro_dataset_key(tmp_path):
    cfg_dict = swissmetro_config(tmp_path, ga_cost_adjust=True)
    cfg = write_config(tmp_path / "cfg.yaml", cfg_dict)
    out = tmp_path / "runs"
    assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 0
    run = only_run_dir(out)
    assert yaml.safe_load((run / "config.yaml").read_text())["dataset"]["ga_cost_adjust"] is True
    # the same fit on the file preprocessed with the adjustment, written by hand
    raw = load_csv(cfg_dict["dataset"]["path"], swissmetro_schema(), validate=False)
    train = preprocess_swissmetro(raw, ga_cost_adjust=True)
    recipe, labels = cli._parse_model(cfg_dict)
    report = fit_joint(recipe.build(labels, 0), train, TrainConfig(**cfg_dict["train"], seed=0),
                       compute_std_errors=False, references={})
    report.to_csv(str(tmp_path / "by_hand.csv"))
    assert (run / "report.csv").read_bytes() == (tmp_path / "by_hand.csv").read_bytes()
    plain = tmp_path / "plain"
    assert main(["estimate", "--config", write_config(tmp_path / "plain.yaml",
                 swissmetro_config(tmp_path)), "--out-dir", str(plain)]) == 0
    assert (only_run_dir(plain) / "report.csv").read_bytes() != (run / "report.csv").read_bytes()


@pytest.mark.parametrize("dataset", [{"format": "optima"}, {"preprocess": False}])
def test_ga_cost_adjust_outside_a_preprocessed_swissmetro_file_is_refused(tmp_path, capsys,
                                                                          dataset):
    cfg = write_config(tmp_path / "cfg.yaml",
                       swissmetro_config(tmp_path, ga_cost_adjust=True, **dataset))
    out = tmp_path / "runs"
    assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 2
    assert "ga_cost_adjust applies only to a preprocessed swissmetro file" in capsys.readouterr().err
    assert not out.exists()


def test_ga_cost_adjust_is_no_longer_a_flag(capsys):
    parser = cli._build_parser()
    for command in ("estimate", "experiment"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "--eval-only" in help_text or "--reps" in help_text
        assert "ga-cost-adjust" not in help_text
    for argv in (["estimate", "--config", "c.yaml", "--ga-cost-adjust"],
                 ["experiment", "montecarlo", "--ga-cost-adjust"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2


def test_estimate_generic_csv_with_split_and_nests(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "semi-synthetic", "--n", "120", "--out-dir", str(data)]) == 0
    alts = ["Train", "SM", "Car"]
    cfg = write_config(tmp_path / "cfg.yaml", {
        "model": {"kind": "LNL", "alternatives": alts, "intercepts": ["Train", "SM"],
                  "terms": [{"param": "beta_tt", "entries": {a: f"TT_{a}" for a in alts}}],
                  "q": ["AGE", "INCOME"], "net_width": 3,
                  "nests": {"groups": [["Train", "SM"], ["Car"]], "mu": [1.5, 1.0]}},
        "dataset": {"path": str(data / "semi-synthetic.csv"), "format": "generic",
                    "alternatives": alts, "split": 0.75, "split_seed": 2},
        "sequential": "net_then_beta",
        "train": {"epochs": 3, "batch_size": 30},
    })
    out = tmp_path / "runs"
    assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 0
    report = only_run_dir(out) / "report.csv"
    assert read_metric(report, "n_train") == 90 and read_metric(report, "n_test") == 30
    with open(report, newline="") as fh:
        nests = [(r["name"], r["std_error"]) for r in csv.DictReader(fh)
                 if r["section"] == "nest_factor"]
    assert nests == [("Train+SM", "free"), ("Car", "fixed")]


# ----------------------------------------------------------- config errors


def test_missing_config_file(tmp_path, capsys):
    code = main(["estimate", "--config", str(tmp_path / "nope.yaml"),
                 "--out-dir", str(tmp_path / "runs")])
    assert code == 2
    assert "config file not found" in capsys.readouterr().err


def test_unknown_train_option(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml",
                       logit_config(train={"epochs": 2, "momentum": 0.9}))
    assert main(["estimate", "--config", cfg,
                 "--out-dir", str(tmp_path / "runs")]) == 2
    assert "unknown train options" in capsys.readouterr().err


def test_negative_learning_rate_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml",
                       logit_config(train={"epochs": 2, "learning_rate": -1}))
    assert main(["estimate", "--config", cfg,
                 "--out-dir", str(tmp_path / "runs")]) == 2
    assert "bad train block: learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("learning_rate", True), ("l2", True),
                                           ("dropout", "0.2")])
def test_a_non_real_rate_is_a_config_error(tmp_path, capsys, option, value):
    # `learning_rate: true` once trained at rate 1.0, and `dropout: "0.2"` failed
    # with a bare comparison error
    cfg = write_config(tmp_path / "cfg.yaml", logit_config(train={"epochs": 2, option: value}))
    assert main(["estimate", "--config", cfg,
                 "--out-dir", str(tmp_path / "runs")]) == 2
    assert (f"bad train block: {option} must be a real number, got {value!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("option", ["l2", "eps"])
def test_infinite_l2_or_eps_is_a_config_error(tmp_path, capsys, option):
    # eps=inf once fitted "ok" without moving, l2=inf came back "diverged";
    # eps is now a trainer constant, so the train block cannot name it
    cfg = write_config(tmp_path / "cfg.yaml",
                       logit_config(train={"epochs": 2, option: float("inf")}))
    assert main(["estimate", "--config", cfg,
                 "--out-dir", str(tmp_path / "runs")]) == 2
    message = {"l2": "bad train block: l2 must be finite",
               "eps": "unknown train options: ['eps']"}[option]
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("beta1", 0.9), ("beta2", 0.999)])
def test_adam_constants_are_unknown_train_options(tmp_path, capsys, option, value):
    cfg = write_config(tmp_path / "cfg.yaml",
                       logit_config(train={"epochs": 2, option: value}))
    assert main(["estimate", "--config", cfg,
                 "--out-dir", str(tmp_path / "runs")]) == 2
    assert f"unknown train options: [{option!r}]" in capsys.readouterr().err


def test_fractional_epochs_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml",
                       logit_config(train={"epochs": 2.5, "batch_size": 40}))
    assert main(["estimate", "--config", cfg,
                 "--out-dir", str(tmp_path / "runs")]) == 2
    assert "bad train block: epochs must be an integer" in capsys.readouterr().err


def test_overlapping_partition_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml",
                       lmnl_config(q=("p1", "q1", "q2")))
    assert main(["estimate", "--config", cfg,
                 "--out-dir", str(tmp_path / "runs")]) == 2
    assert "interpretability" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("report, unknown", [
    ({"ratios": [{"name": "r", "num": "beta_p", "den": "beta_zz"}]}, ["beta_zz"]),
    ({"references": {"beta_pp": -1.0, "beta_p": -1.0}}, ["beta_pp"]),
])
def test_report_names_are_checked_before_the_fit(tmp_path, capsys, report, unknown):
    # an unknown ratio name once failed after training with "runtime failure: 'beta_zz'",
    # and a misspelt reference was dropped, so its t-test ran against 0
    fit_out = tmp_path / "fit"
    assert main(["estimate", "--config", write_config(tmp_path / "fit.yaml", logit_config()),
                 "--out-dir", str(fit_out)]) == 0
    cfg = write_config(tmp_path / "cfg.yaml", logit_config(report=report))
    out = tmp_path / "runs"
    for extra in ([], ["--eval-only", str(only_run_dir(fit_out) / "model.json")]):
        assert main(["estimate", "--config", cfg, "--out-dir", str(out)] + extra) == 2
        assert f"report names unknown parameters {unknown}" in capsys.readouterr().err
    assert not out.exists()


def test_an_unknown_net_column_exits_2_before_the_fit(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml", lmnl_config(q=("q1", "ghost")))
    out = tmp_path / "runs"
    assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 2
    assert "net inputs reference unknown columns ['ghost']" in capsys.readouterr().err
    assert not out.exists()


def test_a_csv_without_choice_variation_exits_2_before_the_fit(tmp_path, capsys):
    # every row has one available alternative: once trained to the last epoch,
    # then failed on "null log-likelihood is zero"
    ds = DataSpec(n_train=40, n_test=0).dataset(2)
    ds.avail = np.eye(2)[ds.choice]
    ds.to_csv(str(tmp_path / "one_open.csv"))
    cfg = logit_config()
    cfg["dataset"] = {"path": str(tmp_path / "one_open.csv"), "alternatives": ["1", "2"]}
    out = tmp_path / "runs"
    assert main(["estimate", "--config", write_config(tmp_path / "cfg.yaml", cfg),
                 "--out-dir", str(out)]) == 2
    assert "set has no choice variation" in capsys.readouterr().err
    assert not out.exists()


def test_a_csv_reader_error_exits_2_naming_the_line(tmp_path, capsys):
    # it once escaped as _csv.Error, a runtime failure with exit code 1
    path = write_unclosed_quote(tmp_path / "unclosed.csv")
    cfg = logit_config()
    cfg["dataset"] = {"path": str(path), "alternatives": ["1", "2"]}
    out = tmp_path / "runs"
    assert main(["estimate", "--config", write_config(tmp_path / "cfg.yaml", cfg),
                 "--out-dir", str(out)]) == 2
    assert (f"error: {path}: line 3: field larger than field limit (131072)"
            in capsys.readouterr().err)
    assert not out.exists()


def test_eval_only_without_choice_variation_exits_2_naming_the_set(tmp_path, capsys):
    # the report door once raised a bare "null log-likelihood is zero"
    fit_out = tmp_path / "fit"
    assert main(["estimate", "--config", write_config(tmp_path / "fit.yaml", logit_config()),
                 "--out-dir", str(fit_out)]) == 0
    ds = DataSpec(n_train=40, n_test=0).dataset(2)
    ds.avail = np.eye(2)[ds.choice]
    ds.to_csv(str(tmp_path / "one_open.csv"))
    cfg = logit_config()
    cfg["dataset"] = {"path": str(tmp_path / "one_open.csv"), "alternatives": ["1", "2"]}
    out = tmp_path / "runs"
    assert main(["estimate", "--config", write_config(tmp_path / "cfg.yaml", cfg),
                 "--eval-only", str(only_run_dir(fit_out) / "model.json"),
                 "--out-dir", str(out)]) == 2
    assert ("error: training set has no choice variation: every row has exactly one "
            "available alternative") in capsys.readouterr().err
    assert not out.exists()


def test_yaml_alternatives_are_labels(tmp_path, capsys):
    # YAML reads the key 1 as an int; it names the label "1", as the string does
    text = yaml.safe_dump(logit_config()).replace("'1'", "1").replace("'2'", "2")
    assert "entries:\n      1: p1" in text
    runs = {}
    for name, body in (("int", text), ("str", yaml.safe_dump(logit_config()))):
        (tmp_path / f"{name}.yaml").write_text(body)
        assert main(["estimate", "--config", str(tmp_path / f"{name}.yaml"),
                     "--out-dir", str(tmp_path / name)]) == 0
        runs[name] = (only_run_dir(tmp_path / name) / "report.csv").read_bytes()
    assert runs["int"] == runs["str"]
    # an integer that is not a label is no index: it is an unknown alternative
    cfg = logit_config()
    cfg["model"]["intercepts"] = [0]
    out = tmp_path / "runs"
    assert main(["estimate", "--config", write_config(tmp_path / "zero.yaml", cfg),
                 "--out-dir", str(out)]) == 2
    assert "unknown alternative '0'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mu", [".nan", ".inf"])
def test_a_non_finite_nest_factor_exits_2(tmp_path, capsys, mu):
    cfg = logit_config()
    cfg["model"]["nests"] = {"groups": [["1"], ["2"]], "mu": ["MU", 1.0]}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg).replace("MU", mu))
    assert main(["estimate", "--config", str(path), "--out-dir", str(tmp_path / "runs")]) == 2
    assert "nest factors must be finite" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("fixed", [[False], [False, True, True]])
def test_a_fixed_flag_count_other_than_the_nest_count_exits_2(tmp_path, capsys, fixed):
    cfg = logit_config()
    cfg["model"]["nests"] = {"groups": [["1"], ["2"]], "mu": [1.0, 1.0], "fixed": fixed}
    out = tmp_path / "runs"
    assert main(["estimate", "--config", write_config(tmp_path / "cfg.yaml", cfg),
                 "--out-dir", str(out)]) == 2
    assert f"one fixed flag per nest required: {len(fixed)} flags for 2 nests" in \
        capsys.readouterr().err
    assert not out.exists()


def test_missing_dataset_path(tmp_path, capsys):
    cfg_dict = logit_config()
    cfg_dict["dataset"] = {"path": str(tmp_path / "ghost.csv"), "format": "generic",
                           "alternatives": ["1", "2"]}
    cfg = write_config(tmp_path / "cfg.yaml", cfg_dict)
    assert main(["estimate", "--config", cfg,
                 "--out-dir", str(tmp_path / "runs")]) == 2
    assert "dataset file not found" in capsys.readouterr().err


def test_generic_dataset_needs_alternatives(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x1,AV_1,AV_2,CHOICE\n1.0,1,1,0\n")
    cfg_dict = logit_config()
    cfg_dict["dataset"] = {"path": str(data), "format": "generic"}
    cfg = write_config(tmp_path / "cfg.yaml", cfg_dict)
    assert main(["estimate", "--config", cfg,
                 "--out-dir", str(tmp_path / "runs")]) == 2
    assert "alternatives" in capsys.readouterr().err


def test_unknown_scenario_name(tmp_path, capsys):
    cfg_dict = logit_config()
    cfg_dict["dataset"]["scenario"]["name"] = "trinary"
    cfg = write_config(tmp_path / "cfg.yaml", cfg_dict)
    assert main(["estimate", "--config", cfg,
                 "--out-dir", str(tmp_path / "runs")]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_unknown_scenario_option(tmp_path, capsys):
    # a misspelt key once ran silently with the default 1,000 training rows
    with pytest.raises(cli.ConfigError, match=r"unknown scenario options: \['n_trian'\]"):
        cli._parse_dataspec({"scenario": {"name": "binary", "n_trian": 50}})
    cfg_dict = logit_config()
    cfg_dict["dataset"]["scenario"]["n_tset"] = 10
    cfg = write_config(tmp_path / "cfg.yaml", cfg_dict)
    assert main(["estimate", "--config", cfg,
                 "--out-dir", str(tmp_path / "runs")]) == 2
    assert "n_tset" in capsys.readouterr().err


def misspell(block_path, key, value):
    """A change to ``lmnl_config()`` that adds ``key`` to the block at ``block_path``."""
    def change(cfg):
        block = cfg
        for name in block_path:
            block = block.setdefault(name, {})
        block[key] = value
        return cfg
    return change


MONTECARLO = {"scenario": {"name": "binary", "n_train": 60, "n_test": 30}, "width": 3,
              "train": {"epochs": 2, "batch_size": 30}}


@pytest.mark.parametrize("command, change, what, key", [
    ("estimate", misspell(["model"], "net_widht", 3), "model", "net_widht"),
    ("estimate", misspell(["model", "nests"], "muu", [1.0, 1.0]), "nests", "muu"),
    ("estimate", misspell(["dataset"], "spilt", 0.8), "dataset", "spilt"),
    # a scenario brings its own train/test rows: a file's split would be ignored
    ("estimate", misspell(["dataset"], "split", 0.8), "dataset", "split"),
    ("estimate", misspell(["dataset", "scenario"], "n_trian", 50), "scenario", "n_trian"),
    ("estimate", misspell(["report"], "std_error", False), "report", "std_error"),
    ("estimate", misspell(["train"], "epoch", 2), "train", "epoch"),
    ("estimate", misspell([], "sequentail", "net_then_beta"), "estimate", "sequentail"),
    ("montecarlo", lambda cfg: {**MONTECARLO, "zooo": "binary"}, "montecarlo", "zooo"),
    ("montecarlo", lambda cfg: {**MONTECARLO, "report": {}}, "montecarlo", "report"),
    ("montecarlo", lambda cfg: {**MONTECARLO, "scenario": {"name": "binary", "n_tset": 9}},
     "scenario", "n_tset"),
    ("strategy-compare", lambda cfg: {**MONTECARLO, "zoo": "binary"}, "strategy-compare", "zoo"),
])
def test_a_misspelt_key_exits_2_names_it_and_leaves_no_folder(tmp_path, capsys, command,
                                                              change, what, key):
    cfg = write_config(tmp_path / "cfg.yaml", change(lmnl_config()))
    out = tmp_path / "runs"
    argv = ["estimate"] if command == "estimate" else ["experiment", command]
    assert main(argv + ["--config", cfg, "--out-dir", str(out)]) == 2
    assert f"unknown {what} options: [{key!r}]" in capsys.readouterr().err
    assert not out.exists()


def test_a_flag_that_means_nothing_to_the_experiment_is_refused(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml", MONTECARLO)
    out = tmp_path / "runs"
    assert main(["experiment", "montecarlo", "--config", cfg, "--widths", "0,3",
                 "--out-dir", str(out)]) == 2
    assert "unknown montecarlo options: ['widths']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_a_job_count_below_one_exits_2(tmp_path, capsys, jobs):
    # it once ran serially without a word
    cfg = write_config(tmp_path / "cfg.yaml", MONTECARLO)
    out = tmp_path / "runs"
    assert main(["experiment", "montecarlo", "--config", cfg, "--jobs", jobs,
                 "--out-dir", str(out)]) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["sensitivity", "feature-impact"])
def test_jobs_is_refused_by_a_kind_that_runs_in_one_process(tmp_path, capsys, kind):
    # it was once ignored without a word
    cfg = write_config(tmp_path / "cfg.yaml", {"model_file": str(tmp_path / "m.json"), "dataset": {
        "scenario": {"name": "binary", "n_train": 40, "n_test": 10}}})
    out = tmp_path / "runs"
    assert main(["experiment", kind, "--config", cfg, "--jobs", "4",
                 "--out-dir", str(out)]) == 2
    assert "applies only to montecarlo, neuron-scan" in capsys.readouterr().err
    assert not out.exists()


def test_a_missing_model_file_exits_2_and_leaves_no_folder(tmp_path, capsys):
    ghost = str(tmp_path / "ghost.json")
    cfg = write_config(tmp_path / "cfg.yaml", logit_config())
    out = tmp_path / "runs"
    assert main(["estimate", "--config", cfg, "--eval-only", ghost, "--out-dir", str(out)]) == 2
    assert f"model file not found: {ghost}" in capsys.readouterr().err
    exp = write_config(tmp_path / "exp.yaml", {"model_file": ghost, "dataset": {
        "scenario": {"name": "binary", "n_train": 40, "n_test": 10}}})
    for kind in ("sensitivity", "feature-impact"):
        assert main(["experiment", kind, "--config", exp, "--out-dir", str(out)]) == 2
        assert f"model file not found: {ghost}" in capsys.readouterr().err
    assert not out.exists()


def test_a_model_file_that_disagrees_with_itself_exits_2_and_leaves_no_folder(tmp_path, capsys):
    # reversed names once relabelled the coefficients and exited 0 with a wrong ll_train
    cfg = logit_config()
    recipe, labels = cli._parse_model(cfg)
    cli.save_model(recipe.build(labels, 0), str(tmp_path / "model.json"))
    saved = json.loads((tmp_path / "model.json").read_text())
    saved["param_names"].reverse()
    bad_names = tmp_path / "reversed.json"
    bad_names.write_text(json.dumps(saved))
    not_json = tmp_path / "truncated.json"
    not_json.write_text((tmp_path / "model.json").read_text()[:40])
    path = write_config(tmp_path / "cfg.yaml", cfg)
    out = tmp_path / "runs"
    for model_file, message in ((bad_names, "model file param_names"),
                                (not_json, f"model file {not_json} is not JSON")):
        assert main(["estimate", "--config", path, "--out-dir", str(out),
                     "--eval-only", str(model_file)]) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_run_whose_files_cannot_be_written_leaves_no_folder(tmp_path, capsys, monkeypatch):
    def fail(model, path):
        raise OSError("disk full")
    monkeypatch.setattr(cli, "save_model", fail)
    cfg = write_config(tmp_path / "cfg.yaml", logit_config())
    out = tmp_path / "runs"
    assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 1
    assert "runtime failure: disk full" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_sensitivity_requires_model_file(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml",
                       {"dataset": {"scenario": {"name": "binary", "n_train": 40, "n_test": 10}},
                        "train": {"epochs": 2}})
    assert main(["experiment", "sensitivity", "--config", cfg,
                 "--out-dir", str(tmp_path / "runs")]) == 2
    assert "model_file" in capsys.readouterr().err


def test_unknown_experiment_kind_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "bogus", "--out-dir", str(tmp_path / "runs")])
    assert exc.value.code == 2


def test_runtime_failure_maps_to_exit_one(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg = write_config(tmp_path / "cfg.yaml", logit_config())
    code = main(["estimate", "--config", cfg,
                 "--out-dir", str(blocker / "sub")])
    assert code == 1
    assert "runtime failure" in capsys.readouterr().err


# ---------------------------------------------------------------- experiment


def test_experiment_montecarlo_tiny(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml", {
        "scenario": {"name": "binary", "n_train": 60, "n_test": 30},
        "zoo": "binary", "width": 3,
        "train": {"epochs": 2, "batch_size": 30, "dropout": 0.0},
        "with_tests": False,
    })
    out = tmp_path / "runs"
    assert main(["experiment", "montecarlo", "--config", cfg, "--reps", "2",
                 "--out-dir", str(out)]) == 0
    run = only_run_dir(out)
    assert run.name.startswith("montecarlo-")
    assert (run / "result.csv").exists() and (run / "result.md").exists()
    with open(run / "result.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {"table", "model", "metric", "value"} <= set(rows[0])


NO_TEST_ROWS = "a campaign scores every fit on test rows: n_test must be >= 1, got 0"


@pytest.mark.parametrize("kind, scenario, message", [
    ("montecarlo", {"name": "correlated", "s": 1.5},
     "correlation level s must be in [0, 1], got 1.5"),
    ("montecarlo", {"name": "binary", "n_train": -5}, "n_train must be an integer >= 1, got -5"),
    ("montecarlo", {"name": "binray"}, "unknown scenario 'binray'"),
    ("neuron-scan", {"name": "binary", "n_test": -1}, "n_test must be an integer >= 0"),
    ("correlation-sweep", {"n_train": "many"}, "n_train must be an integer >= 1, got 'many'"),
    ("strategy-compare", {"beta_a": math.inf}, "beta_a must be a finite number, got inf"),
    ("montecarlo", {"name": "binary", "n_train": 100, "n_test": 0}, NO_TEST_ROWS),
    ("correlation-sweep", {"n_test": 0}, NO_TEST_ROWS),
])
def test_experiment_refuses_a_bad_scenario_before_any_fit(tmp_path, capsys, monkeypatch,
                                                          kind, scenario, message):
    # each of these once ran every replication and recorded it as failed
    monkeypatch.setattr(analysis, "_run_tasks", lambda *a: pytest.fail("a fit started"))
    cfg = write_config(tmp_path / "cfg.yaml", {"scenario": scenario,
                                               "train": {"epochs": 1, "batch_size": 30}})
    reps = [] if kind == "strategy-compare" else ["--reps", "1"]
    assert main(["experiment", kind, "--config", cfg, *reps,
                 "--out-dir", str(tmp_path / "runs")]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_estimate_refuses_a_bad_scenario(tmp_path, capsys):
    cfg_dict = logit_config(n_train=0)
    cfg = write_config(tmp_path / "cfg.yaml", cfg_dict)
    assert main(["estimate", "--config", cfg, "--out-dir", str(tmp_path / "runs")]) == 2
    assert "error: n_train must be an integer >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_experiment_guevara_zoo_autoselected(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml", {
        "scenario": {"name": "guevara", "n_train": 60, "n_test": 20},
        "width": 3,
        "train": {"epochs": 2, "batch_size": 30, "dropout": 0.0},
        "with_tests": False,
    })
    out = tmp_path / "runs"
    assert main(["experiment", "montecarlo", "--config", cfg, "--reps", "1",
                 "--out-dir", str(out)]) == 0
    md = (only_run_dir(out) / "result.md").read_text()
    assert "MNL_endo" in md


def test_experiment_neuron_scan_widths_flag(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml", {
        "scenario": {"name": "binary", "n_train": 60, "n_test": 30},
        "train": {"epochs": 2, "batch_size": 30, "dropout": 0.0},
    })
    out = tmp_path / "runs"
    assert main(["experiment", "neuron-scan", "--config", cfg, "--reps", "1",
                 "--widths", "0,3", "--out-dir", str(out)]) == 0
    md = (only_run_dir(out) / "result.md").read_text()
    assert "| 0 |" in md or "width" in md


def test_experiment_neuron_scan_rejects_a_model_without_a_linear_and_net_part(tmp_path, capsys):
    cfg = lmnl_config()
    cfg["model"]["kind"] = "DNN"
    del cfg["report"]  # an estimate option, which neuron-scan refuses
    path = write_config(tmp_path / "cfg.yaml", cfg)
    assert main(["experiment", "neuron-scan", "--config", path, "--reps", "1",
                 "--widths", "0,3", "--out-dir", str(tmp_path / "runs")]) == 2
    assert "neuron-scan scans an LMNL or LNL model, not 'DNN'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def scan_model_config():
    cfg = lmnl_config()
    del cfg["report"]  # an estimate option, which neuron-scan refuses
    return cfg


def test_experiment_neuron_scan_of_a_model_block_over_a_dataset_block(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml", scan_model_config())
    out = tmp_path / "runs"
    assert main(["experiment", "neuron-scan", "--config", cfg, "--reps", "1",
                 "--widths", "0,3", "--out-dir", str(out)]) == 0
    run = only_run_dir(out)
    with open(run / "result.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["width", "rep", "seed", "metric", "value"]
    assert {r["width"] for r in rows} == {"0", "3"}
    assert {r["metric"] for r in rows} == {"ll_train", "ll_test", "asc_1", "beta_p", "beta_a"}
    md = (run / "result.md").read_text()
    assert md.startswith("## Width scan") and "| 0 | 1 |" in md and "| 3 | 1 |" in md


@pytest.mark.parametrize("with_model, stray", [(True, "scenario"), (False, "dataset")])
def test_experiment_neuron_scan_refuses_the_data_block_it_would_ignore(tmp_path, capsys,
                                                                      with_model, stray):
    # the block the scan does not read once passed silently
    cfg = scan_model_config() if with_model else {"train": {"epochs": 2}}
    cfg[stray] = {"name": "binary"} if stray == "scenario" else {"path": "/nonexistent.csv"}
    path = write_config(tmp_path / "cfg.yaml", cfg)
    assert main(["experiment", "neuron-scan", "--config", path, "--reps", "1",
                 "--widths", "0,3", "--out-dir", str(tmp_path / "runs")]) == 2
    assert f"neuron-scan takes no {stray!r} block" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_experiment_correlation_sweep_tiny(tmp_path):
    scenario = {"name": "correlated", "n_train": 60, "n_test": 30}
    train = {"epochs": 2, "batch_size": 30, "dropout": 0.0}
    cfg = write_config(tmp_path / "cfg.yaml", {"scenario": scenario, "width": 3,
                                               "s_values": [0.0, 0.8], "train": train})
    out = tmp_path / "runs"
    assert main(["experiment", "correlation-sweep", "--config", cfg, "--reps", "1",
                 "--out-dir", str(out)]) == 0
    run = only_run_dir(out)
    with open(run / "result.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["s", "table", "model", "metric", "value"]
    assert {r["s"] for r in rows} == {"0.0", "0.8"}
    # the files are the library's sweep at the same settings
    result = analysis.correlation_bias_sweep(
        (0.0, 0.8), 1, scenario=DataSpec(scenario="correlated", n_train=60, n_test=30),
        recipes=analysis.correlation_zoo(width=3), base_config=TrainConfig(**train, seed=0))
    write_csv_rows(str(tmp_path / "lib.csv"), result.to_csv_rows())
    assert (run / "result.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
    md = (run / "result.md").read_text()
    assert md == result.to_markdown() and "by correlation level" in md


def test_experiment_sensitivity_round_trip(tmp_path):
    model_cfg = write_config(tmp_path / "fit.yaml", lmnl_config())
    fit_out = tmp_path / "fit"
    assert main(["estimate", "--config", model_cfg, "--out-dir", str(fit_out)]) == 0
    model_json = only_run_dir(fit_out) / "model.json"

    exp_cfg = write_config(tmp_path / "exp.yaml", {
        "model_file": str(model_json),
        "dataset": {"scenario": {"name": "binary", "n_train": 80, "n_test": 40}},
        "column": "q1",
        "grid": [0.0, 0.25],
        "train": {"epochs": 2},
    })
    out = tmp_path / "runs"
    assert main(["experiment", "sensitivity", "--config", exp_cfg,
                 "--out-dir", str(out)]) == 0
    with open(only_run_dir(out) / "result.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert any(float(r["share_change_pct"]) == 0.0 for r in rows)

    bad_cfg = write_config(tmp_path / "bad.yaml", {
        "model_file": str(model_json),
        "dataset": {"scenario": {"name": "binary", "n_train": 80, "n_test": 40}},
        "column": "p1",  # a linear column, not a net input
        "train": {"epochs": 2},
    })
    assert main(["experiment", "sensitivity", "--config", bad_cfg,
                 "--out-dir", str(tmp_path / "runs2")]) == 2


def test_experiment_feature_impact_round_trip(tmp_path):
    model_cfg = write_config(tmp_path / "fit.yaml", lmnl_config())
    fit_out = tmp_path / "fit"
    assert main(["estimate", "--config", model_cfg, "--out-dir", str(fit_out)]) == 0
    model_json = only_run_dir(fit_out) / "model.json"
    exp_cfg = write_config(tmp_path / "exp.yaml", {
        "model_file": str(model_json),
        "dataset": {"scenario": {"name": "binary", "n_train": 80, "n_test": 40}},
        "train": {"epochs": 2},
    })
    out = tmp_path / "runs"
    assert main(["experiment", "feature-impact", "--config", exp_cfg,
                 "--out-dir", str(out)]) == 0
    md = (only_run_dir(out) / "result.md").read_text()
    assert "mean_abs_gradient" in md


def test_experiment_strategy_compare_tiny(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml", {
        "scenario": {"name": "binary", "n_train": 100, "n_test": 40},
        "width": 3,
        "train": {"epochs": 2, "batch_size": 50, "dropout": 0.0},
    })
    out = tmp_path / "runs"
    assert main(["experiment", "strategy-compare", "--config", cfg,
                 "--out-dir", str(out)]) == 0
    md = (only_run_dir(out) / "result.md").read_text()
    assert "joint" in md and "beta_then_net" in md


def test_experiment_strategy_compare_jobs_changes_no_byte(tmp_path):
    # --jobs was once ignored by strategy-compare
    cfg = write_config(tmp_path / "cfg.yaml", {
        "scenario": {"name": "binary", "n_train": 100, "n_test": 40},
        "width": 3,
        "train": {"epochs": 2, "batch_size": 50},
    })
    csvs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"runs{jobs}"
        assert main(["experiment", "strategy-compare", "--config", cfg, "--jobs", jobs,
                     "--out-dir", str(out)]) == 0
        csvs.append((only_run_dir(out) / "result.csv").read_bytes())
    assert csvs[0] == csvs[1]


# ---------------------------------------------------------------------- docs


def check_config_keys(cfg):
    """Run every block of a config, or of a fragment of one, through the CLI's block reader."""
    tops = set(cli._ESTIMATE).union(*cli._EXPERIMENTS.values())
    cli._block({"config": cfg}, "config", tops)
    model = cli._block(cfg, "model", cli._MODEL)
    cli._block(model, "nests", cli._NESTS)
    dataset = cli._block(cfg, "dataset", cli._DATASET + cli._CSV)
    for parent in (cfg, dataset):
        cli._block(parent, "scenario", cli._SCENARIO)
    cli._block(cfg, "report", cli._REPORT)
    cli._block(cfg, "train", cli._TRAIN)


def test_readme_yaml_examples_name_only_keys_the_cli_reads():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    examples = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    assert len(examples) >= 4
    for text in examples:
        check_config_keys(yaml.safe_load(text))
    with pytest.raises(cli.ConfigError, match=r"unknown dataset options: \['spilt'\]"):
        check_config_keys({"dataset": {"path": "x.csv", "spilt": 0.8}})
