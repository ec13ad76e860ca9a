"""End-to-end CLI behavior: exit codes, run directories, reproducibility."""

import csv

import numpy as np
import pytest
import yaml

from lchoice import DataSpec, cli
from lchoice.cli import main
from lchoice.dataio import SWISSMETRO_SCALED, generic_schema, load_csv, load_truth


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
    truth = load_truth(str(out / "binary.truth.txt"))
    assert truth["beta_p"] == -1.0 and truth["beta_qc"] == 1.0
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
    assert load_truth(str(out / "correlated.truth.txt")) == want.meta["truth"]
    # guevara has no test block: it writes --n rows, whatever --n-test says
    assert main(["generate", "guevara", "--n", "40", "--n-test", "10",
                 "--out-dir", str(out)]) == 0
    assert len((out / "guevara.csv").read_text().splitlines()) == 1 + 40


def test_generate_semi_synthetic(tmp_path):
    out = tmp_path / "semi"
    assert main(["generate", "semi-synthetic", "--n", "60",
                 "--out-dir", str(out)]) == 0
    truth = load_truth(str(out / "semi-synthetic.truth.txt"))
    assert truth == {"b_tt": -1.0, "b_tc": -2.0}


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


def test_estimate_on_a_swissmetro_file_drops_missing_responses(tmp_path):
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
    cfg_dict["dataset"] = {"path": str(data), "format": "swissmetro"}
    cfg = write_config(tmp_path / "cfg.yaml", cfg_dict)
    out = tmp_path / "runs"
    assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 0
    assert read_metric(only_run_dir(out) / "report.csv", "n_train") == 11


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


def test_sensitivity_requires_model_file(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml",
                       {"scenario": {"name": "binary", "n_train": 40, "n_test": 10},
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
