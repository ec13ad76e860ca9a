"""Command-line front door: estimate, generate, experiment.

Runs are YAML-configured and land in a directory named by config hash and
timestamp, with the resolved config stored next to the outputs so a run can
be reproduced bit-for-bit from its own folder.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from . import analysis, synthgen
from .analysis import SPEC_SCENARIOS, DataSpec, ModelRecipe, write_csv_rows
from .dataio import (DataError, generic_schema, load_csv, optima_schema,
                     preprocess_optima, preprocess_swissmetro, save_truth, split,
                     swissmetro_schema, validate_partition)
from .estimation import build_report, fit_joint, fit_sequential
from .models import NestStructure, UtilitySpec, UtilityTerm, load_model, save_model
from .numcore import FitResult, TrainConfig


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config parsing

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(p) as fh:
        cfg = yaml.safe_load(fh)
    if cfg is None:
        return {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def _parse_train(cfg: dict, seed: int) -> TrainConfig:
    block = cfg.get("train", {}) or {}
    unknown = set(block) - {f.name for f in fields(TrainConfig)}
    if unknown:
        raise ConfigError(f"unknown train options: {sorted(unknown)}")
    block.setdefault("seed", seed)
    try:
        return TrainConfig(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train block: {exc}") from exc


def _norm_alt(key, labels: tuple[str, ...]):
    # YAML may hand back ints for numeric alternative labels
    if not isinstance(key, str) and str(key) in labels:
        return str(key)
    return key


def _parse_utility(block: dict, labels: tuple[str, ...]) -> UtilitySpec:
    terms = []
    for item in block.get("terms", []) or []:
        if not isinstance(item, dict) or "param" not in item or "entries" not in item:
            raise ConfigError("each term needs 'param' and 'entries'")
        entries = {_norm_alt(k, labels): v for k, v in item["entries"].items()}
        terms.append(UtilityTerm.of(str(item["param"]), entries))
    intercepts = tuple(_norm_alt(a, labels) for a in block.get("intercepts", []) or [])
    return UtilitySpec(tuple(terms), intercepts)


def _parse_model(cfg: dict) -> tuple[ModelRecipe, tuple[str, ...]]:
    block = cfg.get("model")
    if not block:
        raise ConfigError("config needs a 'model' block")
    kind = block.get("kind")
    if not kind:
        raise ConfigError("model block needs 'kind'")
    labels = tuple(str(a) for a in block.get("alternatives", []) or [])
    if not labels:
        raise ConfigError("model block needs 'alternatives'")
    utility = _parse_utility(block, labels)
    q = tuple(block.get("q", []) or [])
    nests = None
    if block.get("nests"):
        nb = block["nests"]
        groups = tuple(tuple(_norm_alt(a, labels) for a in g) for g in nb.get("groups", []))
        if not groups:
            raise ConfigError("nests block needs 'groups'")
        mu = np.array(nb.get("mu", [1.0] * len(groups)), dtype=float)
        fixed = tuple(nb["fixed"]) if "fixed" in nb else None
        try:
            nests = NestStructure(groups, mu, fixed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return ModelRecipe(kind, kind, utility, q, int(block.get("net_width", 25)),
                       int(block.get("net_depth", 1)), nests), labels


# every DataSpec scenario, plus the one `generate` can only write to a file
_SCENARIOS = SPEC_SCENARIOS + ("semi-synthetic",)


def _parse_dataspec(block: dict) -> DataSpec:
    name = block.get("name", "binary")
    if name not in SPEC_SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}")
    given = {k: v for k, v in block.items() if k != "name"}
    unknown = set(given) - {f.name for f in fields(DataSpec) if f.name != "scenario"}
    if unknown:
        raise ConfigError(f"unknown scenario options: {sorted(unknown)}")
    return DataSpec(**given, scenario=name)


def _load_dataset(cfg: dict, seed: int, ga_cost_adjust: bool):
    """(train, test or None) from either a scenario block or a CSV path."""
    block = cfg.get("dataset")
    if not block:
        raise ConfigError("config needs a 'dataset' block")
    if "scenario" in block:
        spec = _parse_dataspec(block["scenario"])
        train, test, _ = spec.make(block.get("seed", seed))
        return train, test
    path = block.get("path")
    if not path:
        raise ConfigError("dataset block needs 'path' or 'scenario'")
    if not Path(path).exists():
        raise ConfigError(f"dataset file not found: {path}")
    fmt = block.get("format", "generic")
    # survey files hold missing-response codes that their preprocessing drops
    # before it validates, so only a file kept raw is validated on loading
    preprocess = bool(block.get("preprocess", True))
    if fmt == "swissmetro":
        ds = load_csv(path, swissmetro_schema(), validate=not preprocess)
        if preprocess:
            ds = preprocess_swissmetro(ds, ga_cost_adjust=ga_cost_adjust)
    elif fmt == "optima":
        ds = load_csv(path, optima_schema(), validate=not preprocess)
        if preprocess:
            ds = preprocess_optima(ds)
    elif fmt == "generic":
        labels = [str(a) for a in block.get("alternatives", [])]
        if not labels:
            raise ConfigError("generic datasets need 'alternatives' in the dataset block")
        ds = load_csv(path, generic_schema(labels))
    else:
        raise ConfigError(f"unknown dataset format {fmt!r}")
    frac = block.get("split")
    if frac is not None:
        return split(ds, float(frac), block.get("split_seed", seed))
    return ds, None


def _ratio_defs(cfg: dict) -> tuple[tuple[str, str, str], ...]:
    out = []
    for item in (cfg.get("report", {}) or {}).get("ratios", []) or []:
        try:
            out.append((str(item["name"]), str(item["num"]), str(item["den"])))
        except (TypeError, KeyError) as exc:
            raise ConfigError("each ratio needs 'name', 'num', 'den'") from exc
    return tuple(out)


# ---------------------------------------------------------------------------
# run directories

def _run_dir(base: str, cfg: dict, tag: str) -> Path:
    """A new folder ``<tag>-<hash8>-<stamp>``, suffixed ``-1``, ``-2``, ... if taken.

    Created exclusively, so two runs in the same second never share one.
    """
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True, default=str).encode()).hexdigest()[:8]
    stamp = time.strftime("%Y%m%d-%H%M%S")
    Path(base).mkdir(parents=True, exist_ok=True)
    name = f"{tag}-{digest}-{stamp}"
    path, k = Path(base) / name, 0
    while True:
        try:
            path.mkdir()
            return path
        except FileExistsError:
            k += 1
            path = Path(base) / f"{name}-{k}"


def _store_config(run_dir: Path, cfg: dict) -> None:
    with open(run_dir / "config.yaml", "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)


# ---------------------------------------------------------------------------
# commands

def cmd_estimate(args) -> int:
    cfg = _load_config(args.config)
    cfg.setdefault("seed", args.seed)
    seed = int(cfg["seed"])
    train_cfg = _parse_train(cfg, seed)
    recipe, labels = _parse_model(cfg)
    train, test = _load_dataset(cfg, seed, args.ga_cost_adjust)

    report_block = cfg.get("report", {}) or {}
    references = {str(k): float(v) for k, v in (report_block.get("references") or {}).items()}
    ratio_defs = _ratio_defs(cfg)
    run_dir = _run_dir(args.out_dir, cfg, "estimate")
    _store_config(run_dir, cfg)

    report_args = dict(compute_std_errors=report_block.get("std_errors", True),
                       references=references, ratio_defs=ratio_defs)
    if args.eval_only:
        model = load_model(args.eval_only)
        fit = FitResult(status="ok", epochs_run=0, steps=0, trace=np.zeros(0))
        report = build_report(model, train, test, fit, **report_args)
    else:
        model = recipe.build(labels, seed)
        if recipe.kind in ("LMNL", "LNL"):  # disjoint X/Q is part of the contract here
            check = validate_partition(train, model.partition.x, model.partition.q)
            if not check.ok:
                raise ConfigError("; ".join(check.errors))
            for msg in check.advisories:
                print(f"advisory: {msg}", file=sys.stderr)
        sequential = cfg.get("sequential")
        fit_model = partial(fit_sequential, order=str(sequential)) if sequential else fit_joint
        report = fit_model(model, train, train_cfg, test=test, **report_args)
        save_model(model, str(run_dir / "model.json"))

    report.to_csv(str(run_dir / "report.csv"))
    with open(run_dir / "report.md", "w") as fh:
        fh.write(report.to_markdown())
    with open(run_dir / "trace.csv", "w") as fh:
        fh.write("epoch,mean_nll\n")
        for i, v in enumerate(report.trace):
            fh.write(f"{i},{v!r}\n")
    print(f"estimate: {model.kind} ll_train={report.ll_train:.2f}"
          + (f" ll_test={report.ll_test:.2f}" if report.ll_test is not None else "")
          + f" -> {run_dir}")
    return 0


def cmd_generate(args) -> int:
    name = args.scenario
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "semi-synthetic":
        ds = synthgen.gen_semi_synthetic(n=args.n, seed=args.seed)
    else:
        given = {f.name: getattr(args, f.name) for f in fields(DataSpec) if hasattr(args, f.name)}
        # guevara has no test block: it writes exactly --n rows
        n_test = 0 if name == "guevara" else args.n_test
        ds = DataSpec(**given | {"n_train": args.n, "n_test": n_test}).dataset(args.seed)
    stem = out_dir / name
    ds.to_csv(f"{stem}.csv")
    save_truth(f"{stem}.truth.txt", ds.meta.get("truth", {}))
    print(f"generate: {name} rows={ds.n_rows} -> {stem}.csv")
    return 0


_EXPERIMENTS = ("montecarlo", "neuron-scan", "correlation-sweep",
                "sensitivity", "feature-impact", "strategy-compare")


def _zoo_from_config(cfg: dict) -> tuple[ModelRecipe, ...]:
    zoo = cfg.get("zoo", "binary")
    width = int(cfg.get("width", 25))
    if zoo == "binary":
        return analysis.binary_zoo(width)
    if zoo == "correlation":
        return analysis.correlation_zoo(width)
    if zoo == "guevara":
        return analysis.guevara_zoo(width if "width" in cfg else 100)
    raise ConfigError(f"unknown zoo {zoo!r}")


def cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    cfg.setdefault("seed", args.seed)
    seed = int(cfg["seed"])
    kind = args.kind
    if args.reps is not None:
        cfg["replications"] = args.reps
    if args.widths is not None:
        cfg["widths"] = [int(w) for w in args.widths.split(",")]
    train_cfg = _parse_train(cfg, seed)
    run_dir = _run_dir(args.out_dir, cfg, kind)
    _store_config(run_dir, cfg)
    reps = int(cfg.get("replications", 20))

    if kind == "montecarlo":
        spec = _parse_dataspec(cfg.get("scenario", {}) or {})
        if spec.scenario == "guevara" and "zoo" not in cfg:
            cfg["zoo"] = "guevara"
        result = analysis.monte_carlo(
            spec, _zoo_from_config(cfg), reps, train_cfg, seed=seed,
            focus=tuple(cfg.get("focus", ("beta_p", "beta_a"))),
            with_tests=bool(cfg.get("with_tests", True)), jobs=args.jobs)
    elif kind == "neuron-scan":
        widths = tuple(int(w) for w in cfg.get("widths", (0, 5, 10, 25, 100)))
        if "model" in cfg:
            recipe, _ = _parse_model(cfg)
            if recipe.kind not in ("LMNL", "LNL"):
                raise ConfigError(f"neuron-scan scans an LMNL or LNL model, not {recipe.kind!r}")
            data = _load_dataset(cfg, seed, args.ga_cost_adjust)
        else:
            recipe = analysis.binary_lmnl()
            data = _parse_dataspec(cfg.get("scenario", {}) or {})
        result = analysis.neuron_scan(data, recipe, widths, reps,
                                      train_cfg, seed=seed, jobs=args.jobs)
    elif kind == "correlation-sweep":
        s_values = tuple(float(s) for s in cfg.get("s_values", (0.0, 0.4, 0.8, 1.0)))
        result = analysis.correlation_bias_sweep(
            s_values, reps, scenario=_parse_dataspec(cfg.get("scenario", {"name": "correlated"})),
            recipes=analysis.correlation_zoo(int(cfg.get("width", 25))),
            base_config=train_cfg, seed=seed,
            with_tests=bool(cfg.get("with_tests", False)), jobs=args.jobs)
    elif kind in ("sensitivity", "feature-impact"):
        model_file = cfg.get("model_file")
        if not model_file:
            raise ConfigError(f"{kind} needs 'model_file' in the config")
        if not Path(model_file).exists():
            raise ConfigError(f"model file not found: {model_file}")
        model = load_model(model_file)
        train, _ = _load_dataset(cfg, seed, args.ga_cost_adjust)
        if kind == "sensitivity":
            column = cfg.get("column")
            if not column:
                raise ConfigError("sensitivity needs 'column'")
            grid = tuple(float(g) for g in cfg.get("grid", (-0.5, -0.25, 0.0, 0.25, 0.5)))
            result = analysis.sensitivity_sweep(model, train, str(column), grid)
        else:
            result = analysis.feature_impact(model, train)
    else:  # strategy-compare
        spec = None
        if "scenario" in cfg:
            spec = _parse_dataspec(cfg["scenario"])
        result = analysis.strategy_compare(spec, width=int(cfg.get("width", 100)),
                                           base_config=train_cfg, seed=seed)

    write_csv_rows(str(run_dir / "result.csv"), result.to_csv_rows())
    with open(run_dir / "result.md", "w") as fh:
        fh.write(result.to_markdown())
    print(f"experiment {kind}: wrote {run_dir}/result.csv")
    return 0


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lchoice",
        description="Hybrid linear+net discrete choice models: estimation, "
                    "synthetic data, and experiment drivers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="base seed for the run")
        p.add_argument("--out-dir", default="runs", help="directory for run outputs")

    est = sub.add_parser("estimate", help="fit one model from a YAML config")
    est.add_argument("--config", required=True)
    est.add_argument("--eval-only", metavar="MODEL_JSON",
                     help="skip fitting; evaluate a saved model on the dataset")
    est.add_argument("--ga-cost-adjust", action="store_true",
                     help="zero rail costs for annual-pass holders during preprocessing")
    common(est)
    est.set_defaults(func=cmd_estimate)

    gen = sub.add_parser("generate", help="write a synthetic dataset + truth sidecar")
    gen.add_argument("scenario", choices=_SCENARIOS)
    gen.add_argument("--n", type=int, default=1000, help="rows (training block)")
    gen.add_argument("--n-test", type=int, default=200)
    gen.add_argument("--s", type=float, default=0.0, help="correlation level")
    gen.add_argument("--beta-p", type=float, default=-1.0)
    gen.add_argument("--beta-a", type=float, default=0.5)
    gen.add_argument("--beta-b", type=float, default=0.5)
    gen.add_argument("--beta-qc", type=float, default=1.0)
    gen.add_argument("--beta-u", type=float, default=1.0)
    common(gen)
    gen.set_defaults(func=cmd_generate)

    exp = sub.add_parser("experiment", help="run a replication campaign or probe")
    exp.add_argument("kind", choices=_EXPERIMENTS)
    exp.add_argument("--config", default=None)
    exp.add_argument("--reps", type=int, default=None, help="override replications")
    exp.add_argument("--widths", default=None, help="comma-separated width list")
    exp.add_argument("--jobs", type=int, default=1, help="worker processes")
    exp.add_argument("--ga-cost-adjust", action="store_true")
    common(exp)
    exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ValueError) as exc:
        # model-shape violations (including the X/Q interpretability rule)
        # and data validation problems are configuration mistakes
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
