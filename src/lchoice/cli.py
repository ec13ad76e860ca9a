"""Command-line front door: estimate, generate, experiment.

Runs are YAML-configured and land in a directory named by config hash and
timestamp, with the resolved config stored next to the outputs so a run can
be reproduced bit-for-bit from its own folder.  The whole config is read
and checked before anything is fitted, and only a run that succeeds writes one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import time
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from . import analysis, synthgen
from .analysis import ModelRecipe, write_csv_rows
from .dataio import (DataError, generic_schema, load_csv, optima_schema,
                     preprocess_optima, preprocess_swissmetro, save_truth, split,
                     swissmetro_schema, validate_partition)
from .estimation import build_report, fit_joint, fit_sequential
from .models import NestStructure, UtilitySpec, UtilityTerm, load_model, save_model
from .numcore import FitResult, TrainConfig
from .synthgen import SCENARIOS, DataSpec


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config parsing

# the keys each block may hold
_ESTIMATE = ("seed", "model", "dataset", "train", "report", "sequential")
_MODEL = ("kind", "alternatives", "terms", "intercepts", "q", "net_width", "net_depth", "nests")
_NESTS = ("groups", "mu", "fixed")
_DATASET = ("scenario", "seed")  # drawn from a scenario, or else read from a file with _CSV keys
_CSV = ("path", "format", "preprocess", "alternatives", "split", "split_seed", "ga_cost_adjust")
_REPORT = ("std_errors", "references", "ratios")
_TRAIN = tuple(f.name for f in fields(TrainConfig))
_SCENARIO = ("name",) + tuple(f.name for f in fields(DataSpec) if f.name != "scenario")
# each experiment's top level, besides the seed and train keys every one takes
_EXPERIMENTS = {
    "montecarlo": ("replications", "scenario", "zoo", "width", "focus", "with_tests"),
    "neuron-scan": ("replications", "widths", "scenario", "model", "dataset"),
    "correlation-sweep": ("replications", "s_values", "scenario", "width", "with_tests"),
    "sensitivity": ("model_file", "dataset", "column", "grid"),
    "feature-impact": ("model_file", "dataset"),
    "strategy-compare": ("scenario", "width"),
}
_JOBS = ("montecarlo", "neuron-scan", "correlation-sweep", "strategy-compare")  # take --jobs
_ZOOS = {"binary": analysis.binary_zoo, "correlation": analysis.correlation_zoo,
         "guevara": analysis.guevara_zoo}


def _block(cfg: dict, key: str, allowed) -> dict:
    """``cfg[key]`` ({} when absent or empty); a key of it not in ``allowed`` is a ConfigError."""
    block = cfg.get(key) or {}
    if not isinstance(block, dict):
        raise ConfigError(f"{key} block must be a mapping")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {key} options: {sorted(unknown, key=str)}")
    return block


def _given(block: dict, **read) -> dict:
    """The keys of ``block`` named in ``read``, converted; absent keys keep library defaults."""
    return {k: conv(block[k]) for k, conv in read.items() if k in block}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    if not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        cfg = yaml.safe_load(fh) or {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def _parse_train(cfg: dict, seed: int) -> TrainConfig:
    block = _block(cfg, "train", _TRAIN)
    block.setdefault("seed", seed)
    try:
        return TrainConfig(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train block: {exc}") from exc


def _parse_utility(block: dict) -> UtilitySpec:
    # alternatives are named by label, and YAML reads a key such as 1 as an int
    terms = []
    for item in block.get("terms", []) or []:
        if not isinstance(item, dict) or "param" not in item or "entries" not in item:
            raise ConfigError("each term needs 'param' and 'entries'")
        entries = {str(k): v for k, v in item["entries"].items()}
        terms.append(UtilityTerm.of(str(item["param"]), entries))
    return UtilitySpec(tuple(terms), tuple(str(a) for a in block.get("intercepts", []) or []))


def _parse_model(cfg: dict) -> tuple[ModelRecipe, tuple[str, ...]]:
    block = _block(cfg, "model", _MODEL)
    if not block:
        raise ConfigError("config needs a 'model' block")
    kind = block.get("kind")
    labels = tuple(str(a) for a in block.get("alternatives", []) or [])
    if not kind or not labels:
        raise ConfigError("model block needs 'kind' and 'alternatives'")
    nests = None
    if nb := _block(block, "nests", _NESTS):
        groups = tuple(tuple(str(a) for a in g) for g in nb.get("groups", []))
        if not groups:
            raise ConfigError("nests block needs 'groups'")
        nests = NestStructure(groups, **_given(nb, mu=np.asarray, fixed=tuple))
    return ModelRecipe(kind, kind, _parse_utility(block), tuple(block.get("q") or ()),
                       nests=nests, **_given(block, net_width=int, net_depth=int)), labels


def _parse_dataspec(cfg: dict) -> DataSpec | None:
    """The ``scenario`` block of ``cfg`` as a DataSpec; None when there is none."""
    if "scenario" not in cfg:
        return None
    block = _block(cfg, "scenario", _SCENARIO)
    return DataSpec(**{"scenario" if k == "name" else k: v for k, v in block.items()})


# the schema and the preprocessing of each survey file format
_SURVEYS = {"swissmetro": (swissmetro_schema, preprocess_swissmetro),
            "optima": (optima_schema, preprocess_optima)}


def _load_dataset(cfg: dict, seed: int):
    """(train, test or None) from either a scenario block or a CSV path."""
    block = _block(cfg, "dataset", _DATASET + _CSV)
    block = _block(cfg, "dataset", _DATASET if "scenario" in block else _CSV)
    if not block:
        raise ConfigError("config needs a 'dataset' block")
    if "scenario" in block:
        train, test, _ = _parse_dataspec(block).make(block.get("seed", seed))
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
    adjust = _given(block, ga_cost_adjust=bool)
    if adjust and (fmt != "swissmetro" or not preprocess):
        raise ConfigError("ga_cost_adjust applies only to a preprocessed swissmetro file")
    if fmt in _SURVEYS:
        schema, preprocessor = _SURVEYS[fmt]
        ds = load_csv(path, schema(), validate=not preprocess)
        if preprocess:
            ds = preprocessor(ds, **adjust)
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


def _report_args(cfg: dict) -> dict:
    block = _block(cfg, "report", _REPORT)
    ratios = []
    for item in block.get("ratios", []) or []:
        try:
            ratios.append((str(item["name"]), str(item["num"]), str(item["den"])))
        except (TypeError, KeyError) as exc:
            raise ConfigError("each ratio needs 'name', 'num', 'den'") from exc
    references = {str(k): float(v) for k, v in (block.get("references") or {}).items()}
    return dict(references=references, ratio_defs=tuple(ratios),
                **({"compute_std_errors": block["std_errors"]} if "std_errors" in block else {}))


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


def _write_run(base: str, cfg: dict, tag: str, files: dict) -> Path:
    """A new run folder with ``config.yaml`` and ``files`` written into it.

    A file is given as its text or as a function that writes the path it is
    handed.  If a write fails, the folder is removed.
    """
    run_dir = _run_dir(base, cfg, tag)
    try:
        for name, content in {"config.yaml": yaml.safe_dump(cfg, sort_keys=True),
                              **files}.items():
            if callable(content):
                content(str(run_dir / name))
            else:
                (run_dir / name).write_text(content)
    except BaseException:
        shutil.rmtree(run_dir, ignore_errors=True)
        raise
    return run_dir


# ---------------------------------------------------------------------------
# commands

def cmd_estimate(args) -> int:
    cfg = _block({"estimate": _load_config(args.config)}, "estimate", _ESTIMATE)
    seed = int(cfg.setdefault("seed", args.seed))
    train_cfg = _parse_train(cfg, seed)
    recipe, labels = _parse_model(cfg)
    train, test = _load_dataset(cfg, seed)
    report_args = _report_args(cfg)

    # building the model to fit refuses columns in both X and Q
    model = load_model(args.eval_only) if args.eval_only else recipe.build(labels, seed)
    named = set(report_args["references"]).union(*(r[1:] for r in report_args["ratio_defs"]))
    if unknown := sorted(named - set(model.param_names)):
        raise ConfigError(f"report names unknown parameters {unknown}; "
                          f"the model has {list(model.param_names)}")
    if args.eval_only:
        files = {}
        report = build_report(model, train, test, FitResult("ok", 0, 0, np.zeros(0)), **report_args)
    else:
        if recipe.kind in ("LMNL", "LNL"):
            model.program_for(train)  # refuses columns the dataset lacks
            for msg in validate_partition(train, model.utility.x_columns(), model.q):
                print(f"advisory: {msg}", file=sys.stderr)
        sequential = cfg.get("sequential")
        fit_model = partial(fit_sequential, order=str(sequential)) if sequential else fit_joint
        report = fit_model(model, train, train_cfg, test=test, **report_args)
        files = {"model.json": partial(save_model, model)}

    run_dir = _write_run(args.out_dir, cfg, "estimate", files | {
        "report.csv": report.to_csv, "report.md": report.to_markdown(),
        "trace.csv": "epoch,mean_nll\n"
                     + "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(report.trace))})
    print(f"estimate: {model.kind} ll_train={report.ll_train:.2f}"
          + (f" ll_test={report.ll_test:.2f}" if report.ll_test is not None else "")
          + f" -> {run_dir}")
    return 0


def cmd_generate(args) -> int:
    name = args.scenario
    # the DataSpec flags given, past the scenario and --n; the rest keep DataSpec's defaults
    given = {f.name: v for f in fields(DataSpec)[2:] if (v := getattr(args, f.name)) is not None}
    if name == "semi-synthetic":
        if given:
            raise ConfigError(f"semi-synthetic reads only --n and --seed, not "
                              f"--{next(iter(given)).replace('_', '-')}")
        ds = synthgen.gen_semi_synthetic(n=args.n, seed=args.seed)
    else:
        if name == "guevara":
            given["n_test"] = 0  # guevara has no test block: it writes exactly --n rows
        ds = DataSpec(name, args.n, **given).dataset(args.seed)
    stem = Path(args.out_dir) / name
    stem.parent.mkdir(parents=True, exist_ok=True)
    ds.to_csv(f"{stem}.csv")
    save_truth(f"{stem}.truth.txt", ds.meta.get("truth", {}))
    print(f"generate: {name} rows={ds.n_rows} -> {stem}.csv")
    return 0


def cmd_experiment(args) -> int:
    kind = args.kind
    cfg = _load_config(args.config)
    if args.reps is not None:
        cfg["replications"] = args.reps
    if args.widths is not None:
        cfg["widths"] = [int(w) for w in args.widths.split(",")]
    if args.jobs is not None and (kind not in _JOBS or args.jobs < 1):
        raise ConfigError(f"--jobs must be >= 1 and applies only to {', '.join(_JOBS)}")
    jobs = args.jobs or 1
    _block({kind: cfg}, kind, ("seed", "train") + _EXPERIMENTS[kind])
    seed = int(cfg.setdefault("seed", args.seed))
    train_cfg = _parse_train(cfg, seed)
    reps = int(cfg.get("replications", 20))

    if kind == "montecarlo":
        spec = _parse_dataspec(cfg) or DataSpec()
        zoo = cfg.get("zoo", "guevara" if spec.scenario == "guevara" else "binary")
        if zoo not in _ZOOS:
            raise ConfigError(f"unknown zoo {zoo!r}")
        result = analysis.monte_carlo(
            spec, _ZOOS[zoo](**_given(cfg, width=int)), reps, train_cfg, seed=seed,
            jobs=jobs, **_given(cfg, focus=tuple, with_tests=bool))
    elif kind == "neuron-scan":
        widths = tuple(int(w) for w in cfg.get("widths", (0, 5, 10, 25, 100)))
        # a model block's data is its `dataset`, the default model's a `scenario`
        stray = "scenario" if "model" in cfg else "dataset"
        if stray in cfg:
            raise ConfigError(f"neuron-scan takes no {stray!r} block "
                              f"{'with' if stray == 'scenario' else 'without'} a 'model' block")
        if "model" in cfg:
            recipe, _ = _parse_model(cfg)
            if recipe.kind not in ("LMNL", "LNL"):
                raise ConfigError(f"neuron-scan scans an LMNL or LNL model, not {recipe.kind!r}")
            data = _load_dataset(cfg, seed)
        else:
            recipe, data = analysis.binary_lmnl(), _parse_dataspec(cfg) or DataSpec()
        result = analysis.neuron_scan(data, recipe, widths, reps,
                                      train_cfg, seed=seed, jobs=jobs)
    elif kind == "correlation-sweep":
        result = analysis.correlation_bias_sweep(
            tuple(float(s) for s in cfg.get("s_values", (0.0, 0.4, 0.8, 1.0))), reps,
            scenario=_parse_dataspec(cfg), base_config=train_cfg, seed=seed, jobs=jobs,
            recipes=analysis.correlation_zoo(**_given(cfg, width=int)),
            **_given(cfg, with_tests=bool))
    elif kind in ("sensitivity", "feature-impact"):
        if not cfg.get("model_file"):
            raise ConfigError(f"{kind} needs 'model_file' in the config")
        model = load_model(str(cfg["model_file"]))
        train, _ = _load_dataset(cfg, seed)
        if kind == "sensitivity":
            column = cfg.get("column")
            if not column:
                raise ConfigError("sensitivity needs 'column'")
            grid = tuple(float(g) for g in cfg.get("grid", (-0.5, -0.25, 0.0, 0.25, 0.5)))
            result = analysis.sensitivity_sweep(model, train, str(column), grid)
        else:
            result = analysis.feature_impact(model, train)
    else:  # strategy-compare
        result = analysis.strategy_compare(_parse_dataspec(cfg), base_config=train_cfg,
                                           seed=seed, jobs=jobs, **_given(cfg, width=int))

    run_dir = _write_run(args.out_dir, cfg, kind, {
        "result.csv": partial(write_csv_rows, rows=result.to_csv_rows()),
        "result.md": result.to_markdown()})
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
    common(est)
    est.set_defaults(func=cmd_estimate)

    gen = sub.add_parser("generate", help="write a synthetic dataset + truth sidecar")
    # every DataSpec scenario, plus the one `generate` can only write to a file
    gen.add_argument("scenario", choices=(*SCENARIOS, "semi-synthetic"))
    gen.add_argument("--n", type=int, default=DataSpec.n_train, help="rows (training block)")
    for f in fields(DataSpec)[2:]:
        gen.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default),
                         help=f"DataSpec.{f.name} (default {f.default})")
    common(gen)
    gen.set_defaults(func=cmd_generate)

    exp = sub.add_parser("experiment", help="run a replication campaign or probe")
    exp.add_argument("kind", choices=_EXPERIMENTS)
    exp.add_argument("--config", default=None)
    exp.add_argument("--reps", type=int, default=None, help="override replications")
    exp.add_argument("--widths", default=None, help="comma-separated width list")
    exp.add_argument("--jobs", type=int, help="worker processes; the results do not depend on it")
    common(exp)
    exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, ValueError) as exc:
        # bad settings, bad data, and models that break the X/Q rule
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
