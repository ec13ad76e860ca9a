"""Experiment drivers: replication campaigns and post-estimation probes.

Every driver takes explicit seeds and returns tidy records, so a rerun with
the same configuration reproduces the same tables.  Replications are
independent; `_run_tasks` is the one runner, in this process or, with
``jobs`` > 1, across a process pool, and it returns results in task order,
so ``jobs`` changes no number.  A task that raises yields its exception:
`monte_carlo` records it as a failure (``"<type>: <message>"``) and leaves
it out of every aggregate, `neuron_scan` re-raises the first one.
Aggregation always happens in the caller.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import synthgen
from .dataio import ChoiceDataset, split
from .estimation import (BETA_THEN_NET, NET_THEN_BETA, EstimationReport,
                         fit_joint, fit_sequential, parameter_ratio,
                         ratio_t_test, relative_errors)
from .models import (HybridChoiceModel, NestStructure, UtilitySpec,
                     UtilityTerm, build_model, predict_probabilities)
from .numcore import TrainConfig
from .numcore.prng import derive_seed
from .numcore.program import input_gradients
from .synthgen import BinaryScenario


# ---------------------------------------------------------------------------
# campaign inputs

@dataclass(frozen=True, eq=False)
class ModelRecipe:
    """How to build and train one model of the zoo, per replication."""

    name: str
    kind: str
    utility: UtilitySpec = UtilitySpec()
    q: tuple[str, ...] = ()
    net_width: int = 25
    net_depth: int = 1
    nests: NestStructure | None = None
    train: tuple[tuple[str, object], ...] = ()  # TrainConfig overrides

    def fit(self, train: ChoiceDataset, test: ChoiceDataset | None, base: TrainConfig,
            seed: int, **report_args) -> tuple[HybridChoiceModel, EstimationReport]:
        """Build the model for ``train``'s alternatives and fit it jointly."""
        model = build_model(self.kind, tuple(train.alt_labels), self.utility, q=self.q,
                            net_width=self.net_width, net_depth=self.net_depth,
                            nests=self.nests, seed=seed)
        config = replace(base, seed=seed, **dict(self.train))
        return model, fit_joint(model, train, config, test=test, **report_args)


SPEC_SCENARIOS = ("binary", "correlated", "unobserved", "guevara")


@dataclass(frozen=True)
class DataSpec:
    """Named synthetic scenario regenerated per replication seed."""

    scenario: str = "binary"  # one of SPEC_SCENARIOS
    n_train: int = 1000
    n_test: int = 200
    beta_p: float = -1.0
    beta_a: float = 0.5
    beta_b: float = 0.5
    beta_qc: float = 1.0
    s: float = 0.0
    beta_u: float = 1.0

    def dataset(self, seed: int) -> ChoiceDataset:
        """All n_train + n_test rows of the scenario at ``seed``, truth in its meta."""
        if self.scenario == "guevara":
            return synthgen.gen_guevara(self.n_train + self.n_test, seed)
        sc = BinaryScenario(self.beta_p, self.beta_a, self.beta_b, self.beta_qc,
                            self.n_train, self.n_test, seed)
        if self.scenario == "binary":
            return synthgen.gen_binary(sc)
        if self.scenario == "correlated":
            return synthgen.gen_correlated(sc, self.s)
        if self.scenario == "unobserved":
            return synthgen.gen_with_unobserved(sc, self.beta_u)
        raise ValueError(f"unknown scenario {self.scenario!r}")

    def make(self, seed: int) -> tuple[ChoiceDataset, ChoiceDataset, dict]:
        """(train, test, truth): the first n_train rows train, the rest test."""
        ds = self.dataset(seed)
        rows = np.arange(ds.n_rows)
        return (ds.subset(rows[:self.n_train]), ds.subset(rows[self.n_train:]),
                dict(ds.meta["truth"]))


def _generic(name: str, col: str) -> UtilityTerm:
    # one shared coefficient on a per-alternative column pair
    return UtilityTerm.of(name, {"1": f"{col}1", "2": f"{col}2"})


QC_COLS = ("q1", "c1", "q2", "c2")  # the binary scenarios' net inputs


def binary_pab() -> tuple[UtilityTerm, ...]:
    """The binary scenarios' generic price and attribute terms beta_p, beta_a, beta_b."""
    return (_generic("beta_p", "p"), _generic("beta_a", "a"), _generic("beta_b", "b"))


def binary_zoo(width: int = 25) -> tuple[ModelRecipe, ...]:
    """The benchmark model set for the two-alternative synthetic study."""
    pab = binary_pab()
    all5 = pab + (_generic("beta_q", "q"), _generic("beta_c", "c"))
    cols10 = tuple(f"{b}{alt}" for alt in ("1", "2") for b in ("p", "a", "b", "q", "c"))
    return (
        ModelRecipe("Logit(X1)", "Logit", UtilitySpec(all5)),
        ModelRecipe(f"DNN({width},Q)", "DNN", q=cols10, net_width=width),
        ModelRecipe(f"DNN_L({width},X=Q)", "DNN_L", UtilitySpec(all5),
                    q=cols10, net_width=width),
        ModelRecipe(f"LMNL({width},X,Q)", "LMNL", UtilitySpec(pab),
                    q=QC_COLS, net_width=width),
        ModelRecipe("Logit(Xtrue)", "Logit", UtilitySpec(pab + (_generic("beta_qc", "qc"),))),
    )


def correlation_zoo(width: int = 25) -> tuple[ModelRecipe, ...]:
    """L-MNL against the over- and under-specified logit baselines."""
    pab = binary_pab()
    all5 = pab + (_generic("beta_q", "q"), _generic("beta_c", "c"))
    return (
        ModelRecipe(f"LMNL({width},X,Q)", "LMNL", UtilitySpec(pab), q=QC_COLS,
                    net_width=width),
        ModelRecipe("Logit(X1)", "Logit", UtilitySpec(all5)),
        ModelRecipe("Logit(X2)", "Logit", UtilitySpec(pab)),
    )


def guevara_zoo(width: int = 100) -> tuple[ModelRecipe, ...]:
    """True, hybrid, and endogenous (q omitted) models for the price study."""
    pab = binary_pab()
    withq = pab + (_generic("beta_q", "q"),)
    return (
        ModelRecipe("MNL_true", "Logit", UtilitySpec(withq)),
        ModelRecipe("LMNL_true", "LMNL", UtilitySpec(pab),
                    q=("q1", "q2"), net_width=width),
        ModelRecipe("MNL_endo", "Logit", UtilitySpec(pab)),
    )


# ---------------------------------------------------------------------------
# monte carlo

@dataclass
class RepOutcome:
    model: str
    rep: int
    seed: int
    status: str
    ll_train: float
    ll_test: float
    acc_train: float
    acc_test: float
    rho2_test: float
    params: dict[str, float] = field(default_factory=dict)
    errors: dict[str, float] = field(default_factory=dict)
    ratio_estimate: float | None = None
    nonreject_coeffs: bool | None = None
    nonreject_each: dict[str, bool] = field(default_factory=dict)
    nonreject_ratio: bool | None = None


def _run_tasks(fn, tasks: list, jobs: int) -> list:
    """``fn`` over ``tasks``, results in task order; a task that raised yields its exception.

    With ``jobs`` > 1 every task is submitted to a pool of that many worker
    processes up front, and the results are collected in order.
    """
    results = []
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        calls = [pool.submit(fn, t).result if pool else partial(fn, t) for t in tasks]
        for call in calls:
            try:
                results.append(call())
            except Exception as exc:  # noqa: BLE001 - handed to the caller
                results.append(exc)
    return results


def _run_one(task: tuple) -> RepOutcome:
    (data, recipe, base_cfg, rep, seed, focus, ratio, with_tests) = task
    train, test, truth = data.make(seed)
    model, report = recipe.fit(train, test, base_cfg, seed,
                               compute_std_errors=with_tests, references=truth)
    est = report.estimates()
    present = [k for k in focus if k in est]
    errors = relative_errors(est, truth,
                             ratios=(ratio,) if ratio and all(k in est for k in ratio) else ())
    out = RepOutcome(recipe.name, rep, seed, report.status,
                     report.ll_train, report.ll_test, report.acc_train,
                     report.acc_test, report.rho2_test, est, errors)
    if ratio and all(k in est for k in ratio):
        out.ratio_estimate = parameter_ratio(est, *ratio)
    if report.covariance is not None and present:  # skipped without std errors
        rejects = [report.parameter(k).reject for k in present]
        out.nonreject_coeffs = all(r is False for r in rejects)
        out.nonreject_each = {k: r is False for k, r in zip(present, rejects)}
        if ratio and all(k in est for k in ratio):
            ref = truth[ratio[0]] / truth[ratio[1]]
            tt = ratio_t_test(est, report.covariance, tuple(model.param_names),
                              ratio[0], ratio[1], ref)
            out.nonreject_ratio = (not tt.reject) if math.isfinite(tt.t_stat) else None
    return out


@dataclass
class MonteCarloResult:
    data: DataSpec
    model_names: tuple[str, ...]
    outcomes: list[RepOutcome]
    failures: list[dict]
    focus: tuple[str, ...]
    ratio: tuple[str, str] | None

    def per_model(self, name: str) -> list[RepOutcome]:
        return [o for o in self.outcomes if o.model == name]

    def _agg(self, name: str, pick) -> tuple[float, float]:
        vals = np.array([pick(o) for o in self.per_model(name)], dtype=float)
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            return math.nan, math.nan
        return float(vals.mean()), float(vals.std())

    def ll_table(self) -> list[dict]:
        rows = []
        for name in self.model_names:
            reps = self.per_model(name)
            m = {"model": name, "replications": len(reps),
                 "failed": sum(1 for f in self.failures if f["model"] == name)}
            for key, pick in [("ll_train", lambda o: o.ll_train),
                              ("ll_test", lambda o: o.ll_test)]:
                mean, sd = self._agg(name, pick)
                m[f"{key}_mean"], m[f"{key}_sd"] = mean, sd
            m["acc_train_pct"] = 100.0 * self._agg(name, lambda o: o.acc_train)[0]
            m["acc_test_pct"] = 100.0 * self._agg(name, lambda o: o.acc_test)[0]
            m["rho2_test_mean"] = self._agg(name, lambda o: o.rho2_test)[0]
            rows.append(m)
        return rows

    def error_keys(self) -> list[str]:
        keys = list(self.focus)
        if self.ratio:
            keys.append(f"{self.ratio[0]}/{self.ratio[1]}")
        return keys

    def error_table(self) -> list[dict]:
        rows = []
        for name in self.model_names:
            reps = self.per_model(name)
            if not any(set(o.errors) & set(self.error_keys()) for o in reps):
                continue  # nothing enters the linear block (pure net model)
            m = {"model": name}
            for key in self.error_keys():
                mean, sd = self._agg(name, lambda o, k=key: 100.0 * o.errors.get(k, math.nan))
                m[f"e_{key}_mean_pct"], m[f"e_{key}_sd_pct"] = mean, sd
            rows.append(m)
        return rows

    def testing_table(self) -> list[dict]:
        rows = []
        for name in self.model_names:
            reps = self.per_model(name)
            flags = [o.nonreject_coeffs for o in reps if o.nonreject_coeffs is not None]
            each = [v for o in reps for v in o.nonreject_each.values()]
            ratio_flags = [o.nonreject_ratio for o in reps if o.nonreject_ratio is not None]
            if not flags and not ratio_flags:
                continue
            rows.append({
                "model": name,
                "nonreject_coeffs_pct": 100.0 * np.mean(flags) if flags else math.nan,
                "nonreject_percoeff_pct": 100.0 * np.mean(each) if each else math.nan,
                "nonreject_ratio_pct": 100.0 * np.mean(ratio_flags) if ratio_flags else math.nan,
            })
        return rows

    def ratio_summary(self) -> list[dict]:
        rows = []
        for name in self.model_names:
            vals = np.array([o.ratio_estimate for o in self.per_model(name)
                             if o.ratio_estimate is not None], dtype=float)
            vals = vals[np.isfinite(vals)]
            if vals.size == 0:
                continue
            rows.append({"model": name,
                         "ratio_median": float(np.median(vals)),
                         "ratio_q1": float(np.percentile(vals, 25)),
                         "ratio_q3": float(np.percentile(vals, 75)),
                         "ratio_mean": float(vals.mean()),
                         "ratio_sd": float(vals.std())})
        return rows

    def to_csv_rows(self) -> list[dict]:
        tables = [("likelihood", self.ll_table()), ("errors", self.error_table()),
                  ("testing", self.testing_table()), ("ratios", self.ratio_summary())]
        return long_rows([{"table": table, **r} for table, data in tables for r in data],
                         ("table", "model"))

    def to_markdown(self) -> str:
        parts = [markdown_table(self.ll_table(), title="Fit over replications")]
        err = self.error_table()
        if err:
            parts.append(markdown_table(err, title="Relative errors [%]"))
        tst = self.testing_table()
        if tst:
            parts.append(markdown_table(tst, title="Share of replications not rejecting the truth [%]"))
        rat = self.ratio_summary()
        if rat:
            parts.append(markdown_table(rat, title="Estimated coefficient ratio"))
        if self.failures:
            parts.append(f"{len(self.failures)} replication(s) failed and were excluded.\n")
        return "\n".join(parts)


def monte_carlo(data: DataSpec, recipes: tuple[ModelRecipe, ...],
                replications: int, base_config: TrainConfig | None = None,
                seed: int = 0, seeds: list[int] | None = None,
                focus: tuple[str, ...] = ("beta_p", "beta_a"),
                ratio: tuple[str, str] | None = ("beta_p", "beta_a"),
                with_tests: bool = True, jobs: int = 1) -> MonteCarloResult:
    """Re-generate, re-fit, and aggregate ``replications`` times per model.

    A replication that raises is recorded under ``failures`` and excluded
    from every aggregate; everything else is deterministic in (seed, config).
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    base_config = base_config or TrainConfig()
    if seeds is None:
        seeds = [derive_seed(seed, 100 + r) for r in range(replications)]
    if len(seeds) != replications:
        raise ValueError("need one seed per replication")
    tasks = [(data, recipe, base_config, rep, seeds[rep], focus, ratio, with_tests)
             for recipe in recipes for rep in range(replications)]
    results = _run_tasks(_run_one, tasks, jobs)
    outcomes = [r for r in results if not isinstance(r, Exception)]
    failures = [{"model": t[1].name, "rep": t[3], "seed": t[4],
                 "error": f"{type(r).__name__}: {r}"}
                for t, r in zip(tasks, results) if isinstance(r, Exception)]
    return MonteCarloResult(data, tuple(r.name for r in recipes), outcomes,
                            failures, focus, ratio)


# ---------------------------------------------------------------------------
# neuron scan

@dataclass
class NeuronScanResult:
    widths: tuple[int, ...]
    records: list[dict]  # width, rep, seed, ll_train, ll_test, params

    def table(self, params: tuple[str, ...] = ("beta_p", "beta_a")) -> list[dict]:
        rows = []
        for w in self.widths:
            recs = [r for r in self.records if r["width"] == w]
            row: dict = {"width": w, "replications": len(recs)}
            for key in ("ll_train", "ll_test"):
                vals = np.array([r[key] for r in recs])
                row[f"{key}_mean"] = float(vals.mean())
                row[f"{key}_sd"] = float(vals.std())
            for p in params:
                vals = np.array([r["params"][p] for r in recs if p in r["params"]])
                if vals.size:
                    row[f"{p}_mean"] = float(vals.mean())
                    row[f"{p}_sd"] = float(vals.std())
            rows.append(row)
        return rows

    def to_csv_rows(self) -> list[dict]:
        flat = [{k: v for k, v in r.items() if k != "params"} | r["params"]
                for r in self.records]
        return long_rows(flat, ("width", "rep", "seed"))

    def to_markdown(self) -> str:
        return markdown_table(self.table(), title="Width scan")


def _scan_one(task: tuple) -> dict:
    (data, width, utility, q, rep, seed, base_cfg) = task
    if isinstance(data, DataSpec):
        train, test, _ = data.make(seed)
    else:
        train, test = data
    labels = tuple(train.alt_labels)
    if width == 0:
        model = build_model("Logit", labels, utility)
    else:
        model = build_model("LMNL", labels, utility, q=q, net_width=width, seed=seed)
    cfg = replace(base_cfg, seed=seed)
    report = fit_joint(model, train, cfg, test=test, compute_std_errors=False)
    return {"width": width, "rep": rep, "seed": seed,
            "ll_train": report.ll_train, "ll_test": report.ll_test,
            "params": report.estimates()}


def neuron_scan(data, utility: UtilitySpec, q: tuple[str, ...],
                widths: tuple[int, ...], replications: int = 1,
                base_config: TrainConfig | None = None, seed: int = 0,
                jobs: int = 1) -> NeuronScanResult:
    """LL and coefficient curves against net width; width 0 is a plain logit.

    ``data`` is either a DataSpec (fresh draw per replication) or a fixed
    (train, test) pair, in which case only initialisation/training seeds vary.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if any(w < 0 for w in widths):
        raise ValueError("widths must be >= 0")
    base_config = base_config or TrainConfig()
    seeds = [derive_seed(seed, 100 + r) for r in range(replications)]
    tasks = [(data, w, utility, q, rep, seeds[rep], base_config)
             for w in widths for rep in range(replications)]
    records = _run_tasks(_scan_one, tasks, jobs)
    for r in records:
        if isinstance(r, Exception):
            raise r
    return NeuronScanResult(tuple(widths), records)


# ---------------------------------------------------------------------------
# correlation sweep

@dataclass
class CorrelationSweepResult:
    s_values: tuple[float, ...]
    campaigns: dict[float, MonteCarloResult]

    def table(self) -> list[dict]:
        rows = []
        for s in self.s_values:
            res = self.campaigns[s]
            for row in res.error_table():
                rows.append({"s": s, **row})
        return rows

    def mean_error(self, model: str, s: float, key: str = "beta_p") -> float:
        res = self.campaigns[s]
        vals = np.array([100.0 * o.errors[key] for o in res.per_model(model)
                         if key in o.errors])
        return float(vals.mean()) if vals.size else math.nan

    def to_csv_rows(self) -> list[dict]:
        return [{"s": s, **r} for s in self.s_values for r in self.campaigns[s].to_csv_rows()]

    def to_markdown(self) -> str:
        return markdown_table(self.table(), title="Relative errors [%] by correlation level")


def correlation_bias_sweep(s_values: tuple[float, ...], replications: int,
                           scenario: DataSpec | None = None,
                           recipes: tuple[ModelRecipe, ...] | None = None,
                           base_config: TrainConfig | None = None,
                           seed: int = 0, with_tests: bool = False,
                           jobs: int = 1) -> CorrelationSweepResult:
    """Relative-error distributions as a net input grows collinear with price."""
    if any(not 0.0 <= s <= 1.0 for s in s_values):
        raise ValueError("correlation levels must lie in [0, 1]")
    scenario = scenario or DataSpec(scenario="correlated")
    recipes = recipes or correlation_zoo()
    campaigns = {}
    for s in s_values:
        spec = replace(scenario, scenario="correlated", s=s)
        campaigns[s] = monte_carlo(spec, recipes, replications, base_config,
                                   seed=seed, with_tests=with_tests, jobs=jobs)
    return CorrelationSweepResult(tuple(s_values), campaigns)


# ---------------------------------------------------------------------------
# sensitivity and feature impact

@dataclass
class SensitivityResult:
    column: str
    grid: tuple[float, ...]
    alt_labels: tuple[str, ...]
    base_shares: np.ndarray
    shares: np.ndarray  # (len(grid), n_alts)

    def table(self) -> list[dict]:
        rows = []
        for gi, delta in enumerate(self.grid):
            for ai, alt in enumerate(self.alt_labels):
                base = self.base_shares[ai]
                change = 100.0 * (self.shares[gi, ai] - base) / base
                rows.append({"column": self.column, "change_pct": 100.0 * delta,
                             "alternative": alt, "share": self.shares[gi, ai],
                             "share_change_pct": change})
        return rows

    def to_csv_rows(self) -> list[dict]:
        return self.table()

    def to_markdown(self) -> str:
        return markdown_table(self.table(), title=f"Share response to {self.column}")


def sensitivity_sweep(model: HybridChoiceModel, ds: ChoiceDataset, column: str,
                      grid: tuple[float, ...]) -> SensitivityResult:
    """Aggregate predicted shares as one net input is scaled by (1 + delta).

    Deltas are multiplicative fractions (0.1 means +10% on the raw column);
    all other columns stay untouched.
    """
    if column not in model.partition.q:
        raise ValueError(f"column {column!r} is not a net input of this model")
    j = ds.col_index(column)
    base = predict_probabilities(model, ds).mean(axis=0)
    shares = np.zeros((len(grid), len(ds.alt_labels)))
    for gi, delta in enumerate(grid):
        values = ds.values.copy()
        values[:, j] *= (1.0 + delta)
        bumped = ChoiceDataset(list(ds.columns), values, ds.avail, ds.choice,
                               list(ds.alt_labels), dict(ds.meta))
        shares[gi] = predict_probabilities(model, bumped).mean(axis=0)
    return SensitivityResult(column, tuple(grid), tuple(ds.alt_labels), base, shares)


@dataclass
class FeatureImpactResult:
    q_columns: tuple[str, ...]
    alt_labels: tuple[str, ...]
    impact: np.ndarray  # (n_alts, n_q) mean |dV_pred/dq| within each predicted group
    counts: np.ndarray  # predicted-alternative group sizes

    def overall(self) -> dict[str, float]:
        """Impact per feature averaged over all observations."""
        total = self.counts.sum()
        if total == 0:
            return {c: 0.0 for c in self.q_columns}
        weighted = (self.impact * self.counts[:, None]).sum(axis=0) / total
        return {c: float(v) for c, v in zip(self.q_columns, weighted)}

    def table(self) -> list[dict]:
        rows = []
        for ai, alt in enumerate(self.alt_labels):
            for qi, col in enumerate(self.q_columns):
                rows.append({"alternative": alt, "feature": col,
                             "mean_abs_gradient": float(self.impact[ai, qi]),
                             "count": int(self.counts[ai])})
        return rows

    def to_csv_rows(self) -> list[dict]:
        return self.table()

    def to_markdown(self) -> str:
        rows = [{"feature": c, "mean_abs_gradient": v}
                for c, v in sorted(self.overall().items(), key=lambda kv: -kv[1])]
        return markdown_table(rows, title="Feature impact (all predictions)")


def feature_impact(model: HybridChoiceModel, ds: ChoiceDataset) -> FeatureImpactResult:
    """Mean absolute gradient of the predicted alternative's utility per net input.

    Observations are grouped by the model's predicted (argmax) alternative and
    each group is averaged separately, so rarely-predicted alternatives are
    not drowned out by common ones.
    """
    labels = tuple(ds.alt_labels)
    qcols = tuple(model.partition.q)
    n_alts = len(labels)
    if not qcols:
        return FeatureImpactResult(qcols, labels, np.zeros((n_alts, 0)),
                                   np.zeros(n_alts, dtype=np.int64))
    probs = predict_probabilities(model, ds)
    pred = np.argmax(np.where(ds.avail > 0, probs, -1.0), axis=1)
    dv = np.zeros((ds.n_rows, n_alts))
    dv[np.arange(ds.n_rows), pred] = 1.0
    grads = input_gradients(model.program_for(ds), ds.values, dv)  # (n, n_q)
    impact = np.zeros((n_alts, len(qcols)))
    counts = np.zeros(n_alts, dtype=np.int64)
    for i in range(n_alts):
        rows = pred == i
        counts[i] = int(rows.sum())
        if counts[i]:
            impact[i] = np.abs(grads[rows]).mean(axis=0)
    return FeatureImpactResult(qcols, labels, impact, counts)


# ---------------------------------------------------------------------------
# optimization-strategy comparison

@dataclass
class StrategyCompareResult:
    reports: dict[str, EstimationReport]
    order: tuple[str, ...] = ("beta_then_net", "net_then_beta", "joint")

    def table(self, params: tuple[str, ...] = ("beta_p", "beta_a")) -> list[dict]:
        rows = []
        for name in self.order:
            rep = self.reports[name]
            row = {"strategy": name}
            est = rep.estimates()
            for p in params:
                if p in est:
                    row[p] = est[p]
            row["ll_train"] = rep.ll_train
            row["ll_test"] = rep.ll_test
            rows.append(row)
        return rows

    def to_csv_rows(self) -> list[dict]:
        return long_rows(self.table(), ("strategy",))

    def to_markdown(self) -> str:
        return markdown_table(self.table(), title="Optimization strategies")


def strategy_compare(data: DataSpec | None = None, width: int = 100,
                     base_config: TrainConfig | None = None,
                     seed: int = 0) -> StrategyCompareResult:
    """Sequential (either order) versus joint training on one shared dataset."""
    data = data or DataSpec(scenario="binary", beta_p=-2.0, beta_a=1.0,
                            beta_b=0.5, beta_qc=1.0, n_train=10000, n_test=2000)
    base_config = base_config or TrainConfig()
    train, test, _ = data.make(derive_seed(seed, 100))
    cfg = replace(base_config, seed=seed)
    reports = {}
    for name in (BETA_THEN_NET, NET_THEN_BETA, "joint"):
        model = build_model("LMNL", tuple(train.alt_labels), UtilitySpec(binary_pab()),
                            q=QC_COLS, net_width=width, seed=seed)
        fit = fit_joint if name == "joint" else partial(fit_sequential, order=name)
        reports[name] = fit(model, train, cfg, test=test, compute_std_errors=False)
    return StrategyCompareResult(reports)


# ---------------------------------------------------------------------------
# semi-synthetic recovery study

def semi_synth_zoo(width: int = 100) -> tuple[ModelRecipe, ...]:
    """Three models over the travel dataset with planted nonlinear terms."""
    def alt_term(name, alt, col):
        return UtilityTerm.of(name, {alt: col})

    tt = UtilityTerm.of("beta_tt", {"Train": "TT_Train", "SM": "TT_SM", "Car": "TT_Car"})
    tc = UtilityTerm.of("beta_tc", {"Train": "TC_Train", "SM": "TC_SM", "Car": "TC_Car"})
    socio_a = (
        alt_term("age_train", "Train", "AGE"), alt_term("age_sm", "SM", "AGE"),
        alt_term("age_car", "Car", "AGE"),
        alt_term("dest_train", "Train", "DEST"), alt_term("dest_sm", "SM", "DEST"),
        alt_term("origin_train", "Train", "ORIGIN"), alt_term("origin_car", "Car", "ORIGIN"),
        alt_term("income_sm", "SM", "INCOME"), alt_term("income_car", "Car", "INCOME"),
        alt_term("purpose_sm", "SM", "PURPOSE"),
    )
    return (
        ModelRecipe("Logit(Xa)", "Logit",
                    UtilitySpec((tt, tc) + socio_a, intercepts=("Train", "SM"))),
        ModelRecipe("Logit(Xb)", "Logit",
                    UtilitySpec((tt, tc), intercepts=("Train", "SM"))),
        ModelRecipe(f"LMNL({width},X,Q)", "LMNL", UtilitySpec((tt, tc)),
                    q=synthgen.SEMI_SYNTH_CATS, net_width=width),
    )


@dataclass
class SemiSynthResult:
    reports: dict[str, EstimationReport]
    truth: dict[str, float]
    model_names: tuple[str, ...]

    def table(self) -> list[dict]:
        rows = []
        for name in self.model_names:
            rep = self.reports[name]
            est = rep.estimates()
            rows.append({"model": name,
                         "beta_tt": est.get("beta_tt", math.nan),
                         "beta_tc": est.get("beta_tc", math.nan),
                         "tc_over_tt": parameter_ratio(est, "beta_tc", "beta_tt")
                         if {"beta_tt", "beta_tc"} <= set(est) else math.nan,
                         "ll_train": rep.ll_train, "ll_test": rep.ll_test})
        return rows

    def to_csv_rows(self) -> list[dict]:
        return long_rows(self.table(), ("model",))

    def to_markdown(self) -> str:
        return markdown_table(self.table(), title="Recovery under planted nonlinearities")


def semi_synthetic_study(n: int = 9036, seed: int = 0, width: int = 100,
                         base_config: TrainConfig | None = None) -> SemiSynthResult:
    """Coefficient recovery with strong planted nonlinearities in the truth.

    Categories span [0, 1.4] (see `gen_semi_synthetic`), which makes the
    power-series terms large enough to visibly bias the linear-only fits, the
    regime the study is meant to probe; spans near 1 leave the distortion
    too mild to separate the hybrid from the plain logit.  80% of the rows
    train, the rest test.
    """
    base_config = base_config or TrainConfig()
    ds = synthgen.gen_semi_synthetic(n=n, seed=derive_seed(seed, 100), cat_span=1.4)
    train, test = split(ds, 0.8, seed)
    truth = dict(ds.meta["truth"])
    recipes = semi_synth_zoo(width)
    reports = {r.name: r.fit(train, test, base_config, seed, compute_std_errors=False)[1]
               for r in recipes}
    return SemiSynthResult(reports, truth, tuple(r.name for r in recipes))


# ---------------------------------------------------------------------------
# output helpers

def long_rows(rows: list[dict], keys: tuple[str, ...]) -> list[dict]:
    """One row per (row, other column): the ``keys`` columns, then metric and value."""
    return [{**{k: r[k] for k in keys}, "metric": m, "value": v}
            for r in rows for m, v in r.items() if m not in keys]


def _union_keys(rows: list[dict]) -> list[str]:
    return list(dict.fromkeys(k for r in rows for k in r))


def markdown_table(rows: list[dict], title: str | None = None) -> str:
    """Pipe table over the union of row keys, 4-significant-digit floats."""
    if not rows:
        return (f"## {title}\n\n(no rows)\n" if title else "(no rows)\n")
    keys = _union_keys(rows)

    def fmt(v) -> str:
        if v is None:
            return ""
        if isinstance(v, float):
            return "nan" if math.isnan(v) else f"{v:.4g}"
        return str(v)

    lines = []
    if title:
        lines += [f"## {title}", ""]
    lines.append("| " + " | ".join(keys) + " |")
    lines.append("|" + "---|" * len(keys))
    for r in rows:
        lines.append("| " + " | ".join(fmt(r.get(k)) for k in keys) + " |")
    return "\n".join(lines) + "\n"


def write_csv_rows(path: str, rows: list[dict]) -> None:
    """Tidy CSV with a stable union-of-keys header."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_union_keys(rows))
        writer.writeheader()
        writer.writerows(rows)
