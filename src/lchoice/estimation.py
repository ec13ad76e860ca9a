"""Fitting drivers, likelihood metrics, finite-difference inference, reports.

Standard errors come from the observed-information route: a central
finite-difference Hessian of the summed negative log-likelihood, taken over
the analytic beta gradient with the net and nest factors held fixed, so the
linear coefficients are treated as the inferential parameters.  Because the
net is fixed, the Hessian costs one eval-mode net pass over the training set,
then 2P passes of the linear block and the loss gradient (P coefficients).
A report computes one probability matrix per dataset and reads both the
log-likelihood and the accuracy from it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import numcore
from .dataio import ChoiceDataset, DataError
from .models import HybridChoiceModel, predict_probabilities
from .numcore import FitResult, TrainConfig, fit_program

BETA_THEN_NET = "beta_then_net"
NET_THEN_BETA = "net_then_beta"
# (train beta, train net) per phase of each sequential order
_PHASES = {BETA_THEN_NET: ((True, False), (False, True)),
           NET_THEN_BETA: ((False, True), (True, False))}
HESSIAN_STEP = 1e-4  # finite-difference step, relative to max(1, |beta_j|)
T_CRITICAL = 1.96  # two-sided 5% critical value of the standard normal


def _log_likelihood(p: np.ndarray, ds: ChoiceDataset) -> float:
    return float(-numcore.sample_nll(p, ds.choice).sum())


def _accuracy(p: np.ndarray, ds: ChoiceDataset) -> float:
    pred = np.where(ds.avail > 0, p, -1.0).argmax(axis=1)
    return float((pred == ds.choice).mean())


def null_log_likelihood(ds: ChoiceDataset) -> float:
    """Equal shares over the available alternatives of each row."""
    return float(-np.log(ds.avail.sum(axis=1)).sum())


def mcfadden_rho2(ll: float, ll0: float) -> float:
    if ll0 == 0.0:
        raise ValueError("null log-likelihood is zero")
    return 1.0 - ll / ll0


@dataclass
class ParamStat:
    name: str
    estimate: float
    std_error: float | None = None
    t_stat: float | None = None
    p_value: float | None = None
    reject: bool | None = None
    reference: float = 0.0


@dataclass
class TTestResult:
    t_stat: float
    p_value: float
    reject: bool


def t_test(estimate: float, std_error: float, reference: float = 0.0) -> TTestResult:
    """Two-sided asymptotic t-test of H0: parameter equals ``reference``."""
    if std_error <= 0 or not math.isfinite(std_error):
        return TTestResult(math.nan, math.nan, False)
    t = (estimate - reference) / std_error
    p = math.erfc(abs(t) / math.sqrt(2.0))
    return TTestResult(t, p, abs(t) > T_CRITICAL)


def relative_errors(estimates: dict[str, float], truth: dict[str, float],
                    ratios: tuple[tuple[str, str], ...] = ()) -> dict[str, float]:
    """Absolute relative errors per coefficient and for requested ratios.

    The per-coefficient error is |(beta - est)/beta|.  A ratio (i, j) uses
    the signed relative errors s: |(s_i - s_j)/(1 - s_j)|, which equals the
    plain relative error of the estimated ratio beta_i/beta_j.  An error with
    a zero denominator (a true coefficient of 0, an estimated ratio
    denominator of 0) is undefined and reads nan.
    """
    signed = {k: (truth[k] - estimates[k]) / truth[k] if truth[k] != 0.0 else math.nan
              for k in truth if k in estimates}
    out = {k: abs(v) for k, v in signed.items()}
    for num, den in ratios:
        d = 1.0 - signed[den]
        out[f"{num}/{den}"] = abs((signed[num] - signed[den]) / d) if d != 0.0 else math.nan
    return out


def parameter_ratio(estimates: dict[str, float], numerator: str, denominator: str) -> float:
    den = estimates[denominator]
    if abs(den) < 1e-12:
        raise ZeroDivisionError(f"denominator coefficient {denominator!r} is ~0")
    return estimates[numerator] / den


def ratio_t_test(estimates: dict[str, float], cov: np.ndarray,
                 param_names: tuple[str, ...], numerator: str, denominator: str,
                 reference: float) -> TTestResult:
    """Delta-method test of H0: beta_num/beta_den equals ``reference``."""
    i = param_names.index(numerator)
    j = param_names.index(denominator)
    bn, bd = estimates[numerator], estimates[denominator]
    grad = np.zeros(len(param_names))
    grad[i] = 1.0 / bd
    grad[j] = -bn / bd ** 2
    var = float(grad @ cov @ grad)
    se = math.sqrt(var) if var > 0 else math.nan
    return t_test(bn / bd, se, reference)


def _beta_hessian(prog: numcore.ModelProgram, inputs: tuple, avail: np.ndarray,
                  choice: np.ndarray) -> np.ndarray:
    """Symmetrised central-difference Hessian in beta of the summed NLL, (P, P), over
    ``inputs``, `numcore.eval_inputs` of the data, with the net and nest factors fixed.
    Each beta gradient is `numcore.gradients`' with ``reduction="sum"``, in its order."""
    (xl, v_net), unavail, onehot = inputs, ~(avail > 0), np.eye(prog.n_alts)[choice]
    beta0, hess = prog.beta.copy(), np.zeros((prog.n_params, prog.n_params))
    for j in range(prog.n_params):
        h = HESSIAN_STEP * max(1.0, abs(beta0[j]))
        grads = []
        for step in (h, -h):
            beta = beta0.copy()
            beta[j] += step
            dv = numcore.program.utility_gradients(
                prog, numcore.utilities(prog, xl, v_net, beta), unavail, onehot)[0]
            grads.append(numcore.program.linear_block_grad(prog, xl, dv))
        hess[:, j] = (grads[0] - grads[1]) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def hessian_std_errors(model: HybridChoiceModel, ds: ChoiceDataset, *,
                       _inputs: tuple | None = None) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(std_errors, covariance, warnings) for the linear coefficients.

    Inverts `_beta_hessian`, or takes its pseudo-inverse with a warning when it is
    singular.  Raises DataError on a bad choice.  ``_inputs`` is `numcore.eval_inputs`
    of ``ds`` when `build_report` has already checked ``ds`` and run that pass."""
    if _inputs is None:
        ds.validate_choices()
    prog = model.program_for(ds)
    if prog.n_params == 0:
        return np.zeros(0), np.zeros((0, 0)), []
    hess = _beta_hessian(prog, _inputs or numcore.eval_inputs(prog, ds.values),
                         ds.avail, ds.choice)
    warnings: list[str] = []
    try:
        cov = np.linalg.inv(hess)
        if not np.all(np.isfinite(cov)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(hess)
        warnings.append("hessian singular or ill-conditioned; pseudo-inverse used")
    diag = np.diag(cov).copy()
    bad = diag <= 0
    if bad.any():
        names = [model.param_names[i] for i in np.flatnonzero(bad)]
        warnings.append(f"non-positive variance estimates for {names}; "
                        f"std errors reported as nan")
        diag[bad] = np.nan
    return np.sqrt(diag), cov, warnings


@dataclass
class EstimationReport:
    kind: str
    params: list[ParamStat]
    mu: list[tuple[str, float, bool]]  # (nest label, estimate, fixed)
    ll_train: float
    ll0_train: float
    rho2_train: float
    acc_train: float
    n_train: int
    ll_test: float | None = None
    ll0_test: float | None = None
    rho2_test: float | None = None
    acc_test: float | None = None
    n_test: int | None = None
    ratios: dict[str, float] = field(default_factory=dict)
    trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    status: str = "ok"
    covariance: np.ndarray | None = None
    warnings: list[str] = field(default_factory=list)

    def estimates(self) -> dict[str, float]:
        return {p.name: p.estimate for p in self.params}

    def parameter(self, name: str) -> ParamStat:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    def to_markdown(self) -> str:
        lines = [f"# {self.kind} estimation", ""]
        lines.append("| parameter | estimate | std error | t | p |")
        lines.append("|---|---|---|---|---|")
        for p in self.params:
            se = "" if p.std_error is None or not math.isfinite(p.std_error) else f"{p.std_error:.4g}"
            t = "" if p.t_stat is None or not math.isfinite(p.t_stat) else f"{p.t_stat:.3g}"
            pv = "" if p.p_value is None or not math.isfinite(p.p_value) else f"{p.p_value:.3g}"
            lines.append(f"| {p.name} | {p.estimate:.4g} | {se} | {t} | {pv} |")
        for label, value, fixed in self.mu:
            tag = " (fixed)" if fixed else ""
            lines.append(f"| mu[{label}]{tag} | {value:.4g} |  |  |  |")
        lines.append("")
        lines.append("| metric | train | test |")
        lines.append("|---|---|---|")

        def cell(v: float | None) -> str:
            return "" if v is None else f"{v:.4f}"

        lines.append(f"| log-likelihood | {cell(self.ll_train)} | {cell(self.ll_test)} |")
        lines.append(f"| null log-likelihood | {cell(self.ll0_train)} | {cell(self.ll0_test)} |")
        lines.append(f"| rho2 | {cell(self.rho2_train)} | {cell(self.rho2_test)} |")
        lines.append(f"| accuracy | {cell(self.acc_train)} | {cell(self.acc_test)} |")
        lines.append(f"| rows | {self.n_train} | {self.n_test if self.n_test is not None else ''} |")
        if self.ratios:
            lines.append("")
            lines.append("| ratio | value |")
            lines.append("|---|---|")
            for k, v in self.ratios.items():
                lines.append(f"| {k} | {v:.4g} |")
        if self.warnings:
            lines.append("")
            for w in self.warnings:
                lines.append(f"- warning: {w}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["section", "name", "estimate", "std_error", "t_stat", "p_value"])
            for p in self.params:
                w.writerow(["parameter", p.name, repr(p.estimate),
                            "" if p.std_error is None else repr(p.std_error),
                            "" if p.t_stat is None else repr(p.t_stat),
                            "" if p.p_value is None else repr(p.p_value)])
            for label, value, fixed in self.mu:
                w.writerow(["nest_factor", label, repr(value), "fixed" if fixed else "free", "", ""])
            for name, value in [("ll_train", self.ll_train), ("ll0_train", self.ll0_train),
                                ("rho2_train", self.rho2_train), ("acc_train", self.acc_train),
                                ("n_train", self.n_train), ("ll_test", self.ll_test),
                                ("ll0_test", self.ll0_test), ("rho2_test", self.rho2_test),
                                ("acc_test", self.acc_test), ("n_test", self.n_test)]:
                if value is not None:
                    w.writerow(["metric", name, repr(float(value)), "", "", ""])
            for name, value in self.ratios.items():
                w.writerow(["ratio", name, repr(value), "", "", ""])
            for msg in self.warnings:
                w.writerow(["warning", msg, "", "", "", ""])


def _nest_rows(model: HybridChoiceModel) -> list[tuple[str, float, bool]]:
    if model.nests is None:
        return []
    rows = []
    for g, value, fixed in zip(model.nests.groups, model.nests.mu, model.nests.fixed):
        label = "+".join(str(a) for a in g)
        rows.append((label, float(value), bool(fixed)))
    return rows


def build_report(model: HybridChoiceModel, train: ChoiceDataset,
                 test: ChoiceDataset | None, fit: FitResult,
                 compute_std_errors: bool = True,
                 references: dict[str, float] | None = None,
                 ratio_defs: tuple[tuple[str, str, str], ...] = ()) -> EstimationReport:
    """Fit metrics on train (and test), and std errors unless the fit failed.

    A fit whose status is not "ok" gets no standard errors or t-tests: its
    parameters are a rollback point, not an optimum.  Raises DataError on a
    bad choice, or on no choice variation, in either dataset.
    """
    for name, ds in _named_sets(train, test):
        _check_reportable(name, ds)
    prog = model.program_for(train)
    inputs = numcore.eval_inputs(prog, train.values)  # the one net pass over train
    p_train = numcore.probabilities(prog, numcore.utilities(prog, *inputs), train.avail)
    ll_train = _log_likelihood(p_train, train)
    ll0_train = null_log_likelihood(train)
    report = EstimationReport(
        kind=model.kind,
        params=[],
        mu=_nest_rows(model),
        ll_train=ll_train, ll0_train=ll0_train,
        rho2_train=mcfadden_rho2(ll_train, ll0_train),
        acc_train=_accuracy(p_train, train), n_train=train.n_rows,
        trace=fit.trace, status=fit.status,
    )
    if fit.status != "ok":
        report.warnings.append(
            f"training loss became non-finite at epoch {fit.epochs_run}; "
            f"parameters rolled back to the last finite epoch")
    if ll_train <= ll0_train:
        report.warnings.append(
            f"training log-likelihood {ll_train:.4f} is not above the null "
            f"log-likelihood {ll0_train:.4f}; the fit has not converged")
    if test is not None:
        p_test = predict_probabilities(model, test)
        report.ll_test = _log_likelihood(p_test, test)
        report.ll0_test = null_log_likelihood(test)
        report.rho2_test = mcfadden_rho2(report.ll_test, report.ll0_test)
        report.acc_test = _accuracy(p_test, test)
        report.n_test = test.n_rows
    refs = references or {}
    se = [None] * model.n_parameters
    if compute_std_errors and model.n_parameters > 0:
        if fit.status != "ok":
            report.warnings.append(
                f"standard errors not computed: fit status is {fit.status!r}")
        else:
            se_arr, cov, warns = hessian_std_errors(model, train, _inputs=inputs)
            report.covariance = cov
            report.warnings.extend(warns)
            se = [float(s) for s in se_arr]
    for name, est, s in zip(model.param_names, model.beta, se):
        stat = ParamStat(name, float(est), s, reference=refs.get(name, 0.0))
        if s is not None and math.isfinite(s):
            tt = t_test(stat.estimate, s, stat.reference)
            stat.t_stat, stat.p_value, stat.reject = tt.t_stat, tt.p_value, tt.reject
        report.params.append(stat)
    est = report.estimates()
    for name, num, den in ratio_defs:
        try:
            report.ratios[name] = parameter_ratio(est, num, den)
        except ZeroDivisionError as exc:  # reported, so the run keeps its other results
            report.ratios[name] = math.nan
            report.warnings.append(f"ratio {name!r} is undefined: {exc}")
    return report


def _training_program(model: HybridChoiceModel, train: ChoiceDataset,
                      test: ChoiceDataset | None) -> numcore.ModelProgram:
    """The model's program for ``train``, once both datasets passed its door.

    Raises DataError on an empty training or test set, on a bad choice, on a
    set whose every row has one available alternative (its null
    log-likelihood is 0, so the report's rho-squared is undefined), or on
    what `HybridChoiceModel.program_for` rejects, before any training starts.
    """
    for name, ds in _named_sets(train, test):
        if ds.n_rows == 0:
            raise DataError(f"{name} set has no rows")
        _check_reportable(name, ds)
        model.program_for(ds)
    return model.program(train.columns)


def _named_sets(train: ChoiceDataset, test: ChoiceDataset | None):
    """(name, dataset) of the training set and, when given, the test set."""
    return zip(("training", "test"), (train,) if test is None else (train, test))


def _check_reportable(name: str, ds: ChoiceDataset) -> None:
    """DataError on a bad choice, or on a set whose every row has one available
    alternative: its null log-likelihood is 0, so its rho-squared is undefined."""
    ds.validate_choices()
    if ds.avail.sum() == ds.n_rows:  # each row has its choice available, so one each
        raise DataError(f"{name} set has no choice variation: every row has "
                        f"exactly one available alternative")


def _fit_phases(model: HybridChoiceModel, train: ChoiceDataset, config: TrainConfig,
                phases: tuple[tuple[bool, bool], ...], test: ChoiceDataset | None,
                *report_args) -> EstimationReport:
    """Train the (beta, net) blocks each phase flags, stopping at a diverged phase."""
    prog = _training_program(model, train, test)
    fits = []
    for train_beta, train_net in phases:
        fits.append(fit_program(prog, train.values, train.avail, train.choice, config,
                                train_beta=train_beta, train_net=train_net))
        if fits[-1].status != "ok":
            break
    merged = FitResult(fits[-1].status, sum(f.epochs_run for f in fits),
                       sum(f.steps for f in fits), np.concatenate([f.trace for f in fits]))
    return build_report(model, train, test, merged, *report_args)


def fit_joint(model: HybridChoiceModel, train: ChoiceDataset, config: TrainConfig,
              test: ChoiceDataset | None = None,
              compute_std_errors: bool = True,
              references: dict[str, float] | None = None,
              ratio_defs: tuple[tuple[str, str, str], ...] = ()) -> EstimationReport:
    """Train every parameter block together, then assemble the report."""
    return _fit_phases(model, train, config, ((True, True),), test,
                       compute_std_errors, references, ratio_defs)


def fit_sequential(model: HybridChoiceModel, train: ChoiceDataset, config: TrainConfig,
                   order: str = BETA_THEN_NET, test: ChoiceDataset | None = None,
                   compute_std_errors: bool = True,
                   references: dict[str, float] | None = None,
                   ratio_defs: tuple[tuple[str, str, str], ...] = ()) -> EstimationReport:
    """Two-phase fit: one block trained per phase, the other frozen.

    ``beta_then_net``: the linear block is fitted with the net frozen (a
    zero-initialised net contributes nothing, so this phase is a plain logit
    fit), then the net is trained around the frozen coefficients.
    ``net_then_beta`` is the reverse.  Nest factors train in both phases.
    """
    if order not in _PHASES:
        raise ValueError(f"unknown order {order!r}")
    return _fit_phases(model, train, config, _PHASES[order], test,
                       compute_std_errors, references, ratio_defs)
