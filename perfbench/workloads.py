"""The four estimation workloads, driven through the public lchoice API.

Each workload makes its inputs from the run seed, warms up at the shapes it
will time, and then runs one complete estimate per `estimate` call.  The
program sees only the generated inputs.  Every fit an estimate produces is
returned as a `FitOutputs` record so that `check` can judge it.

Why these four (see README.md for the metrics each should move):

lmnl_small  the paper's synthetic-study unit; small batches, so per-step
            call overhead dominates training.
deep_wide   wide, deep net on large batches; the dense products dominate,
            and a per-step overhead fix should not move it.
lnl_survey  three alternatives, intercepts, nests with a trained scale
            factor, and an estimate that starts from a CSV file.
campaign    many small independent fits in worker processes, the only
            workload that runs synthgen and analysis in the timed path.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from lchoice import analysis, dataio, estimation, models, synthgen
from lchoice.numcore import TrainConfig, prng

from hostspeed import HostSpeed, StepKernel
from stages import batch_sizes

# Seconds per step of each workload's host-speed kernel: the typical mean
# over a run on the test machine (2 vCPUs of an Intel Xeon at 2.1 GHz, numpy
# 2.4 with OpenBLAS 0.3.31), so that the timed metrics read close to the wall
# times measured there.  They only set the scale: a comparison between two
# commits is unaffected, so long as both use the same values.
REFERENCE_STEP_S = {"lmnl_small": 55e-6, "deep_wide": 2.8e-3, "lnl_survey": 57e-6,
                    "campaign": 55e-6}


@dataclass
class FitOutputs:
    """What the output checks read from one fit."""

    label: str
    status: str
    ll_train: float
    ll0_train: float
    params: dict[str, float]
    se_ok: bool  # standard errors finite and positive where computed
    mu: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)  # found while collecting


@dataclass
class Estimate:
    seconds: float  # dataset (or CSV path) to finished report(s)
    fits: list[FitOutputs]
    steps: int | None = None  # minibatch steps, when the benchmark cannot time fit_program


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check(fit: FitOutputs, ref: dict | None, tol: float) -> list[str]:
    """Problems with one fit; an empty list means it passed.

    Any seed: status ok, finite positive standard errors, and a training
    log-likelihood above the null.  At a seed with reference values: the
    training log-likelihood, every coefficient and every nest factor
    within ``tol`` (relative, absolute below 1) of the reference.
    """
    problems = list(fit.problems)
    if fit.status != "ok":
        problems.append(f"status {fit.status!r}")
    if not fit.se_ok:
        problems.append("standard errors not finite and positive")
    if not fit.ll_train > fit.ll0_train:
        problems.append(f"ll_train {fit.ll_train} not above ll0_train {fit.ll0_train}")
    if ref is not None:
        if not _close(fit.ll_train, ref["ll_train"], tol):
            problems.append(f"ll_train {fit.ll_train!r} != reference {ref['ll_train']!r}")
        for group in ("params", "mu"):
            got = getattr(fit, group)
            for k, v in ref[group].items():
                if k not in got or not _close(got[k], v, tol):
                    problems.append(f"{group}[{k}] {got.get(k)!r} != reference {v!r}")
    return problems


def reference_record(fit: FitOutputs) -> dict:
    return {"ll_train": fit.ll_train, "params": fit.params, "mu": fit.mu}


def _generic(name: str, col: str) -> models.UtilityTerm:
    return models.UtilityTerm.of(name, {"1": f"{col}1", "2": f"{col}2"})


class SingleFit:
    """One model fitted to one dataset, with standard errors and predictions."""

    jobs = 1

    def __init__(self, name: str, kind: str, alts: tuple[str, ...],
                 utility: models.UtilitySpec, q: tuple[str, ...], width: int,
                 depth: int, config: TrainConfig,
                 nests: models.NestStructure | None = None) -> None:
        self.name, self.kind, self.alts = name, kind, alts
        self.utility, self.q, self.width, self.depth = utility, q, width, depth
        self.nests, self.base_config = nests, config
        self.seed = 0

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.config = replace(self.base_config, seed=seed)
        self.make_inputs(workdir)
        self.warm_up()

    def make_inputs(self, workdir: str) -> None:
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove files `setup` wrote."""

    def inputs(self) -> tuple[dataio.ChoiceDataset, dataio.ChoiceDataset]:
        raise NotImplementedError

    def host_speed(self) -> HostSpeed:
        """The speed kernel at this workload's batch, input, net and choice shapes."""
        c = self.config
        kernel = StepKernel(c.batch_size, len(self.q), self.width, self.depth,
                            len(self.alts), c.dropout)
        return HostSpeed(kernel, REFERENCE_STEP_S[self.name])

    def warm_up(self) -> None:
        """First fit, Hessian, report and prediction at the timed shapes."""
        self._run(replace(self.config, epochs=1))

    def estimate(self) -> Estimate:
        return self._run(self.config)

    def _run(self, config: TrainConfig) -> Estimate:
        t0 = time.perf_counter()
        train, test = self.inputs()
        model = models.build_model(self.kind, self.alts, self.utility, q=self.q,
                                   net_width=self.width, net_depth=self.depth,
                                   nests=self.nests, seed=self.seed)
        model.program(train.columns)
        report = estimation.fit_joint(model, train, config, test=test)
        seconds = time.perf_counter() - t0
        probs = models.predict_probabilities(model, test)
        problems = []
        if not (np.isfinite(probs).all() and np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)):
            problems.append("held-out probabilities not finite or not summing to 1")
        se = [p.std_error for p in report.params]
        fit = FitOutputs(
            self.name, report.status, report.ll_train, report.ll0_train,
            report.estimates(),
            all(s is not None and math.isfinite(s) and s > 0 for s in se),
            {label: value for label, value, fixed in report.mu if not fixed},
            problems)
        return Estimate(seconds, [fit])


class BinarySynthetic(SingleFit):
    def __init__(self, name: str, n_train: int, n_test: int, **kw) -> None:
        super().__init__(name, "LMNL", ("1", "2"),
                         models.UtilitySpec(tuple(_generic(f"beta_{c}", c) for c in "pab")),
                         ("q1", "c1", "q2", "c2"), **kw)
        self.spec = analysis.DataSpec("binary", n_train, n_test)

    def make_inputs(self, workdir: str) -> None:
        self.train, self.test, _ = self.spec.make(self.seed)

    def inputs(self):
        return self.train, self.test


class SurveyCsv(SingleFit):
    """LNL over a semi-synthetic Swissmetro-like file, loaded per estimate."""

    ALTS = ("Train", "SM", "Car")

    def __init__(self, name: str) -> None:
        tt = models.UtilityTerm.of("beta_tt", {a: f"TT_{a}" for a in self.ALTS})
        tc = models.UtilityTerm.of("beta_tc", {a: f"TC_{a}" for a in self.ALTS})
        super().__init__(name, "LNL", self.ALTS,
                         models.UtilitySpec((tt, tc), intercepts=("Train", "SM")),
                         synthgen.SEMI_SYNTH_CATS, 25, 1, TrainConfig(epochs=20),
                         nests=models.NestStructure((("Car", "Train"), ("SM",))))
        self.n_rows = 9036

    def make_inputs(self, workdir: str) -> None:
        self.path = os.path.join(workdir, f"survey-{self.seed}-{os.getpid()}.csv")
        synthgen.gen_semi_synthetic(n=self.n_rows, seed=self.seed).to_csv(self.path)

    def inputs(self):
        ds = dataio.load_csv(self.path, dataio.generic_schema(self.ALTS))
        return dataio.split(ds, 0.8, self.seed)

    def cleanup(self) -> None:
        os.remove(self.path)


class Campaign:
    """Monte Carlo replications of the binary model zoo across worker processes."""

    name = "campaign"
    jobs = 2
    replications = 4

    def __init__(self) -> None:
        self.spec = analysis.DataSpec("binary", 1000, 200)
        self.zoo = analysis.binary_zoo(25)
        # at the default learning rate of 0.001, 50 epochs leave some logit
        # fits below the null log-likelihood (seeds 15 and 16); 0.01 converges
        # every model with the same work per step
        self.base_config = TrainConfig(epochs=50, learning_rate=0.01)

    def setup(self, seed: int, workdir: str) -> None:
        self.seeds = [prng.derive_seed(seed, 100 + r) for r in range(self.replications)]
        self.ll0 = {s: estimation.null_log_likelihood(self.spec.make(s)[0]) for s in self.seeds}
        per_fit = self.base_config.epochs * len(batch_sizes(self.spec.n_train,
                                                            self.base_config.batch_size))
        self.steps = per_fit * len(self.zoo) * self.replications
        # serial first fit and Hessian of every model, so forked workers
        # inherit a warm interpreter
        analysis.monte_carlo(self.spec, self.zoo, 1, replace(self.base_config, epochs=1),
                             seeds=self.seeds[:1], with_tests=True, jobs=1)

    def host_speed(self) -> HostSpeed:
        """The speed kernel at the shapes of the zoo's LMNL model."""
        lmnl = next(r for r in self.zoo if r.kind == "LMNL")
        c = self.base_config
        kernel = StepKernel(c.batch_size, len(lmnl.q), lmnl.net_width, lmnl.net_depth, 2,
                            c.dropout)
        return HostSpeed(kernel, REFERENCE_STEP_S[self.name])

    def estimate(self) -> Estimate:
        t0 = time.perf_counter()
        res = analysis.monte_carlo(self.spec, self.zoo, self.replications, self.base_config,
                                   seeds=self.seeds, with_tests=True, jobs=self.jobs)
        seconds = time.perf_counter() - t0
        self.last = {(o.model, o.rep): o for o in res.outcomes}
        fits = [self._outputs(o) for o in res.outcomes]
        fits += [FitOutputs(f"{f['model']}#{f['rep']}", "raised", math.nan, math.nan, {},
                            False, problems=[f"raised: {f['error']}"])
                 for f in res.failures]
        return Estimate(seconds, fits, self.steps)

    def cleanup(self) -> None:
        """Nothing to remove: the campaign keeps its data in memory."""

    def _outputs(self, o) -> FitOutputs:
        # outcome records carry no standard errors; a finite delta-method
        # ratio test needs a finite, positive variance for both coefficients
        se_ok = o.nonreject_ratio is not None if {"beta_p", "beta_a"} <= set(o.params) else True
        return FitOutputs(f"{o.model}#{o.rep}", o.status, o.ll_train, self.ll0[o.seed],
                          dict(o.params), se_ok)

    def replay(self, tracer) -> tuple[int, list[str]]:
        """Re-run each replication serially in this process, one traced run each.

        Returns the number of fits replayed and a problem line for each whose
        serial result differs from the parallel one.
        """
        problems = []
        for recipe in self.zoo:
            for r, s in enumerate(self.seeds):
                tracer.run = f"replay:{recipe.kind}:{recipe.name}:{r}"
                res = analysis.monte_carlo(self.spec, (recipe,), 1, self.base_config,
                                           seeds=[s], with_tests=True, jobs=1)
                serial = res.outcomes[0].ll_train if res.outcomes else math.nan
                parallel = self.last.get((recipe.name, r))
                if parallel is None or serial != parallel.ll_train:
                    problems.append(f"{recipe.name}#{r}: serial replay ll_train {serial!r} "
                                    f"differs from the parallel run")
        return len(self.zoo) * len(self.seeds), problems


def make(name: str):
    if name == "lmnl_small":
        return BinarySynthetic(name, 1000, 200, width=25, depth=1,
                               config=TrainConfig(epochs=200, batch_size=50, dropout=0.2))
    if name == "deep_wide":
        # at the default learning rate of 0.001, 400 steps leave this net far
        # from converged (at seed 4, ll_train ends below the null); 0.01
        # recovers the true coefficients and does the same work per step
        return BinarySynthetic(name, 20000, 4000, width=100, depth=3,
                               config=TrainConfig(epochs=10, batch_size=500, dropout=0.2,
                                                  learning_rate=0.01))
    if name == "lnl_survey":
        return SurveyCsv(name)
    if name == "campaign":
        return Campaign()
    raise KeyError(name)


NAMES = ("lmnl_small", "deep_wide", "lnl_survey", "campaign")
