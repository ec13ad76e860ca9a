"""Synthetic choice data generators with recorded ground truth.

Every generator is a pure function of its `DataSpec` and seed (same inputs,
bit-identical dataset) and stores the generating coefficients in the
dataset's ``meta["truth"]`` so recovery experiments can score themselves.
Binary scenarios simulate the choice through the logistic of the utility
difference (equivalent to two Gumbel draws); the three-alternative
generator uses explicit Gumbel(0, 1) draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .dataio import ChoiceDataset
from .numcore import prng


def _require_count(name: str, n, least: int) -> None:
    if not isinstance(n, Integral) or isinstance(n, bool) or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")


@dataclass(frozen=True)
class DataSpec:
    """Named synthetic scenario regenerated per replication seed, checked when built.

    binary reads beta_p, beta_a, beta_b and beta_qc; correlated also reads s,
    unobserved also beta_u; guevara reads only the row counts."""

    scenario: str = "binary"  # a key of SCENARIOS
    n_train: int = 1000
    n_test: int = 200
    beta_p: float = -1.0
    beta_a: float = 0.5
    beta_b: float = 0.5
    beta_qc: float = 1.0
    s: float = 0.0
    beta_u: float = 1.0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}, not one of {list(SCENARIOS)}")
        _require_count("n_train", self.n_train, 1)
        _require_count("n_test", self.n_test, 0)
        for name in ("beta_p", "beta_a", "beta_b", "beta_qc", "s", "beta_u"):
            x = getattr(self, name)
            if not isinstance(x, Real) or isinstance(x, bool) or not math.isfinite(x):
                raise ValueError(f"{name} must be a finite number, got {x!r}")
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"correlation level s must be in [0, 1], got {self.s!r}")

    def dataset(self, seed: int) -> ChoiceDataset:
        """All n_train + n_test rows of the scenario at ``seed``, truth in its meta."""
        return SCENARIOS[self.scenario](self, seed)

    def make(self, seed: int) -> tuple[ChoiceDataset, ChoiceDataset, dict]:
        """(train, test, truth): the first n_train rows train, the rest test."""
        ds = self.dataset(seed)
        rows = np.arange(ds.n_rows)
        return (ds.subset(rows[:self.n_train]), ds.subset(rows[self.n_train:]),
                dict(ds.meta["truth"]))


def _binary_variables(spec: DataSpec, seed: int) -> dict[str, np.ndarray]:
    """Raw per-alternative variables, drawn in a fixed order.

    The price-like variable is p = 5 + z + 0.03*wz + noise; the net-side
    feature is q = 2*h + k + noise with k = h + noise, so q carries shared
    structure without touching p.  All base draws and noises are U([-1, 1]).
    """
    rng = prng.Stream(seed, prng.StreamId.BINARY)
    n = spec.n_train + spec.n_test
    out: dict[str, np.ndarray] = {}
    for alt in ("1", "2"):
        z = rng.uniform(n, -1, 1)
        wz = rng.uniform(n, -1, 1)
        eps_p = rng.uniform(n, -1, 1)
        a = rng.uniform(n, -1, 1)
        b = rng.uniform(n, -1, 1)
        c = rng.uniform(n, -1, 1)
        h = rng.uniform(n, -1, 1)
        eps_k = rng.uniform(n, -1, 1)
        eps_q = rng.uniform(n, -1, 1)
        k = h + eps_k
        out[f"p{alt}"] = 5.0 + z + 0.03 * wz + eps_p
        out[f"a{alt}"] = a
        out[f"b{alt}"] = b
        out[f"c{alt}"] = c
        out[f"q{alt}"] = 2.0 * h + k + eps_q
    out["_choice_u"] = rng.draw(n)
    return out


def _binary_dataset(spec: DataSpec, seed: int, var: dict[str, np.ndarray],
                    extra_v: np.ndarray | None = None,
                    scenario_name: str = "binary",
                    extra_truth: dict | None = None) -> ChoiceDataset:
    """Two alternatives, V = bp*p + ba*a + bb*b + bqc*q*c each, plus ``extra_v`` (n, 2)."""
    n = spec.n_train + spec.n_test
    v = np.zeros((n, 2))
    for i, alt in enumerate(("1", "2")):
        v[:, i] = (spec.beta_p * var[f"p{alt}"] + spec.beta_a * var[f"a{alt}"]
                   + spec.beta_b * var[f"b{alt}"] + spec.beta_qc * var[f"q{alt}"] * var[f"c{alt}"])
    if extra_v is not None:
        v += extra_v
    p1 = 1.0 / (1.0 + np.exp(-(v[:, 0] - v[:, 1])))
    choice = np.where(var["_choice_u"] < p1, 0, 1).astype(np.int64)
    for alt in ("1", "2"):
        var[f"qc{alt}"] = var[f"q{alt}"] * var[f"c{alt}"]
    names = [f"{base}{alt}" for alt in ("1", "2") for base in ("p", "a", "b", "q", "c", "qc")]
    values = np.stack([var[c] for c in names], axis=1)
    truth = {"beta_p": spec.beta_p, "beta_a": spec.beta_a,
             "beta_b": spec.beta_b, "beta_qc": spec.beta_qc}
    if extra_truth:
        truth.update(extra_truth)
    meta = {"scenario": scenario_name, "seed": seed, "truth": truth}
    return ChoiceDataset(names, values, np.ones((n, 2)), choice, ["1", "2"], meta)


def gen_binary(spec: DataSpec, seed: int) -> ChoiceDataset:
    """Baseline binary scenario; columns p,a,b,q,c,qc per alternative."""
    return _binary_dataset(spec, seed, _binary_variables(spec, seed))


def gen_correlated(spec: DataSpec, seed: int) -> ChoiceDataset:
    """Binary scenario with q replaced by q' = s*p + sqrt(1-s^2)*q.

    The substitution happens before utilities are computed, so the unknown
    interaction becomes q'*c.  s = 0 reproduces `gen_binary` exactly; s = 1
    makes the net input a copy of the price variable.
    """
    var = _binary_variables(spec, seed)
    if spec.s > 0.0:
        w = float(np.sqrt(1.0 - spec.s * spec.s))
        for alt in ("1", "2"):
            var[f"q{alt}"] = spec.s * var[f"p{alt}"] + w * var[f"q{alt}"]
    return _binary_dataset(spec, seed, var, scenario_name="correlated",
                           extra_truth={"s": spec.s})


def gen_with_unobserved(spec: DataSpec, seed: int) -> ChoiceDataset:
    """Binary scenario plus an unobserved term beta_u * u, u ~ U([-1, 1]).

    The u draws shift the utilities but are not emitted as columns, so every
    model faces irreducible unexplained variation.
    """
    var = _binary_variables(spec, seed)
    rng = prng.Stream(seed, prng.StreamId.UNOBSERVED)
    u = np.stack([rng.uniform(spec.n_train + spec.n_test, -1, 1) for _ in range(2)], axis=1)
    return _binary_dataset(spec, seed, var, extra_v=spec.beta_u * u,
                           scenario_name="unobserved",
                           extra_truth={"beta_u": spec.beta_u})


def gen_guevara(spec: DataSpec, seed: int) -> ChoiceDataset:
    """Binary scenario with an endogenous price: p = 5 + q + z + 0.03*wz*z + noise.

    q enters both the price equation and the utility (coefficient 1), so a
    logit that omits q suffers classic omitted-variable bias on the price
    coefficient.  All draws are U([-2, 2]); V = -2*p + a + b + q.
    """
    rng = prng.Stream(seed, prng.StreamId.GUEVARA)
    n = spec.n_train + spec.n_test
    truth = {"beta_p": -2.0, "beta_a": 1.0, "beta_b": 1.0, "beta_q": 1.0}
    names: list[str] = []
    cols: list[np.ndarray] = []
    v = np.zeros((n, 2))
    for i, alt in enumerate(("1", "2")):
        q = rng.uniform(n, -2, 2)
        z = rng.uniform(n, -2, 2)
        wz = rng.uniform(n, -2, 2)
        eps_p = rng.uniform(n, -2, 2)
        a = rng.uniform(n, -2, 2)
        b = rng.uniform(n, -2, 2)
        p = 5.0 + q + z + 0.03 * wz + eps_p
        v[:, i] = -2.0 * p + a + b + q
        names += [f"p{alt}", f"a{alt}", f"b{alt}", f"q{alt}"]
        cols += [p, a, b, q]
    u = rng.draw(n)
    p1 = 1.0 / (1.0 + np.exp(-(v[:, 0] - v[:, 1])))
    choice = np.where(u < p1, 0, 1).astype(np.int64)
    meta = {"scenario": "guevara", "seed": seed, "truth": truth}
    return ChoiceDataset(names, np.stack(cols, axis=1), np.ones((n, 2)), choice,
                         ["1", "2"], meta)


SCENARIOS = {"binary": gen_binary, "correlated": gen_correlated,
             "unobserved": gen_with_unobserved, "guevara": gen_guevara}


SEMI_SYNTH_CATS = ("AGE", "DEST", "ORIGIN", "INCOME", "PURPOSE")
SEMI_SYNTH_LEVEL = {"TT": -1.0, "TC": -2.0}


def sample_attribute_table(n: int, seed: int) -> ChoiceDataset:
    """Stand-in attribute table with Swissmetro-like marginals.

    Travel times and costs are in the same 1/100-scaled units the canonical
    preprocessing produces; category codes span the canonical ranges.  Used
    by `gen_semi_synthetic` when no real attribute table is supplied.
    """
    _require_count("n", n, 1)
    rng = prng.Stream(seed, prng.StreamId.ATTRIBUTE_TABLE)
    cols = {
        "TT_Train": rng.uniform(n, 0.6, 3.0),
        "TT_SM": rng.uniform(n, 0.3, 1.6),
        "TT_Car": rng.uniform(n, 0.4, 2.8),
        "TC_Train": rng.uniform(n, 0.2, 1.6),
        "TC_SM": rng.uniform(n, 0.3, 2.0),
        "TC_Car": rng.uniform(n, 0.3, 1.8),
        "AGE": np.floor(rng.uniform(n, 1, 6)).clip(1, 5),
        "DEST": np.floor(rng.uniform(n, 1, 27)).clip(1, 26),
        "ORIGIN": np.floor(rng.uniform(n, 1, 27)).clip(1, 26),
        "INCOME": np.floor(rng.uniform(n, 0, 5)).clip(0, 4),
        "PURPOSE": np.floor(rng.uniform(n, 1, 10)).clip(1, 9),
    }
    values = np.stack(list(cols.values()), axis=1)
    return ChoiceDataset(list(cols), values, np.ones((n, 3)),
                         np.zeros(n, dtype=np.int64), ["Train", "SM", "Car"],
                         {"scenario": "attribute_table", "seed": seed})


def _minmax(x: np.ndarray) -> np.ndarray:
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def gen_semi_synthetic(source: ChoiceDataset | None = None, n: int = 9036,
                       seed: int = 0, cat_span: float = 1.0) -> ChoiceDataset:
    """Three alternatives over a real or sampled attribute table.

    The systematic utilities combine a linear level -1*TT_i - 2*TC_i with
    power-series cross terms of min-max scaled socio attributes:

        Train: + DEST^3*AGE - AGE^0.5*ORIGIN
        SM:    + DEST*AGE + 3*INCOME^5*PURPOSE^2
        Car:   + 5*AGE*INCOME^5 + 2*ORIGIN^2*INCOME^5

    Category codes are min-max scaled to [0, cat_span] before entering both
    the power series and the emitted feature columns; the span controls how
    hard the planted terms distort a linear-only fit, since the high powers
    amplify anything above 1.  Choices are argmax of utility plus
    Gumbel(0, 1) noise.  Emitted columns are TT_*, TC_* plus the scaled
    socio attributes.
    """
    if source is None:
        source = sample_attribute_table(n, seed)
    for c in ("TT_Train", "TT_SM", "TT_Car", "TC_Train", "TC_SM", "TC_Car") + SEMI_SYNTH_CATS:
        if c not in source.columns:
            raise ValueError(f"attribute table is missing column {c!r}")
    if cat_span <= 0:
        raise ValueError("cat_span must be positive")
    rows = source.n_rows
    age = cat_span * _minmax(source.col("AGE"))
    dest = cat_span * _minmax(source.col("DEST"))
    origin = cat_span * _minmax(source.col("ORIGIN"))
    income = cat_span * _minmax(source.col("INCOME"))
    purpose = cat_span * _minmax(source.col("PURPOSE"))
    tt = {a: source.col(f"TT_{a}") for a in ("Train", "SM", "Car")}
    tc = {a: source.col(f"TC_{a}") for a in ("Train", "SM", "Car")}
    v = np.zeros((rows, 3))
    for i, a in enumerate(("Train", "SM", "Car")):
        v[:, i] = SEMI_SYNTH_LEVEL["TT"] * tt[a] + SEMI_SYNTH_LEVEL["TC"] * tc[a]
    v[:, 0] += dest ** 3 * age - np.sqrt(age) * origin
    v[:, 1] += dest * age + 3.0 * income ** 5 * purpose ** 2
    v[:, 2] += 5.0 * age * income ** 5 + 2.0 * origin ** 2 * income ** 5
    rng = prng.Stream(seed, prng.StreamId.SEMI_SYNTH_NOISE)
    g = np.stack([rng.gumbel(rows) for _ in range(3)], axis=1)
    choice = (v + g).argmax(axis=1).astype(np.int64)
    names = ["TT_Train", "TT_SM", "TT_Car", "TC_Train", "TC_SM", "TC_Car",
             "AGE", "DEST", "ORIGIN", "INCOME", "PURPOSE"]
    values = np.stack([tt["Train"], tt["SM"], tt["Car"], tc["Train"], tc["SM"], tc["Car"],
                       age, dest, origin, income, purpose], axis=1)
    meta = {"scenario": "semi_synthetic", "seed": seed, "cat_span": cat_span,
            "truth": {"b_tt": SEMI_SYNTH_LEVEL["TT"], "b_tc": SEMI_SYNTH_LEVEL["TC"]}}
    return ChoiceDataset(names, values, np.ones((rows, 3)), choice,
                         ["Train", "SM", "Car"], meta)
