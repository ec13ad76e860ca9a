"""Choice model objects: utility specifications, nets, nests, model kinds.

A model's systematic utility is a linear block over named X columns plus,
for the hybrid kinds, a dense-net block over named Q columns emitting one
value per alternative.  Keeping X and Q disjoint makes the net output
constant in every linear attribute, so the linear coefficients keep their
marginal-utility reading; `build_model` enforces that per kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataio import ChoiceDataset, DataError
from .numcore import prng
from .numcore.program import (ModelProgram, empty_net, eval_inputs, first_nonfinite,
                              probabilities, single_nest, utilities)

KIND_LOGIT = "Logit"
KIND_DNN = "DNN"
KIND_DNN_L = "DNN_L"
KIND_LMNL = "LMNL"
KIND_LNL = "LNL"
KIND_DUMMY = "DummyLogit"
KINDS = (KIND_LOGIT, KIND_DNN, KIND_DNN_L, KIND_LMNL, KIND_LNL, KIND_DUMMY)


@dataclass(frozen=True)
class UtilityTerm:
    """One named coefficient applied to (alternative, column) pairs.

    Several entries under one param share the coefficient (a generic
    attribute); a single entry is alternative-specific.
    """

    param: str
    entries: tuple[tuple[str, str], ...]  # (alternative label, column)

    @classmethod
    def of(cls, param: str, entries: dict[str, str]) -> "UtilityTerm":
        return cls(param, tuple(entries.items()))


@dataclass(frozen=True)
class UtilitySpec:
    terms: tuple[UtilityTerm, ...] = ()
    intercepts: tuple[str, ...] = ()  # labels of the alternatives carrying a constant

    def parameter_names(self) -> tuple[str, ...]:
        names: list[str] = [f"asc_{a}" for a in self.intercepts]
        for t in self.terms:
            if t.param in names:
                continue
            names.append(t.param)
        return tuple(names)

    def x_columns(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for t in self.terms:
            for _, col in t.entries:
                seen.setdefault(col, None)
        return tuple(seen)


@dataclass(frozen=True)
class FeaturePartition:
    """Column split: x feeds the linear block, q feeds the net."""

    x: tuple[str, ...] = ()
    q: tuple[str, ...] = ()


@dataclass
class NestStructure:
    """Disjoint groups of alternatives sharing a scale factor mu >= 1.

    Singleton nests have mu pinned at 1 (it is not identified there); the
    rest are free unless ``fixed`` says otherwise.
    """

    groups: tuple[tuple[str, ...], ...]  # alternative labels
    mu: np.ndarray = None  # type: ignore[assignment]
    fixed: tuple[bool, ...] | None = None

    def __post_init__(self) -> None:
        empty = [m for m, g in enumerate(self.groups) if not g]
        if empty:
            raise ValueError(f"nest {empty[0]} has no alternatives")
        if self.mu is None:
            self.mu = np.ones(len(self.groups))
        self.mu = np.asarray(self.mu, dtype=np.float64).copy()
        if self.mu.shape != (len(self.groups),):
            raise ValueError("one mu per nest required")
        if not (np.isfinite(self.mu) & (self.mu >= 1.0)).all():
            raise ValueError(f"nest factors must be finite and satisfy mu >= 1: {self.mu.tolist()}")
        if self.fixed is None:
            self.fixed = tuple(len(g) == 1 for g in self.groups)
        if len(self.fixed) != len(self.groups):
            raise ValueError(f"one fixed flag per nest required: {len(self.fixed)} flags "
                             f"for {len(self.groups)} nests")

    def resolve(self, alt_labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(alt -> nest index, mu_free) with validation of the partition."""
        alt_nest = np.full(len(alt_labels), -1, dtype=np.int64)
        for m, group in enumerate(self.groups):
            for a in group:
                i = _index(a, alt_labels)
                if alt_nest[i] != -1:
                    raise ValueError(f"alternative {alt_labels[i]!r} in more than one nest")
                alt_nest[i] = m
        if (alt_nest == -1).any():
            missing = [alt_labels[i] for i in np.flatnonzero(alt_nest == -1)]
            raise ValueError(f"alternatives not covered by any nest: {missing}")
        mu_free = np.array([0 if f else 1 for f in self.fixed], dtype=np.uint8)
        return alt_nest, mu_free


@dataclass
class RepresentationNet:
    """Dense net over the Q columns, one output per alternative.

    Hidden layers are ReLU with a shared width; the output layer is linear
    and zero-initialised so a fresh net contributes exactly nothing to the
    utilities (frozen-net fits then reduce to plain logit).
    """

    width: int
    depth: int
    w_in: np.ndarray
    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    @classmethod
    def init(cls, n_inputs: int, width: int, n_alts: int, depth: int = 1,
             seed: int = 0) -> "RepresentationNet":
        if width < 1 or depth < 1:
            raise ValueError("net width and depth must be >= 1")
        if n_inputs < 1:
            raise ValueError("a representation net needs at least one input column")
        stream = prng.Stream(seed, prng.StreamId.NET_INIT)
        w_in = stream.glorot(n_inputs, width)
        hidden = [stream.glorot(width, width) for _ in range(depth - 1)]
        w_hidden = np.array(hidden).reshape(depth - 1, width, width)
        return cls(width, depth, w_in, w_hidden, np.zeros((depth, width)),
                   np.zeros((width, n_alts)), np.zeros(n_alts))


def _index(a: str, alt_labels: tuple[str, ...]) -> int:
    try:
        return alt_labels.index(a)
    except ValueError:
        raise ValueError(f"unknown alternative {a!r}; have {list(alt_labels)}") from None


@dataclass
class HybridChoiceModel:
    kind: str
    alt_labels: tuple[str, ...]
    utility: UtilitySpec
    partition: FeaturePartition
    beta: np.ndarray
    param_names: tuple[str, ...]
    net: RepresentationNet | None = None
    nests: NestStructure | None = None
    _programs: dict = field(default_factory=dict, repr=False)

    @property
    def n_parameters(self) -> int:
        return int(self.beta.shape[0])

    def program(self, columns: list[str]) -> ModelProgram:
        """Compile against a column layout; parameter arrays are shared."""
        key = tuple(columns)
        if key not in self._programs:
            self._programs[key] = _compile(self, columns)
        return self._programs[key]

    def program_for(self, ds: ChoiceDataset) -> ModelProgram:
        """The program for ``ds``, after checking the data it will read.

        Every read of a dataset by a model goes through here.  Raises
        DataError when the dataset's alternatives are not the model's, in the
        same order, or on a non-finite value in a column the program reads;
        other columns may hold anything.
        """
        if tuple(ds.alt_labels) != tuple(self.alt_labels):
            raise DataError(f"dataset alternatives {list(ds.alt_labels)} do not match "
                            f"the model's {list(self.alt_labels)}")
        prog = self.program(ds.columns)
        cell = first_nonfinite(prog, ds.values)
        if cell is not None:
            raise DataError(f"row {cell[0]}: non-finite value in column {ds.columns[cell[1]]!r}")
        return prog


def _compile(model: HybridChoiceModel, columns: list[str]) -> ModelProgram:
    col_pos = {c: j for j, c in enumerate(columns)}
    p_pos = {p: j for j, p in enumerate(model.param_names)}
    n_alts = len(model.alt_labels)
    tp: list[int] = []
    ta: list[int] = []
    tc: list[int] = []
    for a in model.utility.intercepts:
        tp.append(p_pos[f"asc_{a}"])
        ta.append(_index(a, model.alt_labels))
        tc.append(-1)
    for t in model.utility.terms:
        for a, col in t.entries:
            if col not in col_pos:
                raise ValueError(f"utility term {t.param!r} references unknown column {col!r}")
            tp.append(p_pos[t.param])
            ta.append(_index(a, model.alt_labels))
            tc.append(col_pos[col])
    if model.net is not None:
        missing = [c for c in model.partition.q if c not in col_pos]
        if missing:
            raise ValueError(f"net inputs reference unknown columns {missing}")
        q_cols = np.array([col_pos[c] for c in model.partition.q], dtype=np.int64)
        net = model.net
        w = (net.w_in, net.w_hidden, net.b_hidden, net.w_out, net.b_out)
    else:
        q_cols = np.zeros(0, dtype=np.int64)
        w = empty_net(n_alts)
    if model.nests is not None:
        alt_nest, mu_free = model.nests.resolve(model.alt_labels)
        mu = model.nests.mu
        use_nests = True
    else:
        alt_nest, mu, mu_free = single_nest(n_alts)
        use_nests = False
    return ModelProgram(
        n_alts, model.n_parameters,
        np.array(tp, dtype=np.int64), np.array(ta, dtype=np.int64), np.array(tc, dtype=np.int64),
        model.beta, q_cols, *w, alt_nest, mu, mu_free, use_nests)


def build_model(kind: str, alt_labels: tuple[str, ...],
                utility: UtilitySpec | None = None,
                q: tuple[str, ...] = (),
                net_width: int = 25, net_depth: int = 1,
                nests: NestStructure | None = None,
                seed: int = 0) -> HybridChoiceModel:
    """Construct a model of one of the supported kinds, enforcing its shape.

    Logit        linear block only, no Q columns.
    DNN          net only, no linear block.
    DNN_L        linear block and net over the same columns.
    LMNL         linear block plus net over disjoint Q columns.
    LNL          LMNL plus a nest structure (requires ``nests``).
    DummyLogit   linear base plus one alternative-specific coefficient per
                 (Q column, alternative); identification is up to the data.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {KINDS}")
    alt_labels = tuple(alt_labels)
    utility = utility or UtilitySpec()
    q = tuple(q)
    for a in utility.intercepts + tuple(a for t in utility.terms for a, _ in t.entries):
        _index(a, alt_labels)  # every alternative is named by its label
    x_cols = utility.x_columns()
    has_linear = bool(utility.terms) or bool(utility.intercepts)

    if kind == KIND_LOGIT:
        if q:
            raise ValueError("Logit takes no Q columns")
        if not has_linear:
            raise ValueError("Logit needs a utility specification")
    elif kind == KIND_DNN:
        if has_linear:
            raise ValueError("DNN takes no linear utility; use LMNL or DNN_L")
        if not q:
            raise ValueError("DNN needs Q columns")
    elif kind == KIND_DNN_L:
        if not has_linear or not q:
            raise ValueError("DNN_L needs both a linear utility and Q columns")
        if set(q) != set(x_cols):
            raise ValueError("DNN_L requires Q to equal the linear columns X")
    elif kind in (KIND_LMNL, KIND_LNL):
        if not has_linear or not q:
            raise ValueError(f"{kind} needs both a linear utility and Q columns")
        overlap = sorted(set(q) & set(x_cols))
        if overlap:
            raise ValueError(f"columns in both X and Q break the interpretability "
                             f"condition dV_net/dx = 0: {overlap}")
        if kind == KIND_LNL and nests is None:
            raise ValueError("LNL needs a nest structure")
    elif kind == KIND_DUMMY:
        if not q:
            raise ValueError("DummyLogit needs Q columns to expand")

    if kind == KIND_DUMMY:
        extra = tuple(UtilityTerm(f"{c}@{a}", ((a, c),))
                      for c in q for a in alt_labels)
        utility = UtilitySpec(utility.terms + extra, utility.intercepts)
        partition = FeaturePartition(x=utility.x_columns(), q=())
        q = ()
    else:
        partition = FeaturePartition(x=x_cols, q=q)

    param_names = utility.parameter_names()
    # coefficients start like a Glorot layer with one output; intercepts are
    # biases and start at zero
    beta = np.zeros(len(param_names))
    n_asc = len(utility.intercepts)
    n_coef = len(param_names) - n_asc
    beta[n_asc:] = prng.Stream(seed, prng.StreamId.BETA_INIT).glorot(n_coef, 1).ravel()
    net = None
    if kind in (KIND_DNN, KIND_DNN_L, KIND_LMNL, KIND_LNL):
        net = RepresentationNet.init(len(q), net_width, len(alt_labels), net_depth, seed)
    if nests is not None:
        nests.resolve(alt_labels)  # fail fast on bad structures
        # private copy: fitting updates the model's mu, not the caller's object
        nests = NestStructure(nests.groups, nests.mu, nests.fixed)
    return HybridChoiceModel(kind, alt_labels, utility, partition, beta,
                             param_names, net, nests)


def systematic_utility(model: HybridChoiceModel, ds: ChoiceDataset) -> np.ndarray:
    """Eval-mode utilities V = linear + net, (n, I)."""
    prog = model.program_for(ds)
    return utilities(prog, *eval_inputs(prog, ds.values))


def predict_probabilities(model: HybridChoiceModel, ds: ChoiceDataset) -> np.ndarray:
    v = systematic_utility(model, ds)
    return probabilities(model.program(ds.columns), v, ds.avail)


def save_model_dict(model: HybridChoiceModel) -> dict:
    d = {
        "format": "lchoice-model",
        "version": 1,
        "kind": model.kind,
        "alt_labels": list(model.alt_labels),
        "utility": {
            "intercepts": list(model.utility.intercepts),
            "terms": [{"param": t.param, "entries": [list(e) for e in t.entries]}
                      for t in model.utility.terms],
        },
        "partition": {"x": list(model.partition.x), "q": list(model.partition.q)},
        "param_names": list(model.param_names),
        "beta": model.beta.tolist(),
    }
    if model.net is not None:
        n = model.net
        d["net"] = {"width": n.width, "depth": n.depth,
                    "w_in": n.w_in.tolist(), "w_hidden": n.w_hidden.tolist(),
                    "b_hidden": n.b_hidden.tolist(), "w_out": n.w_out.tolist(),
                    "b_out": n.b_out.tolist()}
    else:
        d["net"] = None
    if model.nests is not None:
        d["nests"] = {"groups": [list(g) for g in model.nests.groups],
                      "mu": model.nests.mu.tolist(),
                      "fixed": list(model.nests.fixed)}
    else:
        d["nests"] = None
    return d


def load_model_dict(d: dict) -> HybridChoiceModel:
    if d.get("format") != "lchoice-model":
        raise ValueError("not a saved model file")
    alt_labels = tuple(d["alt_labels"])
    utility = UtilitySpec(
        tuple(UtilityTerm(t["param"], tuple((a, c) for a, c in t["entries"]))
              for t in d["utility"]["terms"]),
        tuple(d["utility"]["intercepts"]))
    net = None
    if d["net"] is not None:
        n = d["net"]
        net = RepresentationNet(n["width"], n["depth"],
                                np.array(n["w_in"], dtype=np.float64).reshape(len(d["partition"]["q"]), n["width"]),
                                np.array(n["w_hidden"], dtype=np.float64).reshape(n["depth"] - 1, n["width"], n["width"]),
                                np.array(n["b_hidden"], dtype=np.float64).reshape(n["depth"], n["width"]),
                                np.array(n["w_out"], dtype=np.float64).reshape(n["width"], len(alt_labels)),
                                np.array(n["b_out"], dtype=np.float64))
    nests = None
    if d["nests"] is not None:
        nests = NestStructure(tuple(tuple(g) for g in d["nests"]["groups"]),
                              np.array(d["nests"]["mu"], dtype=np.float64),
                              tuple(d["nests"]["fixed"]))
    return HybridChoiceModel(d["kind"], alt_labels, utility,
                             FeaturePartition(tuple(d["partition"]["x"]), tuple(d["partition"]["q"])),
                             np.array(d["beta"], dtype=np.float64), tuple(d["param_names"]),
                             net, nests)


def save_model(model: HybridChoiceModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(save_model_dict(model), fh, indent=1)


def load_model(path: str) -> HybridChoiceModel:
    with open(path) as fh:
        return load_model_dict(json.load(fh))
