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
from .numcore.program import (NET_TENSORS, ModelProgram, empty_net, eval_inputs, first_nonfinite,
                              probabilities, single_nest, utilities)

KIND_LOGIT = "Logit"
KIND_DNN = "DNN"
KIND_DNN_L = "DNN_L"
KIND_LMNL = "LMNL"
KIND_LNL = "LNL"
KIND_DUMMY = "DummyLogit"
KINDS = (KIND_LOGIT, KIND_DNN, KIND_DNN_L, KIND_LMNL, KIND_LNL, KIND_DUMMY)
NET_KINDS = (KIND_DNN, KIND_DNN_L, KIND_LMNL, KIND_LNL)  # the kinds with a net over Q columns


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
    utilities (frozen-net fits then reduce to plain logit).  The width and
    depth are the shape of ``b_hidden``, (depth, width).
    """

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
        return cls(w_in, w_hidden, np.zeros((depth, width)),
                   np.zeros((width, n_alts)), np.zeros(n_alts))


def _index(a: str, alt_labels: tuple[str, ...]) -> int:
    try:
        return alt_labels.index(a)
    except ValueError:
        raise ValueError(f"unknown alternative {a!r}; have {list(alt_labels)}") from None


@dataclass
class HybridChoiceModel:
    """The linear block reads ``utility.x_columns()``; the net reads ``q``."""

    kind: str
    alt_labels: tuple[str, ...]
    utility: UtilitySpec
    q: tuple[str, ...]
    beta: np.ndarray
    net: RepresentationNet | None = None
    nests: NestStructure | None = None
    _programs: dict = field(default_factory=dict, repr=False)

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.utility.parameter_names()

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
    tp, ta, tc = [], [], []
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
        if missing := [c for c in model.q if c not in col_pos]:
            raise ValueError(f"net inputs reference unknown columns {missing}")
        q_cols = np.array([col_pos[c] for c in model.q], dtype=np.int64)
        w = tuple(getattr(model.net, k) for k in NET_TENSORS)
    else:
        q_cols = np.zeros(0, dtype=np.int64)
        w = empty_net(n_alts)
    use_nests = model.nests is not None
    if use_nests:
        alt_nest, mu_free = model.nests.resolve(model.alt_labels)
        mu = model.nests.mu
    else:
        alt_nest, mu, mu_free = single_nest(n_alts)
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
        if overlap := sorted(set(q) & set(x_cols)):
            raise ValueError(f"columns in both X and Q break the interpretability "
                             f"condition dV_net/dx = 0: {overlap}")
        if kind == KIND_LNL and nests is None:
            raise ValueError("LNL needs a nest structure")
    elif kind == KIND_DUMMY:
        if not q:
            raise ValueError("DummyLogit needs Q columns to expand")
        extra = tuple(UtilityTerm(f"{c}@{a}", ((a, c),))
                      for c in q for a in alt_labels)
        utility = UtilitySpec(utility.terms + extra, utility.intercepts)
        q = ()

    # coefficients start like a Glorot layer with one output; intercepts are
    # biases and start at zero
    beta = np.zeros(len(utility.parameter_names()))
    n_asc = len(utility.intercepts)
    beta[n_asc:] = prng.Stream(seed, prng.StreamId.BETA_INIT).glorot(len(beta) - n_asc, 1).ravel()
    net = (RepresentationNet.init(len(q), net_width, len(alt_labels), net_depth, seed)
           if kind in NET_KINDS else None)
    if nests is not None:
        nests.resolve(alt_labels)  # fail fast on bad structures
        # private copy: fitting updates the model's mu, not the caller's object
        nests = NestStructure(nests.groups, nests.mu, nests.fixed)
    return HybridChoiceModel(kind, alt_labels, utility, q, beta, net, nests)


def systematic_utility(model: HybridChoiceModel, ds: ChoiceDataset) -> np.ndarray:
    """Eval-mode utilities V = linear + net, (n, I)."""
    prog = model.program_for(ds)
    return utilities(prog, *eval_inputs(prog, ds.values))


def predict_probabilities(model: HybridChoiceModel, ds: ChoiceDataset) -> np.ndarray:
    v = systematic_utility(model, ds)
    return probabilities(model.program(ds.columns), v, ds.avail)


def save_model_dict(model: HybridChoiceModel) -> dict:
    """Format version 1; ``load_model_dict`` checks its derived keys."""
    net, nests = model.net, model.nests
    return {
        "format": "lchoice-model", "version": 1,
        "kind": model.kind, "alt_labels": list(model.alt_labels),
        "utility": {"intercepts": list(model.utility.intercepts),
                    "terms": [{"param": t.param, "entries": [list(e) for e in t.entries]}
                              for t in model.utility.terms]},
        "partition": {"x": list(model.utility.x_columns()), "q": list(model.q)},
        "param_names": list(model.param_names),
        "beta": model.beta.tolist(),
        "net": None if net is None else {
            "width": net.b_hidden.shape[1], "depth": net.b_hidden.shape[0],
            **{k: getattr(net, k).tolist() for k in NET_TENSORS}},
        "nests": None if nests is None else {
            "groups": [list(g) for g in nests.groups], "mu": nests.mu.tolist(),
            "fixed": list(nests.fixed)},
    }


def _agree(key: str, stated, implied) -> None:
    if stated != implied:
        raise ValueError(f"model file {key} {stated!r} disagrees with the implied {implied!r}")


def _tensor(net: dict, key: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    try:
        a = np.array(net[key], dtype=np.float64)
    except ValueError:  # ragged rows, or an entry that is not a number
        raise ValueError(f"model file net {key} is not an array of numbers") from None
    if shape is not None:
        if a.size == 0 == np.prod(shape):  # a net of depth 1 stores w_hidden as []
            a = a.reshape(shape)
        _agree(f"net {key} shape", a.shape, shape)
    return a


def load_model_dict(d: dict) -> HybridChoiceModel:
    """The model a saved dict describes, read from its independent keys: kind, labels,
    utility, ``partition.q``, ``beta``, net tensors and nests.  A version other than 1, or a
    key missing or disagreeing with what those or the kind imply, raises ValueError naming it."""
    if not isinstance(d, dict) or d.get("format") != "lchoice-model":
        raise ValueError("not a saved model file")
    try:
        if d["version"] != 1:
            raise ValueError(f"model file version {d['version']!r} is not 1, the only one read")
        if d["kind"] not in KINDS:
            raise ValueError(f"model file kind {d['kind']!r} is not one of {KINDS}")
        alt_labels, q = tuple(d["alt_labels"]), tuple(d["partition"]["q"])
        if not (d["kind"] in NET_KINDS) == (d["net"] is not None) == bool(q):
            raise ValueError(f"model file net and partition.q disagree with kind {d['kind']!r}")
        if d["kind"] == KIND_LNL and d["nests"] is None:  # as build_model refuses it
            raise ValueError("model file kind 'LNL' needs a nest structure, but nests is null")
        utility = UtilitySpec(
            tuple(UtilityTerm(t["param"], tuple((a, c) for a, c in t["entries"]))
                  for t in d["utility"]["terms"]),
            tuple(d["utility"]["intercepts"]))
        _agree("partition.x", tuple(d["partition"]["x"]), utility.x_columns())
        _agree("param_names", tuple(d["param_names"]), utility.parameter_names())
        beta = np.array(d["beta"], dtype=np.float64)
        _agree("beta shape", beta.shape, (len(utility.parameter_names()),))
        net = nests = None
        if (n := d["net"]) is not None:
            shape = _tensor(n, "b_hidden").shape
            _agree("net (depth, width)", (n["depth"], n["width"]), shape)
            depth, width = shape
            shapes = ((len(q), width), (depth - 1, width, width), shape,
                      (width, len(alt_labels)), (len(alt_labels),))
            net = RepresentationNet(*(_tensor(n, k, s) for k, s in zip(NET_TENSORS, shapes)))
        if (ns := d["nests"]) is not None:
            nests = NestStructure(tuple(tuple(g) for g in ns["groups"]),
                                  np.array(ns["mu"], dtype=np.float64), tuple(ns["fixed"]))
    except KeyError as exc:
        raise ValueError(f"model file lacks the key {exc.args[0]!r}") from None
    return HybridChoiceModel(d["kind"], alt_labels, utility, q, beta, net, nests)


def save_model(model: HybridChoiceModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(save_model_dict(model), fh, indent=1)


def load_model(path: str) -> HybridChoiceModel:
    """The model saved at ``path``; every model file is read through here."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except (FileNotFoundError, IsADirectoryError):
        raise ValueError(f"model file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"model file {path} is not JSON: {exc}") from None
    return load_model_dict(d)
