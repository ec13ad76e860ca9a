"""Flattened model representation and reference forward/backward passes.

A ModelProgram is the array-level form of a choice model: linear utility
terms as index triples, an optional dense representation net, and an
optional nest assignment.  The functions here are the vectorised numpy
reference implementation; the trainer calls them batch by batch.

The passes read inputs compiled from a dataset's rows (`compile_inputs`).  The
training `step` runs a `Batch`, bound once to a per-fit `StepWork`, and writes
only the gradients the workspace names; `gradients` binds one and runs it.
Products into parameter- or utility-shaped arrays are `np.dot` calls, which
dispatch faster than `np.matmul`; those into (rows, width) activations stay
`np.matmul`, faster there.  Availability is compiled into a boolean
"unavailable" mask that each pass puts (``np.putmask``) into its arrays: -inf
into the logit's utilities, UNAVAILABLE into the nested logsum argument
``mu_alt * v``, the values ``np.where(avail > 0, ...)`` gave, whatever the
utility there.  Entry points taking 0/1 availability build the mask at their door.
Inference passes over a dataset (`eval_inputs`, `input_gradients`) run the
net in blocks of rows (`_net_blocks`).  `linear_utilities`, `net_forward`,
`loss_gradients` and `backprop` adapt a raw (n, D) batch to the compiled passes.

Linear terms are stored as three parallel int arrays.  Term ``t`` adds
``beta[term_param[t]] * x`` to alternative ``term_alt[t]``, where ``x`` is
``data[:, term_col[t]]`` or constant 1 when ``term_col[t]`` is -1 (an
alternative-specific constant).  The program compiles them into a selection
matrix ``sel``, so the linear block is one product each way (`linear_inputs`
gives X_lin): V_lin = X_lin @ reshape(sel @ beta), dbeta = sel.T @ vec(X_lin.T @ dV).

The nest assignment is compiled once too, into a `NestLayout`: the one-hot
alternative-to-nest matrix ``member`` and the alternatives in nest order.  Each
nest's logsum ln S_m of s = mu_alt * V is shifted by the max c_m over its own
members, one ``np.maximum.reduceat`` over the nest-ordered columns: a shift by
the row max would underflow a nest far below it.  An unavailable alternative
enters at UNAVAILABLE, not -inf, so every logsum is finite.  P(i|m) is
exp(s_i - c_m) / S_m; d/dmu, (M,), sums dV_i ln P(i|m) / mu_m**2 over rows and
i in m (the chain rule in s).  The step, `probabilities` and the beta Hessian
of `estimation._beta_hessian`, through `utility_gradients`, run the one `nested_pass`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

PROB_FLOOR = 1e-12  # floor of a chosen probability inside the log of the NLL
UNAVAILABLE = -1e300  # mu * V of an unavailable alternative inside the nested logsums
NET_TENSORS = ("w_in", "w_hidden", "b_hidden", "w_out", "b_out")
NET_WEIGHTS = ("w_in", "w_hidden", "w_out")  # the matrices the l2 penalty reads
# floats per hidden activation in an inference pass, 512 KiB of float64: small enough
# that the blocks reuse heap pages; at 2 MiB glibc trims and refaults them block by block
EVAL_CELLS = 2**16
# floats per block of dataset rows `compile_inputs` gathers: under glibc's 128 KiB
# mmap threshold, so the blocks of an epoch's refill reuse heap pages
GATHER_CELLS = 16_000


class NestLayout(NamedTuple):
    member: np.ndarray  # (I, M) one-hot alternative-to-nest matrix
    member_t: np.ndarray  # (M, I) its transpose
    order: np.ndarray  # (I,) alternatives sorted by nest, stably
    start: np.ndarray  # (M,) position in `order` of each nest's first alternative


@dataclass
class ModelProgram:
    n_alts: int
    n_params: int
    term_param: np.ndarray  # (T,) int64
    term_alt: np.ndarray  # (T,) int64
    term_col: np.ndarray  # (T,) int64, -1 means constant 1
    beta: np.ndarray  # (P,) float64
    q_cols: np.ndarray  # (Dq,) int64, empty when there is no net
    w_in: np.ndarray  # (Dq, H)
    w_hidden: np.ndarray  # (L-1, H, H)
    b_hidden: np.ndarray  # (L, H)
    w_out: np.ndarray  # (H, I)
    b_out: np.ndarray  # (I,)
    alt_nest: np.ndarray  # (I,) int64 nest index per alternative
    mu: np.ndarray  # (M,) float64 nest scale factors
    mu_free: np.ndarray  # (M,) uint8, 1 where mu is estimated
    use_nests: bool
    lin_cols: np.ndarray = field(init=False, repr=False)  # (K,) data columns the terms read
    sel: np.ndarray = field(init=False, repr=False)  # ((K+1)*I, P) term selection matrix
    layout: NestLayout = field(init=False, repr=False)  # compiled from alt_nest
    hidden_width: int = field(init=False)  # H, 0 without a net
    has_net: bool = field(init=False)
    depth: int = field(init=False)  # L hidden layers, 0 without a net

    def __post_init__(self) -> None:
        cols = self.term_col
        self.lin_cols = np.flatnonzero(np.bincount(cols[cols >= 0]))  # sorted, distinct
        k = np.where(cols >= 0, np.searchsorted(self.lin_cols, cols), self.lin_cols.shape[0])
        self.sel = np.zeros(((self.lin_cols.shape[0] + 1) * self.n_alts, self.n_params))
        np.add.at(self.sel, (k * self.n_alts + self.term_alt, self.term_param), 1.0)
        self.layout = nest_layout(self.alt_nest, self.mu.shape[0])
        self.hidden_width = self.w_in.shape[1]
        self.has_net = self.hidden_width > 0
        self.depth = self.b_hidden.shape[0] if self.has_net else 0


class StepWork:
    """What every batch of a training step of up to ``rows`` rows shares, built once per
    fit: each layer's activation (overwritten by its gradient), a ReLU gate, the net output,
    softmax row statistic, dV, X_lin.T @ dV, sel @ beta, the nested pass's `NestWork` (not
    for a net-only pass, ``out`` empty), the gradients ``out`` (new when None), sel.T, the
    weights' transposes, ``mu_free > 0`` and `cut`'s views for a full batch, with the hidden
    layers' input transposes.  ``holes`` False skips the mask; ``l2`` > 0 keeps a buffer for
    2 * l2 * W per net weight (without, `net_backward` makes them anew, as for `backprop`)."""

    def __init__(self, prog: ModelProgram, rows: int, out: dict[str, np.ndarray] | None = None,
                 holes: bool = True, l2: float = 0.0):
        if out is None:
            names = ("beta",) + NET_TENSORS * prog.has_net + ("mu",) * prog.use_nests
            out = {k: np.empty_like(getattr(prog, k)) for k in names}
        self.out, self.holes, self.rows, self.net = out, holes, rows, "w_out" in out
        self.beta, self.mu = out.get("beta"), out.get("mu")  # None where not trained
        self.sel_t, self.mu_free = prog.sel.T, prog.mu_free > 0
        self.fold = prog.n_alts == 2 and not prog.use_nests  # softmax rows of two columns
        width, weights = prog.hidden_width, [prog.w_in, *prog.w_hidden]
        acts = [np.empty((rows, width)) for _ in range(prog.depth)]
        self.layers = list(zip(weights, prog.b_hidden, acts))
        self.backs = [w.T for w in weights[1:]] + [prog.w_out.T]  # dA = dZ @ backs[l]
        self.grad_w = [out["w_in"], *out["w_hidden"]] if self.net else [None] * prog.depth
        self.grad_b = list(out["b_hidden"]) if self.net else [None] * prog.depth
        self.gate = np.empty((rows, width), dtype=bool)
        self.r, self.dv = np.empty((2, rows, prog.n_alts))
        self.stat = np.empty((rows, 1))
        self.xtdv, self.lin_2d = np.empty((2, prog.lin_cols.shape[0] + 1, prog.n_alts))
        self.xtdv_flat, self.lin = self.xtdv.reshape(-1), self.lin_2d.reshape(-1)
        self.nest = NestWork.of(prog, rows) if prog.use_nests and out else None
        self.decay = [np.empty_like(getattr(prog, k)) if l2 else None for k in NET_WEIGHTS]
        self.full = self.cut(rows)

    def cut(self, n: int) -> tuple:
        """(layers, backward layers from the last, last activation's transpose, ReLU gate, net
        output, dV, row statistic, `NestWork`) of an n-row batch: views of the first n rows."""
        layers = [(w, bias, act[:n]) for w, bias, act in self.layers]
        acts = [act for _, _, act in layers]
        ins_t = [None] + [a.T for a in acts[:-1]]  # layer 0 reads each batch's own Q
        back = list(zip(acts, self.backs, self.grad_b, self.grad_w, ins_t))[::-1]
        return (layers, back, acts[-1].T if acts else None,
                *(a[:n] for a in (self.gate, self.r, self.dv, self.stat)),
                self.nest and self.nest.cut(n))


class Batch:
    """One batch bound to a `StepWork`, once: its inputs of `compile_inputs`, X_lin.T, its
    probability rows (None: no utilities) with their two columns when the softmax folds
    them, its dropout mask, and the workspace's arrays cut to its rows.  `step` runs it."""

    __slots__ = ("work", "rows", "xl", "xl_t", "q", "unavail", "onehot", "probs", "cols",
                 "mask", "layers", "backward", "last_t", "gate", "r", "dv", "stat", "nest")

    def __init__(self, work: StepWork, xl: np.ndarray | None, q: np.ndarray,
                 unavail: np.ndarray | None, onehot: np.ndarray | None,
                 probs: np.ndarray | None = None, mask: np.ndarray | None = None):
        self.work, self.rows, self.xl, self.q, self.unavail, self.onehot, self.probs, self.mask = (
            work, q.shape[0], xl, q, unavail, onehot, probs, mask)
        self.xl_t = None if xl is None else xl.T
        self.cols = (probs[:, :1], probs[:, 1:]) if work.fold and probs is not None else None
        self.layers, back, self.last_t, self.gate, self.r, self.dv, self.stat, self.nest = (
            work.full if q.shape[0] == work.rows else work.cut(q.shape[0]))
        self.backward = back and (*back[:-1], (*back[-1][:-1], q.T))


def empty_net(n_alts: int) -> tuple[np.ndarray, ...]:
    """Arrays for a model without a representation net (hidden width 0)."""
    return (np.zeros((0, 0)), np.zeros((0, 0, 0)), np.zeros((0, 0)),
            np.zeros((0, n_alts)), np.zeros(n_alts))


def single_nest(n_alts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degenerate nest arrays for plain logit programs."""
    return (np.zeros(n_alts, dtype=np.int64), np.ones(1), np.zeros(1, dtype=np.uint8))


def linear_inputs(prog: ModelProgram, data: np.ndarray) -> np.ndarray:
    """X_lin: the columns the terms read, then a column of ones, (n, K+1)."""
    xl = _linear_buffer(prog, data.shape[0])
    _gather_rows(data, None, ((xl, prog.lin_cols),))
    return xl


def _linear_buffer(prog: ModelProgram, n: int) -> np.ndarray:
    """A row-major (n, K+1) X_lin whose last column, the ones, is already filled."""
    xl = np.empty((n, prog.lin_cols.shape[0] + 1))
    xl[:, -1] = 1.0
    return xl


def _gather_rows(data: np.ndarray, rows: np.ndarray | None,
                 fills: tuple[tuple[np.ndarray, np.ndarray], ...]) -> None:
    """Write rows ``rows`` of ``data`` (every row when None), in that order, into
    arrays: each of ``fills`` pairs an (n, k) array with the k data columns it takes.

    The rows are gathered GATHER_CELLS cells at a time, so no copy of ``data`` is made."""
    n = data.shape[0] if rows is None else rows.shape[0]
    step = max(1, GATHER_CELLS // max(1, data.shape[1]))
    fills = [(out, cols.tolist()) for out, cols in fills]
    for r in range(0, n, step):
        at = slice(r, r + step)
        block = data[at] if rows is None else data.take(rows[at], axis=0)
        for out, cols in fills:
            for j, c in enumerate(cols):
                out[at, j] = block[:, c]


def compile_inputs(prog: ModelProgram, data: np.ndarray, avail: np.ndarray,
                   choice: np.ndarray, rows: np.ndarray | None = None,
                   out: tuple[np.ndarray, ...] | None = None) -> tuple[np.ndarray, ...]:
    """(X_lin, Q, unavailable mask, one-hot choice): the inputs of `gradients`.

    Holds rows ``rows`` of the dataset in that order (every row when None).  Q
    is column-major like ``data[:, q_cols]``, so the net's products round as on
    a raw batch, and the mask is True where ``avail > 0`` is not.  With ``out``,
    a previous call's arrays of as many rows, the rows are written into those."""
    n = data.shape[0] if rows is None else rows.shape[0]
    if out is None:
        out = (_linear_buffer(prog, n), np.empty((prog.q_cols.shape[0], n)).T,
               np.empty((n, prog.n_alts), dtype=bool), np.empty((n, prog.n_alts)))
    xl, q, unavail, onehot = out
    _gather_rows(data, rows, ((xl, prog.lin_cols), (q, prog.q_cols)))
    np.greater(avail if rows is None else avail.take(rows, axis=0), 0.0, out=unavail)
    np.logical_not(unavail, out=unavail)
    np.take(np.eye(prog.n_alts), choice if rows is None else choice.take(rows), axis=0,
            out=onehot)
    return out


def eval_inputs(prog: ModelProgram, data: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(X_lin, eval-mode net output or None without a net): one inference pass over ``data``."""
    return linear_inputs(prog, data), _net_blocks(prog, data) if prog.has_net else None


def _net_blocks(prog: ModelProgram, data: np.ndarray, dv: np.ndarray | None = None) -> np.ndarray:
    """Eval-mode `net_output` of ``data``, (n, I), in blocks of EVAL_CELLS // H rows.

    With ``dv``, each block is backpropagated instead, into the gradient of
    sum(dv * V_net) in the net inputs, (n, Dq).  Equals one call over all rows
    up to BLAS rounding, and bit for bit when the rows fit in one block."""
    rows = max(1, EVAL_CELLS // prog.hidden_width)
    out = np.empty((data.shape[0], prog.n_alts if dv is None else prog.q_cols.shape[0]))
    for r in range(0, data.shape[0], rows):
        q = data[r:r + rows, prog.q_cols]
        b = None if dv is None else Batch(StepWork(prog, q.shape[0], {}), None, q, None, None)
        v_net = net_output(prog, q, None, b)
        out[r:r + rows] = v_net if dv is None else net_backward(prog, dv[r:r + rows], b, q=True)
    return out


def first_nonfinite(prog: ModelProgram, data: np.ndarray) -> tuple[int, int] | None:
    """(row, data column) of the first non-finite value the program reads, or None.

    A tie in rows goes to the column met first in lin_cols, then q_cols."""
    found, rows = None, data.shape[0]
    for c in np.concatenate([prog.lin_cols, prog.q_cols]).tolist():
        ok = np.isfinite(data[:rows, c])
        if not ok.all():
            rows = int(ok.argmin())
            found = (rows, c)
    return found


def utilities(prog: ModelProgram, xl: np.ndarray, v_net: np.ndarray | None = None,
              beta: np.ndarray | None = None) -> np.ndarray:
    """V = X_lin @ reshape(sel @ beta), (n, I), plus the net output ``v_net`` when given.

    ``beta`` defaults to the program's.  Its products are `step`'s, as `np.dot` calls."""
    v = np.dot(xl, np.dot(prog.sel, prog.beta if beta is None else beta).reshape(-1, prog.n_alts))
    if v_net is not None:
        v += v_net
    return v


def linear_block_grad(prog: ModelProgram, xl: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """dbeta = sel.T @ vec(X_lin.T @ dv), (P,): the adjoint of the linear block of
    `utilities`, by `step`'s products."""
    return np.dot(prog.sel.T, np.dot(xl.T, dv).ravel())


def linear_utilities(prog: ModelProgram, data: np.ndarray) -> np.ndarray:
    """Sum of beta-weighted terms of a raw (n, D) batch, (n, I)."""
    return utilities(prog, linear_inputs(prog, data))


def net_output(prog: ModelProgram, q: np.ndarray, mask: np.ndarray | None = None,
               b: Batch | None = None) -> np.ndarray:
    """Representation-net outputs (n, I) from the net inputs Q, (n, Dq).

    ``mask`` is an inverted-dropout mask for the last hidden activation; None
    means eval mode (identity).  Only a `Batch` ``b`` of this Q and mask keeps the
    activations, for `net_backward`."""
    a = q
    for w, bias, act in b.layers if b else zip([prog.w_in, *prog.w_hidden], prog.b_hidden,
                                               [None] * prog.depth):
        a = np.matmul(a, w, out=act)
        a += bias
        np.maximum(a, 0.0, out=a)
    if mask is not None:
        # in place, so the last activation is the dropped-out one: where the mask
        # keeps a unit its sign, and so the backward gate ``a > 0``, is unchanged,
        # and where it drops one `net_backward` has zeroed the gradient
        a *= mask
    r = np.dot(a, prog.w_out, out=None if b is None else b.r)
    r += prog.b_out
    return r


def net_forward(prog: ModelProgram, data: np.ndarray,
                mask: np.ndarray | None = None) -> tuple[np.ndarray, Batch]:
    """`net_output` of a raw (n, D) batch, plus the bound batch `backprop` reads."""
    q = data[:, prog.q_cols]
    b = Batch(StepWork(prog, data.shape[0]), None, q, None, None, None, mask)
    return net_output(prog, q, mask, b), b


def nest_layout(alt_nest: np.ndarray, n_nests: int) -> NestLayout:
    """Compile an alternative-to-nest assignment; `reduceat` needs every nest non-empty."""
    if (np.bincount(alt_nest, minlength=n_nests) == 0).any():
        raise ValueError("every nest needs at least one alternative")
    member = (alt_nest[:, None] == np.arange(n_nests)).astype(np.float64)
    order = np.argsort(alt_nest, kind="stable")
    return NestLayout(member, member.T, order,
                      np.searchsorted(alt_nest[order], np.arange(n_nests)))


class NestWork(namedtuple("NestWork", "s e t c sums ln_s stat cols mu_alt col_sum mu_tmp dmu")):
    """`nested_pass`'s arrays for ``rows`` rows, the step's bound once per fit.  (rows, I):
    s = mu_alt * V masked; e = exp(s - c), then P(i|m) (s itself without ``grads``); a
    scratch.  (rows, M): c, each nest's shift, then dV's nest factor; the nest sums, then
    P(m); the logsums.  The nest softmax's row statistic and two columns it folds (M = 2);
    (I,) mu_alt and a column sum; (M,) a scratch and d/dmu.  `cut` views the first n rows."""

    @classmethod
    def of(cls, prog: ModelProgram, rows: int, grads: bool = True) -> NestWork:
        s, t, n_nests = np.empty((rows, prog.n_alts)), np.empty((rows, prog.n_alts)), len(prog.mu)
        return cls(s, np.empty_like(s) if grads else s, t, *np.empty((3, rows, n_nests)),
                   np.empty((rows, 1)), None, *np.empty((2, prog.n_alts)), *np.empty((2, n_nests))
                   ).cut(rows)

    def cut(self, n: int) -> NestWork:
        rows = [a[:n] for a in self[:7]]
        cols = (rows[4][:, :1], rows[4][:, 1:]) if rows[4].shape[1] == 2 else None
        return NestWork(*rows, cols, *self[8:])


def nested_pass(prog: ModelProgram, v: np.ndarray, unavail: np.ndarray, nw: NestWork,
                holes: bool = True) -> np.ndarray:
    """The nested logit's probabilities of utilities ``v``, written over ``v`` and returned;
    ``nw`` keeps s, P(i|m), P(m) and the logsums.  ``holes`` False skips the mask.  They are
    exactly 0 where ``unavail``: through P(i|m) in a nest with an available member, through
    P(m) in one without."""
    (s, e, t, c, sums, ln_s), lay, mu = nw[:6], prog.layout, prog.mu
    np.multiply(v, np.dot(lay.member, mu, out=nw.mu_alt), out=s)
    if holes:
        np.putmask(s, unavail, UNAVAILABLE)
    np.maximum.reduceat(s.take(lay.order, axis=1, out=t, mode="clip"), lay.start, axis=1, out=c)
    np.subtract(s, np.dot(c, lay.member_t, out=t), out=e)
    np.exp(e, out=e)
    np.log(np.dot(e, lay.member, out=sums), out=ln_s)
    ln_s += c
    e /= np.dot(sums, lay.member_t, out=t)
    softmax(np.divide(ln_s, mu, out=sums), nw.stat, nw.cols)
    return np.multiply(np.dot(sums, lay.member_t, out=t), e, out=v)


def softmax(z: np.ndarray, stat: np.ndarray | None = None,
            cols: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Row-wise exp-normalise ``z`` in place, each row shifted by its max before the exp;
    the row max and then the row sum go into ``stat``, (n, 1), when given.  With ``cols``,
    z's two columns as (n, 1) views, each is one binary call of the two, bit for bit the
    reduction and cheaper (wider rows are not)."""
    z -= np.maximum(*cols, out=stat) if cols else np.maximum.reduce(z, 1, keepdims=True, out=stat)
    np.exp(z, out=z)
    z /= np.add(*cols, out=stat) if cols else np.add.reduce(z, 1, keepdims=True, out=stat)
    return z


def choice_fault(unavail: np.ndarray, choice: np.ndarray | None = None) -> str | None:
    """``"row R: <rule>"`` for the first row that breaks a choice rule, or None.

    The one statement of the rules, checked in this order within a row: the
    choice code is in [0, I), some alternative is available, the chosen one
    is available.  Without ``choice`` only the second rule applies.
    """
    n_alts = unavail.shape[1]
    faults = [(unavail.all(axis=1), "no available alternative")]
    if choice is not None:
        out = (choice < 0) | (choice >= n_alts)
        chosen_off = unavail[np.arange(choice.shape[0]), np.where(out, 0, choice)] & ~out
        faults = [(out, f"choice {{code}} is not in [0, {n_alts})"), *faults,
                  (chosen_off, "chosen alternative is unavailable")]
    bad = np.logical_or.reduce([rows for rows, _ in faults])
    if not bad.any():
        return None
    r = int(np.argmax(bad))
    rule = next(rule for rows, rule in faults if rows[r])
    return f"row {r}: " + rule.format(code=None if choice is None else choice[r])


def probabilities(prog: ModelProgram, v: np.ndarray, avail: np.ndarray) -> np.ndarray:
    """Choice probabilities from utilities, masked by 0/1 availability."""
    unavail = ~(avail > 0)
    if fault := choice_fault(unavail):
        raise ValueError(fault)
    if prog.use_nests:
        nw = NestWork.of(prog, v.shape[0], False)
        np.copyto(nw.t, v)  # t, scratch after v's first read, takes the probabilities
        return nested_pass(prog, nw.t, unavail, nw)
    v = v.astype(np.float64)
    np.putmask(v, unavail, -np.inf)
    return softmax(v)


def sample_nll(probs: np.ndarray, choice: np.ndarray) -> np.ndarray:
    """Per-row negative log probability of the chosen alternative."""
    p = probs[np.arange(probs.shape[0]), choice]
    return -np.log(np.maximum(p, PROB_FLOOR))


def loss_value(prog: ModelProgram, data: np.ndarray, avail: np.ndarray,
               choice: np.ndarray, l2: float = 0.0) -> float:
    """The loss of `gradients` in eval mode: mean CE plus l2 times the squared
    Frobenius norm of the net weight matrices."""
    p = probabilities(prog, utilities(prog, *eval_inputs(prog, data)), avail)
    penalty = l2 * float(sum((getattr(prog, k) ** 2).sum() for k in NET_WEIGHTS)) if l2 else 0.0
    return float(sample_nll(p, choice).mean()) + penalty


def utility_gradients(prog: ModelProgram, v: np.ndarray, unavail: np.ndarray,
                      onehot: np.ndarray, b: Batch | None = None,
                      ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Per-row d(-ln P_chosen)/dV, d/dmu summed over the rows, (M,), and the probabilities.

    Reads the mask and one-hot choice of `compile_inputs`; overwrites ``v`` with the
    probabilities, dV into a bound batch ``b``'s.  d/dmu is None without nests and for a
    workspace that trains no mu; it reads the masked s = mu_alt * V, so a non-finite utility
    where unavailable leaves it finite.  Callers check rows for an available one at entry.
    """
    if not prog.use_nests:
        if b is None or b.work.holes:
            np.putmask(v, unavail, -np.inf)
        stat, cols, dv = (None, None, None) if b is None else (b.stat, b.cols, b.dv)
        return np.subtract(softmax(v, stat, cols), onehot, out=dv), None, v
    lay, nw = prog.layout, NestWork.of(prog, v.shape[0]) if b is None else b.nest
    p = nested_pass(prog, v, unavail, nw, b is None or b.work.holes)
    (s, e, t, c, nest_p, ln_s), dv = nw[:6], np.empty_like(p) if b is None else b.dv
    # dV_i = P(i|m) (P(m) + [m = m*] (mu_m - 1)) - [i = i*] mu_m, for i in nest m, m* chosen
    np.multiply(np.dot(onehot, lay.member, out=c), np.subtract(prog.mu, 1.0, out=nw.mu_tmp),
                out=c)
    c += nest_p
    np.multiply(np.dot(c, lay.member_t, out=t), e, out=dv)
    dv -= np.multiply(onehot, nw.mu_alt, out=t)
    if b is not None and b.work.mu is None:
        return dv, None, p
    np.subtract(s, np.dot(ln_s, lay.member_t, out=t), out=t)  # ln P(i|m)
    t *= dv
    dmu = np.dot(np.add.reduce(t, axis=0, out=nw.col_sum), lay.member, out=nw.dmu)
    dmu /= np.multiply(prog.mu, prog.mu, out=nw.mu_tmp)
    return dv, dmu, p


def loss_gradients(prog: ModelProgram, v: np.ndarray, avail: np.ndarray,
                   choice: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`utility_gradients` of raw utilities, 0/1 availability and choice codes.

    Leaves ``v`` as it was; d/dmu, summed over the rows, is zeros for the plain logit."""
    dv, dmu, p = utility_gradients(prog, v.astype(np.float64), ~(avail > 0),
                                 np.eye(prog.n_alts)[choice])
    return dv, np.zeros(prog.mu.shape[0]) if dmu is None else dmu, p


def net_backward(prog: ModelProgram, dv: np.ndarray, b: Batch, l2: float = 0.0,
                 q: bool = False) -> np.ndarray | None:
    """Backpropagate scaled utility gradients through a bound batch's last `net_output`
    into its workspace's net-weight gradients, or with ``q`` return only the gradient in
    Q; each activation is overwritten by the gradient there once its ReLU gate is taken."""
    out, gate, mask = b.work.out, b.gate, b.mask
    if not q:
        np.dot(b.last_t, dv, out=out["w_out"])
        np.add.reduce(dv, axis=0, out=out["b_out"])
    da = dv
    for dz, back, grad_b, grad_w, in_t in b.backward:
        np.greater(dz, 0.0, out=gate)
        np.matmul(da, back, out=dz)
        if mask is not None:  # the last layer's, the first one met
            dz *= mask
            mask = None
        dz *= gate
        if not q:
            np.add.reduce(dz, axis=0, out=grad_b)
            np.dot(in_t, dz, out=grad_w)
        da = dz
    if q:
        return da @ prog.w_in.T
    if l2:
        for k, buf in zip(NET_WEIGHTS, b.work.decay):
            out[k] += np.multiply(getattr(prog, k), 2.0 * l2, out=buf)


def backprop(prog: ModelProgram, data: np.ndarray, dv: np.ndarray,
             b: Batch, l2: float = 0.0) -> dict[str, np.ndarray]:
    """Parameter gradients of a raw (n, D) batch from scaled ``dv`` and its `net_forward`."""
    g = {"beta": linear_block_grad(prog, linear_inputs(prog, data), dv)}
    if prog.has_net:
        net_backward(prog, dv, b, l2)
        g.update((k, b.work.out[k]) for k in NET_TENSORS)
    return g


def step(prog: ModelProgram, b: Batch, l2: float = 0.0, scale: int = 1) -> np.ndarray:
    """One training step of a bound batch: the utilities, then the probabilities, into its
    probability rows, which it returns, and the loss gradient into its workspace's, for the
    tensors that name.  The loss is the CE summed over the rows divided by ``scale``, plus
    the l2 penalty."""
    work = b.work
    np.dot(prog.sel, prog.beta, out=work.lin)
    v = np.dot(b.xl, work.lin_2d, out=b.probs)
    if prog.has_net:
        v += net_output(prog, b.q, b.mask, b)
    dv, dmu, p = utility_gradients(prog, v, b.unavail, b.onehot, b)
    dv /= scale
    if work.beta is not None:
        np.dot(b.xl_t, dv, out=work.xtdv)
        np.dot(work.sel_t, work.xtdv_flat, out=work.beta)
    if work.net:
        net_backward(prog, dv, b, l2)
    if work.mu is not None:
        np.divide(dmu, scale, out=work.mu)
        work.mu *= work.mu_free
    return p


def gradients(prog: ModelProgram, xl: np.ndarray, q: np.ndarray, unavail: np.ndarray,
              onehot: np.ndarray, l2: float = 0.0, mask: np.ndarray | None = None,
              reduction: str = "mean", out: dict[str, np.ndarray] | None = None,
              work: StepWork | None = None, probs: np.ndarray | None = None,
              ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """(gradient of the loss per parameter tensor, probabilities), from `compile_inputs`.

    Binds the batch to ``work``, a `StepWork` of ``prog`` (a new one on ``out`` when
    None), and runs the trainer's `step`: the gradients of the tensors it names, and
    the probabilities into ``probs`` when given.  ``reduction`` "mean" is the training
    loss, mean CE plus the l2 penalty; "sum" is the summed negative log-likelihood (no
    l2), which inference uses.
    """
    if reduction not in ("mean", "sum"):
        raise ValueError(f"reduction must be 'mean' or 'sum', got {reduction!r}")
    n = xl.shape[0]
    l2, scale = (l2, n) if reduction == "mean" else (0.0, 1)
    work = StepWork(prog, n, out, l2=l2) if work is None else work
    probs = np.empty((n, prog.n_alts)) if probs is None else probs
    return work.out, step(prog, Batch(work, xl, q, unavail, onehot, probs, mask), l2, scale)


def input_gradients(prog: ModelProgram, data: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Gradient of sum(dv * V_net) with respect to the net inputs, (n, Dq).

    Eval-mode pass; used for feature-impact measures.  Zero when the model
    has no representation net.
    """
    if not prog.has_net:
        return np.zeros((data.shape[0], 0))
    return _net_blocks(prog, data, dv)
