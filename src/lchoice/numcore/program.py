"""Flattened model representation and reference forward/backward passes.

A ModelProgram is the array-level form of a choice model: linear utility
terms as index triples, an optional dense representation net, and an
optional nest assignment.  The functions here are the vectorised numpy
reference implementation; the trainer calls them batch by batch.

Linear terms are stored as three parallel int arrays.  Term ``t`` adds
``beta[term_param[t]] * x`` to alternative ``term_alt[t]``, where ``x`` is
``data[:, term_col[t]]`` or constant 1 when ``term_col[t]`` is -1 (an
alternative-specific constant).  The program compiles them into a selection
matrix ``sel``, so the linear block is one matmul each way (`linear_inputs`
gives X_lin): V_lin = X_lin @ reshape(sel @ beta), dbeta = sel.T @ vec(X_lin.T @ dV).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

PROB_FLOOR = 1e-12  # floor of a chosen probability inside the log of the NLL


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

    def __post_init__(self) -> None:
        cols = self.term_col
        self.lin_cols = np.flatnonzero(np.bincount(cols[cols >= 0]))  # sorted, distinct
        k = np.where(cols >= 0, np.searchsorted(self.lin_cols, cols), self.lin_cols.shape[0])
        self.sel = np.zeros(((self.lin_cols.shape[0] + 1) * self.n_alts, self.n_params))
        np.add.at(self.sel, (k * self.n_alts + self.term_alt, self.term_param), 1.0)

    @property
    def hidden_width(self) -> int:
        return self.w_in.shape[1]

    @property
    def has_net(self) -> bool:
        return self.hidden_width > 0

    @property
    def depth(self) -> int:
        return self.b_hidden.shape[0] if self.has_net else 0


def empty_net(n_alts: int) -> tuple[np.ndarray, ...]:
    """Arrays for a model without a representation net (hidden width 0)."""
    return (np.zeros((0, 0)), np.zeros((0, 0, 0)), np.zeros((0, 0)),
            np.zeros((0, n_alts)), np.zeros(n_alts))


def single_nest(n_alts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degenerate nest arrays for plain logit programs."""
    return (np.zeros(n_alts, dtype=np.int64), np.ones(1), np.zeros(1, dtype=np.uint8))


def linear_inputs(prog: ModelProgram, data: np.ndarray) -> np.ndarray:
    """X_lin: the columns the terms read, then a column of ones, (n, K+1)."""
    xl = np.ones((data.shape[0], prog.lin_cols.shape[0] + 1))
    xl[:, :-1] = data[:, prog.lin_cols]
    return xl


def linear_block(prog: ModelProgram, xl: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """V_lin = X_lin @ reshape(sel @ beta), (n, I), from `linear_inputs`."""
    return xl @ (prog.sel @ beta).reshape(-1, prog.n_alts)


def linear_block_grad(prog: ModelProgram, xl: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """dbeta = sel.T @ vec(X_lin.T @ dv), (P,): the adjoint of `linear_block`."""
    return prog.sel.T @ (xl.T @ dv).ravel()


def linear_utilities(prog: ModelProgram, data: np.ndarray) -> np.ndarray:
    """Sum of beta-weighted terms, (n, I)."""
    return linear_block(prog, linear_inputs(prog, data), prog.beta)


def net_forward(prog: ModelProgram, data: np.ndarray,
                mask: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """Representation-net outputs (n, I) plus the cache backward needs.

    ``mask`` is an inverted-dropout mask for the last hidden activation;
    None means eval mode (identity).
    """
    if not prog.has_net:
        return np.zeros((data.shape[0], prog.n_alts)), {}
    q = data[:, prog.q_cols]
    acts, a = [], q  # acts: each layer's ReLU output, before dropout
    for layer in range(prog.depth):
        w = prog.w_in if layer == 0 else prog.w_hidden[layer - 1]
        a = np.maximum(a @ w + prog.b_hidden[layer], 0.0)
        acts.append(a)
    a_last = a if mask is None else a * mask
    r = a_last @ prog.w_out + prog.b_out
    return r, {"q": q, "acts": acts, "a_last": a_last, "mask": mask}


def forward(prog: ModelProgram, data: np.ndarray,
            mask: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """Utilities V = linear + net, (n, I), plus the cache `backprop` needs."""
    v = linear_utilities(prog, data)
    if not prog.has_net:
        return v, {}
    r, cache = net_forward(prog, data, mask)
    v += r
    return v, cache


def utilities(prog: ModelProgram, data: np.ndarray,
              mask: np.ndarray | None = None) -> np.ndarray:
    return forward(prog, data, mask)[0]


def nested_parts(v: np.ndarray, avail: np.ndarray, alt_nest: np.ndarray,
                 mu: np.ndarray) -> dict:
    """Per-nest logsums and probability pieces for the two-level formula.

    Nest sums are matmuls against ``member``, the one-hot alt-to-nest matrix."""
    a = avail > 0
    member = alt_nest[:, None] == np.arange(mu.shape[0])
    s_arg = np.where(a, mu[alt_nest] * v, -np.inf)
    c = np.where(member.T, s_arg[:, None, :], -np.inf).max(axis=2)
    c_safe = np.where(np.isfinite(c), c, 0.0)
    with np.errstate(divide="ignore"):
        ln_s = c_safe + np.log(np.exp(s_arg - c_safe[:, alt_nest]) @ member)
    scaled = ln_s / mu[None, :]
    top = scaled.max(axis=1, keepdims=True)
    e = np.exp(scaled - top)
    p_nest = e / e.sum(axis=1, keepdims=True)
    ln_s_alt = ln_s[:, alt_nest]
    # s_arg is -inf at unavailable alternatives, so their p_cond is exactly 0
    p_cond = np.exp(s_arg - np.where(np.isfinite(ln_s_alt), ln_s_alt, 0.0))
    probs = p_nest[:, alt_nest] * p_cond
    return {"ln_s": ln_s, "p_nest": p_nest, "p_cond": p_cond, "probs": probs,
            "member": member}


def masked_softmax(v: np.ndarray, avail: np.ndarray) -> np.ndarray:
    """Multinomial logit probabilities over the available alternatives, (n, I).

    The max of each row's available utilities is subtracted before the exp;
    unavailable alternatives get exactly 0.  Rows are not checked for an
    available alternative: callers check."""
    masked = np.where(avail > 0, v, -np.inf)
    e = np.exp(masked - masked.max(axis=1, keepdims=True))  # exactly 0 where unavailable
    return e / e.sum(axis=1, keepdims=True)


def _choice_probabilities(prog: ModelProgram, v: np.ndarray, avail: np.ndarray) -> np.ndarray:
    if prog.use_nests:
        return nested_parts(v, avail, prog.alt_nest, prog.mu)["probs"]
    return masked_softmax(v, avail)


def probabilities(prog: ModelProgram, v: np.ndarray, avail: np.ndarray) -> np.ndarray:
    """Choice probabilities from utilities, masked by availability."""
    if not (avail > 0).any(axis=1).all():
        raise ValueError("row with no available alternative")
    return _choice_probabilities(prog, v, avail)


def sample_nll(probs: np.ndarray, choice: np.ndarray) -> np.ndarray:
    """Per-row negative log probability of the chosen alternative."""
    p = probs[np.arange(probs.shape[0]), choice]
    return -np.log(np.maximum(p, PROB_FLOOR))


def l2_penalty(prog: ModelProgram, l2: float) -> float:
    """lambda times the squared Frobenius norm of the net weight matrices."""
    if l2 == 0.0 or not prog.has_net:
        return 0.0
    return l2 * float((prog.w_in ** 2).sum() + (prog.w_hidden ** 2).sum() + (prog.w_out ** 2).sum())


def loss_value(prog: ModelProgram, data: np.ndarray, avail: np.ndarray,
               choice: np.ndarray, l2: float = 0.0,
               mask: np.ndarray | None = None) -> float:
    v = utilities(prog, data, mask)
    p = probabilities(prog, v, avail)
    return float(sample_nll(p, choice).mean()) + l2_penalty(prog, l2)


def loss_gradients(prog: ModelProgram, v: np.ndarray, avail: np.ndarray,
                   choice: np.ndarray, onehot: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row d(-ln P_chosen)/dV and d/dmu; also returns the probabilities.

    ``onehot`` is ``choice`` as an (n, I) indicator, when the caller has it.  Rows
    are not checked for an available alternative: callers check once, at entry.
    """
    n = v.shape[0]
    if onehot is None:
        onehot = np.eye(prog.n_alts)[choice]
    if not prog.use_nests:
        p = _choice_probabilities(prog, v, avail)
        return p - onehot, np.zeros((n, prog.mu.shape[0])), p
    parts = nested_parts(v, avail, prog.alt_nest, prog.mu)
    p, p_nest, p_cond, ln_s = parts["probs"], parts["p_nest"], parts["p_cond"], parts["ln_s"]
    mu = prog.mu
    rows = np.arange(n)
    m_star = prog.alt_nest[choice]
    mu_star = mu[m_star]
    in_star = prog.alt_nest[None, :] == m_star[:, None]
    dv = p + (mu_star[:, None] - 1.0) * p_cond * in_star - mu_star[:, None] * onehot
    # expected utility within each nest, availability already folded into p_cond
    ebar = (p_cond * v) @ parts["member"]
    with np.errstate(invalid="ignore"):
        base = p_nest * (ebar / mu[None, :] - ln_s / (mu[None, :] ** 2))
    dmu = np.where(p_nest > 0.0, base, 0.0)
    ebar_star = ebar[rows, m_star]
    dmu[rows, m_star] += (-v[rows, choice] + ebar_star + ln_s[rows, m_star] / mu_star ** 2
                          - ebar_star / mu_star)
    return dv, dmu, p


def backprop(prog: ModelProgram, data: np.ndarray, dv: np.ndarray,
             cache: dict, l2: float = 0.0) -> dict[str, np.ndarray]:
    """Parameter gradients from already-scaled utility gradients ``dv``."""
    g = {"beta": linear_block_grad(prog, linear_inputs(prog, data), dv)}
    if prog.has_net:
        acts = cache["acts"]
        g["w_out"] = cache["a_last"].T @ dv
        g["b_out"] = dv.sum(axis=0)
        da = dv @ prog.w_out.T
        if cache["mask"] is not None:
            da *= cache["mask"]
        g["w_hidden"] = np.empty_like(prog.w_hidden)
        g["b_hidden"] = np.empty_like(prog.b_hidden)
        for layer in range(prog.depth - 1, -1, -1):
            dz = da * (acts[layer] > 0.0)
            g["b_hidden"][layer] = dz.sum(axis=0)
            if layer == 0:
                g["w_in"] = cache["q"].T @ dz
            else:
                g["w_hidden"][layer - 1] = acts[layer - 1].T @ dz
                da = dz @ prog.w_hidden[layer - 1].T
        if l2:
            for k in ("w_in", "w_hidden", "w_out"):
                g[k] += 2.0 * l2 * getattr(prog, k)
    return g


def gradients(prog: ModelProgram, data: np.ndarray, avail: np.ndarray,
              choice: np.ndarray, l2: float = 0.0,
              mask: np.ndarray | None = None,
              reduction: str = "mean") -> dict[str, np.ndarray]:
    """Gradients of the loss (CE + l2 penalty) for every parameter tensor.

    ``reduction`` "mean" matches the training loss; "sum" gives the gradient
    of the summed negative log-likelihood (no l2), which inference uses.
    """
    v, cache = forward(prog, data, mask)
    dv, dmu, _ = loss_gradients(prog, v, avail, choice)
    scale = 1.0 / data.shape[0] if reduction == "mean" else 1.0
    use_l2 = l2 if reduction == "mean" else 0.0
    g = backprop(prog, data, dv * scale, cache, use_l2)
    if prog.use_nests:
        g["mu"] = (dmu * scale).sum(axis=0) * (prog.mu_free > 0)
    return g


def frozen_net_beta_gradient(prog: ModelProgram, data: np.ndarray, avail: np.ndarray,
                             choice: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """beta -> gradient in beta of the summed NLL, net and nest factors held fixed.

    X_lin, the eval-mode net output and the one-hot choice are built once, so
    each call costs the linear block, `loss_gradients` and one matmul back.
    Equals ``gradients(prog, ..., reduction="sum")["beta"]`` at that beta
    bit for bit: the arithmetic is done in the same order.
    """
    xl = linear_inputs(prog, data)
    v_net = net_forward(prog, data)[0] if prog.has_net else None
    onehot = np.eye(prog.n_alts)[choice]

    def grad(beta: np.ndarray) -> np.ndarray:
        v = linear_block(prog, xl, beta)
        if v_net is not None:
            v += v_net
        dv = loss_gradients(prog, v, avail, choice, onehot)[0]
        return linear_block_grad(prog, xl, dv)

    return grad


def input_gradients(prog: ModelProgram, data: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Gradient of sum(dv * V_net) with respect to the net inputs, (n, Dq).

    Eval-mode pass; used for feature-impact measures.  Zero when the model
    has no representation net.
    """
    if not prog.has_net:
        return np.zeros((data.shape[0], 0))
    _, cache = net_forward(prog, data, None)
    da = dv @ prog.w_out.T
    for layer in range(prog.depth - 1, -1, -1):
        dz = da * (cache["acts"][layer] > 0.0)
        da = dz @ (prog.w_in if layer == 0 else prog.w_hidden[layer - 1]).T
    return da
