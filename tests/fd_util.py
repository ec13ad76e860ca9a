"""Finite-difference gradient oracle and random problem builder for tests.

The oracle differentiates `loss_value` directly, so it shares no code with
the analytic backward pass it checks.  Relative error uses
|g - fd| / max(|g|, |fd|, atol), which stays well-defined when a gradient
is structurally zero (an unused parameter, a fixed nest factor).
"""

import numpy as np

from lchoice.numcore import loss_value
from lchoice.numcore.program import ModelProgram


def numeric_gradients(prog, data, avail, choice, l2=0.0, h=1e-6):
    """Central finite differences of the mean training loss, per tensor."""
    out = {}
    tensors = {"beta": prog.beta}
    if prog.has_net:
        tensors.update(w_in=prog.w_in, w_hidden=prog.w_hidden,
                       b_hidden=prog.b_hidden, w_out=prog.w_out, b_out=prog.b_out)
    if prog.use_nests:
        tensors["mu"] = prog.mu
    for name, arr in tensors.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.shape[0]):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_value(prog, data, avail, choice, l2)
            flat[i] = keep - h
            down = loss_value(prog, data, avail, choice, l2)
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
        if name == "mu":
            g = g * (prog.mu_free > 0)  # fixed factors are not estimated
        out[name] = g
    return out


def max_rel_error(analytic: dict, numeric: dict, atol=1e-8, fd_noise=1e-9) -> float:
    """Worst relative error after forgiving ``fd_noise`` of absolute difference.

    A central difference of the loss at step h carries a rounding error of
    about eps * |loss| / h, roughly 2e-10 at h = 1e-6 for losses of order
    one, so a gradient that is zero analytically can read as 5e-11 here.
    """
    worst = 0.0
    for name, fd in numeric.items():
        g = analytic.get(name)
        if g is None or fd.size == 0:
            continue
        denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), atol)
        excess = np.maximum(np.abs(g - fd) - fd_noise, 0.0)
        worst = max(worst, float((excess / denom).max()))
    return worst


def random_instance(rng: np.random.Generator, with_net: bool, with_nests: bool):
    """Small random program + data, every block populated and identifiable."""
    n_alts = int(rng.integers(2, 5))
    n_cols = int(rng.integers(3, 7))
    n_params = int(rng.integers(2, 5))
    n_terms = int(rng.integers(n_params, 2 * n_params + 1))
    term_param = rng.integers(0, n_params, n_terms).astype(np.int64)
    term_param[:n_params] = np.arange(n_params)  # every coefficient used
    term_alt = rng.integers(0, n_alts, n_terms).astype(np.int64)
    term_col = rng.integers(-1, n_cols, n_terms).astype(np.int64)
    beta = rng.normal(0.0, 0.7, n_params)

    if with_net:
        width = int(rng.integers(2, 5))
        depth = int(rng.integers(1, 3))
        dq = int(rng.integers(1, n_cols + 1))
        q_cols = rng.choice(n_cols, size=dq, replace=False).astype(np.int64)
        w_in = rng.normal(0.0, 0.5, (dq, width))
        w_hidden = rng.normal(0.0, 0.5, (depth - 1, width, width))
        b_hidden = rng.normal(0.0, 0.2, (depth, width))
        w_out = rng.normal(0.0, 0.5, (width, n_alts))
        b_out = rng.normal(0.0, 0.2, n_alts)
        net = (w_in, w_hidden, b_hidden, w_out, b_out)
    else:
        q_cols = np.zeros(0, dtype=np.int64)
        net = (np.zeros((0, 0)), np.zeros((0, 0, 0)), np.zeros((0, 0)),
               np.zeros((0, n_alts)), np.zeros(n_alts))

    if with_nests and n_alts >= 2:
        n_nests = int(rng.integers(2, n_alts + 1))
        alt_nest = rng.integers(0, n_nests, n_alts).astype(np.int64)
        alt_nest[:n_nests] = np.arange(n_nests)  # no empty nest
        rng.shuffle(alt_nest)
        sizes = np.bincount(alt_nest, minlength=n_nests)
        mu = 1.0 + rng.uniform(0.1, 1.5, n_nests)
        mu[sizes == 1] = 1.0
        mu_free = (sizes > 1).astype(np.uint8)
        use_nests = True
    else:
        alt_nest = np.zeros(n_alts, dtype=np.int64)
        mu, mu_free, use_nests = np.ones(1), np.zeros(1, dtype=np.uint8), False

    prog = ModelProgram(n_alts, n_params, term_param, term_alt, term_col,
                        beta, q_cols, *net, alt_nest, mu, mu_free, use_nests)

    n = int(rng.integers(6, 15))
    data = rng.normal(0.0, 1.0, (n, n_cols))
    avail = (rng.random((n, n_alts)) > 0.25).astype(np.float64)
    dead = avail.sum(axis=1) == 0
    avail[dead, 0] = 1.0
    choice = np.array([rng.choice(np.flatnonzero(avail[i] > 0)) for i in range(n)],
                      dtype=np.int64)
    return prog, data, avail, choice
