"""Per-stage replay of the minibatch trainer and exact per-step work counts.

`replay_stages` re-runs the stages of one training step with the public
numcore functions, at the batch shapes and in the batch order the trainer
uses, and times each stage.  It does not update parameters.  `step_counts`
derives floating-point operations, bytes and PRNG draws per step from the
program's shapes alone, so the figures repeat exactly and a kernel change
can cite them.
"""

from __future__ import annotations

import time

import numpy as np

from lchoice.numcore import prng
from lchoice.numcore import program as pr

STAGES = ("prng", "gather", "linear", "net_forward", "loss_grad", "backprop")


def batch_sizes(n: int, batch_size: int) -> list[int]:
    """Row counts of the batches of one epoch, in trainer order."""
    return [min(batch_size, n - s) for s in range(0, n, batch_size)]


def replay_stages(prog: pr.ModelProgram, data: np.ndarray, avail: np.ndarray,
                  choice: np.ndarray, config, min_steps: int = 2000,
                  max_seconds: float = 2.0) -> dict:
    """Mean microseconds per step for each trainer stage, over whole epochs.

    Replays epochs until ``min_steps`` steps or ``max_seconds`` have passed,
    and at least one epoch.

    The per-epoch permutation draw and sort are spread over the epoch's
    steps and counted in the ``prng`` stage, together with the per-step
    dropout mask.  Returns the stage means plus the batch shapes replayed.
    """
    n = data.shape[0]
    width = prog.hidden_width
    dropout_on = config.dropout > 0.0 and prog.has_net
    seed = prng.derive_seed(config.seed, 1)
    totals = dict.fromkeys(STAGES, 0.0)
    shapes: set[tuple[int, int]] = set()
    steps = 0
    counter = 0
    clock = time.perf_counter
    stop = clock() + max_seconds
    while steps < min_steps and (steps == 0 or clock() < stop):
        t0 = clock()
        perm = np.argsort(prng.uniforms(seed, counter, n))
        counter += n
        totals["prng"] += clock() - t0
        for start in range(0, n, config.batch_size):
            t0 = clock()
            rows = perm[start:start + config.batch_size]
            b = rows.shape[0]
            xb, ab, yb = data[rows], avail[rows], choice[rows]
            t1 = clock()
            mask = None
            if dropout_on:
                u = prng.uniforms(seed, counter, b * width)
                counter += b * width
                mask = (u >= config.dropout).astype(np.float64).reshape(b, width)
                mask /= 1.0 - config.dropout
            t2 = clock()
            v = pr.linear_utilities(prog, xb)
            t3 = clock()
            cache: dict = {}
            if prog.has_net:
                r, cache = pr.net_forward(prog, xb, mask)
                v = v + r
            t4 = clock()
            dv, _, p = pr.loss_gradients(prog, v, ab, yb)
            float(pr.sample_nll(p, yb).sum())
            t5 = clock()
            pr.backprop(prog, xb, dv / b, cache, config.l2)
            t6 = clock()
            for stage, dt in zip(("gather", "prng", "linear", "net_forward", "loss_grad",
                                  "backprop"),
                                 (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5)):
                totals[stage] += dt
            shapes.add(xb.shape)
            steps += 1
    out = {f"{k}_us": 1e6 * v / steps for k, v in totals.items()}
    out["shapes"] = sorted(shapes)
    return out


def step_counts(prog: pr.ModelProgram, n_rows: int, n_cols: int, config) -> dict:
    """Computed work per step, averaged over the batches of one epoch.

    flops: multiply-adds of the linear terms and the dense products, forward
      and backward, at 2 flops each; softmax, exp/log and Adam are excluded.
      An intercept term costs one add forward and one backward.
    bytes: 8 bytes per element of the batch gather (read and write of the
      values, availability and choice rows), of every operand and result of
      the dense products, of the linear terms (forward reads x and updates a
      utility column, backward reads x and dV; intercepts read no x), and of
      the Adam update (reads gradient, moments and parameter; writes moments
      and parameter).
    prng draws: the epoch's permutation keys plus the dropout mask uniforms.
    """
    i_alts = prog.n_alts
    t_const = int((prog.term_col < 0).sum())
    t_col = prog.term_col.shape[0] - t_const
    dq, h, depth = prog.q_cols.shape[0], prog.hidden_width, prog.depth
    dropout_on = config.dropout > 0.0 and prog.has_net
    sizes = batch_sizes(n_rows, config.batch_size)

    n_trainable = prog.n_params
    if prog.use_nests and (prog.mu_free > 0).any():
        n_trainable += prog.mu.shape[0]
    if prog.has_net:
        n_trainable += dq * h + (depth - 1) * h * h + depth * h + h * i_alts + i_alts

    def matmul(m: int, k: int, n: int) -> tuple[int, int]:
        return 2 * m * k * n, m * k + k * n + m * n

    flops = elems = draws = 0
    for b in sizes:
        elems += 2 * b * (n_cols + i_alts + 1)
        flops += 4 * b * t_col + 2 * b * t_const
        elems += 5 * b * t_col + 3 * b * t_const
        if prog.has_net:
            products = [matmul(b, dq, h)] + [matmul(b, h, h)] * (depth - 1)
            products.append(matmul(b, h, i_alts))
            products += [matmul(h, b, i_alts), matmul(b, i_alts, h), matmul(dq, b, h)]
            products += [matmul(h, b, h), matmul(b, h, h)] * (depth - 1)
            flops += sum(f for f, _ in products)
            elems += sum(e for _, e in products)
        elems += 7 * n_trainable
        if dropout_on:
            draws += b * h
    draws += n_rows
    steps = len(sizes)
    return {"flops_per_step": flops / steps, "bytes_per_step": 8 * elems / steps,
            "prng_draws_per_step": draws / steps}
