"""Mini-batch Adam training of a ModelProgram: the one trainer.

Each step is `program.step` of a `program.Batch`, bound once per fit: its views
of the epoch buffers, its probability rows and its dropout mask.  It is the step
`program.gradients` runs, the gradient the finite-difference tests check.  The
fit holds one compiled copy of its inputs (`compile_inputs`: availability as a
boolean "unavailable" mask, the choice one-hot), refilled in place from the
dataset once per epoch with that epoch's permutation of the rows, so each batch
is a contiguous slice.  Every trained tensor is a view into one flat vector, its
gradient a view into another that the step writes through one `program.StepWork`
per fit (tensors a phase does not train are not backpropagated).  Adam updates
each of its two moments with scalar rates and bias corrections; it, the
divergence snapshot and the rollback are in-place vector operations.

Stream contract: the fit reads stream ``StreamId.FIT`` of ``config.seed``
(`prng`) in order.  Per epoch it takes N permutation keys and then, per batch
that trains the net with dropout, B*H mask uniforms in sample-major order.
Each draw is addressed by its index, so a fit is reproducible across runs and
across the `jobs` setting of the replication drivers, and the masks of
consecutive batches, being one contiguous block of the stream, are drawn
together, up to DRAW_CAP per call, without changing a draw.  A mask is
``(u >= dropout) / (1 - dropout)`` of its uniforms u, drawn by
`prng.Stream.keep_mask` from the integer states without forming u.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from . import prng
from . import program as pr

# uniforms per PRNG call, in whole batches: keeps a draw's arrays under glibc's
# 128 KiB mmap threshold, so they reuse heap pages instead of faulting in fresh
# ones each epoch.  A batch whose mask alone exceeds the cap is drawn whole
# (500 rows x 100 units: 50,000 uniforms per call)
DRAW_CAP = 16_000
# Adam's moment decay rates and the floor added to its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-7
_FIELD_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a real number")}


def active_backend() -> str:
    """Name of the program that trains a fit; there is one, the numpy trainer."""
    return "numpy"


@dataclass
class TrainConfig:
    """Settings for one fit: fixed epoch count, no early stopping."""

    epochs: int = 200
    batch_size: int = 50
    dropout: float = 0.2
    l2: float = 0.0
    seed: int = 0
    learning_rate: float = 0.001

    def __post_init__(self) -> None:
        for f in fields(self):  # a bool is neither an int nor a float here
            (kind, what), value = _FIELD_KINDS[f.type], getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not (math.isfinite(self.l2) and self.l2 >= 0.0):
            raise ValueError("l2 must be finite and non-negative")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError("learning_rate must be finite and > 0")


@dataclass
class FitResult:
    status: str  # "ok" or "diverged"
    epochs_run: int
    steps: int
    trace: np.ndarray  # mean data NLL per epoch, training-mode forward


def fit_program(prog: pr.ModelProgram, data: np.ndarray, avail: np.ndarray,
                choice: np.ndarray, config: TrainConfig,
                train_beta: bool = True, train_net: bool = True) -> FitResult:
    """Train the program's flagged blocks in place; free nest factors always train."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    avail = np.ascontiguousarray(avail, dtype=np.float64)
    choice = np.ascontiguousarray(choice, dtype=np.int64)
    n, bs = data.shape[0], config.batch_size
    if avail.shape[0] != n or choice.shape[0] != n:
        raise ValueError(f"data, avail and choice row counts differ: shapes {data.shape}, "
                         f"{avail.shape} and {choice.shape}")
    reads = int(np.concatenate([prog.lin_cols, prog.q_cols, [-1]]).max()) + 1
    if n == 0 or data.ndim != 2 or data.shape[1] < reads or avail.shape != (n, prog.n_alts):
        raise ValueError(f"data of shape {data.shape}, avail of shape {avail.shape}: the program"
                         f" needs a row, {reads} data columns and {prog.n_alts} alternatives")
    if fault := pr.choice_fault(~(avail > 0), choice):  # before the one-hot choice indexes by it
        raise ValueError(fault)
    cell = pr.first_nonfinite(prog, data)
    if cell is not None:
        raise ValueError(f"row {cell[0]}: non-finite value in data column {cell[1]}")

    width = prog.hidden_width
    stream = prng.Stream(config.seed, prng.StreamId.FIT)
    dropout_on = config.dropout > 0.0 and train_net and prog.has_net
    rows_per_draw = bs * max(1, DRAW_CAP // (bs * width)) if dropout_on else n
    l2 = config.l2 if train_net else 0.0

    names = ["beta"] if train_beta and prog.n_params > 0 else []
    if train_net and prog.has_net:
        names += list(pr.NET_TENSORS)
    fit_mu = prog.use_nests and bool((prog.mu_free > 0).any())
    names += ["mu"] if fit_mu else []
    tensors = [getattr(prog, k) for k in names]
    flat = np.concatenate([a.ravel() for a in tensors] + [np.zeros(0)])
    grad = np.zeros(flat.size)  # laid out like `flat`, as are Adam's rows below
    (m1, m2), (adam1, adam2) = np.zeros((2, 2, flat.size))  # Adam's moments and work rows
    bounds = np.cumsum([a.size for a in tensors])[:-1]
    views, grads = ({k: part.reshape(a.shape)
                     for k, part, a in zip(names, np.split(vec, bounds), tensors)}
                    for vec in (flat, grad))
    trained = replace(prog, **views)  # the program, reading the trained tensors from `flat`
    work = pr.StepWork(trained, min(bs, n), grads, holes=not (avail > 0).all(), l2=l2)
    good = flat.copy()
    probs = np.empty((n, prog.n_alts))
    inputs, chs = None, np.empty(n, dtype=np.int64)  # the epoch's rows, refilled in place
    batches = []  # per batch: its first row and its `program.Batch`
    mask_cells = np.empty(min(rows_per_draw, n) * width * dropout_on)  # one draw's masks
    masks = mask_cells.reshape(-1, width) if dropout_on else None

    b1, b2, b1p, b2p = ADAM_BETA1, ADAM_BETA2, 1.0, 1.0
    # Adam's scalars as 0-d arrays, which numpy takes faster than Python floats
    decay1, decay2, rate1, rate2, corr1, corr2, lr, eps = (np.array(x) for x in (
        b1, b2, 1.0 - b1, 1.0 - b2, 1.0, 1.0, config.learning_rate, ADAM_EPS))
    mu = views["mu"] if fit_mu else None
    trace = np.full(config.epochs, np.nan)
    status, epochs_run = "ok", 0

    for epoch in range(config.epochs):
        perm = np.argsort(stream.draw(n))
        inputs = pr.compile_inputs(prog, data, avail, choice, perm, inputs)
        np.take(choice, perm, out=chs)
        if not batches:  # every epoch refills the same buffers, so their views last the fit
            for start in range(0, n, bs):
                b, at, rows = slice(start, start + bs), start % rows_per_draw, min(bs, n - start)
                batches.append((start, pr.Batch(work, *(a[b] for a in inputs), probs[b],
                                                masks[at:at + rows] if dropout_on else None)))
        for start, batch in batches:
            if dropout_on and start % rows_per_draw == 0:
                cells = min(rows_per_draw, n - start) * width
                stream.keep_mask(cells, config.dropout, out=mask_cells[:cells])
            pr.step(trained, batch, l2, batch.rows)

            # Adam: m1 = b1*m1 + (1-b1)*g, m2 = b2*m2 + ((1-b2)*g)*g, flat -= (lr*(m1/corr1))
            # / (sqrt(m2/corr2) + eps), corr = 1 - b**t, in that order of operations
            b1p, b2p = b1p * b1, b2p * b2
            corr1[()], corr2[()] = 1.0 - b1p, 1.0 - b2p
            m1 *= decay1
            m1 += np.multiply(grad, rate1, out=adam1)
            m2 *= decay2
            m2 += np.multiply(np.multiply(grad, rate2, out=adam2), grad, out=adam2)
            np.divide(m1, corr1, out=adam1)
            np.sqrt(np.divide(m2, corr2, out=adam2), out=adam2)
            adam2 += eps
            adam1 *= lr
            flat -= np.divide(adam1, adam2, out=adam1)
            if mu is not None:
                np.maximum(mu, 1.0, out=mu)

        trace[epoch] = float(pr.sample_nll(probs, chs).sum()) / n
        epochs_run = epoch + 1
        if not np.isfinite(trace[epoch]):
            flat[...] = good
            status = "diverged"
            break
        good[...] = flat

    for k in names:
        getattr(prog, k)[...] = views[k]
    steps = epochs_run * -(-n // bs)  # every epoch run completes its batches
    return FitResult(status, epochs_run, steps, trace[:epochs_run])
