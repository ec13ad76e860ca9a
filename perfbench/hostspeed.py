"""How fast the host runs right now, from a fixed kernel timed between estimates.

A shared virtual machine was seen to switch between speeds about 1.5x apart,
each held for a fraction of a second to minutes; CPU time moved with wall
time, so the process ran more slowly rather than waiting.  A run's wall
times then depend on how much of it fell in the slow phase, and ten
25-second runs of one workload spread by more than a quarter of their median.

The benchmark therefore runs `StepKernel`, a plain-numpy replica of one
training step at the workload's shapes, between its timed estimates.  The
kernel is benchmark code and does the same work every time, so its time per
step follows only the host.  Dividing the run's mean time per kernel step by
the workload's reference time per step gives the host's slowdown over the
run; the timed metrics divide wall times by it.  Means, not medians: the
host's speed is bimodal, a median jumps between the modes, and a mean over
the run weighs both phases as the estimates met them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SAMPLE_S = 0.2  # one kernel sample lasts about this long at the reference speed


class StepKernel:
    """Forward and backward pass of a dense softmax net; parameters never change."""

    def __init__(self, batch: int, inputs: int, width: int, depth: int, alts: int,
                 dropout: float) -> None:
        rng = np.random.default_rng(20181222)
        self.x = rng.standard_normal((batch, inputs))
        sizes = [inputs] + [width] * depth
        self.hidden = [rng.standard_normal((a, b)) / np.sqrt(a)
                       for a, b in zip(sizes, sizes[1:])]
        self.out = rng.standard_normal((width, alts)) / np.sqrt(width)
        self.rows = np.arange(batch)
        self.choice = rng.integers(0, alts, batch)
        self.keep = 1.0 - dropout
        self.rng = rng

    def step(self) -> None:
        h, layers = self.x, []
        for w in self.hidden:
            mask = (self.rng.random((h.shape[0], w.shape[1])) < self.keep) / self.keep
            a = np.maximum(h @ w, 0.0) * mask
            layers.append((h, a, mask))
            h = a
        u = h @ self.out
        u -= u.max(axis=1, keepdims=True)
        p = np.exp(u)
        p /= p.sum(axis=1, keepdims=True)
        p[self.rows, self.choice] -= 1.0
        grads = [h.T @ p]
        g = p @ self.out.T
        for (h_in, a, mask), w in zip(reversed(layers), reversed(self.hidden)):
            g = g * (a > 0.0) * mask
            grads.append(h_in.T @ g)
            g = g @ w.T


class HostSpeed:
    """Kernel samples through a run, and the slowdown against the reference."""

    def __init__(self, kernel: StepKernel, reference_step_s: float) -> None:
        self.kernel = kernel
        self.reference_step_s = reference_step_s
        self.steps = max(1, round(SAMPLE_S / reference_step_s))
        self.samples: list[float] = []  # median seconds per kernel step, per sample

    def sample(self) -> float:
        """Run the kernel for one sample; keep its median time per step.

        The median drops the few steps that a stall of the whole process
        hits (in a 10-second trial, one sample of 15 deep_wide steps took
        18 times the usual); one such sample would move a run's mean by
        a fifth.  The estimates keep their stalls: a user waits for them.
        """
        clock, step = time.perf_counter, self.kernel.step
        times = []
        for _ in range(self.steps):
            t0 = clock()
            step()
            times.append(clock() - t0)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def slowdown(self, start: int = 0, stop: int | None = None) -> float:
        """Mean seconds per kernel step over samples[start:stop] ÷ the reference."""
        return statistics.fmean(self.samples[start:stop]) / self.reference_step_s
