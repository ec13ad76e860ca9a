"""Self-test of the benchmark itself, not of lchoice.

    python3 perfbench/selftest.py

Checks that:
- the stage replay runs at the batch shapes, in the order, the trainer uses;
- the per-step counts match a hand count on a small program;
- every workload, traced and untraced, prints exactly the metrics that
  BENCHMARK.json declares, with their units, passes its output checks, and
  shows a residual that is not negative beyond noise;
- a directory holding only BENCHMARK.json and the benchmark fails without
  printing a result.
Exits 1 on the first group of failures, 0 when everything holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import stages  # noqa: E402
import workloads  # noqa: E402
from lchoice import estimation, models  # noqa: E402
from lchoice.numcore import TrainConfig  # noqa: E402
from lchoice.numcore import program as pr  # noqa: E402

RESIDUAL_NOISE = 0.15  # share of us_per_step the residual may dip below 0
failures: list[str] = []


def expect(cond: bool, msg: str) -> None:
    if not cond:
        failures.append(msg)


def trainer_shapes(model, ds, config) -> list[tuple[int, int]]:
    """Batch shapes the trainer passes to linear_utilities, in call order."""
    seen = []
    original = pr.linear_utilities

    def spy(prog, data):
        seen.append(data.shape)
        return original(prog, data)

    pr.linear_utilities = spy
    try:
        estimation.fit_joint(model, ds, config, compute_std_errors=False)
    finally:
        pr.linear_utilities = original
    return seen[:config.epochs * len(stages.batch_sizes(ds.n_rows, config.batch_size))]


def test_replay_shapes() -> None:
    wl = workloads.make("lmnl_small")
    train, _, _ = wl.spec.make(0)
    train = train.subset(np.arange(130))
    config = TrainConfig(epochs=2, batch_size=50, dropout=0.2, seed=0)
    model = models.build_model("LMNL", ("1", "2"), wl.utility, q=wl.q, net_width=7, seed=0)
    seen = trainer_shapes(model, train, config)
    d = train.values.shape[1]
    expected = [(b, d) for b in stages.batch_sizes(130, 50)] * 2
    expect(seen == expected, f"trainer batch shapes {seen} != {expected}")
    prog = model.program(train.columns)
    replay = stages.replay_stages(prog, train.values, train.avail, train.choice, config,
                                  min_steps=1)
    expect(replay["shapes"] == sorted(set(seen)),
           f"replayed shapes {replay['shapes']} != trainer shapes {sorted(set(seen))}")


def test_counts() -> None:
    # one column term, one intercept, Dq=2, H=3, depth 2, I=2, one batch of 4
    utility = models.UtilitySpec((models.UtilityTerm.of("b", {"1": "x"}),), intercepts=("2",))
    model = models.build_model("LMNL", ("1", "2"), utility, q=("q1", "q2"), net_width=3,
                               net_depth=2, seed=0)
    prog = model.program(["x", "q1", "q2"])
    got = stages.step_counts(prog, 4, 3, TrainConfig(batch_size=4, dropout=0.5))
    b, dq, h, i = 4, 2, 3, 2
    macs = (b * dq * h + b * h * h + b * h * i            # forward
            + h * b * i + b * i * h + dq * b * h          # backward, output and first layer
            + h * b * h + b * h * h)                      # backward, hidden layer
    flops = 2 * macs + (4 * b + 2 * b)                    # column term 2+2 per row, intercept 1+1
    expect(got["flops_per_step"] == flops, f"flops {got['flops_per_step']} != {flops}")
    expect(got["prng_draws_per_step"] == 4 + b * h,
           f"draws {got['prng_draws_per_step']} != {4 + b * h}")


def run(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_workloads() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in workloads.NAMES:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            r = run(["--workload", name, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace)], ROOT)
            tag = f"{name} --trace {trace}"
            if r.returncode != 0:
                failures.append(f"{tag}: exit {r.returncode}: {r.stderr[-500:]}")
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: result keys {sorted(res)}")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{tag}: checks failed: {r.stdout[-800:]}")
            units = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == units, f"{tag}: metrics {got} != declared {units}")
            if trace:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                expect(m["numcore.residual_us"] >= -RESIDUAL_NOISE * m["numcore.us_per_step"],
                       f"{tag}: residual {m['numcore.residual_us']} us below noise "
                       f"of {m['numcore.us_per_step']} us per step")


def test_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    try:
        r = run(["--workload", "lmnl_small", "--seed", "0", "--seconds", "1", "--trace", "0"],
                bare)
        expect(r.returncode != 0, "run without the sources exited 0")
        expect('"metrics"' not in r.stdout, "run without the sources printed a result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    for test in (test_replay_shapes, test_counts, test_bare_directory, test_workloads):
        test()
        print(f"{test.__name__}: {'ok' if not failures else 'FAILED'}", flush=True)
        if failures:
            print("\n".join(failures))
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
