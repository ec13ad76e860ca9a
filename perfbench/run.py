"""lchoice benchmark: four estimation workloads through the public API.

    python3 perfbench/run.py --workload lmnl_small --seed 0 --seconds 15 --trace 0

Run from the repository root.  Prints the environment, each metric by name
and unit, and any failed output check, then as its last line one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics listed in BENCHMARK.json, --trace 1 the per-layer ones.
The timed end-to-end metrics are wall times scaled to a reference host
speed, measured with a fixed kernel between estimates (see hostspeed.py).
perfbench/README.md describes the workloads and the metrics.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_ESTIMATES = 3
SETUP_SAMPLES = 5  # this process plus fresh processes that only set up
SETUP_SPEED_SAMPLES = 3  # host-speed samples taken right after set-up
PROBE_TIMEOUT_S = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(description="lchoice estimation benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment() -> dict:
    """Interpreter, BLAS, thread settings, backend and source revision."""
    import numpy as np

    from lchoice import numcore

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    backend = numcore.active_backend()
    # git reads only this checkout: no parent repository, no user or system config
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
                   GIT_OPTIONAL_LOCKS="0", GIT_CONFIG_NOSYSTEM="1",
                   GIT_CONFIG_GLOBAL=os.devnull)

    def git(*cmd):
        if not (ROOT / ".git").exists():
            return None
        try:
            r = subprocess.run(["git", *cmd], cwd=ROOT, env=git_env, capture_output=True,
                               text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "numba": numba_version,
        "backend": backend,
        # the numpy trainer is the program this benchmark measures; any other
        # backend is a different program and its figures do not compare
        "reference_program": backend == "numpy",
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }


def measure(wl, seconds: float, tracer, prefix: str, speed) -> list:
    """Closed loop, one caller: estimates back to back until ``seconds`` pass.

    A host-speed sample precedes the first estimate and follows each one.
    An estimate that raises counts as one failed fit; the loop goes on.
    """
    import workloads

    samples = []
    speed.sample()
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_ESTIMATES or time.perf_counter() < deadline:
        tracer.run = f"{prefix}{len(samples)}"
        t0 = time.perf_counter()
        try:
            est = wl.estimate()
        except Exception:  # noqa: BLE001 - recorded as a failed fit
            est = workloads.Estimate(time.perf_counter() - t0, [workloads.FitOutputs(
                wl.name, "raised", math.nan, math.nan, {}, False,
                problems=[traceback.format_exc(limit=-2).strip().replace("\n", " | ")])])
        samples.append((tracer.run, est, time.perf_counter() - t0))
        speed.sample()
    return samples


def judge(samples, references: dict, tol: float) -> tuple[int, list[str]]:
    """(fits attempted, problem lines) over every fit of every estimate."""
    import workloads

    attempted, problems = 0, []
    for _, est, _ in samples:
        for fit in est.fits:
            attempted += 1
            found = workloads.check(fit, references.get(fit.label), tol)
            if found:
                problems.append(f"{fit.label}: {'; '.join(found)}")
    return attempted, problems


def fit_attrs(keep_call: bool):
    def annotate(args, kwargs, result):
        attrs = {"steps": result.steps, "status": result.status}
        if keep_call:
            attrs["_call"] = (args, kwargs)
        return attrs
    return annotate


def install_light(tracer) -> None:
    """The one span the untraced runs keep: fit_program, for steps per second."""
    from lchoice import estimation

    tracer.wrap(estimation, "fit_program", "numcore.fit_program", fit_attrs(False))


def install_full(tracer) -> None:
    """Spans around every public call the workloads make, layer by layer."""
    import lchoice.numcore
    from lchoice import analysis, dataio, estimation, models, synthgen

    tracer.wrap(estimation, "fit_program", "numcore.fit_program", fit_attrs(True))
    tracer.wrap(lchoice.numcore, "gradients", "numcore.gradients")
    for owner in (estimation, analysis):
        tracer.wrap(owner, "fit_joint", "estimation.fit_joint")
    tracer.wrap(estimation, "build_report", "estimation.build_report")
    tracer.wrap(estimation, "hessian_std_errors", "estimation.hessian_std_errors")
    for owner in (models, analysis):
        tracer.wrap(owner, "build_model", "models.build_model")
    tracer.wrap(models.HybridChoiceModel, "program", "models.program")
    tracer.wrap(models, "predict_probabilities", "models.predict_probabilities")
    tracer.wrap(dataio, "load_csv", "dataio.load_csv",
                lambda a, k, ds: {"rows": ds.n_rows})
    tracer.wrap(dataio, "split", "dataio.split")
    tracer.wrap(analysis.DataSpec, "make", "synthgen.make")
    tracer.wrap(synthgen, "gen_semi_synthetic", "synthgen.make")
    tracer.wrap(analysis, "monte_carlo", "analysis.monte_carlo")


def mean_seconds(samples) -> float:
    return statistics.fmean(est.seconds for _, est, _ in samples)


def end_to_end(wl, samples, tracer, slowdown: float) -> dict:
    """Timed metrics at the reference host speed: wall time ÷ the run's slowdown.

    Each is a ratio of sums over the whole run, that is, a mean (see
    hostspeed.py for why not a median).
    """
    ests = [est for _, est, _ in samples]
    if all(est.steps is not None for est in ests):
        # fits ran in worker processes: steps over the campaign's wall time
        steps, fit_s = sum(est.steps for est in ests), sum(est.seconds for est in ests)
    else:
        fits = tracer.named("numcore.fit_program", {run for run, _, _ in samples})
        steps, fit_s = sum(s.attrs["steps"] for s in fits), sum(s.duration for s in fits)
    completed = sum(f.status != "raised" for est in ests for f in est.fits)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "estimate_s": mean_seconds(samples) / slowdown,
        "train_steps_per_s": steps / fit_s * slowdown,
        "reps_per_s": completed / sum(wall for _, _, wall in samples) * slowdown,
        # ru_maxrss is in KiB; each worker alive at once may reach the largest
        # child's peak
        "peak_rss_mb": (own + wl.jobs * child) / 1024.0,
    }


def per_layer(wl, tracer, untraced, traced, slowdowns) -> tuple[dict, list]:
    import stages
    from tracing import median_or_zero as med

    if wl.name == "campaign":
        layer_runs = {s.run for s in tracer.spans if s.run.startswith("replay:")}
        numcore_runs = {r for r in layer_runs if r.startswith("replay:LMNL:")}
    else:
        layer_runs = numcore_runs = {run for run, _, _ in traced}
    fits = tracer.named("numcore.fit_program", numcore_runs)
    us_per_step = med(1e6 * s.duration / s.attrs["steps"] for s in fits)
    args, kwargs = fits[-1].attrs["_call"]
    prog, data, avail, choice, config = args[:5]
    replay = stages.replay_stages(prog, data, avail, choice, config)
    counts = stages.step_counts(prog, data.shape[0], data.shape[1], config)
    hessians = tracer.named("estimation.hessian_std_errors", layer_runs)
    reports = tracer.named("estimation.build_report", layer_runs)
    loads = tracer.named("dataio.load_csv", layer_runs)
    campaigns = tracer.named("analysis.monte_carlo",
                             {r for r in layer_runs if r.startswith("replay:")})
    untraced_s = statistics.median(est.seconds for _, est, _ in untraced)
    # each half at the reference host speed, so that a change of host phase
    # between the halves does not read as tracing overhead
    overhead = ((mean_seconds(traced) / slowdowns[1])
                / (mean_seconds(untraced) / slowdowns[0]) - 1.0)
    out = {
        "numcore.fit_program_s": med(s.duration for s in fits),
        "numcore.steps": med(s.attrs["steps"] for s in fits),
        "numcore.us_per_step": us_per_step,
        **{f"numcore.{k}": replay[k] for k in replay if k.endswith("_us")},
        "numcore.residual_us": us_per_step - sum(replay[f"{k}_us"] for k in stages.STAGES),
        **{f"numcore.{k}": v for k, v in counts.items()},
        "estimation.hessian_s": med(s.duration for s in hessians),
        "estimation.hessian_grad_calls": med(
            len(tracer.children(s, "numcore.gradients")) for s in hessians),
        "estimation.report_s": med(
            s.duration - sum(c.duration for c in tracer.children(
                s, "estimation.hessian_std_errors")) for s in reports),
        "models.build_s": med(
            b + p for b, p in zip(tracer.per_run_total("models.build_model", layer_runs),
                                  tracer.per_run_total("models.program", layer_runs,
                                                       self_only=True))),
        "models.predict_s": med(s.duration for s in
                                tracer.named("models.predict_probabilities", layer_runs)),
        "dataio.load_csv_s": med(s.duration for s in loads),
        "dataio.load_csv_rows_per_s": med(s.attrs["rows"] / s.duration for s in loads),
        "dataio.split_s": med(s.duration for s in tracer.named("dataio.split", layer_runs)),
        "synthgen.make_s": med(s.duration for s in tracer.named("synthgen.make")),
        "analysis.rep_s": med(s.duration for s in campaigns),
        "analysis.parallel_efficiency": (sum(s.duration for s in campaigns)
                                         / (wl.jobs * untraced_s) if campaigns else 0.0),
        "trace.overhead_frac": overhead,
    }
    return out, replay["shapes"]


def setup_probes(args) -> list[float]:
    """Set-up time of fresh processes that import, generate and warm up only."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=PROBE_TIMEOUT_S)
        if r.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {r.stderr.strip()[-400:]}")
        times.append(json.loads(r.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "lchoice" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"perfbench: needs {SRC / 'lchoice'} and {bench_file}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    reference = json.loads((HERE / "reference.json").read_text())
    refs = reference["workloads"].get(args.workload, {}).get(str(args.seed), {})

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload)
    tracer = Tracer()
    (install_full if args.trace else install_light)(tracer)
    try:
        wl.setup(args.seed, str(OUT))
        setup_wall_s = time.perf_counter() - T0
        speed = wl.host_speed()
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        setup_s = setup_wall_s / speed.slowdown()
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        first = len(speed.samples)
        if args.trace:
            tracer.restore()
            install_light(tracer)
            untraced = measure(wl, args.seconds / 2, tracer, "untraced:", speed)
            half = len(speed.samples)
            tracer.restore()
            install_full(tracer)
            traced = measure(wl, args.seconds / 2, tracer, "traced:", speed)
            slowdowns = (speed.slowdown(first, half), speed.slowdown(half))
            replayed, replay_problems = (wl.replay(tracer) if args.workload == "campaign"
                                         else (0, []))
            samples = untraced + traced
        else:
            samples = measure(wl, args.seconds, tracer, "untraced:", speed)
            replayed, replay_problems = 0, []
        slowdown = speed.slowdown(first)
    finally:
        tracer.restore()
        wl.cleanup()

    attempted, problems = judge(samples, refs, reference["tolerance"])
    if all(f.status == "raised" for _, est, _ in samples for f in est.fits):
        print("\n".join(problems), file=sys.stderr)
        print("perfbench: every estimate raised; nothing to measure", file=sys.stderr)
        return 1
    if args.trace:
        metrics, shapes = per_layer(wl, tracer, untraced, traced, slowdowns)
    else:
        metrics = end_to_end(wl, samples, tracer, slowdown)
    problems += replay_problems
    attempted += replayed
    failed = len(problems)
    if not args.trace:
        metrics["setup_s"] = statistics.median([setup_s] + setup_probes(args))
    env = environment()

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment " + json.dumps(env))
    if not env["reference_program"]:
        print(f"WARNING: backend {env['backend']!r} is not the numpy program this "
              f"benchmark measures; these figures are a different program's")
    print(f"estimates timed: {len(samples)}; fits checked: {attempted}; "
          f"reference values at this seed: {'yes' if refs else 'no'}; "
          f"failed_frac {failed / attempted:.4f}")
    times = [est.seconds for _, est, _ in samples]
    print("estimate wall seconds: " + " ".join(f"{t:.4f}" for t in times))
    print(f"estimate wall seconds: median {statistics.median(times):.4f}, "
          f"mean {statistics.fmean(times):.4f}, min {min(times):.4f}, max {max(times):.4f}")
    print(f"host slowdown against the reference speed: {slowdown:.4f} over "
          f"{len(speed.samples) - first} kernel samples of {speed.steps} steps; "
          f"set-up wall seconds {setup_wall_s:.4f}")
    if args.trace:
        print(f"replayed batch shapes: {shapes}")
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(str(path), {"workload": args.workload, "seed": args.seed,
                                "environment": env})
        print(f"spans written to {path.relative_to(ROOT)}")
    for line in problems:
        print(f"FAILED {line}")
    result = {}
    for m in wanted:
        result[m["name"]] = {"value": float(metrics[m["name"]]), "unit": m["unit"]}
        print(f"  {m['name']:<32} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
