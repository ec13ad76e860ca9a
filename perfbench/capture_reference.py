"""Record the reference outputs the benchmark checks at seeds 0-9.

    python3 perfbench/capture_reference.py

Runs one estimate of every workload at each seed and writes the training
log-likelihood, the coefficients and the free nest factors of every fit to
perfbench/reference.json.  Run it only when a change is meant to move these
outputs; the benchmark then compares every later run at those seeds to them.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

SEEDS = range(10)
TOLERANCE = 1e-8


def main() -> int:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    refs: dict = {}
    for name in workloads.NAMES:
        for seed in SEEDS:
            wl = workloads.make(name)
            try:
                wl.setup(seed, str(out_dir))
                est = wl.estimate()
            finally:
                wl.cleanup()
            for fit in est.fits:
                problems = workloads.check(fit, None, TOLERANCE)
                if problems:
                    raise SystemExit(f"{name} seed {seed} {fit.label}: {problems}")
            refs.setdefault(name, {})[str(seed)] = {
                fit.label: workloads.reference_record(fit) for fit in est.fits}
            print(f"{name} seed {seed}: {len(est.fits)} fit(s)", flush=True)
    path = HERE / "reference.json"
    path.write_text(json.dumps({"tolerance": TOLERANCE, "workloads": refs}, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
