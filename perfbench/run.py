#!/usr/bin/env python3
"""Benchmark of phyres: calib, sweep and pipeline workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  One process runs one workload as a closed
loop: each pass starts when the previous one has finished, as long as a pass
of typical length still ends within ``--seconds`` (at least two passes;
three when tracing).  Inputs come from ``--seed``.  Every pass checks its
outputs, and all passes of a run must leave byte-identical outputs (manifest
wall clock aside) and, when traced, identical per-layer counts; otherwise the
run fails and exits 1.

Every time reported is rescaled to a reference host speed, which a small
fixed kernel samples throughout the run (see hostspeed.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces the set-up
and every other pass and prints the per-layer metrics.  The last stdout line
is the result as JSON.  Each run also writes its environment, per-pass times
and spans under ``.perfbench/results/``.  ``--smoke`` runs every workload at a
tiny size in both modes and checks that every metric of BENCHMARK.json is
reported with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["calib", "sweep", "pipeline"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if not (SRC / "phyres" / "__init__.py").is_file():
        print(f"perfbench: no phyres package under {SRC}", file=sys.stderr)
        return 2

    # One BLAS thread.  On two cores, idle OpenBLAS workers spin for a while
    # after each call and take the core the rest of the run needs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import hostspeed  # imports numpy, so the import below times phyres, scipy

    with hostspeed.HostSampler() as sampler:
        mark = sampler.mark()
        import phyres.cli  # noqa: F401  (imports every phyres module)
        import_s = sampler.since(mark)[1]
        import envinfo
        import harness
        import workloads

        if args.smoke:
            return harness.smoke(sampler, import_s)
        result, record, spans = harness.measure(args.workload, args.seed, args.seconds,
                                                bool(args.trace), workloads.FULL,
                                                sampler, import_s)
    path = harness.write_record(record, spans, envinfo.environment(ROOT))
    for k, v in result["metrics"].items():
        print(f"{args.workload} {k} = {v['value']} {v['unit']}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
