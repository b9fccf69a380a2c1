"""One fresh interpreter running one unit of one workload.

Started by run.py, never by hand.  Prints one JSON line with the child's
own set-up time, operation latencies, reference-work samples, failures,
peak RSS, output digest and, when traced, its aggregated spans and counts.
With --setup-only it stops at the end of set-up and prints only its set-up
time and reference samples.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

import regcore
import workloads
from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="the unit's seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before "
                             "it started this process")
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # never measure an installed copy instead of the checkout's sources
    if os.path.dirname(os.path.dirname(os.path.abspath(regcore.__file__))) \
            != os.path.abspath(args.src):
        print(f"regcore imported from {regcore.__file__}, not {args.src}",
              file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    probe = workloads.Probe(setup_only=args.setup_only)
    try:
        info = workloads.run(args.workload, args.seed, probe,
                             tracer.install if tracer else (lambda: None))
    except workloads.SetupDone:
        sys.stdout.write(json.dumps(
            {"setup_s": probe.setup_end - args.spawned_at,
             "reference_s": probe.reference}) + "\n")
        return 0
    latencies = [b - a for a, b in zip(probe.starts, probe.ends)]
    result = {
        "seed": args.seed,
        "setup_s": probe.setup_end - args.spawned_at,
        "latencies_s": latencies,
        "op_wall_s": sum(latencies),
        "reference_s": probe.reference,
        "failures": probe.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        **info,
    }
    if tracer is not None:
        result["trace"] = tracer.export()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
