#!/usr/bin/env python3
"""MIXY benchmark: builds mixyc, mixcheck and mixyd from the checkout,
runs one workload (or all of them) from outside through their public
surfaces, checks every answer against the verdict the input generator
planted, and prints the metrics.

One run:
    python3 perfbench/run.py --workload mixy-symbolic --seed 1 \
        --seconds 20 --trace 0
All workloads, every metric printed by name and unit:
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json and perfbench/NOTES.md). The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--out FILE also appends each result, tagged with workload, seed and
trace, as one JSON line; perfbench/compare.py diffs two such files.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = os.path.join(harness.ROOT, "BENCHMARK.json")


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run_one(name, seed, seconds, trace, spec):
    harness.fresh_run_dir()
    metrics, info, tally = workloads.WORKLOADS[name](seed, seconds, trace)
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = set(units) - set(metrics)
    if missing:
        raise harness.BenchError(f"metrics not produced: {sorted(missing)}")
    print(f"{name} seed={seed} trace={trace}: {info.pop('samples')} "
          f"requests measured, {info.pop('beyond_p90')} beyond p90")
    for key, value in info.items():
        print(f"  {key}: {value}")
    print(f"  {'failed_frac':34s} {tally.failed / tally.attempted:12.6g} "
          f"frac ({tally.failed} of {tally.attempted})")
    for reason, count in tally.reasons.most_common():
        print(f"    failed: {count} x {reason}")
    for m in wanted:
        print(f"  {m['name']:34s} {metrics[m['name']]:12.6g} {m['unit']}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="default: 0 for one workload, both for 'all'")
    ap.add_argument("--out", help="append tagged results to this file")
    args = ap.parse_args()

    os.chdir(harness.ROOT)
    try:
        harness.become_subreaper()
        spec = load_spec()
        harness.build()
        names = list(workloads.WORKLOADS) if args.workload == "all" \
            else [args.workload]
        traces = [args.trace] if args.trace is not None else \
            ([0, 1] if args.workload == "all" else [0])
        results = []
        for name in names:
            for trace in traces:
                res = run_one(name, args.seed, args.seconds, trace, spec)
                results.append(res)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps({"workload": name,
                                            "seed": args.seed,
                                            "trace": trace, **res}) + "\n")
    except (harness.BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        harness.log(f"perfbench: {e}")
        return 2
    if len(results) > 1:
        # The one-line summary of a multi-workload run.
        results = [{"correct": all(r["correct"] for r in results),
                    "attempted": sum(r["attempted"] for r in results),
                    "failed": sum(r["failed"] for r in results),
                    "metrics": {}}]
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
