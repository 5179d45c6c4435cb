#!/usr/bin/env python3
"""Compares two benchmark result sets metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines `run.py --out FILE` appends (one per run,
tagged with workload, seed and trace). For every workload and metric it
prints both sides' medians and quartiles with the unit. Counts (unit
"count") are compared for exact equality seed by seed wherever both sets
ran the same seed: a seed fixes the inputs, so a count that moves is a
change in work done, never noise. Timings and other values are judged
by their medians: an end-to-end metric whose median is worse than the
base by more than its bound in BENCHMARK.json is a regression, and one
whose base spread (quartile distance over median) exceeds the bound is
unresolved. Exits 1 when any end-to-end metric regressed or a set
reported a wrong answer.
"""

import argparse
import collections
import json
import os
import statistics
import sys


def load(path):
    runs = collections.defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs[(r["workload"], r["trace"])].append(r)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def by_seed(runs, name):
    out = collections.defaultdict(set)
    for r in runs:
        if name in r["metrics"]:
            out[r["seed"]].add(r["metrics"][name]["value"])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--spec", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)

    bad = False
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        b_runs, n_runs = base.get(key, []), new.get(key, [])
        print(f"== {workload} (trace {trace}): {len(b_runs)} base runs, "
              f"{len(n_runs)} new runs")
        for label, runs in (("base", b_runs), ("new", n_runs)):
            failed = sum(r["failed"] for r in runs)
            if failed or not all(r["correct"] for r in runs):
                print(f"   {label}: {failed} wrong answers")
                bad = True
        if not b_runs or not n_runs:
            continue
        names = [m for m in meta if any(m in r["metrics"] for r in b_runs)]
        for name in names:
            m = meta[name]
            bv = [r["metrics"][name]["value"] for r in b_runs
                  if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n_runs
                  if name in r["metrics"]]
            if not bv or not nv:
                continue
            bmed, bq1, bq3 = summary(bv)
            nmed, nq1, nq3 = summary(nv)
            verdict = ""
            if m["unit"] == "count":
                bs, ns = by_seed(b_runs, name), by_seed(n_runs, name)
                shared = sorted(set(bs) & set(ns))
                if shared:
                    same = all(bs[s] == ns[s] for s in shared)
                    verdict = ("equal" if same else "CHANGED") + \
                        f" on {len(shared)} shared seed(s)"
            elif "bound" in m:
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (nmed - bmed) / bmed if bmed else 0.0
                spread = (bq3 - bq1) / bmed if bmed else 0.0
                if worse > m["bound"]:
                    verdict = f"REGRESSION (bound {m['bound']:.0%})"
                    bad = True
                elif spread > m["bound"]:
                    verdict = "unresolved (base spread above bound)"
                else:
                    verdict = f"within bound {m['bound']:.0%}"
            delta = (nmed - bmed) / bmed if bmed else 0.0
            print(f"   {name:32s} {m['unit']:6s} base {bmed:11.5g} "
                  f"[{bq1:.5g}, {bq3:.5g}]  new {nmed:11.5g} "
                  f"[{nq1:.5g}, {nq3:.5g}]  {delta:+8.2%}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
