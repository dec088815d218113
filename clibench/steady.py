#!/usr/bin/env python3
"""Steadiness check: runs every workload in separately started sets.

    python3 clibench/steady.py

It runs from the root of the checkout that holds it. Each of two sets runs
`run.py` ten times on every workload, each time with another seed and
for BENCHMARK.json's `run_seconds`; the sets run one after the other, so
they start at different times. For every end-to-end metric it prints each
set's median and quartiles and the spread (quartile distance over median),
and, comparing the second set with the first, whether its median is
worse by more than the metric's bound in BENCHMARK.json. Exits 1 if a
spread exceeds its bound, if the second set is worse than the first by
more than a bound, or if the failed shares differ.
"""

import json
import os
import statistics
import subprocess
import sys

SETS, RUNS = 2, 10


def run_set(index, workloads, seconds):
    results = {}
    for w in workloads:
        for i in range(RUNS):
            seed = 1000 * index + i + 1
            out = subprocess.run(
                [sys.executable, "clibench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
            )  # fmt: skip
            doc = json.loads(out.stdout.splitlines()[-1])
            results.setdefault(w, []).append(doc)
            print(f"set {index} {w} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in doc["metrics"].items()),
                  file=sys.stderr)  # fmt: skip
    return results


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    sets = [
        run_set(index + 1, workloads, bench["run_seconds"])
        for index in range(SETS)
    ]

    ok = True
    for w in workloads:
        shares = {(sum(d["failed"] for d in s[w]), sum(d["attempted"] for d in s[w])) for s in sets}
        shares = {f / a for f, a in shares}
        if len(shares) > 1:
            ok = False
        print(f"{w}: failed share {sorted(shares)}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row = []
            medians = []
            for s in sets:
                values = [d["metrics"][name]["value"] for d in s[w]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                row.append(f"median {med:.4g} [{q1:.4g}, {q3:.4g}] spread {spread:.3f}")
                if spread > bound:
                    ok = False
            worse = [
                (med - medians[0]) / medians[0] * (1 if m["better"] == "lower" else -1)
                for med in medians[1:]
            ]
            if any(x > bound for x in worse):
                ok = False
            drift = " ".join(f"{x:+.3f}" for x in worse)
            print(f"  {name:18} bound {bound:.2f} | " + " | ".join(row) + f" | worse by {drift}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    sys.exit(main())
