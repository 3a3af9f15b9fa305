#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--out perfbench/results/steadiness.json]

Runs every workload once per seed (1, 2, ..., RUNS) for BENCHMARK.json's
run_seconds, exactly as its command would, then reports for every
end-to-end metric the median and the distance between the first and third
quartiles (Python's statistics.quantiles(values, n=4)) as a share of the
median, beside the metric's bound from BENCHMARK.json. A spread at or
above a third of the bound is flagged (setup_s excepted: its bound limits
the drift of its median, not its spread). The nearest-rank percentiles
each run records beside its Harrell-Davis ones are reported the same way,
with how many distinct values the seeds gave.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_common  # noqa: E402


RUNS = 10
NEAREST_RANK = ("nearest_rank_p50_ms", "nearest_rank_tail_ms")


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else 0.0


def main():
    with open(os.path.join(bench_common.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    binary = bench_common.build()
    if binary is None:
        return 3
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    ok = True
    for w in [x["name"] for x in bench["workloads"]]:
        values = {name: [] for name in bounds}
        nearest = {key: [] for key in NEAREST_RANK}
        fingerprints = []
        for i in range(RUNS):
            seed = 1 + i
            run = bench_common.run_binary(binary, w, seed, seconds, 0)
            if run.returncode != 0 or not run.result or not run.result["correct"]:
                print("%s seed %d failed (exit %d)" % (w, seed, run.returncode))
                return 1
            fingerprints.append(run.fingerprint)
            for name in bounds:
                values[name].append(run.metric(name))
            for key in NEAREST_RANK:
                nearest[key].append(run.detail[key])
            print(
                "%s seed %d: %s"
                % (w, seed, ", ".join("%s=%.6g" % (k, v[-1]) for k, v in values.items())),
                flush=True,
            )
        rows = {}
        for name, vals in values.items():
            med, sp = spread(vals)
            flagged = name != "setup_s" and sp >= bounds[name] / 3
            ok &= not flagged
            rows[name] = {
                "median": med,
                "iqr_share": sp,
                "bound": bounds[name],
                "within_third_of_bound": not flagged,
                "values": vals,
            }
            print(
                "  %-20s median %-14.6g spread %6.2f%%  bound %4.0f%%%s"
                % (name, med, sp * 100, bounds[name] * 100, "  <-- wide" if flagged else "")
            )
        # The nearest-rank percentiles the Harrell-Davis metrics replace:
        # recorded, not gated, as the evidence for that choice.
        nr_rows = {}
        for key, vals in nearest.items():
            med, sp = spread(vals)
            nr_rows[key] = {"median": med, "iqr_share": sp, "distinct": len(set(vals)),
                            "values": vals}
            print("  %-20s median %-14.6g spread %6.2f%%  %d distinct of %d"
                  % (key, med, sp * 100, len(set(vals)), len(vals)))
        report["workloads"][w] = {"metrics": rows, "nearest_rank": nr_rows,
                                  "fingerprints": fingerprints}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
