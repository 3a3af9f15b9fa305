#!/usr/bin/env python3
"""Sensitivity check: can the benchmark see a change?

    python3 perfbench/sensitivity.py [--out perfbench/results/sensitivity.json]

Slows one layer through a kernel pin the program already reads and checks
that the end-to-end metrics move where the layer sits and nowhere else:

* SDR_GF256_KERNEL=scalar (Reed-Solomon arithmetic): adaptive_step's
  host_gbps must drop by more than its bound; bulk_sr and flow_fanout, which
  run no erasure coding, must stay within it.
* SDR_CRC32C_KERNEL=slice8 (every checksum): bulk_sr's host_gbps must drop
  by more than its bound.
* Under every pin, every sim_* metric and delivered_frac must be
  bit-identical to the unpinned run of the same seed.

Every run uses seed SEED for SECONDS seconds; configurations alternate
within each of REPS repetitions, and each configuration's host_gbps is the
median over repetitions. The measured runs themselves
refuse these variables (run.py), so this script calls the benchmark binary
directly. A predicted direction that does not show is a bug in the
benchmark: the script exits non-zero.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_common  # noqa: E402

PINS = {
    "baseline": {},
    "gf256_scalar": {"SDR_GF256_KERNEL": "scalar"},
    "crc32c_slice8": {"SDR_CRC32C_KERNEL": "slice8"},
}
# (pin, workload) -> expected effect on host_gbps: "drop" beyond the
# bound, "flat" within it, None for no prediction.
PREDICTIONS = {
    ("gf256_scalar", "adaptive_step"): "drop",
    ("gf256_scalar", "bulk_sr"): "flat",
    ("gf256_scalar", "flow_fanout"): "flat",
    ("crc32c_slice8", "bulk_sr"): "drop",
}
SEED = 11
SECONDS = 10
REPS = 2
SIM_METRICS = (
    "sim_goodput_gbps",
    "sim_fct_p50_ms",
    "sim_fct_tail_ms",
    "sim_jain",
    "delivered_frac",
)


def main():
    with open(os.path.join(bench_common.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}["host_gbps"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    binary = bench_common.build()
    if binary is None:
        return 3
    ok = True
    report = {"seed": SEED, "seconds": SECONDS, "reps": REPS,
              "host_gbps_bound": bound, "workloads": {}}
    for w in bench_common.WORKLOADS:
        gbps = {p: [] for p in PINS}
        sims = {}
        kernels = {}
        for _ in range(REPS):
            for pin, env in PINS.items():
                run = bench_common.run_binary(binary, w, SEED, SECONDS, 0, env=env)
                if run.returncode != 0 or not run.result or not run.result["correct"]:
                    print("%s under %s failed (exit %d)" % (w, pin, run.returncode))
                    return 1
                gbps[pin].append(run.metric("host_gbps"))
                sims.setdefault(pin, [])
                sims[pin].append({m: run.metric(m) for m in SIM_METRICS})
                kernels[pin] = {
                    "gf256": run.fingerprint["gf256_kernel"],
                    "crc32c": run.fingerprint["crc32c_kernel"],
                }
        base = statistics.median(gbps["baseline"])
        rows = {}
        for pin in PINS:
            med = statistics.median(gbps[pin])
            ratio = med / base
            pred = PREDICTIONS.get((pin, w))
            if pred == "drop":
                passed = ratio < 1 - bound
            elif pred == "flat":
                passed = abs(ratio - 1) <= bound
            else:
                passed = True
            ref = sims["baseline"][0]
            identical = all(s == ref for s in sims[pin])
            passed &= identical
            ok &= passed
            rows[pin] = {
                "kernels": kernels[pin],
                "host_gbps": gbps[pin],
                "host_gbps_median": med,
                "ratio_to_baseline": ratio,
                "prediction": pred,
                "sim_bit_identical": identical,
                "pass": passed,
            }
            print(
                "%-14s %-14s host_gbps %8.4f  ratio %.3f  predicted %-5s sim identical %-5s %s"
                % (w, pin, med, ratio, pred or "-", identical, "ok" if passed else "FAIL"),
                flush=True,
            )
        report["workloads"][w] = {"pins": rows, "sim_metrics": sims["baseline"][0]}
    report["pass"] = ok
    print("sensitivity check: %s" % ("pass" if ok else "FAIL"))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
