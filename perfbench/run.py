#!/usr/bin/env python3
"""Host-time benchmark of the SDR stack.

    python3 perfbench/run.py --workload <bulk_sr|adaptive_step|flow_fanout> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml, its own workspace with
path dependencies on the repository's crates) in release mode, refuses to
run when an environment variable that silently changes what is measured is
set, and runs one measurement. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer ones. The last line of standard output is the
result object: {"correct", "attempted", "failed", "metrics"}.

The build goes to $CARGO_TARGET_DIR, or to .bench_build at the repository
root when that is unset. Exits non-zero without a result when the build or
the measurement fails.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_common  # noqa: E402

# Each of these pins a kernel, a backend or a debug path that the result
# would silently depend on; the fingerprint records what was active, but a
# measured run refuses them outright.
GUARDED = (
    "SDR_SIM_QUEUE",
    "SDR_TRACE",
    "SDR_GF256_KERNEL",
    "SDR_CRC32C_KERNEL",
    "SDR_ADAPT_DEBUG",
    "SDR_ENCODE_POOL",
)
GUARDED_PREFIXES = ("SDR_FIG09_",)


def guarded_env():
    return sorted(
        k
        for k in os.environ
        if k in GUARDED or any(k.startswith(p) for p in GUARDED_PREFIXES)
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=bench_common.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    pinned = guarded_env()
    if pinned:
        print(
            "run.py: refusing to measure with %s set: each changes what is "
            "measured (perfbench/sensitivity.py sets them on purpose)" % ", ".join(pinned),
            file=sys.stderr,
        )
        return 2
    binary = bench_common.build()
    if binary is None:
        return 3
    return bench_common.run_binary(
        binary, args.workload, args.seed, args.seconds, args.trace, stream=True
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
