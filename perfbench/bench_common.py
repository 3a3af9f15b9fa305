"""Shared helpers for the benchmark scripts: build the Rust package, run
one measurement, and parse what it prints."""

import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_sr", "adaptive_step", "flow_fanout")
# A measurement must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cargo_env():
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target_dir()
    return env


def build():
    """Builds sdr-perfbench in release mode; returns the binary's path, or
    None (after reporting why on stderr) when the build fails."""
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        res = subprocess.run(
            cmd, cwd=ROOT, env=cargo_env(), stdout=sys.stderr, stderr=sys.stderr
        )
    except OSError as e:
        print("bench: cannot run cargo: %s" % e, file=sys.stderr)
        return None
    if res.returncode != 0:
        print("bench: build failed (exit %d)" % res.returncode, file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "sdr-perfbench")


class Run:
    """One finished measurement: exit code, stdout lines, and the parsed
    result, fingerprint and detail records (None when absent)."""

    def __init__(self, returncode, lines):
        self.returncode = returncode
        self.lines = lines
        self.result = None
        self.fingerprint = None
        self.detail = None
        for line in lines:
            if line.startswith("# fingerprint "):
                self.fingerprint = json.loads(line[len("# fingerprint ") :])
            elif line.startswith("# detail "):
                self.detail = json.loads(line[len("# detail ") :])
        if lines and lines[-1].startswith("{"):
            try:
                self.result = json.loads(lines[-1])
            except ValueError:
                pass

    def metric(self, name):
        return self.result["metrics"][name]["value"]


def run_binary(binary, workload, seed, seconds, trace, env=None, stream=False):
    """Runs one measurement. With `stream`, its standard output is passed
    through line by line. A run past the time limit is killed (and so
    exits non-zero)."""
    cmd = [
        binary,
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    full_env = dict(os.environ)
    full_env.update(env or {})
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=full_env, stdout=subprocess.PIPE, text=True, bufsize=1
    )
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            if stream:
                sys.stdout.write(line)
                sys.stdout.flush()
            lines.append(line.rstrip("\n"))
        proc.wait()
    finally:
        watchdog.cancel()
    return Run(proc.returncode, lines)
