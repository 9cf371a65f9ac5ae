#!/usr/bin/env python3
"""Hybrid-query benchmark: builds the program from source, then runs one
workload and prints one JSON result line last on stdout.

Run from the root of a checkout:
  python3 perfbench/run.py --workload kg-batch --seed 1 --seconds 10 --trace 0

Workloads are kg-batch, kg-online and lp-flat (see perfbench/METRICS.md).
--trace 0 reports end-to-end metrics; --trace 1 is a separate run that
reports per-layer metrics and writes its spans under the build directory.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

RUN_TIMEOUT_S = 170
HEAP = "3g"


def git_sha():
    """HEAD of the checkout, or "none" when it is not the root of a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(os.getcwd()):
        return "none"
    return lines[1]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=["kg-batch", "kg-online", "lp-flat"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()

    classpath, digest = build.build()
    out_dir = os.path.abspath(build.build_dir())
    spans = os.path.join(out_dir, "trace", f"{a.workload}-seed{a.seed}.json")
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", f"-Xmx{HEAP}", f"-Xms{HEAP}", "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + tmp,
           "--add-modules=jdk.incubator.vector",
           "-Dlog4j.configurationFile=" + os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                                       "log4j2.properties"),
           "-Dspark.driver.host=127.0.0.1",
           "-Dspark.local.dir=" + os.path.join(out_dir, "spark-local"),
           "-Dspark.sql.warehouse.dir=" + os.path.join(out_dir, "spark-warehouse"),
           "-cp", classpath, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--out", spans,
           "--sha", git_sha(), "--src-hash", digest[:16]]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(out_dir, "spark-local"))
    # A SIGTERM still runs the `finally` below, so the JVM never outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(3)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        print(f"perfbench: benchmark exited with {proc.returncode}", file=sys.stderr)
        sys.exit(proc.returncode)
    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        sys.exit(4)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
