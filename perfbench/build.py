#!/usr/bin/env python3
"""Build file of the benchmark: compiles the program's sources and the
benchmark's Scala sources with the Scala compiler shipped in Spark's jars.

Run from the root of a checkout:  python3 perfbench/build.py
Prints the classpath of the build. Outputs go to $CARGO_TARGET_DIR (default
.bench_build)/perfbench, keyed by a hash of the sources, so an unchanged
tree is compiled once.
"""
import hashlib
import os
import shutil
import subprocess
import sys

PROGRAM_SOURCES = ["src/main/scala"]
PROGRAM_RESOURCES = "src/main/resources"
BENCH_SOURCES = ["perfbench/src"]


def fail(msg):
    print(f"perfbench build: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("SPARK_HOME must point at a Spark distribution (its jars/ hold Spark and scalac)")
    return os.path.join(home, "jars")


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def sources():
    files = []
    for root in PROGRAM_SOURCES + BENCH_SOURCES:
        if not os.path.isdir(root):
            fail(f"{root}/ not found: run from the root of a checkout of the program")
        for d, _, names in os.walk(root):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    if not any(f.startswith(PROGRAM_SOURCES[0]) for f in files):
        fail(f"no Scala sources under {PROGRAM_SOURCES[0]}/")
    return sorted(files)


def source_hash(files):
    h = hashlib.sha256()
    for f in files + resource_files():
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def resource_files():
    out = []
    for d, _, names in os.walk(PROGRAM_RESOURCES):
        out += [os.path.join(d, n) for n in names]
    return sorted(out)


def build():
    """Compile if needed; returns (classpath, source hash)."""
    jars = spark_jars()
    files = sources()
    digest = source_hash(files)
    classes = os.path.join(build_dir(), "classes-" + digest[:16])
    if not os.path.exists(os.path.join(classes, ".complete")):
        tmp = classes + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        # No perf-data file in the system temp directory: the build writes
        # only under build_dir().
        java_tmp = os.path.join(build_dir(), "tmp")
        os.makedirs(java_tmp, exist_ok=True)
        cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + java_tmp,
               "-cp", os.path.join(jars, "*"),
               "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + files
        print(f"perfbench build: compiling {len(files)} files", file=sys.stderr)
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("compilation failed")
        if os.path.isdir(PROGRAM_RESOURCES):
            shutil.copytree(PROGRAM_RESOURCES, tmp, dirs_exist_ok=True)
        open(os.path.join(tmp, ".complete"), "w").close()
        shutil.rmtree(classes, ignore_errors=True)
        os.rename(tmp, classes)
        for old in os.listdir(build_dir()):
            if old.startswith("classes-") and old != os.path.basename(classes):
                shutil.rmtree(os.path.join(build_dir(), old), ignore_errors=True)
    return os.pathsep.join([classes, os.path.join(jars, "*")]), digest


if __name__ == "__main__":
    print(build()[0])
