#!/usr/bin/env python3
"""Build (when the sources changed) and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table1 --seed 7 --seconds 10 --trace 0

The sbt build in perfbench/ compiles the repository's program from source
together with the benchmark; the classpath it exports is cached in
.bench_build/ under a fingerprint of every source and build file, so later
runs start the JVM directly. All arguments are passed on to perfbench.Main,
whose last line of standard output is the JSON result.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
SOURCES = ["build.sbt", "project/build.properties", "src/main",
           "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def fingerprint():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run(cmd, cwd, timeout, **kw):
    """Run cmd, killing it (and waiting for it) if it outlives timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{cmd[0]} exceeded {timeout} s")
    return proc.returncode, out


def classpath():
    stamp = os.path.join(BUILD_DIR, "fingerprint")
    cp_file = os.path.join(BUILD_DIR, "classpath")
    fp = fingerprint()
    if os.path.exists(stamp) and os.path.exists(cp_file):
        with open(stamp) as fh:
            if fh.read() == fp:
                with open(cp_file) as cf:
                    return cf.read()
    env = dict(os.environ, COURSIER_MODE="offline")
    opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline=true" not in opts:
        env["SBT_OPTS"] = (opts + " -Dsbt.offline=true").strip()
    code, out = run(["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
                     "export perfbench/Runtime/fullClasspath"],
                    os.path.join(ROOT, "perfbench"), BUILD_TIMEOUT_S,
                    env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail("build failed")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(cp_file, "w") as fh:
        fh.write(lines[-1])
    with open(stamp, "w") as fh:
        fh.write(fp)
    return lines[-1]


def main():
    for rel in SOURCES:
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"{rel} not found; run from the root of a repository checkout")
    cp = classpath()
    code, _ = run(["java", "-Xms1g", "-Xmx1g", "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2",
                   "-cp", cp, "perfbench.Main"] + sys.argv[1:],
                  ROOT, RUN_TIMEOUT_S, stdin=subprocess.DEVNULL)
    sys.exit(code)


if __name__ == "__main__":
    main()
