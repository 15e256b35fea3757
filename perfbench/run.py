#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of MinoanER.resolve.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload restaurant --seed 11 --seconds 5 --trace 0

The first run builds the program and the harness with sbt (perfbench/build.sbt
depends on the repository's own build) and stores the runtime classpath under
.bench_build/; later runs start the harness JVM directly from that classpath.
Each run writes its full record (environment, samples, match digest, per-unit
listener counts, traced layers) to .bench_build/records/ and prints, as the
last line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "2g"
MAIN = "repro.perfbench.Bench"
# Inputs of the build: a change to any of them rebuilds before the next run.
BUILD_INPUTS = ["build.sbt", "project", "src/main", "jobs", "perfbench/build.sbt",
                "perfbench/project", "perfbench/src"]
SBT_OFFLINE_OPTS = ["-Dsbt.override.build.repos=true", "-Dsbt.offline=true", "-Xmx2g"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp(root):
    h = hashlib.sha256()
    for rel in BUILD_INPUTS:
        p = root / rel
        files = [p] if p.is_file() else sorted(
            f for f in p.rglob("*") if f.is_file() and "target" not in f.relative_to(p).parts)
        for f in files:
            h.update(str(f.relative_to(root)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def sbt_env(tmp):
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = list(SBT_OFFLINE_OPTS)
        repos = Path.home() / ".sbt" / "repositories"
        if repos.is_file():
            opts.append(f"-Dsbt.repository.config={repos}")
        env["SBT_OPTS"] = " ".join(opts)
    env["SBT_OPTS"] += f" -Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    return env


def classpath(root, build_dir):
    """Builds when the sources changed since the last build; returns the classpath."""
    stamp = source_stamp(root)
    cp_file, stamp_file = build_dir / "classpath.txt", build_dir / "classpath.stamp"
    if cp_file.is_file() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt is not on PATH")
    proc = subprocess.run(
        [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "export Runtime/fullClasspath"],
        cwd=root / "perfbench", env=sbt_env(build_dir / "tmp"), stdout=subprocess.PIPE, stderr=sys.stderr,
        text=True, timeout=BUILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"build failed (sbt exit code {proc.returncode})")
    cp = lines[-1].strip()
    cp_file.write_text(cp)
    stamp_file.write_text(stamp)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "build.sbt").is_file() or not (root / "src" / "main" / "scala").is_dir():
        fail("run from the root of a repository checkout: build.sbt or src/main/scala is missing")
    build_dir = root / ".bench_build"
    (build_dir / "records").mkdir(parents=True, exist_ok=True)
    (build_dir / "tmp").mkdir(exist_ok=True)

    cp = classpath(root, build_dir)
    record = build_dir / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.unlink(missing_ok=True)
    java = shutil.which("java", path=str(Path(os.environ["JAVA_HOME"]) / "bin")) \
        if "JAVA_HOME" in os.environ else shutil.which("java")
    cmd = [java, f"-Xmx{HEAP}", f"-Djava.io.tmpdir={build_dir / 'tmp'}", "-XX:-UsePerfData",
           "-cp", cp, MAIN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--record", str(record)]
    # Spark takes scratch directories from these over spark.local.dir.
    env = {k: v for k, v in os.environ.items() if k not in ("SPARK_LOCAL_DIRS", "SPARK_EXECUTOR_DIRS")}
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark JVM exceeded {RUN_TIMEOUT_S} s and was stopped", 3)
    if code != 0 or not record.is_file():
        fail(f"benchmark JVM exited with code {code}", code or 4)

    rec = json.loads(record.read_text())
    print(f"perfbench: {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rec['result']['attempted']} units in {time.monotonic() - started:.1f} s, "
          f"digest {rec['matches']['digest'][:16]}, per heuristic {rec['matches']['per_heuristic']}",
          file=sys.stderr)
    print(json.dumps(rec["result"]))


if __name__ == "__main__":
    main()
