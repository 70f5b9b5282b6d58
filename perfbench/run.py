#!/usr/bin/env python3
"""Build and run the speccal end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet_serial --seed 13 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --self-test

Every argument except --self-test goes to the benchmark binary, which
parses it strictly (see perfbench/README.md). The binary runs one workload
per process, so no workload inherits another's heap or warm caches;
`--workload all` or a comma list starts one process per workload, in turn.
The binary is built from source into .bench_build/perfbench on each call;
an up-to-date tree costs about a second. Build output goes to stderr, so
the last line of stdout is the (last) workload's JSON result.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["fleet_serial", "fleet_parallel", "wire_replay", "paper_sites"]


def run(cmd, **kwargs):
    return subprocess.run(cmd, cwd=ROOT, check=False, **kwargs).returncode


def build(targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], stdout=sys.stderr) != 0:
            return False
    for target in targets:
        if run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
               stdout=sys.stderr) != 0:
            return False
    return True


def commit():
    """Git commit of the tree, or 'unknown' outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=False,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def source_digest():
    """SHA-256 prefix over the library and benchmark sources, so results
    from checkouts without git history still name the code they measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def split_workloads(argv):
    """One argument list per workload named by --workload all|A,B,..."""
    for i, arg in enumerate(argv):
        if arg == "--workload" and i + 1 < len(argv):
            at, value = (i, i + 2), argv[i + 1]
        elif arg.startswith("--workload="):
            at, value = (i, i + 1), arg[len("--workload="):]
        else:
            continue
        names = WORKLOADS if value == "all" else value.split(",")
        if len(names) == 1:
            break
        return [argv[:at[0]] + ["--workload", name] + argv[at[1]:] for name in names]
    return [argv]


def main(argv):
    if argv == ["--self-test"]:
        if not build(["all"]):
            return 1
        return run(["ctest", "--test-dir", BUILD, "--output-on-failure"],
                   stdout=sys.stderr)
    if not build(["speccal_perfbench"]):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    extra = ["--commit", commit(), "--source-digest", source_digest()]
    status = 0
    for args in split_workloads(argv):
        status = max(status, run([os.path.join(BUILD, "speccal_perfbench")] + args + extra))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
