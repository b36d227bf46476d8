#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --selftest

Builds the verifier and the benchmark executable from this checkout
with dune, then runs the workload in a fresh process of the benchmark
executable. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
CLI = os.path.join(ROOT, "_build", "default", "bin", "verifyio_cli.exe")
WORKLOADS = ("wide", "serve")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no verifyio source tree to build (missing %s)" % need)
    # The shared dune cache lives outside the checkout; build without it.
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "-j", "2", "--display", "quiet",
         "./perfbench/perfbench.exe", "./bin/verifyio_cli.exe"],
        cwd=ROOT, stdout=sys.stderr, env=dict(os.environ, DUNE_CACHE="disabled"))
    if r.returncode != 0:
        fail("build failed")


def descendants(pid, depth=1):
    """(pid, depth) of every process below pid."""
    out = []
    try:
        with open("/proc/%d/task/%d/children" % (pid, pid)) as f:
            kids = [int(k) for k in f.read().split()]
    except OSError:
        return out
    for k in kids:
        out.append((k, depth))
        out.extend(descendants(k, depth + 1))
    return out


CPUS = sorted(os.sched_getaffinity(0))
SWAP_S = 2.0


def alternate_cpus(stop):
    """Move every process this run starts to the other vCPU every SWAP_S
    seconds; a parent and its child sit on different vCPUs. A vCPU that
    a busy neighbour slows then slows every part of the run alike, never
    a whole run or only some of its samples."""
    k = 0
    while len(CPUS) > 1 and not stop.wait(SWAP_S):
        k += 1
        for pid, depth in descendants(os.getpid()):
            try:
                os.sched_setaffinity(pid, {CPUS[(k + depth) % len(CPUS)]})
            except OSError:
                pass


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    os.chdir(ROOT)
    build()
    sys.stdout.flush()
    if a.selftest:
        sys.exit(subprocess.run([EXE, "selftest", "--cli", CLI]).returncode)
    stop = threading.Event()
    threading.Thread(target=alternate_cpus, args=(stop,), daemon=True).start()
    try:
        code = subprocess.run(
            [EXE, "run", "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace),
             "--cli", CLI]).returncode
    finally:
        stop.set()
    sys.exit(code)


if __name__ == "__main__":
    main()
