#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload update|read --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune, runs it, and passes its output
through; the last line is the JSON result.  The exit code is the
benchmark's: 0 when every output check passed, non-zero otherwise or when
the checkout cannot be built.  Result files go to .perfbench/ in the
checkout.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("update", "read")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ("lib", "bin", "bench", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


running = []


def stop_children(signum, _frame):
    """On SIGTERM or SIGINT, kill what this script started and wait for it."""
    for proc in running:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    sys.exit(128 + signum)


def run_group(cmd, timeout, capture=True):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so nothing it started outlives this script."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else None,
        stderr=subprocess.STDOUT if capture else None,
        text=True,
        start_new_session=True,
    )
    running.append(proc)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    finally:
        running.remove(proc)
    return proc.returncode, out


def source_digest():
    """Content hash of the sources, standing in for the git revision when
    the checkout is not a repository."""
    h = hashlib.sha256()
    for top in ("dune-project",) + SOURCE_DIRS:
        paths = []
        if os.path.isfile(top):
            paths = [top]
        else:
            for root, dirs, files in os.walk(top):
                dirs[:] = sorted(d for d in dirs if not d.startswith(("_", ".")))
                paths += [os.path.join(root, f) for f in sorted(files)]
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree:" + h.hexdigest()[:12]


def provenance():
    rev = None
    if os.path.isdir(".git") and shutil.which("git"):
        code, out = run_group(["git", "rev-parse", "--short=12", "HEAD"], 30)
        if code == 0:
            rev = out.strip()
    rev = rev or source_digest()
    ocaml, flambda = "unknown", "unknown"
    if shutil.which("ocamlopt"):
        code, out = run_group(["ocamlopt", "-config"], 30)
        for line in out.splitlines() if code == 0 else []:
            key, _, val = line.partition(": ")
            if key == "version":
                ocaml = val.strip()
            elif key == "flambda":
                flambda = val.strip()
    return "rev=%s ocaml=%s flambda=%s backend=domains+sim" % (rev, ocaml, flambda)


def main():
    signal.signal(signal.SIGTERM, stop_children)
    signal.signal(signal.SIGINT, stop_children)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of a checkout: %s is missing" % need)
    if not shutil.which("dune"):
        fail("dune is not on PATH")

    code, out = run_group(
        ["dune", "build", "--cache=disabled", "--root", ".",
         "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S,
    )
    if code != 0:
        sys.stderr.write(out)
        fail("build failed")

    cmd = [
        os.path.join("_build", "default", "perfbench", "bench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--provenance", provenance(),
    ]
    sys.stdout.flush()
    code, _ = run_group(cmd, RUN_TIMEOUT_S, capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
