#!/usr/bin/env python3
"""Build trsparsed and the perfbench driver from this checkout, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload build-cold --seed 1 --seconds 20 --trace 0

Every flag is passed through to the driver (see main.go). Build outputs,
the Go build cache and spans files go under $CARGO_TARGET_DIR (default
.bench_build) inside the checkout, so nothing is written outside it.
"""

import os
import shutil
import subprocess
import sys


def go_binary():
    go = shutil.which("go")
    if go:
        return go
    goroot = os.environ.get("GOROOT", "/usr/local/go")
    candidate = os.path.join(goroot, "bin", "go")
    if os.path.exists(candidate):
        return candidate
    sys.exit("run.py: no go toolchain on PATH")


def commit_of(root):
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        with open(os.path.join(root, ".git", name)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    bindir = os.path.join(build, "bin")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomod"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(build, "home", ".cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    for d in (bindir, env["GOTMPDIR"], env["XDG_CONFIG_HOME"], env["XDG_CACHE_HOME"]):
        os.makedirs(d, exist_ok=True)

    go = go_binary()
    server = os.path.join(bindir, "trsparsed")
    driver = os.path.join(bindir, "perfbench")
    for cwd, out, pkg in ((root, server, "./cmd/trsparsed"), (here, driver, ".")):
        done = subprocess.run([go, "build", "-o", out, pkg], cwd=cwd, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            sys.exit("run.py: building %s failed" % pkg)

    args = [driver, "--server", server, "--out", os.path.join(build, "spans"),
            "--commit", commit_of(root)] + sys.argv[1:]
    # Replace this process, so a signal to it reaches the driver, which
    # stops its servers.
    os.execv(driver, args)


if __name__ == "__main__":
    main()
