#!/usr/bin/env python3
"""Build antgpud and the perfbench command from this checkout, then run one
benchmark run.

Usage (from the repository root):

    python3 perfbench/run.py --workload svc-small --seed 1 --seconds 10 --trace 0

--workload is svc-small, engine-large, paper-gpu, upload-distinct or all.
Every build output, Go cache, server log and span file goes under
.bench_build/ in the repository root; nothing is written elsewhere. The last
line of standard output is the run's JSON result (see perfbench/README.md).
"""

import ctypes
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die_with_parent():
    """Runs in the child before exec: SIGKILL it if this script dies."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "cmd", "antgpud"))
            and os.path.isfile(os.path.join(root, "perfbench", "go.mod"))):
        fail("run from the repository root: go.mod, cmd/antgpud and perfbench/go.mod are needed", 2)
    go = shutil.which("go")
    if go is None:
        fail("the go toolchain is not on PATH", 2)

    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    # Keep the toolchain's caches, config and temporary files inside the
    # checkout, and never let it reach for the network.
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    server = os.path.join(build, "antgpud")
    bench = os.path.join(build, "perfbench")
    for cwd, args in ((root, ["build", "-o", server, "./cmd/antgpud"]),
                      (os.path.join(root, "perfbench"), ["build", "-o", bench, "."])):
        try:
            r = subprocess.run([go] + args, cwd=cwd, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"go {' '.join(args)} timed out")
        if r.returncode != 0:
            fail(f"go {' '.join(args)} failed")

    sys.stdout.flush()
    # perfbench and the servers it starts share a new process group, so a
    # timeout can stop all of them; each also dies with its parent.
    proc = subprocess.Popen([bench] + sys.argv[1:] + ["--server", server, "--out", build],
                            cwd=root, env=env, start_new_session=True,
                            preexec_fn=die_with_parent)
    # --workload all runs every workload in one process.
    timeout = RUN_TIMEOUT_S * (4 if "all" in sys.argv[1:] else 1)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        # SIGTERM makes perfbench stop and reap its server; SIGKILL to the
        # whole group is the backstop.
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        fail(f"run exceeded {timeout}s")
    sys.exit(code)


if __name__ == "__main__":
    main()
