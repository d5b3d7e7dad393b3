#!/usr/bin/env python3
"""Build the server and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Both builds share CARGO_TARGET_DIR
(default `.bench_build`). Build output goes to stderr; the last line of
stdout is the benchmark's JSON result. Exits non-zero, printing no result,
when the build or the run fails.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build(args):
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode == 0


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    if not build(["-p", "adds-cli"]):
        return 2
    if not build(["--manifest-path", os.path.join(HERE, "Cargo.toml")]):
        return 2
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    cmd = [
        os.path.join(target, "release", "perfbench"),
        *sys.argv[1:],
        "--cli",
        os.path.join(target, "release", "adds-cli"),
        "--work",
        work,
    ]
    # The benchmark and the servers it starts share one process group, so a
    # timeout or a termination signal stops all of them.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    signal.signal(signal.SIGTERM, lambda *a: (stop(), sys.exit(2)))
    try:
        code = proc.wait(timeout=165)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 2
    stop()
    return code


if __name__ == "__main__":
    sys.exit(main())
