"""Peak memory of the library, for the ``peak_rss_mb`` metric.

Usage:
    python perfbench/rss_child.py <workload> <seed> <passes>
    python perfbench/rss_child.py cli <tatekit cli arguments>

The first form sets a library workload up once and runs ``passes``
passes drawn from the seed without checking or keeping the answers, so
the peak does not depend on how many ops a timed run got through.  The
second runs one CLI call as ``python -m tatekit.cli`` would.  Both write
the process's peak resident memory in KiB as the last line of standard
error.  The peak is the kernel's VmHWM, not ``ru_maxrss``: Linux carries
the parent's peak into a child's ``ru_maxrss`` across exec, and the
parent here is the harness.
"""

import os
import runpy
import sys
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def peak_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_passes(name: str, seed: int, passes: int) -> None:
    import workloads

    wl = workloads.WORKLOADS[name](workloads.import_library(), os.path.dirname(HERE))
    wl.warm_up()
    rng = Random(seed)
    for _ in range(passes):
        for op in wl.make_pass(rng):
            wl.run(op, wl.prepare(op))


def run_cli(argv: list[str]) -> int:
    sys.argv = ["tatekit.cli"] + argv
    try:
        runpy.run_module("tatekit.cli", run_name="__main__", alter_sys=True)
    except SystemExit as done:
        return done.code if isinstance(done.code, int) else 1
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        code = run_cli(sys.argv[2:])
    else:
        run_passes(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
        code = 0
    sys.stdout.flush()
    sys.stderr.write(f"\n{peak_kib()}\n")
    sys.exit(code)
