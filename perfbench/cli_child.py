"""One traced ``tatekit`` CLI call, for the traced run of the cli workload.

Usage: python perfbench/cli_child.py <tatekit cli arguments>

Behaves like ``python -m tatekit.cli`` on stdout and exit code, then
writes one JSON line to stderr with the spans recorded in this process.
"""

import json
import sys
import time

start = time.perf_counter()
import tatekit.cli  # noqa: E402

import_s = time.perf_counter() - start

import tracer  # noqa: E402

spans = tracer.Tracer()
spans.install()
spans.begin_op(0, root=False)
try:
    code = tatekit.cli.main(sys.argv[1:])
finally:
    spans.end_op()
    spans.uninstall()
sys.stdout.flush()
sys.stderr.write("\n" + json.dumps({"import_s": import_s, "spans": spans.export(),
                                    "counters": dict(spans.counters)}) + "\n")
sys.exit(code)
