"""Run ``quantband.cli.main`` as the ``quantband`` console script does.

    python3 perfbench/launch.py <quantband arguments>

With PERFBENCH_SPANS set to a file path, the launcher first installs the
tracer's wrappers, labels the spans with the op id in PERFBENCH_OP, and
writes the spans and the import time of quantband.cli to that file when
the command ends.
"""

import os
import sys
import time

spans_path = os.environ.get("PERFBENCH_SPANS")
if not spans_path:
    from quantband.cli import main

    sys.exit(main())

import json

from tracer import Tracer

start = time.perf_counter()
import quantband.cli

import_s = time.perf_counter() - start
tracer = Tracer()
tracer.install()
tracer.op = int(os.environ["PERFBENCH_OP"])
try:
    code = quantband.cli.main(sys.argv[1:])
finally:
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
sys.exit(code)
