"""One traced CLI job: `speccy ARGS...` with the layers wrapped.

    python3 bench/clijob.py TRACE.json ARGS...

Writes the command's stdout unchanged and exits with its exit code, like
`python3 -m speccy ARGS...`.  TRACE.json receives the cold import time of
speccy.cli, the job span (everything after the import) with the share of it
covered by top-level layer spans, and the tracer's aggregates and spans.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    trace_path, args = argv[0], argv[1:]
    t0 = perf_counter()
    import speccy.cli
    import_s = perf_counter() - t0
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    with tracer.job(0) as span:
        code = speccy.cli.run(args)
        sys.stdout.flush()
    blob = {"import_s": import_s, "covered_s": span.covered, "traced_s": span.seconds,
            "trace": tracer.dump()}
    with open(trace_path, "w") as fh:
        json.dump(blob, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
