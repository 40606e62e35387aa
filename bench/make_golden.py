"""Record bench/golden.json: the sha256 of the stdout of every CLI job any
seed can generate, computed with the speccy sources under ./src.

    PYTHONPATH=src python3 bench/make_golden.py

Run it only on a commit whose CLI output is trusted; later commits must
reproduce these digests byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from workloads import WORKLOADS, job_key, write_files  # noqa: E402


def main():
    from speccy.cli import run

    golden = {}
    here = os.getcwd()
    for name, spec in WORKLOADS.items():
        if spec["runner"] != "cli":
            continue
        with tempfile.TemporaryDirectory(dir=BENCH) as work:
            write_files(name, work)
            os.chdir(work)
            try:
                for job in spec["catalogue"]():
                    key = job_key(job)
                    if key in golden:
                        continue
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = run(job["argv"])
                    if code != 0:
                        raise SystemExit(f"{key}: exit code {code}")
                    golden[key] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            finally:
                os.chdir(here)
        print(f"{name}: {len(golden)} digests so far", file=sys.stderr)
    with open(os.path.join(BENCH, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
