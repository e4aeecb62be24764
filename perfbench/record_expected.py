"""Regenerate perfbench/expected.json from the package in the checkout.

Usage: python3 perfbench/record_expected.py

Runs every workload's invocations in-process under prime seeds 0 and 1,
each with a fresh empty cache, refuses to write anything unless both seeds
give identical results with exit code 0, and stores the results in the form
`workloads.expected_entry` describes.  Run it only at a commit whose values
are trusted; the benchmark compares every later run to it.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from permres import cli  # noqa: E402
from workloads import WORKLOADS, expected_entry  # noqa: E402


def results_for(invocations, seed, scratch):
    cache_dir = tempfile.mkdtemp(dir=scratch)
    out = []
    for argv in invocations:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv) + ["--cache-dir", cache_dir,
                                        "--prime-seed", str(seed)])
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited {rc}")
        out.append(json.loads(buf.getvalue())["results"])
    return out


SEEDS = (0, 1)


def main():
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_tmp"))
    os.environ[cli.CACHE_ENV] = scratch
    expected = {}
    try:
        for name, make in WORKLOADS.items():
            invocations = make()
            first, second = [results_for(invocations, s, scratch)
                             for s in SEEDS]
            if second != first:
                raise SystemExit(f"{name}: results depend on the seed")
            expected[name] = [expected_entry(a, r)
                              for a, r in zip(invocations, first)]
            print(f"{name}: {len(invocations)} invocations", file=sys.stderr)
    finally:
        shutil.rmtree(scratch)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
