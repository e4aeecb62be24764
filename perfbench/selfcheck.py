"""Check that the benchmark's correctness gate works.

Usage: python3 perfbench/selfcheck.py

Runs sweep-small through `run.main` against a copy of expected.json with one
oracle value altered (the first sweep-small cell, plus one) and requires the
run to report `correct: false` and exit nonzero; then runs it against the
real file and requires success.  Exits 0 only if both hold.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

WORKLOAD = "sweep-small"
STORED = run.EXPECTED


def run_against(expected_path):
    run.EXPECTED = expected_path
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", WORKLOAD, "--seed", "0", "--seconds", "1",
                       "--trace", "0"])
    lines = out.getvalue().splitlines()
    return rc, json.loads(lines[-1]) if lines else None


def main():
    with open(STORED) as fh:
        altered = copy.deepcopy(json.load(fh))
    altered[WORKLOAD][0]["rows"][0]["oracle"] += 1
    os.makedirs(run.WORK, exist_ok=True)
    fd, path = tempfile.mkstemp(suffix=".json", dir=run.WORK)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(altered, fh)
        rc_bad, bad = run_against(path)
    finally:
        os.unlink(path)
    rc_good, good = run_against(STORED)
    ok = (rc_bad != 0 and bad is not None and not bad["correct"]
          and bad["failed"] > 0 and rc_good == 0 and good["correct"])
    print(f"altered value: exit {rc_bad}, failed {bad and bad['failed']}; "
          f"stored values: exit {rc_good}, correct {good and good['correct']}")
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
