"""Run one `permres` command in a child process and report its peak memory.

    python tools/peak_rss.py ARGV... [--bound MB]

The child is a fresh interpreter that runs `permres ARGV...` from the `src`
directory of this checkout.  The tool prints each result row of the child's
JSON envelope (its whole stdout, if that is not JSON), then the child's wall
seconds and its peak resident set size in MB (2^20 bytes), as `wait4`
reports it for that child alone.  It exits non-zero if the child fails, or
if its peak is above the bound.
"""

import json
import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
MAIN = "import sys; from permres.cli import main; sys.exit(main(sys.argv[1:]))"


def peak_rss(argv):
    """(exit code, stdout, wall seconds, peak RSS in MB) of `permres argv`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", MAIN, *argv], env=env,
                             stdout=subprocess.PIPE, text=True)
    with child.stdout:
        out = child.stdout.read()
    # wait4 reaps the child itself, so its usage is the child's alone
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out, wall, usage.ru_maxrss / 1024


def main(args):
    bound = None
    if "--bound" in args:
        k = args.index("--bound")
        bound = float(args[k + 1])
        args = args[:k] + args[k + 2:]
    if not args:
        raise SystemExit(__doc__)
    code, out, wall, peak = peak_rss(args)
    try:
        rows = json.loads(out)["results"]
    except (ValueError, KeyError, TypeError):
        print(out, end="")
    else:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    print(f"{args[0]}: {wall:.2f} s, peak RSS {peak:.1f} MB"
          + (f" (bound {bound:g} MB)" if bound is not None else ""))
    if code:
        raise SystemExit(f"permres {args[0]} exited {code}")
    if bound is not None and peak > bound:
        raise SystemExit(f"{args[0]} peak RSS {peak:.1f} MB is above "
                         f"{bound:g} MB")


if __name__ == "__main__":
    main(sys.argv[1:])
