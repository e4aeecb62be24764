"""The benchmark's tracer wraps named functions of the package from outside
(`perfbench/tracer.py`) and refuses to run when one of them, or one of the
module aliases it relies on, is gone.  Installing it here turns such a
refactoring slip into a tier-1 failure instead of a failed benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import contextlib, io, sys
sys.path[:0] = [{src!r}, {bench!r}]
import permres.cli
import permres.modular
import tracer
kernel = permres.modular.rank_of_rows.__code__
t = tracer.Tracer()
t.install()
print("installed")
# `main` must dispatch to the wrapped handler, not to a copy bound earlier
with contextlib.redirect_stdout(io.StringIO()):
    code = permres.cli.main(["bott", "--seq", "0,1", "--cache-dir", "none"])
print(code, t.calls["cli"], t.calls["cli.handler"])
# the oracle's memoised blocks must still call the wrapped functions: a memo
# bound to the originals would hide them from the tracer
with contextlib.redirect_stdout(io.StringIO()):
    code = permres.cli.main(["betti", "--family", "minors", "-n", "3", "-k",
                             "2", "--steps", "0", "--cache-dir", "none"])
print(code, t.calls["tensorspace.mww"] > 0, t.calls["ideals.expand"])
# every run of the rank kernel in a betti cell, including the top maps
# ranked off the middle map's pivot rows, goes through the wrapped name
runs = [0]

def profile(frame, event, arg):
    if event == "call" and frame.f_code is kernel:
        runs[0] += 1

before = t.calls["modular.rank"]
sys.setprofile(profile)
try:
    with contextlib.redirect_stdout(io.StringIO()):
        code = permres.cli.main(["betti", "--family", "subpermanents", "-n",
                                 "3", "-k", "2", "--steps", "1", "--deg",
                                 "4", "--cache-dir", "none"])
finally:
    sys.setprofile(None)
print(code, runs[0] > 0, runs[0] == t.calls["modular.rank"] - before)
"""


def test_tracer_hooks_install():
    script = SCRIPT.format(src=os.path.join(ROOT, "src"),
                           bench=os.path.join(ROOT, "perfbench"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert "MissingHookError" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["installed", "0 1 1", "0 True 1",
                                        "0 True True"]
