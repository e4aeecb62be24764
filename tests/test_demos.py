"""Each narrative script in `demos/` runs to completion against the source
tree."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
