"""Every walkthrough in ``demos/`` runs to completion against the package."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.startswith("0") and name.endswith(".py"))
SLOW = {"03_train_and_caption.py"}   # trains a model for several seconds


@pytest.mark.parametrize("name", [pytest.param(name, marks=pytest.mark.slow)
                                  if name in SLOW else name for name in DEMOS])
def test_demo_exits_cleanly(name):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
