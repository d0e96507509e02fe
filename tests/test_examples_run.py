"""Smoke tests: the example scripts must run end-to-end.

Only the fast examples run here (the figure-scale studies are exercised
by the benchmark suite); each must exit cleanly and print its headline
output.
"""

import os
import subprocess
import sys

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")


def run_example(name, timeout=240):
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name)],
        capture_output=True, text=True, timeout=timeout, check=False)


class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "E_flit" in proc.stdout
        assert "total power" in proc.stdout

    def test_standalone_power_models(self):
        proc = run_example("standalone_power_models.py")
        assert proc.returncode == 0, proc.stderr
        assert "Technology scaling" in proc.stdout
        assert "Arbiter types" in proc.stdout
