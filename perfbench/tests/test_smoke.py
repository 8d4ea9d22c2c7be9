"""Smoke test of the benchmark: every workload, traced and untraced, on
the unit-test city for a few seconds each.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


class SmokeTest(unittest.TestCase):
    def test_every_workload_is_correct_and_prints_the_listed_metrics(self):
        run = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=1200,
        )
        self.assertEqual(run.returncode, 0, run.stderr[-4000:])


if __name__ == "__main__":
    unittest.main()
