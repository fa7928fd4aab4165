"""Each demo script runs to completion against the source tree and prints
the pinned output (sha256 of stdout; no demo prints a path or a time)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_fields.py": "f4dd54fbd5a24d332aa8afe8a3a9aec96c9c306d7146b84fd066a85b9f87a087",
    "02_groebner_colength.py": "ecae758e7c9657536e4dcac60f8ef15a168e0a8f46a87fff6a56a43430adffcc",
    "03_monsky_family.py": "43fbe795ef23ea66e96458e9b6d9ecc5c686e1c10988f272977c20325a3c2f0b",
    "04_reduction_mod_p.py": "38ee750eeb9d39e13b14badf38324108cde0fb43ac97c389e86fe3ee308b55a2",
    "05_rational_signature.py": "bcb94eb8e805e72fdd4ec5cf40cd0f5b90a4dd5477315c753e0cceae18579f2f",
    "06_hilbert_samuel.py": "d397f55760de7e738bca8d115f16a825cc879eccac620471e7fc129f95b04313",
}


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
