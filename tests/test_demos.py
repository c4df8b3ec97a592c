"""The demos print, byte for byte, what they printed when their output was
captured into ``fixtures/golden/demo_<name>.txt``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kantorovich

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "fixtures" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_captured_output():
    assert [d.stem for d in DEMOS] == sorted(p.stem[len("demo_"):] for p in GOLDEN.glob("demo_*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_matches_captured_bytes(demo):
    env = {**os.environ, "PYTHONPATH": str(Path(kantorovich.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"demo_{demo.stem}.txt").read_bytes()
