"""The demos print, byte for byte, what they printed when their output was
captured into ``fixtures/golden/demo_<name>.txt``, and need no scipy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kantorovich

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "fixtures" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# runs the script named by argv[1] with every scipy import failing: the
# library's only runtime dependency is numpy
WITHOUT_SCIPY = (
    "import runpy, sys; sys.modules['scipy'] = None; "
    "runpy.run_path(sys.argv.pop(1), run_name='__main__')"
)


def _env():
    return {**os.environ, "PYTHONPATH": str(Path(kantorovich.__file__).parents[1])}


def test_every_demo_has_captured_output():
    assert [d.stem for d in DEMOS] == sorted(p.stem[len("demo_"):] for p in GOLDEN.glob("demo_*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_matches_captured_bytes(demo):
    argv = [sys.executable, "-c", WITHOUT_SCIPY, str(demo)]
    proc = subprocess.run(argv, capture_output=True, timeout=120, env=_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"demo_{demo.stem}.txt").read_bytes()


def test_importing_the_package_loads_no_scipy():
    code = (
        "import pkgutil, sys, kantorovich\n"
        "for m in pkgutil.iter_modules(kantorovich.__path__):\n"
        "    __import__('kantorovich.' + m.name)\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"[]\n"
