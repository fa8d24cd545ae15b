"""The README's documented public API runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs_as_written():
    """The first python block under the "Library tour" heading."""
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("\n## Library tour\n"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S)
    assert block, "no python block under Library tour"
    exec(compile(block.group(1), f"{README}: Library tour", "exec"), {})


def test_backtracking_anatomy_demo_runs():
    """The demo the README calls instant: hand-built StepDistribution lists
    through belief_trajectory and the detectors."""
    root = README.parent
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, str(root / "demos" / "backtracking_anatomy.py")],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert ("backtrack: abandoned option 0 (steps 1-4), adopted option 2 "
            "(steps 5-10), final answer 2") in done.stdout.splitlines()
