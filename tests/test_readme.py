"""The README's documented public API runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs_as_written():
    """The first python block under the "Library tour" heading."""
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("\n## Library tour\n"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S)
    assert block, "no python block under Library tour"
    exec(compile(block.group(1), f"{README}: Library tour", "exec"), {})
