"""The README's code examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README quick start", "exec"), {})
