"""The README's code examples run against the package as it is."""

import json
import re
from pathlib import Path

from ltmlab.cli import ExperimentConfig, run_generic

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README quick start", "exec"), {})


def test_config_example_runs(tmp_path):
    text = README.read_text()
    section = text[text.index("### Config format") :]
    raw = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    raw.update(n_samples=0, output=str(tmp_path))
    config = ExperimentConfig.from_dict(raw)
    report = run_generic(config, check=True)
    assert len(report["rows"]) == len(raw["layers"])
    assert all(row["method"] == "analytic" for row in report["rows"])
    assert (tmp_path / f"{raw['name']}.csv").exists()
