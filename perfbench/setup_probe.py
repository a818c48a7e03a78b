"""One set-up of a benchmark workload in a fresh process.

Imports the CLI entry point (which loads numpy and scipy) and writes the
workload's seeded inputs.  ``run.py`` times whole invocations of this file:

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

sys.path.insert(0, "src")

import ltmlab.cli  # noqa: E402,F401

from workloads import generate  # noqa: E402

if __name__ == "__main__":
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
