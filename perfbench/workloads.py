"""Seeded inputs, CLI arguments and output checks of the benchmark workloads.

Each workload is one ``ltm-lab`` command line.  ``generate`` derives every
input from the seed, writes the files the command reads into a work
directory, and returns the arguments of one study call with a check of the
files that call wrote.  The check runs outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Sizes of each workload; recorded with every result.
FIG3_MC = {"n": 6, "p_values": 1, "samples": 128, "l_rapid": 8, "l_slow": 20}
CLIFFORD_N11 = {"n": 11, "p_values": 1, "layers": 2}
KRAUS_DENSE = {"n": 4, "kraus_ops": 3, "p_values": 3, "layers": (1, 4, 32)}

# Relative distance allowed between the benchmark's own noise_model_deep
# value (a resolvent solve) and the CLI's variance_deep (the assembled deep
# limit) on the Clifford workload; measured agreement is about 1e-15.
CLIFFORD_DEEP_RTOL = 1e-9
# Relative distance allowed between the depth-32 variance and the deep limit
# on the Kraus workload.  The transient part of a random 3-Kraus channel
# mixed with GHZ replacement at p >= 0.1 has died down far below this by
# depth 32 (worst case over seeds 0-19: 5.7e-14).
KRAUS_DEEP_RTOL = 1e-9

NAMES = ("fig3-mc", "clifford-n11", "kraus-dense")


@dataclass
class Study:
    argv: list[str]
    sizes: dict
    check: Callable[[], list[str]]
    inputs: dict = field(default_factory=dict)


def generate(name: str, seed: int, workdir: Path) -> Study:
    """Write the workload's inputs for ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return {"fig3-mc": _fig3_mc, "clifford-n11": _clifford_n11, "kraus-dense": _kraus_dense}[name](
        rng, seed, workdir
    )


def _p_grid(rng: np.random.Generator, count: int, low: float, high: float) -> list[float]:
    return sorted(round(float(p), 3) for p in rng.uniform(low, high, size=count))


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("# generated:")]
    return list(csv.DictReader(lines))


def _finite(row: dict, key: str) -> float:
    value = float(row[key]) if row.get(key) else math.nan
    if not math.isfinite(value):
        raise ValueError(f"column {key!r} is empty or not finite in row {row}")
    return value


def _fig3_mc(rng: np.random.Generator, seed: int, workdir: Path) -> Study:
    s = FIG3_MC
    p_grid = _p_grid(rng, s["p_values"], 0.2, 0.8)
    mc_seed = int(rng.integers(1, 2**31))
    out = workdir / "out"
    argv = [
        "fig3",
        "--n", str(s["n"]),
        "--p-grid", ",".join(repr(p) for p in p_grid),
        "--samples", str(s["samples"]),
        "--l-rapid", str(s["l_rapid"]),
        "--l-slow", str(s["l_slow"]),
        "--seed", str(mc_seed),
        "--out", str(out),
        "--check",
    ]

    def check() -> list[str]:
        problems = []
        rows = _read_rows(out / "fig3.csv")
        if len(rows) != 2 * len(p_grid):
            problems.append(f"fig3.csv has {len(rows)} rows, expected {2 * len(p_grid)}")
        for row in rows:
            for key in ("variance_mc", "se_mc", "variance_layered", "variance_deep"):
                try:
                    _finite(row, key)
                except ValueError as exc:
                    problems.append(str(exc))
        sidecar = json.loads((out / "fig3.json").read_text())
        if sidecar.get("check_failures"):
            problems.append(f"fig3 check failures: {sidecar['check_failures']}")
        return problems

    return Study(argv, dict(s), check, {"p_grid": p_grid, "mc_seed": mc_seed})


def _run_config(workdir: Path, name: str, config: dict) -> tuple[list[str], Path]:
    path = workdir / f"{name}-config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return ["run", "--config", str(path), "--check"], Path(config["output"]) / f"{name}.csv"


def _clifford_n11(rng: np.random.Generator, seed: int, workdir: Path) -> Study:
    s = CLIFFORD_N11
    n = s["n"]
    p_grid = _p_grid(rng, s["p_values"], 0.4, 0.6)
    layers = sorted(int(x) for x in rng.choice(np.arange(2, 25), size=s["layers"], replace=False))
    coupling = 9.0 / n
    config = {
        "name": "clifford",
        "dims": [2] * n,
        "entangler": {"id": "cnot-double-cascade"},
        "observable": {"id": "zz-chain", "coupling": coupling},
        "noise": {"fixed_point": "ghz"},
        "p_grid": p_grid,
        "layers": layers,
        "n_samples": 0,
        "seed": seed,
        "output": str(workdir / "out"),
    }
    argv, csv_path = _run_config(workdir, "clifford", config)
    expected: dict[float, float] = {}

    def check() -> list[str]:
        from ltmlab import (
            SubsystemPartition,
            cnot_double_cascade,
            ghz_locality,
            ltm_exact,
            noise_model_deep,
            zz_chain_locality,
        )

        if not expected:
            transfer = ltm_exact(cnot_double_cascade(n), SubsystemPartition.qubits(n))
            for p in p_grid:
                expected[p] = noise_model_deep(p, transfer, ghz_locality(n), zz_chain_locality(n, coupling)).value
        problems = []
        rows = _read_rows(csv_path)
        if len(rows) != len(p_grid) * len(layers):
            problems.append(f"{csv_path.name} has {len(rows)} rows, expected {len(p_grid) * len(layers)}")
        for row in rows:
            try:
                deep = _finite(row, "variance_deep")
                _finite(row, "variance_exact")
            except ValueError as exc:
                problems.append(str(exc))
                continue
            want = expected[float(row["p"])]
            if abs(deep - want) > CLIFFORD_DEEP_RTOL * abs(want):
                problems.append(f"p={row['p']}: variance_deep {deep!r} != noise_model_deep {want!r}")
        return problems

    return Study(argv, {**s, "layers": layers}, check, {"p_grid": p_grid, "layers": layers})


def _stinespring_kraus(rng: np.random.Generator, dim: int, count: int) -> list[np.ndarray]:
    """Kraus operators of a random channel: blocks of a Haar-like isometry."""
    ginibre = rng.standard_normal((dim * count, dim)) + 1j * rng.standard_normal((dim * count, dim))
    isometry, r = np.linalg.qr(ginibre)
    isometry = isometry * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]
    return [isometry[k * dim : (k + 1) * dim] for k in range(count)]


def _kraus_dense(rng: np.random.Generator, seed: int, workdir: Path) -> Study:
    s = KRAUS_DENSE
    n = s["n"]
    ops = _stinespring_kraus(rng, 2**n, s["kraus_ops"])
    kraus_path = workdir / "kraus.json"
    kraus_path.write_text(
        json.dumps({"kraus": [np.stack([k.real, k.imag], axis=-1).tolist() for k in ops]}) + "\n"
    )
    p_grid = _p_grid(rng, s["p_values"], 0.1, 0.5)
    layers = list(s["layers"])
    config = {
        "name": "kraus",
        "dims": [2] * n,
        "entangler": {"id": "custom-kraus-file", "path": str(kraus_path)},
        "observable": {"id": "zz-chain", "coupling": 9.0 / n},
        "noise": {"fixed_point": "ghz"},
        "p_grid": p_grid,
        "layers": layers,
        "n_samples": 0,
        "seed": seed,
        "output": str(workdir / "out"),
    }
    argv, csv_path = _run_config(workdir, "kraus", config)

    def check() -> list[str]:
        problems = []
        rows = _read_rows(csv_path)
        if len(rows) != len(p_grid) * len(layers):
            problems.append(f"{csv_path.name} has {len(rows)} rows, expected {len(p_grid) * len(layers)}")
        for row in rows:
            if int(row["layers"]) != max(layers):
                continue
            try:
                exact, deep = _finite(row, "variance_exact"), _finite(row, "variance_deep")
            except ValueError as exc:
                problems.append(str(exc))
                continue
            if abs(exact - deep) > KRAUS_DEEP_RTOL * abs(deep):
                problems.append(f"p={row['p']} L={row['layers']}: variance_exact {exact!r} vs deep {deep!r}")
        return problems

    return Study(argv, {**s, "layers": layers}, check, {"p_grid": p_grid})
