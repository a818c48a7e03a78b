"""Experiment runner for layered-circuit variance studies.

Three entry points behind one argparse front end:

* ``ltm-lab swap-example`` — the two-qubit SWAP walkthrough with its exact
  even/odd closed forms, decomposition summary, and MC confirmation.
* ``ltm-lab fig3`` — noise-strength sweep for the rapidly entangling
  (CNOT double cascade) and slowly entangling (controlled-RX cascade)
  circuits under replace-with-GHZ noise, with analytic deep limits,
  finite-depth values, scaling predictions, and optional MC columns.
* ``ltm-lab run --config cfg.json`` — generic pipeline driven by a JSON
  config: build channel, transfer matrix, decomposition, variances, lower
  bound, optional MC cross-check and Kraus-unravelling dominance report.

Exit codes: 0 success, 2 invalid config/arguments, 3 numerical failure,
4 check failure (with ``--check``).

Outputs are CSV (RFC 4180, one ``# generated:`` timestamp line first, which
reruns are allowed to differ in) plus a JSON sidecar carrying the full
config, package/library versions, and the config hash.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import platform
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy

from . import __version__
from ._rng import substream
from .channels import (
    Channel,
    CircuitUnitary,
    Conjugation,
    KrausChannel,
    MixtureWithReplacement,
    Unitary,
    cnot_double_cascade,
    crx_cascade,
    ghz_locality,
    ghz_state,
    maximally_mixed,
    pauli_string,
    pauli_string_locality,
    swap_circuit,
    zero_state,
    zero_state_locality,
    zz_chain_locality,
    zz_chain_observable,
)
from .ltm import LocalityTransferMatrix, ltm_exact, mean_ltm_over_ensemble
from .montecarlo import MAX_DENSE_DIM, LayeredCircuitSpec, estimate_variance
from .partitions import (
    LocalityVector,
    SubsystemPartition,
    locality_vector,
    weighted_dot,
)
from .spectral import NumericalFailure, decompose
from .variance import (
    lower_bound,
    noise_model_deep,
    noisy_layer_transfer,
    variance_deep,
    variance_deep_unitary,
    variance_exact,
)

__all__ = [
    "ExperimentConfig",
    "run_swap_example",
    "run_fig3",
    "run_generic",
    "main",
]

ENTANGLER_IDS = ("cnot-double-cascade", "crx-cascade", "swap", "custom-kraus-file")
FIXED_POINT_IDS = ("ghz", "maximally-mixed", "custom")
OBSERVABLE_IDS = ("zz-chain", "single-pauli", "custom")
STATE_IDS = ("zero", "maximally-mixed", "custom")


class CheckFailure(RuntimeError):
    """A --check assertion did not hold."""


# ---------------------------------------------------------------------------
# Config


@dataclass
class ExperimentConfig:
    """JSON-loadable description of one generic experiment."""

    dims: tuple[int, ...]
    entangler: dict
    observable: dict
    name: str = "experiment"
    noise: dict | None = None
    initial_state: str | dict = "zero"
    layers: tuple[int, ...] = (1,)
    p_grid: tuple[float, ...] | None = None
    n_samples: int = 0
    seed: int = 0
    output: str | None = None
    unravelling_check: dict | None = None

    _KEYS = {
        "dims",
        "entangler",
        "observable",
        "name",
        "noise",
        "initial_state",
        "layers",
        "p_grid",
        "n_samples",
        "seed",
        "output",
        "unravelling_check",
    }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - cls._KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in ("dims", "entangler", "observable"):
            if key not in raw:
                raise ValueError(f"config is missing required key {key!r}")
        dims = tuple(int(d) for d in raw["dims"])
        layers = raw.get("layers", 1)
        if isinstance(layers, (int, float)):
            layers = (int(layers),)
        else:
            layers = tuple(int(x) for x in layers)
        if not layers or any(l < 0 for l in layers):
            raise ValueError("layers must be one or more non-negative integers")
        p_grid = raw.get("p_grid")
        if p_grid is not None:
            p_grid = tuple(float(x) for x in p_grid)
            if not p_grid:
                raise ValueError("p_grid must be non-empty when given")
        cfg = cls(
            dims=dims,
            entangler=dict(raw["entangler"]),
            observable=dict(raw["observable"]),
            name=str(raw.get("name", "experiment")),
            noise=dict(raw["noise"]) if raw.get("noise") else None,
            initial_state=raw.get("initial_state", "zero"),
            layers=layers,
            p_grid=p_grid,
            n_samples=int(raw.get("n_samples", 0)),
            seed=int(raw.get("seed", 0)),
            output=raw.get("output"),
            unravelling_check=raw.get("unravelling_check"),
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError as exc:
            raise ValueError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        return cls.from_dict(raw)

    def validate(self) -> None:
        if any(d < 2 for d in self.dims):
            raise ValueError("subsystem dimensions must be at least 2")
        ent = self.entangler.get("id")
        if ent not in ENTANGLER_IDS:
            raise ValueError(f"unknown entangler id {ent!r} (have {ENTANGLER_IDS})")
        obs = self.observable.get("id")
        if obs not in OBSERVABLE_IDS:
            raise ValueError(f"unknown observable id {obs!r} (have {OBSERVABLE_IDS})")
        if self.noise is not None:
            fp = self.noise.get("fixed_point", "maximally-mixed")
            fp_id = fp if isinstance(fp, str) else fp.get("id")
            if fp_id not in FIXED_POINT_IDS:
                raise ValueError(f"unknown fixed point {fp_id!r}")
            if self.p_grid is None and "p" not in self.noise:
                raise ValueError("noise needs 'p' or a top-level p_grid")
        state_id = (
            self.initial_state
            if isinstance(self.initial_state, str)
            else self.initial_state.get("id")
        )
        if state_id not in STATE_IDS:
            raise ValueError(f"unknown initial state {state_id!r}")
        if self.n_samples < 0:
            raise ValueError("n_samples must be non-negative")
        unr = self.unravelling_check
        if unr is not None and (not isinstance(unr, dict) or "path" not in unr):
            raise ValueError("unravelling_check needs a 'path' to a Kraus file")

    def as_dict(self) -> dict:
        out = asdict(self)
        out["dims"] = list(self.dims)
        out["layers"] = list(self.layers)
        out["p_grid"] = list(self.p_grid) if self.p_grid is not None else None
        return out


# ---------------------------------------------------------------------------
# Builders


def _parse_complex_matrix(obj, what: str) -> np.ndarray:
    """Row-major nested lists of [re, im] pairs -> complex ndarray."""
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what}: expected a square matrix of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _load_json(path: str | Path, what: str) -> dict | list:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ValueError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file is not valid JSON: {exc}") from exc


def load_kraus_file(path: str | Path) -> list[np.ndarray]:
    raw = _load_json(path, "Kraus")
    if isinstance(raw, dict):
        raw = raw.get("kraus")
    if not isinstance(raw, list) or not raw:
        raise ValueError("Kraus file must hold a non-empty list under 'kraus'")
    return [_parse_complex_matrix(op, "Kraus operator") for op in raw]


def build_entangler(spec: dict, partition: SubsystemPartition) -> Channel:
    ident = spec["id"]
    dims = partition.dims
    if ident in ("cnot-double-cascade", "crx-cascade"):
        if any(d != 2 for d in dims):
            raise ValueError(f"{ident} is defined on qubits")
        n = len(dims)
        if ident == "cnot-double-cascade":
            return cnot_double_cascade(n)
        theta = float(spec.get("theta", math.pi / 20))
        return crx_cascade(n, theta)
    if ident == "swap":
        if tuple(dims) != (2, 2):
            raise ValueError("the swap entangler is the two-qubit circuit")
        return swap_circuit()
    ops = load_kraus_file(spec["path"]) if "path" in spec else None
    if ops is None:
        raise ValueError("custom-kraus-file entangler needs a 'path'")
    if ops[0].shape[0] != partition.total_dim:
        raise ValueError("custom Kraus dimension does not match the partition")
    return KrausChannel(ops)


def build_fixed_point(
    spec: str | dict, partition: SubsystemPartition
) -> tuple[np.ndarray, LocalityVector]:
    ident = spec if isinstance(spec, str) else spec.get("id")
    d = partition.total_dim
    if ident == "ghz":
        if any(dm != 2 for dm in partition.dims):
            raise ValueError("the GHZ fixed point is defined on qubits")
        n = len(partition.dims)
        return ghz_state(n), ghz_locality(n)
    if ident == "maximally-mixed":
        weights = np.zeros(partition.num_masks)
        weights[0] = 1.0 / d
        return maximally_mixed(d), LocalityVector(partition, weights)
    sigma = _parse_complex_matrix(
        _load_json(spec["path"], "fixed point"), "fixed point"
    )
    if sigma.shape != (d, d):
        raise ValueError("fixed-point dimension does not match the partition")
    return sigma, locality_vector(partition, sigma)


def build_observable(
    spec: dict, partition: SubsystemPartition
) -> tuple[np.ndarray | None, LocalityVector, float]:
    """Returns (dense H or None when too large, locality of H, trace of H)."""
    ident = spec["id"]
    d = partition.total_dim
    if ident == "zz-chain":
        if any(dm != 2 for dm in partition.dims):
            raise ValueError("zz-chain is defined on qubits")
        n = len(partition.dims)
        coupling = float(spec.get("coupling", 1.0))
        dense = zz_chain_observable(n, coupling) if d <= MAX_DENSE_DIM else None
        return dense, zz_chain_locality(n, coupling), 0.0
    if ident == "single-pauli":
        if any(dm != 2 for dm in partition.dims):
            raise ValueError("single-pauli is defined on qubits")
        n = len(partition.dims)
        pattern = spec.get("pattern")
        if not pattern:
            raise ValueError("single-pauli needs a 'pattern'")
        coeff = float(spec.get("coefficient", 1.0))
        dense = coeff * pauli_string(n, pattern) if d <= MAX_DENSE_DIM else None
        trace = coeff * d if set(pattern.upper()) == {"I"} else 0.0
        return dense, pauli_string_locality(n, pattern, coeff), trace
    h = _parse_complex_matrix(_load_json(spec["path"], "observable"), "observable")
    if h.shape != (d, d):
        raise ValueError("observable dimension does not match the partition")
    if np.abs(h - h.conj().T).max() > 1e-10:
        raise ValueError("observable must be Hermitian")
    return h, locality_vector(partition, h), float(np.trace(h).real)


def build_initial_state(
    spec: str | dict, partition: SubsystemPartition
) -> tuple[np.ndarray | None, LocalityVector]:
    ident = spec if isinstance(spec, str) else spec.get("id")
    d = partition.total_dim
    if ident == "zero":
        if any(dm != 2 for dm in partition.dims):
            raise ValueError("the zero initial state is defined on qubits")
        n = len(partition.dims)
        dense = zero_state(n) if d <= MAX_DENSE_DIM else None
        return dense, zero_state_locality(n)
    if ident == "maximally-mixed":
        weights = np.zeros(partition.num_masks)
        weights[0] = 1.0 / d
        return maximally_mixed(d), LocalityVector(partition, weights)
    rho = _parse_complex_matrix(_load_json(spec["path"], "state"), "state")
    if rho.shape != (d, d):
        raise ValueError("state dimension does not match the partition")
    return rho, locality_vector(partition, rho)


# ---------------------------------------------------------------------------
# Output plumbing


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, (bool, int, str)):
        return str(value)
    return f"{float(value):.17g}"


def write_csv(path: Path, fieldnames: Sequence[str], rows: Sequence[dict]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# generated: {_timestamp()}\r\n")
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name)) for name in fieldnames])


def write_sidecar(path: Path, config: dict, extra: dict | None = None) -> None:
    blob = json.dumps(config, sort_keys=True).encode()
    payload = {
        "config": config,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "package": __version__,
        },
        "generated": _timestamp(),
    }
    if extra:
        payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# swap-example


def run_swap_example(
    n_samples: int = 20_000, seed: int = 7, out: str | None = None
) -> dict:
    """Two-qubit SWAP walkthrough; raises NumericalFailure on any mismatch."""
    partition = SubsystemPartition.qubits(2)
    sigma = np.diag([0.75, 0.25])
    rho = np.kron(np.eye(2) / 2, sigma)
    h_local = np.diag([1.0, -1.0])
    h = np.kron(np.eye(2), h_local)
    purity = float(np.trace(sigma @ sigma).real)
    h_norm = float(np.trace(h_local @ h_local).real)
    even_closed = (purity - 0.5) * h_norm / 3.0
    cesaro_closed = (purity - 0.5) * h_norm / 6.0

    l_rho = locality_vector(partition, rho)
    l_h = locality_vector(partition, h)
    transfer = ltm_exact(swap_circuit(), partition)
    per_layer = {}
    for depth in range(1, 9):
        value = variance_exact(l_rho, [transfer] * depth, l_h, 0.0).value
        closed = even_closed if depth % 2 == 0 else 0.0
        if abs(value - closed) > 1e-12:
            raise NumericalFailure(
                f"SWAP variance at L={depth} is {value!r}, expected {closed!r}"
            )
        per_layer[depth] = value

    dec = decompose(transfer)
    periodic = [b for b in dec.essential_blocks if b.period == 2]
    if len(periodic) != 1 or periodic[0].indices != (1, 2):
        raise NumericalFailure("SWAP decomposition lost its period-2 block")
    deep = variance_deep(dec, l_rho, l_h)
    if abs(deep.value - cesaro_closed) > 1e-12:
        raise NumericalFailure(
            f"SWAP deep value {deep.value!r} differs from {cesaro_closed!r}"
        )

    mc = {}
    if n_samples:
        for depth in (3, 4):
            est = estimate_variance(
                LayeredCircuitSpec(partition, depth, swap_circuit(), rho, h),
                n_samples,
                seed,
            )
            target = per_layer[depth]
            gap = abs(est.variance - target)
            if gap > 4 * est.standard_error_of_variance + 1e-20:
                raise NumericalFailure(
                    f"SWAP MC at L={depth} missed the analytic value by {gap!r}"
                )
            mc[depth] = est.as_dict()

    report = {
        "closed_forms": {"even": even_closed, "odd": 0.0, "cesaro": cesaro_closed},
        "variance_by_depth": per_layer,
        "cesaro_value": deep.value,
        "converged": deep.converged,
        "residue_values": list(deep.residue_values or ()),
        "transfer_matrix": transfer.entries.tolist(),
        "period_2_block": {
            "indices": list(periodic[0].indices),
            "right_vector": [float(x) for x in periodic[0].right_vector],
            "period": periodic[0].period,
        },
        "mc": mc,
    }
    if out:
        Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


# ---------------------------------------------------------------------------
# fig3 sweep


def _parse_grid(text: str) -> tuple[float, ...]:
    """'a:b:k' -> k points from a to b inclusive; or comma-separated values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("grid syntax is start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("grid count must be positive")
        return tuple(np.linspace(start, stop, count).round(12))
    return tuple(float(x) for x in text.split(","))


def run_fig3(
    n: int = 6,
    p_values: Sequence[float] = (),
    seed: int = 7,
    out: str | Path = ".",
    n_samples: int = 512,
    l_rapid: int = 8,
    l_slow: int = 20,
    theta: float = math.pi / 20,
    check: bool = False,
) -> dict:
    """Noise-strength sweep for both entangler families under GHZ noise."""
    if n < 3:
        raise ValueError("the sweep needs at least 3 qubits (ring observable)")
    if not p_values:
        p_values = tuple(np.linspace(0.05, 0.95, 19).round(12))
    if any(not 0 < p <= 1 for p in p_values):
        raise ValueError("noise strengths must lie in (0, 1]")
    partition = SubsystemPartition.qubits(n)
    d = partition.total_dim
    coupling = 9.0 / n
    l_h = zz_chain_locality(n, coupling)
    l_ghz = ghz_locality(n)
    l_rho = zero_state_locality(n)
    normalization = weighted_dot(l_ghz, l_h)

    dense_ok = d <= MAX_DENSE_DIM and n_samples > 0
    if dense_ok:
        rho_dense = zero_state(n)
        h_dense = zz_chain_observable(n, coupling)
        ghz_dense = ghz_state(n)

    families = (
        ("cnot-double-cascade", cnot_double_cascade(n), l_rapid, "quadratic"),
        ("crx-cascade", crx_cascade(n, theta), l_slow, "linear"),
    )
    rows: list[dict] = []
    convergence: list[dict] = []
    checks: list[str] = []
    for name, circuit, depth, prediction_kind in families:
        try:
            transfer = ltm_exact(circuit, partition)
        except ValueError:
            transfer = None  # analytic columns unavailable (dense too large)
        if transfer is not None and check:
            at_one = noise_model_deep(1.0, transfer, l_ghz, l_h).value
            if abs(at_one - normalization) > 1e-10 * max(1.0, normalization):
                checks.append(
                    f"{name}: p=1 deep value {at_one!r} != (l_sigma, l_H) "
                    f"{normalization!r}"
                )
        for p in p_values:
            row = {
                "entangler": name,
                "n": n,
                "layers": depth,
                "p": p,
                "prediction_kind": prediction_kind,
                "prediction_normalized": (
                    p * p if prediction_kind == "quadratic" else p / (2.0 - p)
                ),
                "normalization": normalization,
                "seed": seed,
                "samples": n_samples if dense_ok else 0,
            }
            if transfer is not None:
                layer = noisy_layer_transfer(p, transfer, l_ghz)
                row["variance_layered"] = variance_exact(
                    l_rho, [layer] * depth, l_h, 0.0
                ).value
                deep_value = noise_model_deep(p, transfer, l_ghz, l_h).value
                row["variance_deep"] = deep_value
                row["variance_deep_normalized"] = deep_value / normalization
            if dense_ok:
                channel = MixtureWithReplacement(p, ghz_dense, circuit)
                est = estimate_variance(
                    LayeredCircuitSpec(partition, depth, channel, rho_dense, h_dense),
                    n_samples,
                    seed,
                )
                row["variance_mc"] = est.variance
                row["se_mc"] = est.standard_error_of_variance
                if check and transfer is not None:
                    gap = abs(est.variance - row["variance_layered"])
                    if gap > 4 * est.standard_error_of_variance + 1e-20:
                        checks.append(
                            f"{name} p={p}: MC missed the analytic value by {gap!r}"
                        )
            rows.append(row)
        if transfer is not None:
            p_conv = 0.1
            deep_value = noise_model_deep(p_conv, transfer, l_ghz, l_h).value
            layer = noisy_layer_transfer(p_conv, transfer, l_ghz)
            for depth_l in range(1, depth + 1):
                value = variance_exact(l_rho, [layer] * depth_l, l_h, 0.0).value
                convergence.append(
                    {
                        "entangler": name,
                        "n": n,
                        "p": p_conv,
                        "layers": depth_l,
                        "gap": abs(value - deep_value),
                    }
                )

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_path = out_dir / "fig3.csv"
    write_csv(
        sweep_path,
        [
            "entangler",
            "n",
            "layers",
            "p",
            "variance_mc",
            "se_mc",
            "variance_layered",
            "variance_deep",
            "variance_deep_normalized",
            "prediction_kind",
            "prediction_normalized",
            "normalization",
            "seed",
            "samples",
        ],
        rows,
    )
    conv_path = out_dir / "fig3_convergence.csv"
    write_csv(conv_path, ["entangler", "n", "p", "layers", "gap"], convergence)
    config = {
        "n": n,
        "p_grid": list(p_values),
        "seed": seed,
        "n_samples": n_samples,
        "l_rapid": l_rapid,
        "l_slow": l_slow,
        "theta": theta,
        "coupling": coupling,
    }
    write_sidecar(out_dir / "fig3.json", config, {"check_failures": checks})
    if check and checks:
        raise CheckFailure("; ".join(checks))
    return {"sweep": str(sweep_path), "convergence": str(conv_path), "rows": rows}


# ---------------------------------------------------------------------------
# generic runner


def _unravelling_report(ops: list[np.ndarray], partition: SubsystemPartition) -> dict:
    """Mean transfer matrix over a Kraus unravelling vs the mixed channel's."""
    mixed = KrausChannel(ops)
    norms = np.array([float(np.trace(k.conj().T @ k).real) for k in ops])
    weights = norms / norms.sum()
    members = [
        (w, Conjugation(k / math.sqrt(w))) for w, k in zip(weights, ops)
    ]
    mean = mean_ltm_over_ensemble(members, partition)
    exact = ltm_exact(mixed, partition)
    diff = mean.entries - exact.entries
    return {
        "min_elementwise_gap": float(diff.min()),
        "max_elementwise_gap": float(diff.max()),
        "members": len(ops),
        "dominance_holds": bool(diff.min() >= -1e-9),
    }


def run_generic(config: ExperimentConfig, check: bool = False) -> dict:
    partition = SubsystemPartition(config.dims)
    d = partition.total_dim
    unravelling_ops = None
    if config.unravelling_check:
        unravelling_ops = load_kraus_file(config.unravelling_check["path"])
        if unravelling_ops[0].shape[0] != d:
            raise ValueError("unravelling Kraus dimension does not match the partition")
    entangler = build_entangler(config.entangler, partition)
    h_dense, l_h, trace_h = build_observable(config.observable, partition)
    rho_dense, l_rho = build_initial_state(config.initial_state, partition)

    entangler_transfer: LocalityTransferMatrix | None
    try:
        entangler_transfer = ltm_exact(entangler, partition)
    except ValueError:
        entangler_transfer = None
    unitary_entangler = isinstance(entangler, (CircuitUnitary, Unitary))

    if config.noise is not None:
        fp_spec = config.noise.get("fixed_point", "maximally-mixed")
        sigma_dense, l_sigma = build_fixed_point(fp_spec, partition)
        p_values: tuple[float, ...] = (
            config.p_grid
            if config.p_grid is not None
            else (float(config.noise["p"]),)
        )
    else:
        sigma_dense, l_sigma = None, None
        p_values = (None,)  # type: ignore[assignment]

    support = [int(k) for k in np.nonzero(l_h.weights)[0] if k != 0]
    checks: list[str] = []
    rows: list[dict] = []
    for p in p_values:
        if p is None:
            channel: Channel = entangler
            transfer = entangler_transfer
        else:
            channel = MixtureWithReplacement(p, sigma_dense, entangler)
            if entangler_transfer is not None and unitary_entangler:
                transfer = noisy_layer_transfer(p, entangler_transfer, l_sigma)
            else:
                try:
                    transfer = ltm_exact(channel, partition)
                except ValueError:
                    transfer = None

        deep_value = deep_unitary_value = None
        if transfer is not None:
            dec = decompose(transfer)
            deep_value = variance_deep(dec, l_rho, l_h).value
            if p is None and unitary_entangler:
                deep_unitary_value = variance_deep_unitary(dec, l_rho, l_h).value
                if abs(deep_unitary_value - deep_value) > 1e-9:
                    checks.append(
                        f"deep-unitary value {deep_unitary_value!r} != generic "
                        f"deep value {deep_value!r}"
                    )

        for depth in config.layers:
            row = {
                "name": config.name,
                "dims": "x".join(str(x) for x in config.dims),
                "entangler": config.entangler["id"],
                "layers": depth,
                "p": p,
                "variance_deep": deep_value,
                "variance_deep_unitary": deep_unitary_value,
                "seed": config.seed,
                "samples": 0,
                "method": "analytic",
            }
            if transfer is not None:
                row["variance_exact"] = variance_exact(
                    l_rho, [transfer] * depth, l_h, trace_h
                ).value
                if support and abs(trace_h) < 1e-12:
                    bound, alpha = lower_bound(
                        l_rho, [transfer] * depth, l_h, support
                    )
                    row["lower_bound"] = bound
                    row["alpha"] = alpha
                    exact_value = row["variance_exact"]
                    if bound > exact_value + 1e-9:
                        checks.append(
                            f"lower bound {bound!r} exceeds exact {exact_value!r}"
                        )
            if (
                config.n_samples > 0
                and rho_dense is not None
                and h_dense is not None
                and d <= MAX_DENSE_DIM
            ):
                est = estimate_variance(
                    LayeredCircuitSpec(partition, depth, channel, rho_dense, h_dense),
                    config.n_samples,
                    config.seed,
                )
                row["variance_mc"] = est.variance
                row["se_mc"] = est.standard_error_of_variance
                row["samples"] = est.samples
                row["method"] = "analytic+mc"
                if check and row.get("variance_exact") is not None:
                    gap = abs(est.variance - row["variance_exact"])
                    if gap > 4 * est.standard_error_of_variance + 1e-20:
                        checks.append(
                            f"L={depth} p={p}: MC missed the analytic value "
                            f"by {gap!r}"
                        )
            rows.append(row)

    report: dict = {"rows": rows}
    if unravelling_ops is not None:
        unr = _unravelling_report(unravelling_ops, partition)
        report["unravelling"] = unr
        if not unr["dominance_holds"]:
            checks.append(
                f"unravelling dominance violated: min gap "
                f"{unr['min_elementwise_gap']!r}"
            )

    if config.output:
        out_dir = Path(config.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{config.name}.csv"
        write_csv(
            csv_path,
            [
                "name",
                "dims",
                "entangler",
                "layers",
                "p",
                "variance_exact",
                "variance_deep",
                "variance_deep_unitary",
                "lower_bound",
                "alpha",
                "variance_mc",
                "se_mc",
                "method",
                "seed",
                "samples",
            ],
            rows,
        )
        write_sidecar(
            out_dir / f"{config.name}.json",
            config.as_dict(),
            {"check_failures": checks, "unravelling": report.get("unravelling")},
        )
        report["csv"] = str(csv_path)

    if check and checks:
        raise CheckFailure("; ".join(checks))
    report["check_failures"] = checks
    return report


# ---------------------------------------------------------------------------
# argparse front end


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltm-lab",
        description="Variance studies of layered random quantum circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_swap = sub.add_parser("swap-example", help="two-qubit SWAP walkthrough")
    p_swap.add_argument("--samples", type=int, default=20_000)
    p_swap.add_argument("--seed", type=int, default=7)
    p_swap.add_argument("--out", help="optional JSON report path")

    p_fig = sub.add_parser("fig3", help="noise-strength sweep, both entanglers")
    p_fig.add_argument("--n", type=int, default=6)
    p_fig.add_argument("--p-grid", default="0.05:0.95:19")
    p_fig.add_argument("--seed", type=int, default=7)
    p_fig.add_argument("--samples", type=int, default=512)
    p_fig.add_argument("--l-rapid", type=int, default=8)
    p_fig.add_argument("--l-slow", type=int, default=20)
    p_fig.add_argument("--theta", type=float, default=math.pi / 20)
    p_fig.add_argument("--out", required=True, help="output directory")
    p_fig.add_argument("--check", action="store_true")

    p_run = sub.add_parser("run", help="generic config-driven pipeline")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--check", action="store_true")
    p_run.add_argument("--out", help="override the config's output directory")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "swap-example":
            report = run_swap_example(args.samples, args.seed, args.out)
            closed = report["closed_forms"]
            print(
                "SWAP example: even-depth variance "
                f"{closed['even']:.12g}, odd 0, Cesaro {closed['cesaro']:.12g}"
            )
            for depth, value in report["variance_by_depth"].items():
                print(f"  L={depth}: {value:.12g}")
            block = report["period_2_block"]
            print(
                f"  period-2 block {block['indices']} right vector "
                f"{block['right_vector']}"
            )
            for depth, est in report["mc"].items():
                print(
                    f"  MC L={depth}: {est['variance']:.6g} "
                    f"+- {est['standard_error_of_variance']:.2g}"
                )
        elif args.command == "fig3":
            result = run_fig3(
                n=args.n,
                p_values=_parse_grid(args.p_grid),
                seed=args.seed,
                out=args.out,
                n_samples=args.samples,
                l_rapid=args.l_rapid,
                l_slow=args.l_slow,
                theta=args.theta,
                check=args.check,
            )
            print(f"wrote {result['sweep']} and {result['convergence']}")
        else:
            config = ExperimentConfig.from_json(args.config)
            if args.out:
                config.output = args.out
            report = run_generic(config, check=args.check)
            if "csv" in report:
                print(f"wrote {report['csv']}")
            else:
                print(json.dumps(report["rows"], indent=2, default=str))
            if "unravelling" in report:
                print(json.dumps(report["unravelling"], indent=2))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
