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
config, package/library versions, the config hash, and a hash of each
table's rows.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import io
import json
import math
import platform
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy

from . import __version__
from .channels import (
    Channel,
    CircuitUnitary,
    Conjugation,
    KrausChannel,
    MixtureWithReplacement,
    Unitary,
    _check_density_matrix,
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
from .ltm import DenseLimitExceeded, ltm_exact, mean_ltm_over_ensemble
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

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
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
        if ent == "custom-kraus-file" and "path" not in self.entangler:
            raise ValueError("entangler: custom-kraus-file needs a 'path'")
        operands = [
            ("observable", "observable id", self.observable, OBSERVABLE_IDS),
            ("initial_state", "initial state", self.initial_state, STATE_IDS),
        ]
        if self.noise is not None:
            fp = self.noise.get("fixed_point", "maximally-mixed")
            operands.append(("noise.fixed_point", "fixed point", fp, FIXED_POINT_IDS))
            if self.p_grid is None and "p" not in self.noise:
                raise ValueError("noise needs 'p' or a top-level p_grid")
            if any(not 0.0 <= p <= 1.0 for p in self.noise_strengths()):
                raise ValueError("noise strengths must lie in [0, 1]")
        for key, noun, spec, ids in operands:
            ident = spec.get("id") if isinstance(spec, dict) else spec
            if ident not in ids:
                raise ValueError(f"unknown {noun} {ident!r} in {key} (have {ids})")
            if ident == "custom" and not (isinstance(spec, dict) and "path" in spec):
                raise ValueError(
                    f'{key}: a custom operand is {{"id": "custom", "path": ...}}'
                )
        if self.n_samples < 0:
            raise ValueError("n_samples must be non-negative")
        unr = self.unravelling_check
        if unr is not None and (not isinstance(unr, dict) or "path" not in unr):
            raise ValueError("unravelling_check needs a 'path' to a Kraus file")

    def noise_strengths(self) -> tuple[float | None, ...]:
        """The noise strengths to sweep; ``(None,)`` for the noiseless circuit."""
        if self.noise is None:
            return (None,)
        if self.p_grid is not None:
            return self.p_grid
        return (float(self.noise["p"]),)

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
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        arr = np.empty(0)  # ragged or non-numeric: rejected below
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
    ops = load_kraus_file(spec["path"])
    if ops[0].shape[0] != partition.total_dim:
        raise ValueError("custom Kraus dimension does not match the partition")
    return KrausChannel(ops)


@dataclass(frozen=True)
class Operand:
    """A state, fixed point or observable as the runners use it.

    The analytic path reads only ``locality`` and ``trace``.  ``dense()``
    builds the d x d matrix on first call, for Monte Carlo and for the
    dense LTM of a noisy non-unitary layer.
    """

    locality: LocalityVector
    trace: float
    dense: Callable[[], np.ndarray]


def resolve_operand(
    spec: str | dict, partition: SubsystemPartition, key: str
) -> Operand:
    """Operand of config field ``key``: observable, initial_state or noise.fixed_point.

    A custom operand's file is read and checked here, once: the observable
    must be Hermitian, a state or fixed point a density matrix.
    """
    ident = spec.get("id") if isinstance(spec, dict) else spec
    d = partition.total_dim
    n = len(partition.dims)
    if ident == "custom":
        mat = _parse_complex_matrix(_load_json(spec["path"], key), key)
        if mat.shape != (d, d):
            raise ValueError(
                f"{key}: a {mat.shape[0]}x{mat.shape[0]} matrix does not match "
                f"the partition's dimension {d}"
            )
        if key != "observable":
            _check_density_matrix(mat, key)
        elif np.abs(mat - mat.conj().T).max() > 1e-10:
            raise ValueError("observable must be Hermitian")
        locality, trace = locality_vector(partition, mat), float(np.trace(mat).real)
        build = lambda: mat  # noqa: E731
    elif ident == "maximally-mixed":
        weights = np.zeros(partition.num_masks)
        weights[0] = 1.0 / d
        locality, trace = LocalityVector(partition, weights), 1.0
        build = functools.partial(maximally_mixed, d)
    elif any(dm != 2 for dm in partition.dims):
        raise ValueError(f"{key}: {ident} is defined on qubits")
    elif ident == "ghz":
        locality, trace = ghz_locality(n), 1.0
        build = functools.partial(ghz_state, n)
    elif ident == "zero":
        locality, trace = zero_state_locality(n), 1.0
        build = functools.partial(zero_state, n)
    elif ident == "zz-chain":
        coupling = float(spec.get("coupling", 1.0))
        locality, trace = zz_chain_locality(n, coupling), 0.0
        build = functools.partial(zz_chain_observable, n, coupling)
    else:  # single-pauli
        pattern = spec.get("pattern")
        if not pattern:
            raise ValueError(f"{key}: single-pauli needs a 'pattern'")
        coeff = float(spec.get("coefficient", 1.0))
        locality = pauli_string_locality(n, pattern, coeff)
        trace = coeff * d if set(pattern.upper()) == {"I"} else 0.0
        build = lambda: coeff * pauli_string(n, pattern.upper())  # noqa: E731
    return Operand(locality, trace, functools.cache(build))


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


def write_csv(path: Path, fieldnames: Sequence[str], rows: Sequence[dict]) -> str:
    """Write a table; returns the SHA-256 of its body after the timestamp line."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt(row.get(name)) for name in fieldnames])
    body = buf.getvalue().encode()
    path.write_bytes(f"# generated: {_timestamp()}\r\n".encode() + body)
    return hashlib.sha256(body).hexdigest()


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
# Monte Carlo columns


def _mc_columns(
    rows: list[dict],
    reference: str,
    partition: SubsystemPartition,
    entangler: Channel,
    p: float | None,
    sigma: Operand | None,
    rho: Operand,
    h: Operand,
    n_samples: int,
    seed: int,
    checks: list[str],
) -> None:
    """Fill ``variance_mc``/``se_mc``/``samples`` of rows at one noise strength.

    Each row is one depth (``row["layers"]``) of the layered channel: the
    entangler alone when ``p`` is None, else replace-with-``sigma`` noise of
    strength ``p`` after it.  An estimate more than four standard errors
    from ``row[reference]`` is recorded in ``checks``.
    """
    if not (n_samples > 0 and partition.total_dim <= MAX_DENSE_DIM):
        return
    channel = (
        entangler if p is None else MixtureWithReplacement(p, sigma.dense(), entangler)
    )
    for row in rows:
        depth = row["layers"]
        spec = LayeredCircuitSpec(partition, depth, channel, rho.dense(), h.dense())
        est = estimate_variance(spec, n_samples, seed)
        row["variance_mc"] = est.variance
        row["se_mc"] = est.standard_error_of_variance
        row["samples"] = est.samples
        target = row.get(reference)
        if target is not None:
            gap = abs(est.variance - target)
            if gap > 4 * est.standard_error_of_variance + 1e-20:
                checks.append(
                    f"{row['entangler']} L={depth} p={p}: MC missed "
                    f"the analytic value by {gap!r}"
                )


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
    coupling = 9.0 / n
    h = resolve_operand(
        {"id": "zz-chain", "coupling": coupling}, partition, "observable"
    )
    sigma = resolve_operand("ghz", partition, "noise.fixed_point")
    rho = resolve_operand("zero", partition, "initial_state")
    l_h, l_ghz, l_rho = h.locality, sigma.locality, rho.locality
    normalization = weighted_dot(l_ghz, l_h)

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
        except DenseLimitExceeded:
            transfer = None
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
                "samples": 0,
            }
            if transfer is not None:
                layer = noisy_layer_transfer(p, transfer, l_ghz)
                row["variance_layered"] = variance_exact(
                    l_rho, [layer] * depth, l_h, 0.0
                ).value
                deep_value = noise_model_deep(p, transfer, l_ghz, l_h).value
                row["variance_deep"] = deep_value
                row["variance_deep_normalized"] = deep_value / normalization
            _mc_columns(
                [row], "variance_layered", partition, circuit, p, sigma, rho, h,
                n_samples, seed, checks,
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
    conv_path = out_dir / "fig3_convergence.csv"
    rows_sha256 = {}
    rows_sha256[sweep_path.name] = write_csv(
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
    rows_sha256[conv_path.name] = write_csv(
        conv_path, ["entangler", "n", "p", "layers", "gap"], convergence
    )
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
    write_sidecar(
        out_dir / "fig3.json",
        config,
        {"check_failures": checks, "rows_sha256": rows_sha256},
    )
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
    h = resolve_operand(config.observable, partition, "observable")
    rho = resolve_operand(config.initial_state, partition, "initial_state")
    sigma = None
    if config.noise is not None:
        fixed_point = config.noise.get("fixed_point", "maximally-mixed")
        sigma = resolve_operand(fixed_point, partition, "noise.fixed_point")
    entangler = build_entangler(config.entangler, partition)
    try:
        entangler_transfer = ltm_exact(entangler, partition)
    except DenseLimitExceeded:
        entangler_transfer = None
    unitary_entangler = isinstance(entangler, (CircuitUnitary, Unitary))
    l_rho, l_h = rho.locality, h.locality

    # A custom observable's locality carries rounding noise off its support.
    weights = l_h.weights
    support = [int(k) for k in np.flatnonzero(weights > 1e-12 * weights.max()) if k]
    checks: list[str] = []
    rows: list[dict] = []
    for p in config.noise_strengths():
        # ltm_exact refuses only by dimension, so a noisy layer on a refused
        # entangler would be refused too.
        if p is None or entangler_transfer is None:
            transfer = entangler_transfer
        elif unitary_entangler:
            transfer = noisy_layer_transfer(p, entangler_transfer, sigma.locality)
        else:
            transfer = ltm_exact(
                MixtureWithReplacement(p, sigma.dense(), entangler), partition
            )

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

        p_rows = []
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
                "method": "analytic" if transfer is not None else "skipped:dense-limit",
            }
            if transfer is not None:
                row["variance_exact"] = variance_exact(
                    l_rho, [transfer] * depth, l_h, h.trace
                ).value
                if support and abs(h.trace) < 1e-12:
                    bound, alpha = lower_bound(l_rho, [transfer] * depth, l_h, support)
                    row["lower_bound"] = bound
                    row["alpha"] = alpha
                    exact_value = row["variance_exact"]
                    if bound > exact_value + 1e-9:
                        checks.append(
                            f"lower bound {bound!r} exceeds exact {exact_value!r}"
                        )
            p_rows.append(row)
        _mc_columns(
            p_rows, "variance_exact", partition, entangler, p, sigma, rho, h,
            config.n_samples, config.seed, checks,
        )
        for row in p_rows:
            if "variance_mc" in row:
                row["method"] = "analytic+mc" if transfer is not None else "mc"
        rows.extend(p_rows)

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
        rows_sha256 = write_csv(
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
            {
                "check_failures": checks,
                "rows_sha256": {csv_path.name: rows_sha256},
                "unravelling": report.get("unravelling"),
            },
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
