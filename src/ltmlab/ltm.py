"""Locality transfer matrices of channels over a subsystem partition.

The locality transfer matrix (LTM) of a linear map records, for each input
support class, how the squared weight of an operator drawn uniformly from
that class redistributes over output support classes:

    entries[out_mask, in_mask] =
        (1 / d_in) * sum over basis elements B in the input block of
        locality_weight(map(B))[out_mask].

Columns are input classes, rows are output classes (both bitmask-ascending).
For layered-circuit variance calculations the maps of interest are channel
adjoints: the product of per-layer matrices, applied deepest layer first to
the observable's locality vector, propagates squared Heisenberg weight back
to the input state.

Three constructions are provided: a dense exact path (any channel, modest
dimensions), an exact Pauli-symbol path for Clifford circuits (any number of
qubits), and an unbiased stratified sampler with per-entry standard errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import substream
from .channels import Channel, CircuitUnitary, _conjugate
from .partitions import (
    SubsystemPartition,
    block_multi_indices,
    locality_vectors,
    stack_basis,
)

__all__ = [
    "DenseLimitExceeded",
    "LocalityTransferMatrix",
    "ltm_exact",
    "ltm_sampled",
    "mean_ltm_over_ensemble",
]

DENSE_DIMENSION_LIMIT = 128
_DENSE_CHUNK = 256


class DenseLimitExceeded(ValueError):
    """``ltm_exact`` refused a non-Clifford channel above its dense dimension limit."""


@dataclass
class LocalityTransferMatrix:
    """LTM entries plus provenance; entries[out_mask, in_mask]."""

    partition: SubsystemPartition
    entries: np.ndarray
    adjoint: bool
    exact: bool
    standard_errors: np.ndarray | None = None
    samples_per_block: int | None = None

    def __post_init__(self) -> None:
        k = self.partition.num_masks
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (k, k):
            raise ValueError(f"expected entries of shape {(k, k)}, got {e.shape}")
        self.entries = e
        if self.standard_errors is not None:
            se = np.asarray(self.standard_errors, dtype=float)
            if se.shape != (k, k):
                raise ValueError("standard errors must match the entry shape")
            self.standard_errors = se

    def column_sums(self) -> np.ndarray:
        return self.entries.sum(axis=0)

    def to_json(self) -> str:
        payload = {
            "partition": {"dims": list(self.partition.dims)},
            "order": "bitmask-ascending",
            "orientation": "column-is-input",
            "adjoint": self.adjoint,
            "exact": self.exact,
            "rows": [list(map(float, row)) for row in self.entries],
        }
        if self.standard_errors is not None:
            payload["standard_errors"] = [
                list(map(float, row)) for row in self.standard_errors
            ]
        if self.samples_per_block is not None:
            payload["samples_per_block"] = self.samples_per_block
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "LocalityTransferMatrix":
        payload = json.loads(text)
        if payload.get("order") != "bitmask-ascending":
            raise ValueError("unsupported ordering in serialized transfer matrix")
        partition = SubsystemPartition(tuple(payload["partition"]["dims"]))
        se = payload.get("standard_errors")
        return cls(
            partition=partition,
            entries=np.array(payload["rows"], dtype=float),
            adjoint=bool(payload.get("adjoint", True)),
            exact=bool(payload.get("exact", True)),
            standard_errors=None if se is None else np.array(se, dtype=float),
            samples_per_block=payload.get("samples_per_block"),
        )


def _kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def _ltm_dense(
    channel: Channel,
    partition: SubsystemPartition,
    adjoint: bool,
    local_rotations: Sequence[np.ndarray] | None,
) -> np.ndarray:
    d = partition.total_dim
    if channel.dim != d:
        raise ValueError("channel dimension does not match the partition")
    rot = None
    if local_rotations is not None:
        if len(local_rotations) != partition.num_subsystems:
            raise ValueError("need one local rotation per subsystem")
        rot = _kron_all([np.asarray(v, dtype=complex) for v in local_rotations])
        if np.abs(rot.conj().T @ rot - np.eye(d)).max() > 1e-10:
            raise ValueError("local rotations must be unitary")
    k = partition.num_masks
    block_sizes = partition.block_dims()
    entries = np.zeros((k, k))
    for in_mask in range(k):
        multi = block_multi_indices(partition, in_mask)
        acc = np.zeros(k)
        for start in range(0, multi.shape[0], _DENSE_CHUNK):
            mats = stack_basis(partition, multi[start : start + _DENSE_CHUNK])
            if rot is not None:
                mats = _conjugate(mats, rot, (d,), (0,))
            images = channel.apply_batch(mats, adjoint=adjoint)
            if rot is not None:
                images = _conjugate(images, rot.conj().T, (d,), (0,))
            acc += locality_vectors(partition, images).sum(axis=0)
        entries[:, in_mask] = acc / block_sizes[in_mask]
    return entries


def _pack_pauli_bits(codes: np.ndarray, num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Split per-qubit codes (0=I, 1=X, 2=Y, 3=Z) into packed x/z bitmasks."""
    x = np.zeros(codes.shape[0], dtype=np.int64)
    z = np.zeros(codes.shape[0], dtype=np.int64)
    for m in range(num_qubits):
        c = (codes >> (2 * m)) & 3
        x |= ((c == 1) | (c == 2)).astype(np.int64) << m
        z |= ((c == 2) | (c == 3)).astype(np.int64) << m
    return x, z


def _propagate_clifford(
    x: np.ndarray, z: np.ndarray, circuit: CircuitUnitary, adjoint: bool
) -> tuple[np.ndarray, np.ndarray]:
    gates = reversed(circuit.gates) if adjoint else circuit.gates
    for g in gates:
        if g.name == "cnot":
            c, t = g.qubits
            x ^= ((x >> c) & 1) << t
            z ^= ((z >> t) & 1) << c
        elif g.name == "cz":
            a, b = g.qubits
            za = (x >> b) & 1
            zb = (x >> a) & 1
            z ^= (za << a) | (zb << b)
        elif g.name == "swap":
            a, b = g.qubits
            for arr in (x, z):
                bit_a = (arr >> a) & 1
                bit_b = (arr >> b) & 1
                diff = bit_a ^ bit_b
                arr ^= (diff << a) | (diff << b)
        else:  # pragma: no cover - guarded by is_clifford
            raise ValueError(f"gate {g.name!r} has no Pauli-symbol rule")
    return x, z


def _qubit_to_subsystem_mask(bits: np.ndarray, partition: SubsystemPartition) -> np.ndarray:
    """Collapse per-qubit support bits onto partition subsystems."""
    out = np.zeros_like(bits)
    qubit = 0
    for m, dm in enumerate(partition.dims):
        width = dm.bit_length() - 1  # qubits per subsystem (power-of-two dims)
        sub = (bits >> qubit) & ((1 << width) - 1)
        out |= (sub != 0).astype(bits.dtype) << m
        qubit += width
    return out


def _ltm_clifford(
    circuit: CircuitUnitary, partition: SubsystemPartition, adjoint: bool
) -> np.ndarray:
    n = circuit.num_qubits
    if any(d & (d - 1) for d in partition.dims) or partition.total_dim != 2 ** n:
        raise ValueError("Pauli-symbol path needs a power-of-two qubit grouping")
    k = partition.num_masks
    counts = np.zeros(k * k)
    chunk = 1 << 18
    total = 4 ** n
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        x, z = _pack_pauli_bits(idx, n)
        in_mask = _qubit_to_subsystem_mask(x | z, partition)
        x, z = _propagate_clifford(x, z, circuit, adjoint)
        out_mask = _qubit_to_subsystem_mask(x | z, partition)
        counts += np.bincount(out_mask * k + in_mask, minlength=k * k)
    entries = counts.reshape(k, k)
    entries /= partition.block_dims()[None, :]
    return entries


def ltm_exact(
    channel: Channel,
    partition: SubsystemPartition,
    adjoint: bool = True,
    max_dim: int = DENSE_DIMENSION_LIMIT,
    local_rotations: Sequence[np.ndarray] | None = None,
) -> LocalityTransferMatrix:
    """Exact locality transfer matrix of a channel (or its adjoint).

    Clifford circuits on qubits take the symbol-propagation path, which is
    exact for any register size.  Everything else enumerates the operator
    basis densely and refuses dimensions above ``max_dim``.  Passing
    ``local_rotations`` (one unitary per subsystem) evaluates the matrix in
    the rotated product basis — useful for basis-invariance checks.
    """
    if (
        isinstance(channel, CircuitUnitary)
        and channel.is_clifford
        and local_rotations is None
        and channel.dim == partition.total_dim
    ):
        entries = _ltm_clifford(channel, partition, adjoint)
        return LocalityTransferMatrix(partition, entries, adjoint, True)
    if partition.total_dim > max_dim:
        raise DenseLimitExceeded(
            f"dense path refuses dimension {partition.total_dim} > {max_dim}; "
            "use a Clifford circuit or the sampled estimator"
        )
    entries = _ltm_dense(channel, partition, adjoint, local_rotations)
    return LocalityTransferMatrix(partition, entries, adjoint, True)


def ltm_sampled(
    channel: Channel,
    partition: SubsystemPartition,
    samples_per_block: int,
    seed: int,
    adjoint: bool = True,
) -> LocalityTransferMatrix:
    """Unbiased Monte-Carlo LTM estimate with per-entry standard errors.

    Each input class is stratified separately: basis elements are drawn
    uniformly from the class (independent per-subsystem indices), so every
    column is an unbiased mean of single-element locality vectors.
    """
    if samples_per_block < 2:
        raise ValueError("need at least two samples per block for standard errors")
    d = partition.total_dim
    if channel.dim != d:
        raise ValueError("channel dimension does not match the partition")
    k = partition.num_masks
    entries = np.zeros((k, k))
    errors = np.zeros((k, k))
    for in_mask in range(k):
        rng = substream(seed, in_mask)
        multi = np.zeros((samples_per_block, partition.num_subsystems), dtype=int)
        for m, dm in enumerate(partition.dims):
            if (in_mask >> m) & 1:
                multi[:, m] = rng.integers(1, dm * dm, size=samples_per_block)
        weights = np.zeros((samples_per_block, k))
        for start in range(0, samples_per_block, _DENSE_CHUNK):
            mats = stack_basis(partition, multi[start : start + _DENSE_CHUNK])
            images = channel.apply_batch(mats, adjoint=adjoint)
            weights[start : start + mats.shape[0]] = locality_vectors(partition, images)
        entries[:, in_mask] = weights.mean(axis=0)
        errors[:, in_mask] = weights.std(axis=0, ddof=1) / np.sqrt(samples_per_block)
    return LocalityTransferMatrix(
        partition,
        entries,
        adjoint,
        exact=False,
        standard_errors=errors,
        samples_per_block=samples_per_block,
    )


def mean_ltm_over_ensemble(
    members: Sequence[tuple[float, Channel]],
    partition: SubsystemPartition,
    adjoint: bool = True,
    max_dim: int = DENSE_DIMENSION_LIMIT,
) -> LocalityTransferMatrix:
    """Probability-weighted mean of member LTMs.

    The weights must be non-negative and sum to one.  Because locality
    transfer is quadratic in the map, the mean over an unravelling generally
    differs from (dominates, entrywise on relevant blocks) the LTM of the
    mixed channel itself.
    """
    if not members:
        raise ValueError("ensemble must not be empty")
    weights = np.array([float(w) for w, _ in members])
    if weights.min() < 0:
        raise ValueError("ensemble weights must be non-negative")
    if abs(weights.sum() - 1.0) > 1e-10:
        raise ValueError(f"ensemble weights sum to {weights.sum()}, expected 1")
    k = partition.num_masks
    entries = np.zeros((k, k))
    for w, ch in members:
        entries += w * ltm_exact(ch, partition, adjoint=adjoint, max_dim=max_dim).entries
    return LocalityTransferMatrix(partition, entries, adjoint, True)
