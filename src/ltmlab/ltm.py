"""Locality transfer matrices of channels over a subsystem partition.

The locality transfer matrix (LTM) of a linear map records, for each input
support class, how the squared weight of an operator drawn uniformly from
that class redistributes over output support classes:

    entries[out_mask, in_mask] =
        (1 / d_in) * sum over basis elements B in the input block of
        locality_weight(map(B))[out_mask].

Columns are input classes, rows are output classes (both bitmask-ascending).
Every LTM here is that of a channel's adjoint, the map the variance formulas
consume: the product of per-layer matrices, applied deepest layer first to
the observable's locality vector, propagates squared Heisenberg weight back
to the input state.

Three constructions are provided: a dense exact path (any channel, modest
dimensions), an exact Pauli-symbol path for Clifford circuits (any number of
qubits), and an unbiased stratified sampler with per-entry standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import substream
from .channels import Channel, CircuitUnitary
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
    """Adjoint-direction LTM entries plus provenance; entries[out_mask, in_mask]."""

    partition: SubsystemPartition
    entries: np.ndarray
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


def _ltm_dense(channel: Channel, partition: SubsystemPartition) -> np.ndarray:
    if channel.dim != partition.total_dim:
        raise ValueError("channel dimension does not match the partition")
    k = partition.num_masks
    block_sizes = partition.block_dims()
    entries = np.zeros((k, k))
    for in_mask in range(k):
        multi = block_multi_indices(partition, in_mask)
        acc = np.zeros(k)
        for start in range(0, multi.shape[0], _DENSE_CHUNK):
            mats = stack_basis(partition, multi[start : start + _DENSE_CHUNK])
            images = channel.apply_batch(mats, adjoint=True)
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
    x: np.ndarray, z: np.ndarray, circuit: CircuitUnitary
) -> tuple[np.ndarray, np.ndarray]:
    """Pauli symbols under X -> W-dagger X W: the gates in reverse order, each its own inverse."""
    for g in reversed(circuit.gates):
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


def _ltm_clifford(circuit: CircuitUnitary, partition: SubsystemPartition) -> np.ndarray:
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
        x, z = _propagate_clifford(x, z, circuit)
        out_mask = _qubit_to_subsystem_mask(x | z, partition)
        counts += np.bincount(out_mask * k + in_mask, minlength=k * k)
    entries = counts.reshape(k, k)
    entries /= partition.block_dims()[None, :]
    return entries


def ltm_exact(channel: Channel, partition: SubsystemPartition) -> LocalityTransferMatrix:
    """Exact locality transfer matrix of a channel's adjoint.

    Clifford circuits on qubits take the symbol-propagation path, which is
    exact for any register size.  Everything else enumerates the operator
    basis densely and refuses dimensions above ``DENSE_DIMENSION_LIMIT``.
    """
    if (
        isinstance(channel, CircuitUnitary)
        and channel.is_clifford
        and channel.dim == partition.total_dim
    ):
        return LocalityTransferMatrix(partition, _ltm_clifford(channel, partition), exact=True)
    if partition.total_dim > DENSE_DIMENSION_LIMIT:
        raise DenseLimitExceeded(
            f"dense path refuses dimension {partition.total_dim} > "
            f"{DENSE_DIMENSION_LIMIT}; use a Clifford circuit or the sampled estimator"
        )
    return LocalityTransferMatrix(partition, _ltm_dense(channel, partition), exact=True)


def ltm_sampled(
    channel: Channel,
    partition: SubsystemPartition,
    samples_per_block: int,
    seed: int,
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
            images = channel.apply_batch(mats, adjoint=True)
            weights[start : start + mats.shape[0]] = locality_vectors(partition, images)
        entries[:, in_mask] = weights.mean(axis=0)
        errors[:, in_mask] = weights.std(axis=0, ddof=1) / np.sqrt(samples_per_block)
    return LocalityTransferMatrix(
        partition,
        entries,
        exact=False,
        standard_errors=errors,
        samples_per_block=samples_per_block,
    )


def mean_ltm_over_ensemble(
    members: Sequence[tuple[float, Channel]],
    partition: SubsystemPartition,
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
        entries += w * ltm_exact(ch, partition).entries
    return LocalityTransferMatrix(partition, entries, exact=True)
