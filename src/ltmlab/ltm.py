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

Three constructions are provided: an exact matrix product operator (MPO)
contraction for circuits of adjacent two-qubit gates on a qubit partition,
an exact dense basis enumeration for every other channel (modest
dimensions), and an unbiased stratified sampler with per-entry standard
errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import substream
from .channels import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, Channel, CircuitUnitary
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
    """``ltm_exact`` refused: a qubit chain circuit above ``MPO_CLASS_LIMIT``
    classes (memory), any other channel above ``DENSE_DIMENSION_LIMIT`` (time)."""


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


# One site of the doubled chain, E[(a, a'), bit]: class bit 0 is the pair
# |I, I>, class bit 1 the sum of |a, a> over a in {X, Y, Z}.
_CLASS_LEGS = np.zeros((16, 2))
_CLASS_LEGS[[0, 5, 10, 15], [0, 1, 1, 1]] = 1.0
# Relative cut on the singular values of a split; chain bonds stay <= 9.
_SVD_CUT = 1e-13
# Entries below this magnitude are set to 0: round-off (within 1.1e-14 at
# n <= 13) would make the LTM negative and fill a Clifford LTM's zeros.
# Genuine CRX entries this small go too, 2.8e-12 of a column at n = 13; a
# larger tolerance biases the CRX deep values (5e-14 moves one by 1.4e-12 at
# n = 6).  It sits below spectral.EDGE_THRESHOLD: decompose's graph is kept.
_MPO_ZERO_TOL = 2e-14
# The MPO is contracted to dense k x k entries: 2**13 classes take 512 MB.
MPO_CLASS_LIMIT = 1 << 13


def _ltm_mpo(circuit: CircuitUnitary, partition: SubsystemPartition) -> np.ndarray:
    """Entries of a chain circuit's LTM from a matrix product operator.

    T[kappa, lambda] * d_lambda = <out_kappa| prod_g (R_g x R_g) |in_lambda>,
    with R_g[b, a] = Tr[B_b g-dagger B_a g] a gate's Pauli transfer matrix
    and both boundaries products of ``_CLASS_LEGS``.  Site m holds a tensor
    (left bond, (a, a'), lambda_m, right bond); the doubled gates act last
    gate first, and each two-site result is split again by SVD.
    """
    n = circuit.num_qubits
    paulis = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])  # exact, unlike local_basis(2)
    basis = np.einsum("aij,bkl->abikjl", paulis, paulis).reshape(16, 4, 4)
    sites = [_CLASS_LEGS.reshape(1, 16, 2, 1)] * n
    for g in reversed(circuit.gates):
        images = g.matrix.conj().T @ basis @ g.matrix
        coef = np.einsum("bji,aij->ab", basis, images).real.reshape(4, 4, 4, 4) / 4  # [a1, a2, b1, b2]
        q, r = g.qubits
        if q > r:
            q, r, coef = r, q, coef.transpose(1, 0, 3, 2)
        doubled = np.einsum("yzwx,YZWX->wWxXyYzZ", coef, coef).reshape(16, 16, 16, 16)
        two = np.einsum("apkr,rqls->apkqls", sites[q], sites[r])
        two = np.einsum("PQpq,apkqls->aPkQls", doubled, two)
        left, right = two.shape[0], two.shape[-1]
        u, s, vh = np.linalg.svd(two.reshape(left * 32, 32 * right), full_matrices=False)
        keep = int(np.count_nonzero(s > _SVD_CUT * s[0]))
        sites[q] = (u[:, :keep] * s[:keep]).reshape(left, 16, 2, keep)
        sites[r] = vh[:keep].reshape(keep, 16, 2, right)
    sites = [np.einsum("apkr,pc->ackr", t, _CLASS_LEGS) for t in sites]

    # Each half of the chain is contracted on its own, so no intermediate
    # outgrows a half chain; one matmul over the middle bond then writes the
    # entries in their final order, row bits (kappa_hi, kappa_lo) and column
    # bits (lambda_hi, lambda_lo), with site m at bit m.
    lo = np.ones((1, 1, 1))  # (kappa_lo, lambda_lo, bond)
    for t in sites[: n // 2]:
        lo = np.einsum("KLr,rkbs->kKbLs", lo, t).reshape(lo.shape[0] * 2, lo.shape[1] * 2, -1)
    hi = np.ones((1, 1, 1))  # (bond, kappa_hi, lambda_hi)
    for t in reversed(sites[n // 2 :]):
        hi = np.einsum("akbr,rKL->aKkLb", t, hi).reshape(t.shape[0], hi.shape[1] * 2, -1)
    k = partition.num_masks
    entries = np.matmul(hi.transpose(1, 2, 0)[:, None], lo.transpose(0, 2, 1)[None]).reshape(k, k)
    for rows in np.array_split(entries, -(-k // 512)):  # views, so the masks stay small
        rows /= partition.block_dims()
        rows[np.abs(rows) < _MPO_ZERO_TOL] = 0.0
    # A unitary's columns sum to 1: this removes the round-off in each
    # column's mass (a permutation such as SWAP comes out exact) and spreads
    # what the clamp took over the column.
    entries /= entries.sum(axis=0)
    return entries


def ltm_exact(channel: Channel, partition: SubsystemPartition) -> LocalityTransferMatrix:
    """Exact LTM of a channel's adjoint: a circuit on qubits from its MPO
    (refused above ``MPO_CLASS_LIMIT`` classes), any other channel by dense
    basis enumeration (refused above dimension ``DENSE_DIMENSION_LIMIT``)."""
    if isinstance(channel, CircuitUnitary) and partition.dims == (2,) * channel.num_qubits:
        if partition.num_masks > MPO_CLASS_LIMIT:
            raise DenseLimitExceeded(
                f"circuit path refuses {partition.num_masks} classes > {MPO_CLASS_LIMIT}: "
                f"its dense entries would take {8 * partition.num_masks ** 2 >> 20} MB"
            )
        return LocalityTransferMatrix(partition, _ltm_mpo(channel, partition), exact=True)
    if partition.total_dim > DENSE_DIMENSION_LIMIT:
        raise DenseLimitExceeded(
            f"dense path refuses dimension {partition.total_dim} > "
            f"{DENSE_DIMENSION_LIMIT}; use a qubit circuit or the sampled estimator"
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
