"""Subsystem partitions, local Hermitian bases, and locality vectors.

A partition splits a finite-dimensional system into subsystems of dimensions
``dims``; operators decompose over the product basis built from per-subsystem
orthonormal Hermitian bases (identity first, normalized generalized Gell-Mann
matrices after).  Grouping basis elements by their support pattern — which
subsystems they act on non-trivially — yields, for an operator ``A``, the
locality vector

    weight[kappa] = sum over basis elements with support kappa of |Tr[B A]|^2,

indexed by support bitmasks.  Bit ``m`` of a mask corresponds to subsystem
``m``; vectors and matrices over masks are always ordered by ascending mask
integer ("bitmask-ascending").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "SubsystemPartition",
    "LocalityVector",
    "local_basis",
    "locality_vector",
    "locality_vectors",
    "operator_coefficients",
    "block_multi_indices",
    "stack_basis",
    "weighted_dot",
]


@lru_cache(maxsize=None)
def _local_basis_cached(dim: int) -> np.ndarray:
    mats = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    # Off-diagonal pairs, symmetric then antisymmetric, in lexicographic order.
    for a in range(dim):
        for b in range(a + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[a, b] = sym[b, a] = 1.0 / np.sqrt(2.0)
            mats.append(sym)
            asym = np.zeros((dim, dim), dtype=complex)
            asym[a, b] = -1j / np.sqrt(2.0)
            asym[b, a] = 1j / np.sqrt(2.0)
            mats.append(asym)
    # Diagonal traceless elements.
    for l in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        diag[np.arange(l), np.arange(l)] = 1.0
        diag[l, l] = -float(l)
        mats.append(diag / np.sqrt(l * (l + 1)))
    out = np.stack(mats)
    out.setflags(write=False)
    return out


def local_basis(dim: int) -> np.ndarray:
    """Orthonormal Hermitian basis of dim x dim matrices, identity first.

    For ``dim == 2`` the elements are (1, X, Y, Z)/sqrt(2).  Shape
    ``(dim**2, dim, dim)``; read-only.
    """
    if dim < 2:
        raise ValueError(f"subsystem dimension must be >= 2, got {dim}")
    return _local_basis_cached(int(dim))


@dataclass(frozen=True)
class SubsystemPartition:
    """An ordered split of a tensor-product space into subsystems."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(x) for x in self.dims)
        if len(dims) == 0:
            raise ValueError("partition needs at least one subsystem")
        if any(x < 2 for x in dims):
            raise ValueError(f"subsystem dimensions must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @classmethod
    def qubits(cls, n: int) -> "SubsystemPartition":
        return cls((2,) * n)

    @property
    def num_subsystems(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        out = 1
        for x in self.dims:
            out *= x
        return out

    @property
    def num_masks(self) -> int:
        return 1 << len(self.dims)

    def block_dims(self) -> np.ndarray:
        """All block dimensions, bitmask-ascending.  Sums to total_dim**2."""
        out = np.ones(self.num_masks)
        for m, dm in enumerate(self.dims):
            bit = (np.arange(self.num_masks) >> m) & 1
            out *= np.where(bit, dm * dm - 1, 1)
        return out

    def mask_from_string(self, pattern: str) -> int:
        """Parse a support pattern like '01' (character m <-> subsystem m)."""
        if len(pattern) != self.num_subsystems or set(pattern) - {"0", "1"}:
            raise ValueError(f"bad support pattern {pattern!r}")
        return sum(1 << m for m, c in enumerate(pattern) if c == "1")


def _interleaved_square(partition: SubsystemPartition, ops: np.ndarray) -> np.ndarray:
    """Reshape (N, d, d) into (N, d0^2, d1^2, ...) with paired row/col axes."""
    dims = partition.dims
    M = len(dims)
    n = ops.shape[0]
    t = ops.reshape((n, *dims, *dims))
    perm = [0]
    for m in range(M):
        perm.extend((1 + m, 1 + M + m))
    t = np.ascontiguousarray(t.transpose(perm))
    return t.reshape((n, *[dm * dm for dm in dims]))


def _apply_on_axes(t: np.ndarray, op: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Multiply ``op`` onto the tensor axes ``axes`` of a batch ``t`` (axis 0).

    ``op`` is one (D, D) matrix or a per-sample (N, D, D) stack, where D is
    the product of the sizes of ``axes`` in the order given:
    out[n, ..., i, ...] = sum_j op[i, j] t[n, ..., j, ...].  The result has
    the shape of ``t``.
    """
    axes = list(axes)
    perm = [0, *axes, *(a for a in range(1, t.ndim) if a not in axes)]
    moved = t.transpose(perm)
    sub = math.prod(moved.shape[1 : 1 + len(axes)])
    rest = math.prod(moved.shape[1 + len(axes) :])
    out = op @ moved.reshape(t.shape[0], sub, rest)
    return out.reshape(moved.shape).transpose(np.argsort(perm))


def operator_coefficients(partition: SubsystemPartition, ops: np.ndarray) -> np.ndarray:
    """Coefficients Tr[B_j A] of operators in the product Hermitian basis.

    ``ops`` may be a single (d, d) matrix or a batch (N, d, d).  Returns a
    complex tensor of shape (d0^2, ..., dM^2) or (N, d0^2, ..., dM^2); entry
    ``[j0, ..., jM]`` is the trace of A against the product of local basis
    elements j0 x j1 x ...  Coefficients are real for Hermitian inputs.
    """
    ops = np.asarray(ops, dtype=complex)
    single = ops.ndim == 2
    if single:
        ops = ops[None]
    d = partition.total_dim
    if ops.shape[-2:] != (d, d):
        raise ValueError(f"operator shape {ops.shape[-2:]} does not match dim {d}")
    t = _interleaved_square(partition, ops)
    for m, dm in enumerate(partition.dims):
        # Tr[B_j A] = sum_{a,b} B_j[b, a] A[a, b], one subsystem at a time.
        w = local_basis(dm).transpose(0, 2, 1).reshape(dm * dm, dm * dm)
        t = _apply_on_axes(t, w, [1 + m])
    return t[0] if single else t


def _weights_from_coefficients(coeffs: np.ndarray, partition: SubsystemPartition) -> np.ndarray:
    dims = partition.dims
    M = len(dims)
    w = np.abs(coeffs) ** 2
    for m, dm in enumerate(dims):
        ax = 1 + m
        ident = np.take(w, [0], axis=ax)
        rest = np.take(w, range(1, dm * dm), axis=ax).sum(axis=ax, keepdims=True)
        w = np.concatenate([ident, rest], axis=ax)
    # Axis 1+m is subsystem m's (identity, active) split; reverse so that the
    # C-order flat index carries subsystem m at bit m.
    w = w.transpose((0, *range(M, 0, -1)))
    return w.reshape(w.shape[0], 1 << M)


@dataclass
class LocalityVector:
    """Support-pattern weights of an operator, bitmask-ascending."""

    partition: SubsystemPartition
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.partition.num_masks,):
            raise ValueError(
                f"expected {self.partition.num_masks} weights, got shape {w.shape}"
            )
        self.weights = w


def locality_vectors(partition: SubsystemPartition, ops: np.ndarray) -> np.ndarray:
    """Locality weights for a batch (N, d, d) of operators; shape (N, 2^M)."""
    ops = np.asarray(ops, dtype=complex)
    if ops.ndim != 3:
        raise ValueError("expected a batch of operators with shape (N, d, d)")
    return _weights_from_coefficients(operator_coefficients(partition, ops), partition)


def locality_vector(partition: SubsystemPartition, op: np.ndarray) -> LocalityVector:
    """Locality vector of a single operator (Hermitian or not)."""
    op = np.asarray(op, dtype=complex)
    weights = locality_vectors(partition, op[None])[0]
    return LocalityVector(partition, weights)


def weighted_dot(a, b, partition: SubsystemPartition | None = None) -> float:
    """Block-dimension-weighted inner product sum_kappa a_k b_k / d_kappa."""
    if isinstance(a, LocalityVector):
        partition = a.partition
        a = a.weights
    if isinstance(b, LocalityVector):
        if partition is not None and b.partition != partition:
            raise ValueError("locality vectors live on different partitions")
        partition = b.partition
        b = b.weights
    if partition is None:
        raise ValueError("a partition is required when passing bare arrays")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sum(a * b / partition.block_dims()))


def _active_index_sets(partition: SubsystemPartition, mask: int) -> list[range]:
    sets = []
    for m, dm in enumerate(partition.dims):
        if (mask >> m) & 1:
            sets.append(range(1, dm * dm))
        else:
            sets.append(range(0, 1))
    return sets


def block_multi_indices(partition: SubsystemPartition, mask: int) -> np.ndarray:
    """All multi-indices of the block as an integer array (d_kappa, M)."""
    sets = _active_index_sets(partition, mask)
    grids = np.meshgrid(*[np.asarray(list(s)) for s in sets], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def stack_basis(partition: SubsystemPartition, multi_indices: np.ndarray) -> np.ndarray:
    """Materialize a batch of product-basis elements; shape (N, d, d)."""
    multi_indices = np.asarray(multi_indices, dtype=int)
    n = multi_indices.shape[0]
    out = np.ones((n, 1, 1), dtype=complex)
    for m, dm in enumerate(partition.dims):
        picked = local_basis(dm)[multi_indices[:, m]]  # (N, dm, dm)
        out = np.einsum("nab,ncd->nacbd", out, picked).reshape(
            n, out.shape[1] * dm, out.shape[2] * dm
        )
    return out
