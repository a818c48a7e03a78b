"""Canonical structure of non-negative matrices and their deep-power limits.

A non-negative square matrix over support classes is read as a weighted flow
graph (mass flows from column index to row index).  Strongly connected
classes split into *essential* blocks — no flow leaves them — and an
*inessential* remainder that eventually drains into the essential part.
Permuting indices accordingly exposes the canonical block-triangular form

    [ blocks   R ]
    [   0      Q ]

with one irreducible matrix per essential block, the strictly contractive
inessential corner Q, and the coupling R.  From this structure the module
computes Perron data per block, the absorption matrix (where inessential
mass ends up), and the full limit of repeated application — per residue
class of the layer count when periodic blocks make the limit oscillate, plus
the Cesaro average that always exists.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import ArpackNoConvergence, eigs

from .ltm import LocalityTransferMatrix
from .partitions import SubsystemPartition

__all__ = [
    "NumericalFailure",
    "IrreducibleBlock",
    "CanonicalDecomposition",
    "DeepLimit",
    "decompose",
    "period_of",
    "perron",
    "absorption",
    "deep_limit_matrix",
]

EDGE_THRESHOLD = 1e-12
UNIT_RADIUS_TOL = 1e-9
PERRON_RESIDUAL_TOL = 1e-10
DENSE_EIG_LIMIT = 64


class NumericalFailure(RuntimeError):
    """An eigen-computation or limit failed to meet its tolerance."""


@dataclass
class IrreducibleBlock:
    """One strongly connected class of the flow graph."""

    indices: tuple[int, ...]
    essential: bool
    period: int
    radius: float
    left_vector: np.ndarray
    right_vector: np.ndarray
    weighted_size: float | None = None

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def unit_radius(self) -> bool:
        return abs(self.radius - 1.0) < UNIT_RADIUS_TOL


@dataclass
class CanonicalDecomposition:
    """Essential/inessential split of a non-negative matrix."""

    matrix: np.ndarray
    blocks: list[IrreducibleBlock]
    permutation: np.ndarray
    edge_threshold: float
    partition: SubsystemPartition | None = None

    @property
    def essential_blocks(self) -> list[IrreducibleBlock]:
        return [b for b in self.blocks if b.essential]

    @property
    def essential_indices(self) -> tuple[int, ...]:
        out: list[int] = []
        for b in self.blocks:
            if b.essential:
                out.extend(b.indices)
        return tuple(out)

    @property
    def inessential_indices(self) -> tuple[int, ...]:
        seen = set(self.essential_indices)
        return tuple(i for i in self.permutation if i not in seen)

    @property
    def coupling(self) -> np.ndarray:
        """R: flow from inessential columns into essential rows."""
        return self.matrix[np.ix_(self.essential_indices, self.inessential_indices)]

    @property
    def contractive_part(self) -> np.ndarray:
        """Q: flow among inessential classes."""
        q_idx = self.inessential_indices
        return self.matrix[np.ix_(q_idx, q_idx)]

    @property
    def contractive_radius(self) -> float:
        """Spectral radius of Q: the largest Perron root of its blocks.

        In the Frobenius normal form Q is block triangular with the
        inessential irreducible blocks on its diagonal, so its spectrum is
        the union of theirs.  The blocks come from the flow graph, in which
        entries at or below ``edge_threshold`` are no edges: where Q holds
        such entries off its block triangle, ``max |eigvals(Q)|`` can
        differ from this value.
        """
        return max((abs(b.radius) for b in self.blocks if not b.essential), default=0.0)


def _flow_adjacency(matrix: np.ndarray, threshold: float) -> np.ndarray:
    # Mass flows column -> row, so the graph edge u -> v exists when
    # matrix[v, u] exceeds the threshold.
    return matrix.T > threshold


def _bfs_levels(adj: np.ndarray) -> np.ndarray:
    """Breadth-first level of every node from node 0 (-1 if unreachable)."""
    order, preds = breadth_first_order(
        csr_matrix(adj), 0, directed=True, return_predecessors=True
    )
    level = np.full(adj.shape[0], -1, dtype=int)
    level[0] = 0
    for v in order[1:]:
        level[v] = level[preds[v]] + 1
    return level


def period_of(block: np.ndarray, edge_threshold: float = EDGE_THRESHOLD) -> int:
    """Period of an irreducible non-negative matrix (1 = aperiodic).

    Breadth-first levels from node 0 are combined over every edge (u, v)
    into gcd(level(u) + 1 - level(v)).
    """
    block = np.asarray(block, dtype=float)
    n = block.shape[0]
    if n == 1:
        return 1
    adj = _flow_adjacency(block, edge_threshold)
    n_comp, _ = connected_components(csr_matrix(adj), directed=True, connection="strong")
    if n_comp != 1:
        raise ValueError("period is defined for irreducible (strongly connected) matrices")
    level = _bfs_levels(adj)
    us, vs = np.nonzero(adj)
    g = int(np.gcd.reduce(level[us] + 1 - level[vs]))
    return g if g else 1


def _perron_dense(block: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eig(block)
    radius = float(np.abs(vals).max())
    idx = int(np.argmin(np.abs(vals - radius)))
    if abs(vals[idx] - radius) > 1e-8 * max(radius, 1.0):
        raise NumericalFailure("leading eigenvalue is not real non-negative")
    right = vecs[:, idx]
    lvals, lvecs = np.linalg.eig(block.T)
    lidx = int(np.argmin(np.abs(lvals - radius)))
    left = lvecs[:, lidx]
    return radius, left, right


def _perron_arpack(block: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    # On the spectral circle of an irreducible non-negative matrix the Perron
    # root has the largest real part, also when the block is periodic.
    n = block.shape[0]
    start = np.full(n, 1.0 / n)
    try:
        vals, right = eigs(csr_matrix(block), k=1, which="LR", v0=start)
        _, left = eigs(csr_matrix(block.T), k=1, which="LR", v0=start)
    except ArpackNoConvergence as exc:
        raise NumericalFailure(f"ARPACK did not converge on a {n}-class block") from exc
    return float(vals[0].real), left[:, 0], right[:, 0]


def perron(block: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Spectral radius with positive left/right eigenvectors of an
    irreducible non-negative matrix.

    The left vector is normalized to unit max-entry, the right vector so
    that left . right = 1.  Blocks of at most ``DENSE_EIG_LIMIT`` classes
    use a dense eigensolve; larger ones ARPACK (``which="LR"``) on the
    sparse block and its transpose, started from a positive vector.  Both
    paths end in the same positivity and residual checks.
    """
    block = np.asarray(block, dtype=float)
    n = block.shape[0]
    if n == 1:
        val = float(block[0, 0])
        return val, np.ones(1), np.ones(1)
    if n <= DENSE_EIG_LIMIT:
        radius, left, right = _perron_dense(block)
    else:
        radius, left, right = _perron_arpack(block)

    def fix_sign(v: np.ndarray) -> np.ndarray:
        v = np.real_if_close(v, tol=1e6)
        if np.abs(np.imag(v)).max() > 1e-9:
            raise NumericalFailure("Perron vector has a non-trivial imaginary part")
        v = np.real(v)
        if v.sum() < 0:
            v = -v
        return v

    left = fix_sign(left)
    right = fix_sign(right)
    if left.min() <= 0 or right.min() <= 0:
        raise NumericalFailure("Perron vectors are not strictly positive")
    norm_inf = max(1.0, float(np.abs(block).sum(axis=1).max()))
    right_res = np.abs(block @ right - radius * right).max() / max(np.abs(right).max(), 1e-300)
    left_res = np.abs(left @ block - radius * left).max() / max(np.abs(left).max(), 1e-300)
    if max(right_res, left_res) > PERRON_RESIDUAL_TOL * norm_inf:
        raise NumericalFailure("Perron residual above tolerance")
    left = left / left.max()
    right = right / (left @ right)
    return radius, left, right


def _toposort_classes(n_classes: int, class_edges: np.ndarray) -> list[int]:
    # Kahn's algorithm on flow direction: sources (nothing flows in) first.
    in_deg = np.bincount(class_edges[:, 1], minlength=n_classes)
    succs: dict[int, list[int]] = {c: [] for c in range(n_classes)}
    for a, b in class_edges.tolist():
        succs[a].append(b)
    ready = [int(c) for c in np.flatnonzero(in_deg == 0)]
    order: list[int] = []
    while ready:
        c = ready.pop(0)
        order.append(c)
        for s in sorted(succs[c]):
            in_deg[s] -= 1
            if in_deg[s] == 0:
                ready.append(s)
        ready.sort()
    return order


def decompose(
    matrix: np.ndarray | LocalityTransferMatrix,
    partition: SubsystemPartition | None = None,
    edge_threshold: float = EDGE_THRESHOLD,
) -> CanonicalDecomposition:
    """Split a non-negative matrix into essential blocks, Q, and R.

    Accepts a raw matrix or a LocalityTransferMatrix (whose partition is
    picked up automatically, enabling weighted block sizes).  Sampled
    matrices with standard errors trigger a warning when a block's radius
    is within its propagated uncertainty of 1, since essential/contractive
    classification is then unreliable.
    """
    errors = None
    if isinstance(matrix, LocalityTransferMatrix):
        if partition is None:
            partition = matrix.partition
        errors = matrix.standard_errors
        matrix = matrix.entries
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("expected a square matrix")
    if matrix.min() < -1e-12:
        raise ValueError(f"matrix has a negative entry ({matrix.min():.2e})")
    n = matrix.shape[0]

    adj = _flow_adjacency(matrix, edge_threshold)
    n_classes, labels = connected_components(
        csr_matrix(adj), directed=True, connection="strong"
    )
    by_class = np.argsort(labels, kind="stable")
    members = np.split(by_class, np.cumsum(np.bincount(labels, minlength=n_classes))[:-1])

    us, vs = np.nonzero(adj)
    cu, cv = labels[us], labels[vs]
    cross = cu != cv
    class_edges = np.unique(np.stack([cu[cross], cv[cross]], axis=1), axis=0)
    has_out = np.zeros(n_classes, dtype=bool)
    has_out[class_edges[:, 0]] = True

    block_dims = partition.block_dims() if partition is not None else None
    blocks: list[IrreducibleBlock] = []
    for c in range(n_classes):
        idx = tuple(members[c].tolist())
        sub = matrix[np.ix_(idx, idx)]
        if len(idx) == 1 and not adj[idx[0], idx[0]]:
            radius, left, right = float(sub[0, 0]), np.ones(1), np.ones(1)
            period = 1
        else:
            radius, left, right = perron(sub)
            period = period_of(sub, edge_threshold)
        weighted = float(block_dims[list(idx)].sum()) if block_dims is not None else None
        blocks.append(
            IrreducibleBlock(
                indices=idx,
                essential=not has_out[c],
                period=period,
                radius=radius,
                left_vector=left,
                right_vector=right,
                weighted_size=weighted,
            )
        )
        if errors is not None and len(idx) > 0:
            err_scale = float(errors[np.ix_(idx, idx)].max(initial=0.0))
            if err_scale > 0 and 0 < abs(radius - 1.0) <= 3 * err_scale * len(idx):
                warnings.warn(
                    "block radius is within sampling error of 1; essential/"
                    "contractive classification may be unreliable",
                    stacklevel=2,
                )

    class_order = _toposort_classes(n_classes, class_edges)
    essential_classes = sorted(
        (c for c in range(n_classes) if not has_out[c]),
        key=lambda c: members[c][0],
    )
    inessential_classes = [c for c in class_order if has_out[c]]
    perm = np.concatenate([members[c] for c in essential_classes + inessential_classes])
    block_order = {tuple(members[c].tolist()): k for k, c in enumerate(essential_classes)}
    blocks.sort(
        key=lambda b: (not b.essential, block_order.get(b.indices, n), b.indices)
    )

    return CanonicalDecomposition(
        matrix=matrix,
        blocks=blocks,
        permutation=perm,
        edge_threshold=edge_threshold,
        partition=partition,
    )


def _cyclic_classes(
    block: np.ndarray, period: int, edge_threshold: float
) -> list[np.ndarray]:
    """Partition block indices into cyclic classes via BFS levels mod period."""
    n = block.shape[0]
    if period == 1:
        return [np.arange(n)]
    level = _bfs_levels(_flow_adjacency(block, edge_threshold))
    return [np.nonzero(level % period == c)[0] for c in range(period)]


def _block_projector(
    block: np.ndarray,
    period: int,
    lcm_period: int,
    edge_threshold: float,
    right_override: np.ndarray | None = None,
) -> np.ndarray:
    """Limit of block^(lcm_period * N) for a unit-radius irreducible block.

    Block-diagonal over cyclic classes: each class carries the rank-one
    Perron projector of the aperiodic class-restricted power matrix.
    """
    n = block.shape[0]
    power = np.linalg.matrix_power(block, lcm_period)
    proj = np.zeros((n, n))
    for cls in _cyclic_classes(block, period, edge_threshold):
        sub = power[np.ix_(cls, cls)]
        if len(cls) == 1:
            left = np.ones(1)
            right = np.ones(1)
        else:
            _, left, right = perron(sub)
        if right_override is not None:
            right = right_override[cls]
            right = right / (left @ right)
        proj[np.ix_(cls, cls)] = np.outer(right, left)
    return proj


@dataclass
class DeepLimit:
    """Limit of repeated application of a non-negative matrix.

    ``residues[m]`` is the limit of the (period * N + m)-th power as N grows;
    ``cesaro`` is their average, which exists even when the straight limit
    does not (``converged`` distinguishes the two).  Matrices are in the
    original index order of the decomposed matrix.
    """

    cesaro: np.ndarray
    residues: list[np.ndarray]
    period: int
    converged: bool


def _unit_block_period_lcm(dec: CanonicalDecomposition) -> int:
    p = 1
    for b in dec.essential_blocks:
        if b.unit_radius:
            p = math.lcm(p, b.period)
    return p


def deep_limit_matrix(
    dec: CanonicalDecomposition,
    right_overrides: dict[tuple[int, ...], np.ndarray] | None = None,
) -> DeepLimit:
    """Assemble residue limits and the Cesaro limit from block structure.

    Essential blocks with spectral radius strictly below one die out; unit-
    radius blocks contribute their cyclic Perron projectors; inessential
    mass is routed into unit-radius blocks through the absorption series.
    ``right_overrides`` replaces the computed right Perron vector of chosen
    blocks (keyed by their index tuples) with an analytic one.
    """
    n = dec.matrix.shape[0]
    q_idx = list(dec.inessential_indices)
    q = dec.contractive_part
    if q_idx and dec.contractive_radius >= 1 - 1e-12:
        raise NumericalFailure(
            f"inessential part is not strictly contractive "
            f"(radius {dec.contractive_radius:.6f})"
        )
    p = _unit_block_period_lcm(dec)

    residues: list[np.ndarray] = []
    q_powers = [np.linalg.matrix_power(q, m) for m in range(p + 1)] if q_idx else None
    # one LU of I - Q^p serves every unit-radius block's absorption solve
    resolvent_lu = lu_factor(np.eye(len(q_idx)) - q_powers[p]) if q_idx else None

    for m in range(p):
        full = np.zeros((n, n))
        for b in dec.essential_blocks:
            if not b.unit_radius:
                continue
            idx = list(b.indices)
            sub = dec.matrix[np.ix_(idx, idx)]
            override = None
            if right_overrides is not None:
                override = right_overrides.get(b.indices)
            proj = _block_projector(sub, b.period, p, dec.edge_threshold, override)
            block_res = proj @ np.linalg.matrix_power(sub, m)
            full[np.ix_(idx, idx)] = block_res
            if q_idx:
                r_sub = dec.matrix[np.ix_(idx, q_idx)]
                # A^(k) = sum_{l<k} sub^l R q^{k-1-l}
                def partial_absorption(k: int) -> np.ndarray:
                    acc = np.zeros((len(idx), len(q_idx)))
                    for l in range(k):
                        acc += (
                            np.linalg.matrix_power(sub, l) @ r_sub @ q_powers[k - 1 - l]
                        )
                    return acc

                # a_inf = proj A^(p) (I - Q^p)^-1, solved with the transposed LU
                a_inf = lu_solve(resolvent_lu, (proj @ partial_absorption(p)).T, trans=1).T
                a_res = proj @ partial_absorption(m) + a_inf @ q_powers[m]
                full[np.ix_(idx, q_idx)] = a_res
        residues.append(full)

    cesaro = sum(residues) / p
    return DeepLimit(cesaro=cesaro, residues=residues, period=p, converged=(p == 1))


def absorption(dec: CanonicalDecomposition) -> np.ndarray:
    """Limiting absorption matrix: where inessential mass ends up.

    Rows follow the essential indices in canonical order, columns the
    inessential indices.  Equals the corresponding block of the deep limit
    (Cesaro-averaged when periodic blocks are present); rows belonging to
    blocks with radius strictly below one are zero.
    """
    q_idx = list(dec.inessential_indices)
    ess_idx = list(dec.essential_indices)
    if not q_idx:
        return np.zeros((len(ess_idx), 0))
    limit = deep_limit_matrix(dec)
    return limit.cesaro[np.ix_(ess_idx, q_idx)]
