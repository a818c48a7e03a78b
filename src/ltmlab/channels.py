"""Quantum channels as linear maps on operators, plus standard builders.

Channels here are completely positive maps given in one of a few structural
forms (unitary conjugation, Kraus sums, qubit-gate circuits, noisy mixtures,
tensor products, compositions).  Every channel applies to stacks of
operators through ``apply_batch``, in the Schrodinger direction and, with
``adjoint=True``, in the Heisenberg direction that locality-transfer
computations consume.  Monte Carlo simulation instead pushes column factors
of states through ``apply_factor``: for rho = A A-dagger it returns F with
F F-dagger = Phi(rho), acting on the rows of A only.

The module also ships the concrete circuits, states, and observables used by
the experiment scripts: CNOT double cascades, controlled-RX single cascades,
GHZ fixed points, and ZZ-chain observables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .partitions import LocalityVector, SubsystemPartition, _apply_on_axes

__all__ = [
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "CNOT",
    "CZ",
    "SWAP",
    "Channel",
    "Unitary",
    "CircuitUnitary",
    "KrausChannel",
    "Conjugation",
    "MixtureWithReplacement",
    "TensorProductChannel",
    "Composition",
    "Gate",
    "depolarizing",
    "amplitude_damping",
    "phase_flip",
    "cnot_double_cascade",
    "crx_cascade",
    "cz_cascade",
    "swap_circuit",
    "ghz_state",
    "zero_state",
    "maximally_mixed",
    "pauli_string",
    "zz_chain_observable",
    "zz_chain_locality",
    "zero_state_locality",
    "pauli_string_locality",
    "ghz_locality",
]

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _as_batch(mats: np.ndarray) -> tuple[np.ndarray, bool]:
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim == 2:
        return mats[None], True
    if mats.ndim != 3:
        raise ValueError("expected an operator (d, d) or a batch (N, d, d)")
    return mats, False


def _conjugate(batch: np.ndarray, op: np.ndarray, dims: Sequence[int], positions: Sequence[int]) -> np.ndarray:
    """X -> K X K-dagger for every X in a batch (N, d, d), with K on some subsystems.

    ``op`` is K on the subsystems ``positions`` (in that order), either one
    matrix or a per-sample stack (N, D, D).  K goes onto the row axes and
    conj(K) onto the column axes, since (X K-dagger)[i, l] = sum_j
    conj(K[l, j]) X[i, j].  A full-space conjugation is ``dims=(d,)``,
    ``positions=(0,)``.
    """
    batch = np.asarray(batch, dtype=complex)
    n, d = batch.shape[:2]
    m = len(dims)
    t = batch.reshape((n, *dims, *dims))
    t = _apply_on_axes(t, op, [1 + p for p in positions])
    t = _apply_on_axes(t, op.conj(), [1 + m + p for p in positions])
    return t.reshape(n, d, d)


# A factor drops the eigenvalues at or below d * _RANK_RTOL * lambda_max:
# eigh's backward error on a d x d Hermitian matrix is of order
# d * eps * ||M||, so such eigenvalues cannot be told from zero.
_RANK_RTOL = np.finfo(float).eps


def _psd_factor(evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """Columns F with F F-dagger = V diag(evals) V-dagger, numerical zeros dropped."""
    keep = evals > len(evals) * _RANK_RTOL * evals[-1]
    return evecs[:, keep] * np.sqrt(evals[keep])


def _compress(a: np.ndarray) -> np.ndarray:
    """Batch of factors (N, d, r) cut to at most d columns with A A-dagger unchanged.

    Whenever r > d, one batched QR of the transpose, A^T = Q R, gives
    A A-dagger = R^T conj(Q^T Q) conj(R) = R^T (R^T)-dagger, so R^T (N, d, d)
    replaces A.  This is the QR of A-dagger conjugated, without the two
    conjugate copies.
    """
    if a.shape[-1] <= a.shape[-2]:
        return a
    return np.linalg.qr(a.transpose(0, 2, 1), mode="r").transpose(0, 2, 1)


class Channel:
    """Base class; subclasses fill in dim and the batched actions."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def apply_batch(self, mats: np.ndarray, adjoint: bool = False) -> np.ndarray:
        raise NotImplementedError

    def apply_factor(self, a: np.ndarray) -> np.ndarray:
        """F with F F-dagger = Phi(A A-dagger) for a batch of factors (N, d, r).

        Acts on the row axis only.  F may have more than d columns; the
        caller compresses.
        """
        raise NotImplementedError

    def apply(self, rho: np.ndarray) -> np.ndarray:
        batch, _ = _as_batch(rho)
        return self.apply_batch(batch)[0]


@dataclass(frozen=True)
class Unitary(Channel):
    """Conjugation rho -> U rho U-dagger by a fixed unitary."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("unitary must be a square matrix")
        err = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
        if err > 1e-10:
            raise ValueError(f"matrix is not unitary (deviation {err:.2e})")
        object.__setattr__(self, "matrix", u)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply_batch(self, mats: np.ndarray, adjoint: bool = False) -> np.ndarray:
        u = self.matrix.conj().T if adjoint else self.matrix
        return _conjugate(mats, u, (self.dim,), (0,))

    def apply_factor(self, a: np.ndarray) -> np.ndarray:
        return self.matrix @ a


@dataclass(frozen=True)
class Gate:
    """One gate in a qubit circuit: a named matrix on specific qubits."""

    name: str
    qubits: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        q = tuple(int(x) for x in self.qubits)
        if len(set(q)) != len(q):
            raise ValueError("gate qubits must be distinct")
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2 ** len(q), 2 ** len(q)):
            raise ValueError("gate matrix shape does not match its qubit count")
        if np.abs(m.conj().T @ m - np.eye(len(m))).max() > 1e-10:
            raise ValueError(f"gate {self.name} is not unitary")
        object.__setattr__(self, "qubits", q)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class CircuitUnitary(Channel):
    """A unitary given as gates on adjacent qubit pairs (first gate acts first)."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q >= self.num_qubits for q in g.qubits):
                raise ValueError(f"gate {g.name} addresses qubit outside the register")
            if len(g.qubits) != 2 or abs(g.qubits[0] - g.qubits[1]) != 1:
                raise ValueError(f"gate {g.name} on qubits {g.qubits} is not on two adjacent qubits")

    @property
    def dim(self) -> int:
        return 2 ** self.num_qubits

    def apply_batch(self, mats: np.ndarray, adjoint: bool = False) -> np.ndarray:
        dims = (2,) * self.num_qubits
        out = np.asarray(mats, dtype=complex)
        if adjoint:
            # W-dagger X W with W = g_K ... g_1: conjugate by gates in reverse.
            for g in reversed(self.gates):
                out = _conjugate(out, g.matrix.conj().T, dims, g.qubits)
        else:
            for g in self.gates:
                out = _conjugate(out, g.matrix, dims, g.qubits)
        return out

    def apply_factor(self, a: np.ndarray) -> np.ndarray:
        t = a.reshape((a.shape[0], *(2,) * self.num_qubits, a.shape[-1]))
        for g in self.gates:
            t = _apply_on_axes(t, g.matrix, [1 + q for q in g.qubits])
        return t.reshape(a.shape)

    def matrix(self) -> np.ndarray:
        dims = (2,) * self.num_qubits
        u = np.eye(self.dim, dtype=complex).reshape((1, *dims, *dims))
        for g in self.gates:
            u = _apply_on_axes(u, g.matrix, [1 + q for q in g.qubits])
        return u.reshape(self.dim, self.dim)


@dataclass(frozen=True)
class KrausChannel(Channel):
    """A trace-preserving channel given by an explicit Kraus decomposition."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        if not ops:
            raise ValueError("at least one Kraus operator is required")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise ValueError("all Kraus operators must be square with equal shape")
        total = sum(k.conj().T @ k for k in ops)
        err = np.abs(total - np.eye(d)).max()
        if err > 1e-8:
            raise ValueError(f"Kraus operators are not trace preserving (deviation {err:.2e})")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def apply_batch(self, mats: np.ndarray, adjoint: bool = False) -> np.ndarray:
        out = np.zeros_like(np.asarray(mats, dtype=complex))
        for k in self.operators:
            out += _conjugate(mats, k.conj().T if adjoint else k, (self.dim,), (0,))
        return out

    def apply_factor(self, a: np.ndarray) -> np.ndarray:
        return np.concatenate([k @ a for k in self.operators], axis=-1)


@dataclass(frozen=True)
class Conjugation(Channel):
    """The map A -> K A K-dagger for one fixed operator K.

    Not trace preserving in general; this is the building block for channel
    unravellings, where a sum of conjugations reproduces a full channel.
    """

    operator: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.operator, dtype=complex)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError("conjugation operator must be square")
        object.__setattr__(self, "operator", k)

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    def apply_batch(self, mats: np.ndarray, adjoint: bool = False) -> np.ndarray:
        k = self.operator.conj().T if adjoint else self.operator
        return _conjugate(mats, k, (self.dim,), (0,))

    def apply_factor(self, a: np.ndarray) -> np.ndarray:
        return self.operator @ a


def _density_factor(rho: np.ndarray, what: str) -> np.ndarray:
    """Factor A (d, r) with A A-dagger = rho, from one eigendecomposition.

    Raises ValueError unless ``rho`` is Hermitian, unit-trace and PSD to
    1e-10.  Eigenvalues under the ``_RANK_RTOL`` cut are dropped, so a pure
    state gets r = 1.
    """
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ValueError(f"{what} must be Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError(f"{what} must have unit trace")
    evals, evecs = np.linalg.eigh(rho)
    if evals[0] < -1e-10:
        raise ValueError(f"{what} must be positive semidefinite")
    return _psd_factor(evals, evecs)


@dataclass(frozen=True)
class MixtureWithReplacement(Channel):
    """With probability p swap the state for a fixed one, else apply ``inner``.

    Acts as X -> (1 - p) inner(X) + p Tr[X] sigma, where sigma is the fixed
    replacement state.  The adjoint is A -> (1 - p) inner-adjoint(A)
    + p Tr[sigma A] identity.
    """

    probability: float
    fixed_point: np.ndarray
    inner: Channel

    def __post_init__(self) -> None:
        p = float(self.probability)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"replacement probability must be in [0, 1], got {p}")
        sigma = np.asarray(self.fixed_point, dtype=complex)
        d = self.inner.dim
        if sigma.shape != (d, d):
            raise ValueError("fixed point shape does not match the inner channel")
        object.__setattr__(self, "_sigma_factor", _density_factor(sigma, "fixed point"))
        object.__setattr__(self, "probability", p)
        object.__setattr__(self, "fixed_point", sigma)

    @property
    def dim(self) -> int:
        return self.inner.dim

    def apply_batch(self, mats: np.ndarray, adjoint: bool = False) -> np.ndarray:
        mats = np.asarray(mats, dtype=complex)
        p = self.probability
        inner_part = self.inner.apply_batch(mats, adjoint=adjoint)
        if adjoint:
            scalars = np.einsum("ij,nji->n", self.fixed_point, mats)
            replaced = scalars[:, None, None] * np.eye(self.dim)
        else:
            scalars = np.trace(mats, axis1=1, axis2=2)
            replaced = scalars[:, None, None] * self.fixed_point
        return (1.0 - p) * inner_part + p * replaced

    def apply_factor(self, a: np.ndarray) -> np.ndarray:
        # Tr[A A-dagger] is the squared Frobenius norm of A.
        p = self.probability
        norms = np.linalg.norm(a, axis=(1, 2))
        replaced = (np.sqrt(p) * norms)[:, None, None] * self._sigma_factor
        return np.concatenate([np.sqrt(1.0 - p) * self.inner.apply_factor(a), replaced], axis=-1)


@dataclass(frozen=True)
class TensorProductChannel(Channel):
    """Independent channels on each subsystem of a partition."""

    partition: SubsystemPartition
    factors: tuple[Channel, ...]

    def __post_init__(self) -> None:
        factors = tuple(self.factors)
        if len(factors) != self.partition.num_subsystems:
            raise ValueError("need exactly one factor channel per subsystem")
        for ch, dm in zip(factors, self.partition.dims):
            if ch.dim != dm:
                raise ValueError("factor dimension does not match its subsystem")
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return self.partition.total_dim

    def apply_batch(self, mats: np.ndarray, adjoint: bool = False) -> np.ndarray:
        mats = np.asarray(mats, dtype=complex)
        dims, num = self.partition.dims, self.partition.num_subsystems
        t = mats.reshape((mats.shape[0], *dims, *dims))
        for m, (ch, dm) in enumerate(zip(self.factors, dims)):
            # The factor's own action as one matrix on subsystem m's (row,
            # column) index pair: column (c, e) is its image of |c><e|.
            units = np.eye(dm * dm, dtype=complex).reshape(dm * dm, dm, dm)
            sup = ch.apply_batch(units, adjoint=adjoint).reshape(dm * dm, dm * dm).T
            t = _apply_on_axes(t, sup, [1 + m, 1 + num + m])
        return t.reshape(mats.shape)

    @cached_property
    def _local_kraus(self) -> tuple[np.ndarray, ...]:
        """Each factor's Kraus operators (k, dm, dm), read off its Choi matrix."""
        out = []
        for ch, dm in zip(self.factors, self.partition.dims):
            units = np.eye(dm * dm, dtype=complex).reshape(dm * dm, dm, dm)
            # images[c, e, i, j] = Phi(|c><e|)[i, j]; the Choi matrix is
            # indexed [(c, i), (e, j)], and entry (c, i) of its factor's
            # column k is K_k[i, c].
            images = ch.apply_batch(units).reshape(dm, dm, dm, dm)
            choi = images.transpose(0, 2, 1, 3).reshape(dm * dm, dm * dm)
            cols = _psd_factor(*np.linalg.eigh(choi))
            out.append(cols.T.reshape(-1, dm, dm).transpose(0, 2, 1))
        return tuple(out)

    def apply_factor(self, a: np.ndarray) -> np.ndarray:
        n, d = a.shape[:2]
        dims = self.partition.dims
        for m, kraus in enumerate(self._local_kraus):
            t = a.reshape((n, *dims, a.shape[-1]))
            images = [_apply_on_axes(t, k, [1 + m]).reshape(n, d, -1) for k in kraus]
            a = _compress(np.concatenate(images, axis=-1))
        return a


@dataclass(frozen=True)
class Composition(Channel):
    """Channels applied in sequence; ``parts[0]`` acts first."""

    parts: tuple[Channel, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("composition needs at least one part")
        d = parts[0].dim
        if any(ch.dim != d for ch in parts):
            raise ValueError("composed channels must share one dimension")
        object.__setattr__(self, "parts", parts)

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def apply_batch(self, mats: np.ndarray, adjoint: bool = False) -> np.ndarray:
        out = np.asarray(mats, dtype=complex)
        order = reversed(self.parts) if adjoint else self.parts
        for ch in order:
            out = ch.apply_batch(out, adjoint=adjoint)
        return out

    def apply_factor(self, a: np.ndarray) -> np.ndarray:
        for ch in self.parts:
            a = ch.apply_factor(a)
        return a


# ---------------------------------------------------------------------------
# Builders: noise channels


def depolarizing(p: float, dim: int = 2) -> Channel:
    """rho -> (1 - p) rho + p * identity / dim.

    Qubits get the four-Pauli Kraus form; other dimensions go through the
    replace-with-fixed-point mixture.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing strength must be in [0, 1]")
    if dim == 2:
        ops = (
            np.sqrt(1.0 - 3.0 * p / 4.0) * PAULI_I,
            np.sqrt(p / 4.0) * PAULI_X,
            np.sqrt(p / 4.0) * PAULI_Y,
            np.sqrt(p / 4.0) * PAULI_Z,
        )
        return KrausChannel(ops)
    return MixtureWithReplacement(p, np.eye(dim) / dim, Unitary(np.eye(dim)))


def amplitude_damping(gamma: float) -> KrausChannel:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("damping rate must be in [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1))


def phase_flip(p: float) -> KrausChannel:
    if not 0.0 <= p <= 1.0:
        raise ValueError("flip probability must be in [0, 1]")
    return KrausChannel((np.sqrt(1.0 - p) * PAULI_I, np.sqrt(p) * PAULI_Z))


# ---------------------------------------------------------------------------
# Builders: entangling circuits

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _crx_matrix(theta: float) -> np.ndarray:
    rx = np.cos(theta / 2) * PAULI_I + 1j * np.sin(theta / 2) * PAULI_X
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = rx
    return out


def cnot_double_cascade(num_qubits: int) -> CircuitUnitary:
    """Two stacked cascades of CNOTs down the register (rapidly entangling)."""
    if num_qubits < 2:
        raise ValueError("need at least two qubits")
    gates = []
    for _ in range(2):
        for k in range(num_qubits - 1):
            gates.append(Gate("cnot", (k, k + 1), CNOT))
    return CircuitUnitary(num_qubits, tuple(gates))


def crx_cascade(num_qubits: int, theta: float = np.pi / 20) -> CircuitUnitary:
    """Single cascade of controlled-RX(theta) gates (slowly entangling)."""
    if num_qubits < 2:
        raise ValueError("need at least two qubits")
    gates = [
        Gate("crx", (k, k + 1), _crx_matrix(theta)) for k in range(num_qubits - 1)
    ]
    return CircuitUnitary(num_qubits, tuple(gates))


def cz_cascade(num_qubits: int) -> CircuitUnitary:
    if num_qubits < 2:
        raise ValueError("need at least two qubits")
    gates = [Gate("cz", (k, k + 1), CZ) for k in range(num_qubits - 1)]
    return CircuitUnitary(num_qubits, tuple(gates))


def swap_circuit() -> CircuitUnitary:
    return CircuitUnitary(2, (Gate("swap", (0, 1), SWAP),))


# ---------------------------------------------------------------------------
# Builders: states and observables


def zero_state(num_qubits: int) -> np.ndarray:
    d = 2 ** num_qubits
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


def ghz_state(num_qubits: int) -> np.ndarray:
    d = 2 ** num_qubits
    psi = np.zeros(d, dtype=complex)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def pauli_string(num_qubits: int, pattern: str) -> np.ndarray:
    """Dense unnormalized Pauli string from characters in 'IXYZ'."""
    table = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    if len(pattern) != num_qubits:
        raise ValueError("pattern length must equal the qubit count")
    out = np.ones((1, 1), dtype=complex)
    for c in pattern:
        out = np.kron(out, table[c])
    return out


def zz_chain_observable(num_qubits: int, coupling: float) -> np.ndarray:
    """H = coupling * sum_k Z_k Z_{k+1} on a ring of qubits (dense)."""
    if num_qubits < 2:
        raise ValueError("need at least two qubits")
    d = 2 ** num_qubits
    h = np.zeros((d, d), dtype=complex)
    for k in range(num_qubits):
        pattern = ["I"] * num_qubits
        pattern[k] = "Z"
        pattern[(k + 1) % num_qubits] = "Z"
        h += pauli_string(num_qubits, "".join(pattern))
    return coupling * h


def zz_chain_locality(num_qubits: int, coupling: float) -> LocalityVector:
    """Locality weights of the ZZ-ring observable without materializing it.

    Each of the ``num_qubits`` ring terms is one Pauli string with squared
    normalized coefficient coupling^2 * 2^n, placed at its two-qubit support
    mask on the per-qubit partition.
    """
    if num_qubits < 3:
        raise ValueError("the analytic form assumes distinct ring terms (n >= 3)")
    weights = np.zeros(1 << num_qubits)
    w = coupling ** 2 * (2 ** num_qubits)
    for k in range(num_qubits):
        mask = (1 << k) | (1 << ((k + 1) % num_qubits))
        weights[mask] += w
    return LocalityVector(SubsystemPartition.qubits(num_qubits), weights)


def zero_state_locality(num_qubits: int) -> LocalityVector:
    """Locality weights of |0...0><0...0| on the per-qubit partition.

    The state factorizes with per-qubit weights (1/2, 1/2), so every mask
    carries 2^-n.
    """
    n = num_qubits
    return LocalityVector(
        SubsystemPartition.qubits(n), np.full(1 << n, 1.0 / (1 << n))
    )


def pauli_string_locality(
    num_qubits: int, pattern: str, coefficient: float = 1.0
) -> LocalityVector:
    """Locality weights of coefficient * (Pauli string) without materializing it."""
    n = num_qubits
    if len(pattern) != n:
        raise ValueError("pattern length must match the qubit count")
    mask = 0
    for k, ch in enumerate(pattern.upper()):
        if ch not in "IXYZ":
            raise ValueError(f"unknown Pauli letter {ch!r}")
        if ch != "I":
            mask |= 1 << k
    weights = np.zeros(1 << n)
    weights[mask] = coefficient**2 * (1 << n)
    return LocalityVector(SubsystemPartition.qubits(n), weights)


def ghz_locality(num_qubits: int) -> LocalityVector:
    """Locality weights of the GHZ state for the per-qubit partition.

    The GHZ density matrix expands over Z-type strings of even weight (each
    with squared normalized coefficient 1/2^n) plus the all-qubit X/Y strings
    with an even number of Ys (2^(n-1) of them, same weight each).
    """
    n = num_qubits
    weights = np.zeros(1 << n)
    masks = np.arange(1 << n)
    hamming = np.array([bin(m).count("1") for m in masks])
    weights[hamming % 2 == 0] = 1.0 / 2 ** n
    weights[-1] += 2 ** (n - 1) / 2 ** n
    return LocalityVector(SubsystemPartition.qubits(n), weights)
