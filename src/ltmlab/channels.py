"""Quantum channels as linear maps on operators, plus standard builders.

Channels here are completely positive maps given in one of a few structural
forms (unitary conjugation, Kraus sums, qubit-gate circuits, noisy mixtures,
tensor products, compositions).  Every channel supports batched application
to stacks of operators, both in the Schrodinger direction (``apply``) and the
Heisenberg direction (``apply_adjoint``), which is what locality-transfer
computations consume.

The module also ships the concrete circuits, states, and observables used by
the experiment scripts: CNOT double cascades, controlled-RX single cascades,
GHZ fixed points, and ZZ-chain observables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

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
    "SingleQubitNormalForm",
    "normal_form",
    "choi_matrix",
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

MAX_FLATTENED_KRAUS = 64


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


class Channel:
    """Base class; subclasses fill in dim, batched action, and Kraus form."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def apply_batch(self, mats: np.ndarray, adjoint: bool = False) -> np.ndarray:
        raise NotImplementedError

    def apply(self, rho: np.ndarray) -> np.ndarray:
        batch, _ = _as_batch(rho)
        return self.apply_batch(batch)[0]

    def apply_adjoint(self, obs: np.ndarray) -> np.ndarray:
        batch, _ = _as_batch(obs)
        return self.apply_batch(batch, adjoint=True)[0]

    def kraus_operators(self, max_ops: int = MAX_FLATTENED_KRAUS) -> list[np.ndarray]:
        raise NotImplementedError(f"{type(self).__name__} has no Kraus form")


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

    def kraus_operators(self, max_ops: int = MAX_FLATTENED_KRAUS) -> list[np.ndarray]:
        return [self.matrix]


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
        object.__setattr__(self, "qubits", q)
        object.__setattr__(self, "matrix", m)


_CLIFFORD_GATES = {"cnot", "cz", "swap"}


@dataclass(frozen=True)
class CircuitUnitary(Channel):
    """A unitary given as a sequence of qubit gates (first gate acts first)."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q >= self.num_qubits for q in g.qubits):
                raise ValueError(f"gate {g.name} addresses qubit outside the register")

    @property
    def dim(self) -> int:
        return 2 ** self.num_qubits

    @property
    def is_clifford(self) -> bool:
        return all(g.name in _CLIFFORD_GATES for g in self.gates)

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

    def matrix(self) -> np.ndarray:
        dims = (2,) * self.num_qubits
        u = np.eye(self.dim, dtype=complex).reshape((1, *dims, *dims))
        for g in self.gates:
            u = _apply_on_axes(u, g.matrix, [1 + q for q in g.qubits])
        return u.reshape(self.dim, self.dim)

    def kraus_operators(self, max_ops: int = MAX_FLATTENED_KRAUS) -> list[np.ndarray]:
        return [self.matrix()]


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

    def kraus_operators(self, max_ops: int = MAX_FLATTENED_KRAUS) -> list[np.ndarray]:
        if len(self.operators) > max_ops:
            raise ValueError(
                f"refusing to flatten {len(self.operators)} Kraus operators (limit {max_ops})"
            )
        return list(self.operators)


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

    def kraus_operators(self, max_ops: int = MAX_FLATTENED_KRAUS) -> list[np.ndarray]:
        return [self.operator]


def _check_density_matrix(rho: np.ndarray, what: str) -> None:
    """Raise ValueError unless ``rho`` is Hermitian, unit-trace and PSD to 1e-10."""
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ValueError(f"{what} must be Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError(f"{what} must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError(f"{what} must be positive semidefinite")


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
        _check_density_matrix(sigma, "fixed point")
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

    def kraus_operators(self, max_ops: int = MAX_FLATTENED_KRAUS) -> list[np.ndarray]:
        inner_ops = self.inner.kraus_operators(max_ops)
        p = self.probability
        ops = [np.sqrt(1.0 - p) * k for k in inner_ops]
        vals, vecs = np.linalg.eigh(self.fixed_point)
        d = self.dim
        for i in range(d):
            if vals[i] <= 1e-14:
                continue
            for j in range(d):
                op = np.sqrt(p * vals[i]) * np.outer(vecs[:, i], np.eye(d)[j])
                ops.append(op)
        if len(ops) > max_ops:
            raise ValueError(
                f"refusing to flatten into {len(ops)} Kraus operators (limit {max_ops})"
            )
        return ops


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
        out = np.asarray(mats, dtype=complex)
        dims = self.partition.dims
        for m, ch in enumerate(self.factors):
            acc = np.zeros_like(out)
            for k in ch.kraus_operators():
                acc += _conjugate(out, k.conj().T if adjoint else k, dims, (m,))
            out = acc
        return out

    def kraus_operators(self, max_ops: int = MAX_FLATTENED_KRAUS) -> list[np.ndarray]:
        ops = [np.ones((1, 1), dtype=complex)]
        for ch in self.factors:
            ops = [np.kron(a, b) for a in ops for b in ch.kraus_operators(max_ops)]
            if len(ops) > max_ops:
                raise ValueError(
                    f"refusing to flatten into {len(ops)} Kraus operators (limit {max_ops})"
                )
        return ops


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

    def kraus_operators(self, max_ops: int = MAX_FLATTENED_KRAUS) -> list[np.ndarray]:
        ops = [np.eye(self.dim, dtype=complex)]
        for ch in self.parts:
            ops = [k @ a for a in ops for k in ch.kraus_operators(max_ops)]
            if len(ops) > max_ops:
                raise ValueError(
                    f"refusing to flatten into {len(ops)} Kraus operators (limit {max_ops})"
                )
        return ops


def choi_matrix(channel: Channel) -> np.ndarray:
    """Choi matrix sum_ab E(|a><b|) (x) |a><b|; PSD iff the map is CP."""
    d = channel.dim
    units = np.zeros((d * d, d, d), dtype=complex)
    idx = np.arange(d)
    for a in range(d):
        units[a * d + idx, a, idx] = 1.0
    images = channel.apply_batch(units)
    choi = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            img = images[a * d + b]
            choi += np.kron(img, np.outer(np.eye(d)[a], np.eye(d)[b]))
    return choi


# ---------------------------------------------------------------------------
# Single-qubit normal form


@dataclass(frozen=True)
class SingleQubitNormalForm:
    """Rotation-diagonal-rotation form of a qubit channel.

    The channel factorizes as conjugation by ``pre_unitary``, then the
    diagonal affine map with Bloch scaling ``scaling`` and displacement
    ``displacement``, then conjugation by ``post_unitary``:

        E(rho) = U N(V rho V-dagger) U-dagger.
    """

    displacement: np.ndarray
    scaling: np.ndarray
    pre_unitary: np.ndarray
    post_unitary: np.ndarray


def _pauli_transfer_matrix(channel: Channel) -> np.ndarray:
    paulis = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])
    images = channel.apply_batch(paulis)
    ptm = np.einsum("iab,jba->ij", paulis, images) / 2.0
    if np.abs(ptm.imag).max() > 1e-9:
        raise ValueError("channel has a non-real Pauli transfer matrix")
    return ptm.real


def _su2_from_rotation(r: np.ndarray) -> np.ndarray:
    """SU(2) element whose adjoint action on Bloch vectors is ``r``."""
    # Quaternion extraction with the usual largest-pivot branching.
    t = np.trace(r)
    if t > 0:
        w = np.sqrt(1.0 + t) / 2.0
        x = (r[2, 1] - r[1, 2]) / (4 * w)
        y = (r[0, 2] - r[2, 0]) / (4 * w)
        z = (r[1, 0] - r[0, 1]) / (4 * w)
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(1.0 + r[i, i] - r[j, j] - r[k, k], 0.0)) / 2.0
        q = [0.0, 0.0, 0.0]
        q[i] = s
        q[j] = (r[j, i] + r[i, j]) / (4 * s)
        q[k] = (r[k, i] + r[i, k]) / (4 * s)
        w = (r[k, j] - r[j, k]) / (4 * s)
        x, y, z = q
    u = w * PAULI_I - 1j * (x * PAULI_X + y * PAULI_Y + z * PAULI_Z)
    # Normalize away rounding so the result is exactly special unitary.
    u /= np.sqrt(np.abs(np.linalg.det(u)))
    return u


def normal_form(channel: Channel) -> SingleQubitNormalForm:
    """Factor a qubit channel into rotations around a diagonal affine map."""
    if channel.dim != 2:
        raise ValueError("normal form is defined for single-qubit channels")
    ptm = _pauli_transfer_matrix(channel)
    if np.abs(ptm[0] - np.array([1.0, 0, 0, 0])).max() > 1e-9:
        raise ValueError("channel is not trace preserving")
    shift = ptm[1:, 0]
    lam = ptm[1:, 1:]

    off = lam - np.diag(np.diag(lam))
    diag = np.diag(lam)
    if (
        np.abs(off).max() < 1e-13
        and diag[0] >= diag[1] - 1e-13
        and np.abs(diag[1]) >= np.abs(diag[2]) - 1e-13
        and diag[0] >= 0
        and diag[1] >= 0
    ):
        # Already in diagonal sorted form; keep it verbatim (stable for the
        # common depolarizing / damping cases where SVD may rotate degenerate
        # singular subspaces).
        r_a = np.eye(3)
        r_bt = np.eye(3)
        scaling = diag.copy()
    else:
        u, s, vt = np.linalg.svd(lam)
        du = np.diag([1.0, 1.0, np.linalg.det(u)])
        dv = np.diag([1.0, 1.0, np.linalg.det(vt)])
        r_a = u @ du
        r_bt = dv @ vt
        scaling = np.array([s[0], s[1], s[2] * np.linalg.det(u) * np.linalg.det(vt)])
    displacement = r_a.T @ shift

    pre = _su2_from_rotation(r_a)
    post = _su2_from_rotation(r_bt)

    # Safety net: the three factors must reproduce the original transfer matrix.
    m_mid = np.eye(4)
    m_mid[1:, 0] = displacement
    m_mid[1:, 1:] = np.diag(scaling)
    m_pre = np.eye(4)
    m_pre[1:, 1:] = r_a
    m_post = np.eye(4)
    m_post[1:, 1:] = r_bt
    if np.abs(m_pre @ m_mid @ m_post - ptm).max() > 1e-8:
        raise ValueError("normal-form factorization failed to reproduce the channel")
    return SingleQubitNormalForm(displacement, scaling, pre, post)


# ---------------------------------------------------------------------------
# Builders: noise channels


def depolarizing(p: float, dim: int = 2) -> Channel:
    """rho -> (1 - p) rho + p * identity / dim.

    Qubits get the four-Pauli Kraus form; other dimensions go through the
    replace-with-fixed-point mixture, which carries an equivalent Kraus set.
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
