from dataclasses import dataclass

import numpy as np

from ltmlab.channels import Channel, Composition, KrausChannel, Unitary


def haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary (Ginibre + phase-fixed QR)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None):
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_traceless_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    return h - (np.trace(h).real / dim) * np.eye(dim)


@dataclass(frozen=True)
class Forward(Channel):
    """``inner`` with its directions swapped: ``ltm_exact`` of it is the forward LTM."""

    inner: Channel

    @property
    def dim(self) -> int:
        return self.inner.dim

    def apply_batch(self, mats: np.ndarray, adjoint: bool = False) -> np.ndarray:
        return self.inner.apply_batch(mats, adjoint=not adjoint)


def locally_rotated(channel: Channel, rotations) -> Composition:
    """V-dagger E(V . V-dagger) V with V the Kronecker product of ``rotations``.

    Its adjoint LTM is the LTM of ``channel`` in the product basis rotated
    by V, which the partition's locality classes make basis independent.
    """
    v = np.ones((1, 1), dtype=complex)
    for r in rotations:
        v = np.kron(v, r)
    return Composition((Unitary(v), channel, Unitary(v.conj().T)))


def random_kraus_channel(
    dim: int, rank: int, rng: np.random.Generator
) -> KrausChannel:
    """Random channel from a Haar Stinespring isometry with ``rank`` Kraus ops."""
    v = haar(dim * rank, rng)[:, :dim]
    return KrausChannel([v[i * dim : (i + 1) * dim, :] for i in range(rank)])
