"""Monte-Carlo ground truth for layered random-circuit loss variances.

Simulates the layered model directly: alternating tensor-product Haar
layers (exact Haar per subsystem, hence a local 2-design) and fixed
channels, applied to the initial density matrix, with one extra local
layer after the last channel.  Loss samples Tr[H rho_out] feed a sample
variance whose own statistical error is reported through the fourth
central moment, since the quantity under test is itself a variance.

Sampling is counter-based: every (chunk, layer, subsystem) triple owns an
independent substream of the master seed, so estimates are bit-identical
for a given seed no matter how the work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import substream
from .channels import Channel, _check_density_matrix, _conjugate
from .partitions import SubsystemPartition

__all__ = [
    "MCEstimate",
    "LayeredCircuitSpec",
    "haar_unitaries",
    "haar_local_unitary",
    "estimate_variance",
    "qresnet_estimate",
]

MAX_DENSE_DIM = 4096  # 12 qubits; density matrices beyond this are refused

_LOCAL_STREAM = 0
_PHASE_STREAM = 1


def haar_unitaries(dim: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` Haar-distributed unitaries on U(dim), shape (size, dim, dim).

    Ginibre + QR with the R-diagonal phase folded back into Q, which makes
    the QR factorization unique and the resulting distribution exactly Haar.
    """
    raw = rng.standard_normal((2, size, dim, dim))
    q, r = np.linalg.qr(raw[0] + 1j * raw[1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_local_unitary(
    partition: SubsystemPartition, rng: np.random.Generator
) -> np.ndarray:
    """One tensor product of independent Haar unitaries, one per subsystem."""
    out = np.ones((1, 1), dtype=complex)
    for dm in partition.dims:
        out = np.kron(out, haar_unitaries(dm, 1, rng)[0])
    return out


@dataclass
class MCEstimate:
    """Sample mean and variance of the loss, with the variance's own error."""

    mean: float
    variance: float
    standard_error_of_variance: float
    samples: int
    seed: int

    def as_dict(self) -> dict:
        return {
            "mean": self.mean,
            "variance": self.variance,
            "standard_error_of_variance": self.standard_error_of_variance,
            "samples": self.samples,
            "seed": self.seed,
        }


@dataclass
class LayeredCircuitSpec:
    """The layered model: L fixed channels interleaved with L+1 random layers.

    ``intermediate`` is either one channel reused for every layer or a list
    of exactly ``layers`` channels (``layers = 0`` means a single random
    local layer and no channel at all).
    """

    partition: SubsystemPartition
    layers: int
    intermediate: Channel | Sequence[Channel] | None
    initial_state: np.ndarray
    observable: np.ndarray

    def __post_init__(self) -> None:
        if self.layers < 0:
            raise ValueError("layer count must be non-negative")
        d = self.partition.total_dim
        rho = np.asarray(self.initial_state, dtype=complex)
        h = np.asarray(self.observable, dtype=complex)
        if rho.shape != (d, d) or h.shape != (d, d):
            raise ValueError("state and observable must match the partition dimension")
        _check_density_matrix(rho, "initial state")
        if np.abs(h - h.conj().T).max() > 1e-10:
            raise ValueError("observable must be Hermitian")
        self.initial_state = rho
        self.observable = h

    def channel_for_layer(self, layer: int) -> Channel:
        if isinstance(self.intermediate, Channel):
            return self.intermediate
        if self.intermediate is None:
            raise ValueError("no intermediate channel configured")
        channels = list(self.intermediate)
        if len(channels) != self.layers:
            raise ValueError("per-layer channel list must have exactly L entries")
        return channels[layer]


def _chunk_size(dim: int) -> int:
    # keep each (B, d, d) complex work array near 256 MB; fixed function of
    # the dimension so the sample stream is reproducible
    return max(1, min(2048, (1 << 24) // (dim * dim)))


def _apply_local_layer(
    rhos: np.ndarray,
    partition: SubsystemPartition,
    seed: int,
    chunk: int,
    layer: int,
) -> np.ndarray:
    """Conjugate each sample by its own fresh tensor-product Haar unitary."""
    b = rhos.shape[0]
    for m, dm in enumerate(partition.dims):
        us = haar_unitaries(dm, b, substream(seed, _LOCAL_STREAM, chunk, layer, m))
        rhos = _conjugate(rhos, us, partition.dims, (m,))
    return rhos


def _variance_with_error(losses: np.ndarray, seed: int) -> MCEstimate:
    n = losses.size
    mean = float(losses.mean())
    centered = losses - mean
    s2 = float((centered**2).sum() / (n - 1))
    m4 = float((centered**4).mean())
    var_of_var = max(m4 - (n - 3) / (n - 1) * s2 * s2, 0.0) / n
    return MCEstimate(
        mean=mean,
        variance=s2,
        standard_error_of_variance=math.sqrt(var_of_var),
        samples=n,
        seed=seed,
    )


def estimate_variance(
    spec: LayeredCircuitSpec, n_samples: int, seed: int
) -> MCEstimate:
    """Estimate the loss variance of the layered model by direct simulation."""
    if n_samples < 100:
        raise ValueError("need at least 100 samples for a variance estimate")
    d = spec.partition.total_dim
    if d > MAX_DENSE_DIM:
        raise ValueError(
            f"dense simulation refused beyond dimension {MAX_DENSE_DIM} (got {d})"
        )
    losses = np.empty(n_samples)
    block = _chunk_size(d)
    for chunk, lo in enumerate(range(0, n_samples, block)):
        b = min(block, n_samples - lo)
        rhos = np.broadcast_to(spec.initial_state, (b, d, d)).copy()
        for layer in range(spec.layers + 1):
            rhos = _apply_local_layer(rhos, spec.partition, seed, chunk, layer)
            if layer < spec.layers:
                rhos = spec.channel_for_layer(layer).apply_batch(rhos)
        losses[lo : lo + b] = np.einsum(
            "ij,bji->b", spec.observable, rhos
        ).real
    return _variance_with_error(losses, seed)


def qresnet_estimate(
    partition: SubsystemPartition,
    layers: int,
    generator: np.ndarray,
    sigma: float,
    initial_state: np.ndarray,
    observable: np.ndarray,
    n_samples: int,
    seed: int,
) -> MCEstimate:
    """Loss variance with small-angle entanglers exp(i phi G), phi ~ N(0, sigma^2).

    Each layer of each sample draws its own angle; sigma = 0 degenerates to
    the identity entangler.  The generator is diagonalized once and the
    per-sample exponentials are assembled from its eigenbasis.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples for a variance estimate")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    d = partition.total_dim
    if d > MAX_DENSE_DIM:
        raise ValueError(
            f"dense simulation refused beyond dimension {MAX_DENSE_DIM} (got {d})"
        )
    g = np.asarray(generator, dtype=complex)
    if g.shape != (d, d) or np.abs(g - g.conj().T).max() > 1e-10:
        raise ValueError("generator must be a Hermitian matrix on the full space")
    spec = LayeredCircuitSpec(partition, layers, None, initial_state, observable)
    evals, evecs = np.linalg.eigh(g)
    vdag = evecs.conj().T

    losses = np.empty(n_samples)
    block = _chunk_size(d)
    for chunk, lo in enumerate(range(0, n_samples, block)):
        b = min(block, n_samples - lo)
        rhos = np.broadcast_to(spec.initial_state, (b, d, d)).copy()
        for layer in range(layers + 1):
            rhos = _apply_local_layer(rhos, partition, seed, chunk, layer)
            if layer < layers:
                phis = substream(seed, _PHASE_STREAM, chunk, layer).normal(
                    0.0, sigma, size=b
                )
                phases = np.exp(1j * np.outer(phis, evals))
                ent = (evecs[None, :, :] * phases[:, None, :]) @ vdag
                rhos = _conjugate(rhos, ent, (d,), (0,))
        losses[lo : lo + b] = np.einsum("ij,bji->b", spec.observable, rhos).real
    return _variance_with_error(losses, seed)
