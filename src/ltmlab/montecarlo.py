"""Monte-Carlo ground truth for layered random-circuit loss variances.

Simulates the layered model directly: alternating tensor-product Haar
layers (exact Haar per subsystem, hence a local 2-design) and fixed
channels, applied to the initial state, with one extra local layer after
the last channel.  Loss samples Tr[H rho_out] feed a sample variance whose
own statistical error is reported through the fourth central moment, since
the quantity under test is itself a variance.

Each sample's state is carried as a column factor A (d, r) with
rho = A A-dagger, never as rho itself.  The start factor comes from one
eigendecomposition of the initial state (r = 1 for a pure state).  Every
map acts on the rows of A only: a local Haar layer or a gate multiplies its
subsystems' row axes, a Kraus channel stacks [K_1 A, ..., K_m A], and
replace-with-sigma noise appends sqrt(p) ||A|| B_sigma with
B_sigma B_sigma-dagger = sigma.  Whenever a step leaves r > d, one batched
QR (A^T = Q R, A <- R^T) brings the factor back to d columns.  The loss is
sum conj(A) * (H A).

Cost per sample and layer: O(d r sum_m d_m) for the local layer and
O(d r 2^k) per k-qubit gate, where a density matrix pays O(d^2 sum_m d_m)
and O(d^2 2^k); the loss costs O(d^2 r).  Under replace-with-sigma noise r
grows by rank(sigma) per layer and is capped at d, so a pure start under
GHZ noise stays far below d for fig3's depths.  The known worst case is a
product of local Kraus channels on a full-rank state: every factor of the
product multiplies r past d, and each pays one O(k d^3) QR per sample, k
being its Kraus count.

Sampling is counter-based: every (chunk, layer, subsystem) triple owns an
independent substream of the master seed, so estimates are bit-identical
for a given seed no matter how the work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._rng import substream
from .channels import Channel, _compress, _density_factor
from .partitions import SubsystemPartition, _apply_on_axes

__all__ = [
    "MCEstimate",
    "LayeredCircuitSpec",
    "haar_unitaries",
    "estimate_variance",
    "qresnet_estimate",
]

MAX_DENSE_DIM = 4096  # 12 qubits; the dense observable and states beyond this are refused
MIN_SAMPLES = 100  # smallest sample count the estimators accept; the CLI checks it up front

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
    local layer and no channel at all).  ``initial_factor`` (d, r) is the
    checked initial state's column factor.
    """

    partition: SubsystemPartition
    layers: int
    intermediate: Channel | Sequence[Channel] | None
    initial_state: np.ndarray
    observable: np.ndarray
    initial_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.layers < 0:
            raise ValueError("layer count must be non-negative")
        d = self.partition.total_dim
        rho = np.asarray(self.initial_state, dtype=complex)
        h = np.asarray(self.observable, dtype=complex)
        if rho.shape != (d, d) or h.shape != (d, d):
            raise ValueError("state and observable must match the partition dimension")
        self.initial_factor = _density_factor(rho, "initial state")
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
    # a fixed function of the dimension, since the chunk index keys the Haar
    # draws; 2^24 / d^2 samples keep a (B, d, d) complex array, such as
    # qresnet_estimate's per-sample entanglers, near 256 MB
    return max(1, min(2048, (1 << 24) // (dim * dim)))


def _apply_local_layer(
    a: np.ndarray,
    partition: SubsystemPartition,
    seed: int,
    chunk: int,
    layer: int,
) -> np.ndarray:
    """Rotate each sample's factor rows by its own fresh tensor-product Haar unitary."""
    b, d, r = a.shape
    t = a.reshape((b, *partition.dims, r))
    for m, dm in enumerate(partition.dims):
        us = haar_unitaries(dm, b, substream(seed, _LOCAL_STREAM, chunk, layer, m))
        t = _apply_on_axes(t, us, [1 + m])
    return t.reshape(b, d, r)


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


def _simulate(
    spec: LayeredCircuitSpec, n_samples: int, seed: int, entangle: Callable
) -> MCEstimate:
    """Run the layered model on factors; ``entangle(a, chunk, layer)`` is each fixed step."""
    losses = np.empty(n_samples)
    block = _chunk_size(spec.partition.total_dim)
    for chunk, lo in enumerate(range(0, n_samples, block)):
        b = min(block, n_samples - lo)
        a = np.broadcast_to(spec.initial_factor, (b, *spec.initial_factor.shape))
        for layer in range(spec.layers + 1):
            a = _apply_local_layer(a, spec.partition, seed, chunk, layer)
            if layer < spec.layers:
                a = _compress(entangle(a, chunk, layer))
        losses[lo : lo + b] = np.einsum("bij,bij->b", a.conj(), spec.observable @ a).real
    return _variance_with_error(losses, seed)


def estimate_variance(
    spec: LayeredCircuitSpec, n_samples: int, seed: int
) -> MCEstimate:
    """Estimate the loss variance of the layered model by direct simulation."""
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples for a variance estimate")
    d = spec.partition.total_dim
    if d > MAX_DENSE_DIM:
        raise ValueError(
            f"dense simulation refused beyond dimension {MAX_DENSE_DIM} (got {d})"
        )
    step = lambda a, chunk, layer: spec.channel_for_layer(layer).apply_factor(a)  # noqa: E731
    return _simulate(spec, n_samples, seed, step)


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
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples for a variance estimate")
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

    def entangle(a: np.ndarray, chunk: int, layer: int) -> np.ndarray:
        rng = substream(seed, _PHASE_STREAM, chunk, layer)
        phis = rng.normal(0.0, sigma, size=a.shape[0])
        phases = np.exp(1j * np.outer(phis, evals))
        ent = (evecs[None, :, :] * phases[:, None, :]) @ vdag
        return ent @ a

    return _simulate(spec, n_samples, seed, entangle)
