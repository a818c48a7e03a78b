"""Loss-function variance of layered random circuits from locality data.

For circuits alternating independent local 2-design layers with fixed
channels, the variance of the loss Tr[H Phi(rho)] is a bilinear form in
locality space:

    Var^L = (l_rho, T_1 ... T_L l_H) - Tr[H]^2 / d^2,

where each T_l is the locality transfer matrix of the corresponding channel
adjoint and the weighted inner product divides by block dimensions.  This
module evaluates that product exactly, takes its deep-circuit limit through
the canonical block decomposition (including oscillating, Cesaro-averaged
cases), specializes the limit to unitary channels, sums replace-with-sigma
noise of any strength p and depth after a unitary T as one power series
T^j l_H (deep limit p^2 (l_sigma, (1 - (1-p)^2 T)^{-1} l_H)), and provides a
sound multiplicative lower bound for shallow circuits plus a scaling
diagnostic separating polynomial from exponential concentration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .ltm import LocalityTransferMatrix
from .partitions import LocalityVector, weighted_dot
from .spectral import CanonicalDecomposition, DeepLimit, NumericalFailure, deep_limit_matrix

__all__ = [
    "VarianceReport",
    "ScalingDiagnostic",
    "variance_exact",
    "variance_deep",
    "variance_deep_unitary",
    "lower_bound",
    "check_polynomial_scaling",
    "noisy_layer_transfer",
    "NoiseSeries",
    "noise_series",
    "noise_model_deep",
]

NEGATIVE_CLAMP = 1e-10


@dataclass
class VarianceReport:
    """A computed variance plus how it was obtained.

    ``value`` is the Cesaro value when the deep limit oscillates; the
    per-residue limits (layer count = period * N + m) are then listed in
    ``residue_values`` and ``converged`` is False.
    """

    value: float
    method: str
    converged: bool = True
    residue_values: tuple[float, ...] | None = None
    diagnostics: dict = field(default_factory=dict)


def _finalize(raw: float, method: str, **kwargs) -> VarianceReport:
    if raw < -NEGATIVE_CLAMP:
        raise NumericalFailure(f"variance came out negative ({raw:.3e})")
    return VarianceReport(value=max(raw, 0.0), method=method, **kwargs)


def variance_exact(
    l_rho: LocalityVector,
    ltms: Sequence[LocalityTransferMatrix],
    l_h: LocalityVector,
    trace_h: float,
) -> VarianceReport:
    """Variance at finite depth from per-layer transfer matrices.

    ``ltms[0]`` belongs to the first layer applied to the state; the product
    is accumulated on the observable side, deepest layer first.  An empty
    ``ltms`` is the random-local-basis baseline with no interleaved channel.
    """
    partition = l_rho.partition
    if l_h.partition != partition or any(t.partition != partition for t in ltms):
        raise ValueError("state, observable, and layers must share one partition")
    d = partition.total_dim
    v = l_h.weights.copy()
    for t in reversed(ltms):
        v = t.entries @ v
    raw = weighted_dot(l_rho.weights, v, partition) - (trace_h / d) ** 2
    return _finalize(raw, "exact-finite-L", diagnostics={"layers": len(ltms)})


def _deep_values(
    dec: CanonicalDecomposition,
    l_rho: LocalityVector,
    l_h: LocalityVector,
    limit: DeepLimit,
) -> tuple[float, tuple[float, ...]]:
    partition = l_rho.partition
    v = l_h.weights.copy()
    v[0] = 0.0
    residue_values = tuple(
        float(weighted_dot(l_rho.weights, r @ v, partition)) for r in limit.residues
    )
    cesaro = float(weighted_dot(l_rho.weights, limit.cesaro @ v, partition))
    return cesaro, residue_values


def _block_summary(dec: CanonicalDecomposition, l_rho, l_h) -> list[dict]:
    out = []
    for b in dec.essential_blocks:
        idx = list(b.indices)
        out.append(
            {
                "indices": b.indices,
                "radius": b.radius,
                "period": b.period,
                "weighted_size": b.weighted_size,
                "observable_mass": float(l_h.weights[idx].sum()),
                "state_mass": float(l_rho.weights[idx].sum()),
            }
        )
    return out


def variance_deep(
    dec: CanonicalDecomposition,
    l_rho: LocalityVector,
    l_h: LocalityVector,
) -> VarianceReport:
    """Deep-circuit variance for a homogeneous channel.

    The κ = 0 component of the observable is removed internally (it cancels
    against the mean-subtraction term exactly, since the trivial class is a
    fixed point of every adjoint transfer matrix).
    """
    if dec.partition is None:
        raise ValueError("decomposition needs a partition for weighted products")
    partition = dec.partition
    if l_rho.partition != partition or l_h.partition != partition:
        raise ValueError("locality vectors must live on the decomposed partition")
    limit = deep_limit_matrix(dec)
    cesaro, residues = _deep_values(dec, l_rho, l_h, limit)
    diagnostics = {
        "period": limit.period,
        "contractive_radius": dec.contractive_radius,
        "blocks": _block_summary(dec, l_rho, l_h),
    }
    return _finalize(
        cesaro,
        "deep-limit" if limit.converged else "deep-cesaro",
        converged=limit.converged,
        residue_values=None if limit.converged else residues,
        diagnostics=diagnostics,
    )


def variance_deep_unitary(
    dec: CanonicalDecomposition,
    l_rho: LocalityVector,
    l_h: LocalityVector,
) -> VarianceReport:
    """Deep-circuit variance when the interleaved channel is unitary.

    Unitary transfer matrices are column stochastic and their flow graphs
    split into closed classes only, so there is no transient part and no
    absorption: the limit is a direct sum of block Perron projectors with
    right vectors proportional to the block dimensions.  The value reduces
    to a sum of per-block products of state mass and observable mass.
    """
    if dec.partition is None:
        raise ValueError("decomposition needs a partition for weighted products")
    partition = dec.partition
    sums = dec.matrix.sum(axis=0)
    if np.abs(sums - 1.0).max() > 1e-9:
        raise ValueError(
            "transfer matrix is not column stochastic; use variance_deep for "
            "non-unitary channels"
        )
    if dec.inessential_indices:
        raise ValueError(
            "column-stochastic transfer matrices cannot have transient classes"
        )
    block_dims = partition.block_dims()
    value = 0.0
    per_block = []
    for b in dec.essential_blocks:
        idx = list(b.indices)
        if 0 in idx:
            continue
        d_z = float(block_dims[idx].sum())
        term = float(l_rho.weights[idx].sum()) * float(l_h.weights[idx].sum()) / d_z
        per_block.append({"indices": b.indices, "term": term})
        value += term

    overrides = {
        b.indices: block_dims[list(b.indices)]
        for b in dec.essential_blocks
        if b.unit_radius
    }
    limit = deep_limit_matrix(dec, right_overrides=overrides)
    cesaro, residues = _deep_values(dec, l_rho, l_h, limit)
    scale = max(abs(value), 1.0)
    if abs(cesaro - value) > 1e-9 * scale:
        raise NumericalFailure(
            f"block-sum value {value:.12e} disagrees with the assembled limit "
            f"{cesaro:.12e}"
        )
    diagnostics = {
        "period": limit.period,
        "absorption_norm": 0.0,
        "blocks": per_block,
    }
    return _finalize(
        value,
        "deep-limit" if limit.converged else "deep-cesaro",
        converged=limit.converged,
        residue_values=None if limit.converged else residues,
        diagnostics=diagnostics,
    )


def lower_bound(
    l_rho: LocalityVector,
    ltms: Sequence[LocalityTransferMatrix],
    l_h: LocalityVector,
    masks: Iterable[int | str],
) -> tuple[float, float]:
    """Sound multiplicative lower bound on the finite-depth variance.

    Keeps only the diagonal flow within the retained support classes
    ``masks``: each layer contributes its worst diagonal entry over the
    retained classes, so the bound is the product of those minima times the
    retained state/observable overlap.  Returns (bound, per-layer geometric
    mean of the minima).
    """
    if not ltms:
        raise ValueError("need at least one layer")
    partition = l_rho.partition
    keep = sorted(
        {partition.mask_from_string(k) if isinstance(k, str) else int(k) for k in masks}
    )
    if not keep:
        raise ValueError("need at least one retained class")
    if any(not 0 <= k < partition.num_masks for k in keep):
        raise ValueError("retained class outside the partition")
    alphas = np.array(
        [max(float(t.entries[keep, keep].min()), 0.0) for t in ltms]
    )
    overlap = sum(
        l_rho.weights[k] * l_h.weights[k] / partition.block_dims()[k] for k in keep
    )
    bound = float(np.prod(alphas) * overlap)
    alpha_mean = float(np.prod(alphas) ** (1.0 / len(alphas)))
    return bound, alpha_mean


@dataclass
class ScalingDiagnostic:
    """Outcome of fitting retained variance mass against system size."""

    coefficient: float
    exponent: float
    r_squared: float
    rss_power: float
    rss_exponential: float
    polynomially_bounded: bool
    alpha_floor: float
    depth_ratio_max: float


def check_polynomial_scaling(
    samples: Sequence[tuple[float, float, float]]
) -> ScalingDiagnostic:
    """Diagnose whether alpha^L shrinks polynomially or exponentially in n.

    ``samples`` holds (n, L, alpha) triples.  Fits log(alpha^L) against both
    log n (power law c * n^-k) and n (exponential decay) and reports which
    model fits better; purely diagnostic, with the fitted power-law
    coefficient/exponent and the depth-to-log-size ratio as context.
    """
    if len(samples) < 3:
        raise ValueError("need at least three (n, L, alpha) samples")
    n = np.array([float(s[0]) for s in samples])
    depth = np.array([float(s[1]) for s in samples])
    alpha = np.array([float(s[2]) for s in samples])
    if np.any(n <= 1) or np.any(depth < 1) or np.any(alpha <= 0) or np.any(alpha > 1 + 1e-12):
        raise ValueError("samples must satisfy n > 1, L >= 1, 0 < alpha <= 1")
    log_f = depth * np.log(np.minimum(alpha, 1.0))

    def fit(x: np.ndarray) -> tuple[np.ndarray, float]:
        a = np.vstack([np.ones_like(x), x]).T
        coef, *_ = np.linalg.lstsq(a, log_f, rcond=None)
        rss = float(((a @ coef - log_f) ** 2).sum())
        return coef, rss

    (c_log, k_neg), rss_power = fit(np.log(n))
    _, rss_exp = fit(n)
    total = float(((log_f - log_f.mean()) ** 2).sum())
    r_squared = 1.0 - rss_power / total if total > 0 else 1.0
    return ScalingDiagnostic(
        coefficient=float(np.exp(c_log)),
        exponent=float(-k_neg),
        r_squared=r_squared,
        rss_power=rss_power,
        rss_exponential=rss_exp,
        polynomially_bounded=bool(rss_power <= rss_exp + 1e-12),
        alpha_floor=float(alpha.min()),
        depth_ratio_max=float((depth / np.log(n)).max()),
    )


def noisy_layer_transfer(
    p: float,
    t_entangler: LocalityTransferMatrix,
    l_rho_tilde: LocalityVector,
    overlap: np.ndarray | None = None,
) -> LocalityTransferMatrix:
    """Transfer matrix of replace-with-sigma noise after an entangler E, adjoint.

    For the layer (1-p) E + p Tr[.] sigma the traceless rows are (1-p)^2 T_E,
    and the trivial row is, per traceless column lambda,
    N[0, lambda] = (1-p)^2 T_E[0, lambda]
    + (2 p (1-p) c[lambda] + d p^2 (l_sigma)_lambda) / d_lambda, where
    ``overlap`` c[lambda] = sum over B in lambda of Tr[B E(I)] Tr[B sigma]
    = (l_{E(I)+sigma} - l_{E(I)-sigma}) / 4.  Exact for every trace-preserving
    E.  ``overlap=None`` declares E unital (every unitary): c and T_E[0, :]
    then vanish off the trivial class, and T_E must be column stochastic.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("noise strength must be in [0, 1]")
    partition = t_entangler.partition
    if l_rho_tilde.partition != partition:
        raise ValueError("fixed-point locality must match the transfer partition")
    t = t_entangler.entries
    if overlap is None and np.abs(t.sum(axis=0) - 1.0).max() > 1e-6:
        raise ValueError("expected the transfer matrix of a unitary map (no overlap)")
    d = partition.total_dim
    block_dims = partition.block_dims()
    damp = (1.0 - p) ** 2
    out = np.zeros_like(t)
    out[0, 0] = 1.0
    np.multiply(t[1:, 1:], damp, out=out[1:, 1:])
    out[0, 1:] = d * p * p * l_rho_tilde.weights[1:] / block_dims[1:]
    if overlap is not None:
        out[0, 1:] += damp * t[0, 1:] + 2 * p * (1 - p) * overlap[1:] / block_dims[1:]
    return LocalityTransferMatrix(partition, out, exact=t_entangler.exact)


# The whole noise series is at most p/(2-p) * scale, and its tail after J
# terms at most (1-p)^(2J) times that: 1e-16 puts the truncation below the
# double-precision rounding of the largest value the series can take.
SERIES_TAIL_TOL = 1e-16


@dataclass
class NoiseSeries:
    """Replace-with-sigma noise after a unitary T, for every p and depth.

    ``s_sigma[j] = (l_sigma, T^j v)`` and ``s_rho[j] = (l_rho, T^j v)`` for
    j < ``terms``, with v = l_H less its trivial entry: the class-0 terms
    cancel against (Tr H / d)^2 for a unit-trace rho.  T is non-negative and
    column stochastic, so |s_sigma[j]| <= ``scale`` = max(l_sigma/d) ||v||_1.
    """

    s_sigma: np.ndarray
    s_rho: np.ndarray
    scale: float

    @property
    def terms(self) -> int:
        return len(self.s_sigma)

    def _damped(self, p: float, count: int) -> np.ndarray:
        return (1.0 - p) ** (2 * np.arange(count))

    def deep(self, p: float) -> float:
        """p^2 sum_j (1-p)^(2j) s_sigma[j], within ``tail_bound(p)`` of the limit."""
        return p * p * float(self._damped(p, self.terms) @ self.s_sigma)

    def layered(self, p: float, depth: int) -> float:
        """p^2 sum_{j<L} (1-p)^(2j) s_sigma[j] + (1-p)^(2L) s_rho[L], exact."""
        damped = self._damped(p, depth + 1)
        sigma_part = p * p * float(damped[:-1] @ self.s_sigma[:depth])
        return sigma_part + float(damped[-1] * self.s_rho[depth])

    def tail_bound(self, p: float) -> float:
        """p^2 (1-p)^(2J) / (1 - (1-p)^2) * scale bounds deep(p)'s cut terms."""
        return p / (2.0 - p) * (1.0 - p) ** (2 * self.terms) * self.scale


def noise_series(
    t_unitary: LocalityTransferMatrix,
    l_sigma: LocalityVector,
    l_rho: LocalityVector,
    l_h: LocalityVector,
    p_min: float,
    depth: int = 0,
) -> NoiseSeries:
    """The noise series of a unitary entangler for every p >= p_min and depth.

    ``terms`` J is the smallest count with (1-p_min)^(2J) <= SERIES_TAIL_TOL,
    and at least depth + 1.  The series costs J sparse matvecs with T,
    about 18 / p_min (360 at p_min = 0.05), whatever the number of p.
    """
    if not 0.0 < p_min <= 1.0:
        raise ValueError("noise strength must be in (0, 1]; p = 0 never converges")
    partition = t_unitary.partition
    if any(x.partition != partition for x in (l_sigma, l_rho, l_h)):
        raise ValueError("locality vectors must match the transfer partition")
    t = t_unitary.entries
    if np.abs(t.sum(axis=0) - 1.0).max() > 1e-6:
        raise ValueError("expected the transfer matrix of a unitary map")
    tail_terms = math.log(SERIES_TAIL_TOL) / (2.0 * math.log1p(-p_min)) if p_min < 1 else 1
    terms = max(math.ceil(tail_terms), depth + 1)
    t = csr_matrix(t)  # unitary LTMs are sparse: 4.5 % (CNOT), 8.8 % (CRX) at n = 12
    weights = np.stack([l_sigma.weights, l_rho.weights]) / partition.block_dims()
    weights[:, 0] = 0.0
    v = l_h.weights.copy()
    v[0] = 0.0
    scale = float(weights[0].max() * v.sum())
    s = np.empty((2, terms))
    for j in range(terms):
        s[:, j] = weights @ v
        v = t @ v
        v[0] = 0.0
    return NoiseSeries(s[0], s[1], scale)


def noise_model_deep(
    p: float,
    t_unitary: LocalityTransferMatrix,
    l_rho_tilde: LocalityVector,
    l_h: LocalityVector,
) -> VarianceReport:
    """Deep-circuit variance for replace-with-sigma noise after a unitary.

    Sums the resolvent p^2 (l_sigma, (1 - (1-p)^2 T)^{-1} l_H) over the
    traceless classes as the power series ``noise_series(...).deep(p)``; the
    diagnostics give its ``terms`` and ``tail_bound``.

    When every unit-radius class is aperiodic (period 1), T^k tends to the
    block Perron projector P and the resolvent splits exactly as
    value = p/(2-p) V_inf + p^2 g(p), with V_inf = (l_sigma, P l_H) the
    noiseless deep-limit variance of sigma against H (``variance_deep_unitary``
    on ``decompose(T)``) and g smooth in p.  The first term is linear at
    small p; the quadratic small-noise law holds for the remainder.

    Unitary entanglers only (T column stochastic); for a non-unital one use
    ``variance_deep(decompose(noisy_layer_transfer(p, T, l_sigma, overlap)), ...)``.
    """
    series = noise_series(t_unitary, l_rho_tilde, l_rho_tilde, l_h, p)
    diagnostics = {"terms": series.terms, "tail_bound": series.tail_bound(p)}
    return _finalize(series.deep(p), "noise-model", diagnostics=diagnostics)
