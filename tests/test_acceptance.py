"""End-to-end acceptance checks for the variance-analysis pipeline.

Each test pins one headline behavior of the package: golden closed forms,
agreement between the analytic transfer-matrix path and direct Monte-Carlo
simulation, deep-limit convergence and noise-scaling shapes, structural
invariants of locality transfer matrices, bound soundness, ensemble
dominance, and periodicity detection.  Runtime budgets are asserted so the
suite stays honest about its analytic fast paths.

Note: under replace-with-sigma noise the deep variance of the rapid
entangler is p/(2-p) V_inf + p^2 g(p), where V_inf is the noiseless deep
limit.  The absorbed term V_inf p/(2-p) is linear at small p and fades
roughly as 2^-n, so a raw log-log fit over the whole value gives 1.69 at
n = 6 and 1.95 at n = 10.  The 6-qubit test
`test_noise_scaling_rapid_quadratic_small_register` subtracts that term and
checks the quadratic law on the remainder, at 2.0 +/- 0.15; the 10-qubit
companion checks the raw fit at the same tolerance.
"""

import time

import numpy as np
import pytest

from conftest import (
    Forward,
    haar,
    locally_rotated,
    random_density,
    random_kraus_channel,
    random_pure_state,
    random_traceless_hermitian,
)

from ltmlab import (
    CNOT,
    CircuitUnitary,
    Composition,
    Conjugation,
    Gate,
    KrausChannel,
    LayeredCircuitSpec,
    MixtureWithReplacement,
    SubsystemPartition,
    TensorProductChannel,
    Unitary,
    amplitude_damping,
    cnot_double_cascade,
    crx_cascade,
    cz_cascade,
    decompose,
    depolarizing,
    estimate_variance,
    ghz_locality,
    ghz_state,
    locality_vector,
    lower_bound,
    ltm_exact,
    mean_ltm_over_ensemble,
    noise_model_deep,
    noisy_layer_transfer,
    pauli_string,
    period_of,
    phase_flip,
    swap_circuit,
    variance_deep,
    variance_deep_unitary,
    variance_exact,
    weighted_dot,
    zero_state,
    zero_state_locality,
    zz_chain_locality,
)

SIX_QUBITS = SubsystemPartition.qubits(6)
SWEEP_GRID = tuple(np.linspace(0.05, 0.5, 10).round(12))


def variance_with_error(losses):
    """Sample variance and its own standard error via the fourth moment."""
    n = losses.size
    s2 = losses.var(ddof=1)
    m4 = ((losses - losses.mean()) ** 4).mean()
    var_of_var = max(m4 - (n - 3) / (n - 1) * s2**2, 0.0) / n
    return s2, np.sqrt(var_of_var)


@pytest.fixture(scope="module")
def rapid_transfer_n6():
    return ltm_exact(cnot_double_cascade(6), SIX_QUBITS)


@pytest.fixture(scope="module")
def slow_transfer_n6():
    return ltm_exact(crx_cascade(6), SIX_QUBITS)


@pytest.fixture(scope="module")
def ghz_noise_n6():
    return ghz_locality(6), zz_chain_locality(6, 9.0 / 6)


def test_swap_golden_values():
    start = time.monotonic()
    partition = SubsystemPartition.qubits(2)
    sigma = np.diag([0.8, 0.2])
    rho = np.kron(np.eye(2) / 2, sigma)
    h = np.kron(np.eye(2), np.diag([1.0, -1.0]))
    purity = float(np.trace(sigma @ sigma))
    even = (purity - 0.5) * 2.0 / 3.0
    l_rho = locality_vector(partition, rho)
    l_h = locality_vector(partition, h)
    transfer = ltm_exact(swap_circuit(), partition)
    for depth in range(1, 9):
        value = variance_exact(l_rho, [transfer] * depth, l_h, 0.0).value
        want = even if depth % 2 == 0 else 0.0
        assert abs(value - want) <= 1e-12, (depth, value)
    dec = decompose(transfer)
    periodic = [b for b in dec.essential_blocks if b.period == 2]
    assert len(periodic) == 1
    assert np.abs(periodic[0].right_vector - 0.5).max() <= 1e-12
    deep = variance_deep(dec, l_rho, l_h)
    assert abs(deep.value - even / 2) <= 1e-12
    assert time.monotonic() - start < 1.0


def test_single_qubit_baseline_analytic_and_mc():
    start = time.monotonic()
    partition = SubsystemPartition.qubits(1)
    rho = np.diag([1.0, 0.0])
    z = np.diag([1.0, -1.0])
    analytic = variance_exact(
        locality_vector(partition, rho), [], locality_vector(partition, z), 0.0
    ).value
    assert abs(analytic - 1.0 / 3.0) <= 1e-15
    est = estimate_variance(
        LayeredCircuitSpec(partition, 0, None, rho, z), 100_000, seed=41
    )
    assert abs(est.variance - 1.0 / 3.0) <= 4 * est.standard_error_of_variance
    assert time.monotonic() - start < 5.0


def _sweep_channel(index, partition, rng):
    """One member of the mixed-family catalog for the equivalence sweep."""
    d = partition.total_dim
    n = len(partition.dims)
    family = index % 5
    if family == 0:
        return Unitary(haar(d, rng))
    if family == 1:
        inner = Unitary(haar(d, rng))
        return MixtureWithReplacement(
            0.1 + 0.8 * (index / 30.0), random_density(d, rng), inner
        )
    if family == 2:
        locals_ = [amplitude_damping(0.2), depolarizing(0.3), phase_flip(0.15)]
        return TensorProductChannel(
            partition, tuple(locals_[k % 3] for k in range(n))
        )
    if family == 3:
        noise = TensorProductChannel(
            partition, tuple(depolarizing(0.25) for _ in range(n))
        )
        return Composition((cnot_double_cascade(n) if n > 1 else Unitary(haar(2, rng)), noise))
    return random_kraus_channel(d, 2 + index % 3, rng)


def test_analytic_mc_equivalence_sweep():
    start = time.monotonic()
    rng = np.random.default_rng(2718)
    hits = 0
    for index in range(30):
        n = (2, 3, 4)[index % 3]
        depth = (1, 2, 3)[(index // 3) % 3]
        partition = SubsystemPartition.qubits(n)
        d = partition.total_dim
        channel = _sweep_channel(index, partition, rng)
        rho = random_density(d, rng) if index % 2 else random_pure_state(d, rng)
        h = random_traceless_hermitian(d, rng)
        l_rho = locality_vector(partition, rho)
        l_h = locality_vector(partition, h)
        transfer = ltm_exact(channel, partition)
        want = variance_exact(l_rho, [transfer] * depth, l_h, 0.0).value
        est = estimate_variance(
            LayeredCircuitSpec(partition, depth, channel, rho, h),
            12_000,
            seed=5000 + index,
        )
        if abs(est.variance - want) <= 4 * est.standard_error_of_variance:
            hits += 1
    assert hits >= 27, f"only {hits}/30 configs within 4 standard errors"
    assert time.monotonic() - start < 180.0


def _decay_fit(transfer, depth_max, l_rho, l_sigma, l_h, p=0.1):
    deep_value = noise_model_deep(p, transfer, l_sigma, l_h).value
    layer = noisy_layer_transfer(p, transfer, l_sigma)
    gaps = np.array(
        [
            abs(variance_exact(l_rho, [layer] * depth, l_h, 0.0).value - deep_value)
            for depth in range(1, depth_max + 1)
        ]
    )
    depths = np.arange(1, depth_max + 1)
    keep = gaps > 1e-14  # below this the gap is pure float dust
    slope, intercept = np.polyfit(depths[keep], np.log(gaps[keep]), 1)
    fitted = slope * depths[keep] + intercept
    resid = np.log(gaps[keep]) - fitted
    total = np.log(gaps[keep]) - np.log(gaps[keep]).mean()
    r_squared = 1.0 - (resid**2).sum() / (total**2).sum()
    return slope, r_squared


def test_deep_limit_convergence_rate(rapid_transfer_n6, slow_transfer_n6, ghz_noise_n6):
    start = time.monotonic()
    l_sigma, l_h = ghz_noise_n6
    l_rho = zero_state_locality(6)
    slope_rapid, r2_rapid = _decay_fit(rapid_transfer_n6, 8, l_rho, l_sigma, l_h)
    assert slope_rapid < 0
    assert r2_rapid > 0.95, r2_rapid
    slope_slow, r2_slow = _decay_fit(slow_transfer_n6, 20, l_rho, l_sigma, l_h)
    assert slope_slow < 0
    assert r2_slow > 0.95, r2_slow
    assert time.monotonic() - start < 120.0


def _normalized_deep_sweep(transfer, l_sigma, l_h, grid):
    normalization = weighted_dot(l_sigma, l_h)
    values = np.array(
        [noise_model_deep(p, transfer, l_sigma, l_h).value for p in grid]
    )
    return values / normalization


def test_noise_scaling_rapid_quadratic_small_register(
    rapid_transfer_n6, ghz_noise_n6
):
    start = time.monotonic()
    l_sigma, l_h = ghz_noise_n6
    grid = np.array(SWEEP_GRID)
    values = _normalized_deep_sweep(rapid_transfer_n6, l_sigma, l_h, grid)
    # The noiseless deep limit, taken on the spectral path: the split of
    # noise_model_deep into p/(2-p) V_inf + p^2 g(p) is exact only when the
    # unit-radius classes are aperiodic.
    dec = decompose(rapid_transfer_n6)
    deep = variance_deep(dec, l_sigma, l_h)
    assert deep.converged and deep.diagnostics["period"] == 1
    absorbed = variance_deep_unitary(dec, l_sigma, l_h).value
    absorbed /= weighted_dot(l_sigma, l_h)
    remainder = values - absorbed * grid / (2.0 - grid)
    raw_slope = np.polyfit(np.log(grid), np.log(values), 1)[0]
    slope = np.polyfit(np.log(grid), np.log(remainder), 1)[0]
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    assert abs(slope - 2.0) <= 0.15, (
        f"rapid-entangler log-log slope over p in [0.05, 0.5] of the variance "
        f"minus the absorbed term {absorbed:.4f} p/(2-p) is {slope:.4f} at "
        f"n = 6, outside 2.0 +/- 0.15"
    )
    # The absorbed term is linear at small p, so it flattens the raw fit.
    assert raw_slope < slope, (raw_slope, slope)


def test_noise_scaling_rapid_quadratic_large_register():
    start = time.monotonic()
    partition = SubsystemPartition.qubits(10)
    transfer = ltm_exact(cnot_double_cascade(10), partition)
    l_sigma = ghz_locality(10)
    l_h = zz_chain_locality(10, 9.0 / 10)
    values = _normalized_deep_sweep(transfer, l_sigma, l_h, SWEEP_GRID)
    slope = np.polyfit(np.log(SWEEP_GRID), np.log(values), 1)[0]
    assert abs(slope - 2.0) <= 0.15, slope
    assert time.monotonic() - start < 300.0


def test_noise_scaling_slow_linear(slow_transfer_n6, ghz_noise_n6):
    start = time.monotonic()
    l_sigma, l_h = ghz_noise_n6
    grid = np.linspace(0.2, 0.8, 13).round(12)
    values = _normalized_deep_sweep(slow_transfer_n6, l_sigma, l_h, grid)
    predicted = grid / (2.0 - grid)
    rel = np.abs(values - predicted) / predicted
    assert rel.max() <= 0.20, rel.max()
    assert time.monotonic() - start < 300.0


def _structural_catalog(rng):
    """Twenty channels across every family and one- to three-qubit registers."""
    one = SubsystemPartition.qubits(1)
    two = SubsystemPartition.qubits(2)
    three = SubsystemPartition.qubits(3)
    cnot = CircuitUnitary(2, (Gate("cnot", (0, 1), CNOT),))
    tensor2 = TensorProductChannel(two, (amplitude_damping(0.3), phase_flip(0.2)))
    catalog = [
        (one, depolarizing(0.3)),
        (one, amplitude_damping(0.4)),
        (one, phase_flip(0.2)),
        (one, Unitary(haar(2, rng))),
        (one, random_kraus_channel(2, 2, rng)),
        (two, swap_circuit()),
        (two, cnot),
        (two, cz_cascade(2)),
        (two, crx_cascade(2, 0.4)),
        (two, Unitary(haar(4, rng))),
        (two, random_kraus_channel(4, 2, rng)),
        (two, random_kraus_channel(4, 3, rng)),
        (two, MixtureWithReplacement(0.3, ghz_state(2), cnot)),
        (two, MixtureWithReplacement(0.6, random_density(4, rng), Unitary(haar(4, rng)))),
        (two, tensor2),
        (two, Composition((cnot, tensor2))),
        (three, cnot_double_cascade(3)),
        (three, cz_cascade(3)),
        (three, crx_cascade(3, 0.7)),
        (three, random_kraus_channel(8, 2, rng)),
    ]
    assert len(catalog) == 20
    return catalog


def test_transfer_matrix_structural_invariants():
    rng = np.random.default_rng(1414)
    for partition, channel in _structural_catalog(rng):
        adj = ltm_exact(channel, partition)
        fwd = ltm_exact(Forward(channel), partition)
        sums = adj.entries.sum(axis=0)
        assert sums.max() <= 1.0 + 1e-8, type(channel).__name__
        if isinstance(channel, (Unitary, CircuitUnitary)):
            assert np.abs(sums - 1.0).max() <= 1e-9
        dims = np.diag(partition.block_dims().astype(float))
        duality_gap = np.abs(fwd.entries @ dims - (adj.entries @ dims).T).max()
        assert duality_gap <= 1e-8, type(channel).__name__
        rotations = [haar(dm, rng) for dm in partition.dims]
        rotated = ltm_exact(locally_rotated(channel, rotations), partition)
        assert np.abs(rotated.entries - adj.entries).max() <= 1e-9
        assert decompose(adj).contractive_radius < 1.0


def test_unitary_deep_value_identities():
    # random unitary entanglers: the block-mass shortcut, the assembled
    # limit, and zero absorption all agree
    rng = np.random.default_rng(999)
    for trial in range(20):
        n = (2, 3, 4)[trial % 3]
        partition = SubsystemPartition.qubits(n)
        d = partition.total_dim
        dec = decompose(ltm_exact(Unitary(haar(d, rng)), partition), partition=partition)
        assert not dec.inessential_indices
        l_rho = locality_vector(partition, random_pure_state(d, rng))
        l_h = locality_vector(partition, random_traceless_hermitian(d, rng))
        fast = variance_deep_unitary(dec, l_rho, l_h)
        general = variance_deep(dec, l_rho, l_h)
        assert abs(fast.value - general.value) <= 1e-9
        assert fast.diagnostics["absorption_norm"] == 0.0


def test_unital_contractive_channel_kills_variance():
    partition = SubsystemPartition.qubits(2)
    cnot = CircuitUnitary(2, (Gate("cnot", (0, 1), CNOT),))
    noise = TensorProductChannel(partition, (depolarizing(0.2), depolarizing(0.2)))
    dec = decompose(ltm_exact(Composition((cnot, noise)), partition), partition=partition)
    # every traceless block is strictly contractive, so deep variance is zero
    assert all(b.radius < 1 - 1e-6 for b in dec.essential_blocks if 0 not in b.indices)
    rng = np.random.default_rng(77)
    l_rho = locality_vector(partition, random_density(4, rng))
    l_h = locality_vector(partition, random_traceless_hermitian(4, rng))
    assert variance_deep(dec, l_rho, l_h).value <= 1e-10


def test_misaligned_unitary_matches_global_haar():
    start = time.monotonic()
    partition = SubsystemPartition.qubits(3)
    rng = np.random.default_rng(31)
    dec = decompose(ltm_exact(Unitary(haar(8, rng)), partition), partition=partition)
    rho = zero_state(3)
    h = pauli_string(3, "ZXY")
    l_rho = locality_vector(partition, rho)
    l_h = locality_vector(partition, h)
    deep = variance_deep_unitary(dec, l_rho, l_h)
    # one merged traceless block of weighted size d^2 - 1 = 63: the deep
    # value collapses to ||H||^2 / (d^2 - 1) = 1/(d+1) for this H
    assert abs(deep.value - 1.0 / 9.0) <= 1e-9
    # global-Haar Monte Carlo agrees: 2-design average over U(8)
    from ltmlab.montecarlo import haar_unitaries

    us = haar_unitaries(8, 40_000, np.random.default_rng(32))
    losses = np.einsum("bij,jk,bkl,li->b", us, rho, us.conj().transpose(0, 2, 1), h).real
    mc_var, mc_se = variance_with_error(losses)
    assert abs(mc_var - deep.value) <= 4 * mc_se, (mc_var, mc_se)
    assert time.monotonic() - start < 60.0


def test_lower_bound_soundness_500_instances():
    rng = np.random.default_rng(8383)
    partition = SubsystemPartition.qubits(2)
    cnot = CircuitUnitary(2, (Gate("cnot", (0, 1), CNOT),))
    pool = [
        ltm_exact(Unitary(haar(4, rng)), partition) for _ in range(4)
    ] + [
        ltm_exact(random_kraus_channel(4, 2, rng), partition),
        ltm_exact(random_kraus_channel(4, 3, rng), partition),
        ltm_exact(MixtureWithReplacement(0.2, ghz_state(2), cnot), partition),
        ltm_exact(
            MixtureWithReplacement(0.5, random_density(4, rng), Unitary(haar(4, rng))),
            partition,
        ),
        ltm_exact(
            TensorProductChannel(partition, (amplitude_damping(0.3), phase_flip(0.1))),
            partition,
        ),
        ltm_exact(swap_circuit(), partition),
    ]
    violations = 0
    for _ in range(500):
        ltms = [pool[rng.integers(len(pool))] for _ in range(rng.integers(1, 4))]
        rho = random_pure_state(4, rng) if rng.integers(2) else random_density(4, rng)
        l_rho = locality_vector(partition, rho)
        l_h = locality_vector(partition, random_traceless_hermitian(4, rng))
        keep = [k for k in (1, 2, 3) if rng.integers(2)] or [int(rng.integers(1, 4))]
        bound, _ = lower_bound(l_rho, ltms, l_h, keep)
        exact = variance_exact(l_rho, ltms, l_h, 0.0).value
        if bound > exact + 1e-9:
            violations += 1
    assert violations == 0, f"{violations}/500 bound violations"


def test_unravelling_mean_dominates():
    rng = np.random.default_rng(4242)
    partition = SubsystemPartition.qubits(2)
    for trial in range(20):
        channel = random_kraus_channel(4, 2 + trial % 3, rng)
        norms = np.array([np.sum(np.abs(k) ** 2) for k in channel.operators])
        probs = norms / norms.sum()
        members = [
            (q, Conjugation(k / np.sqrt(q)))
            for q, k in zip(probs, channel.operators)
        ]
        mean = mean_ltm_over_ensemble(members, partition)
        exact = ltm_exact(channel, partition)
        assert (mean.entries - exact.entries).min() >= -1e-9
    # a single-member unitary ensemble adds nothing: exact equality
    u = Unitary(haar(4, rng))
    mean = mean_ltm_over_ensemble([(1.0, u)], partition)
    exact = ltm_exact(u, partition)
    assert np.abs(mean.entries - exact.entries).max() <= 1e-10


def test_periodicity_detection():
    swap_dec = decompose(ltm_exact(swap_circuit(), SubsystemPartition.qubits(2)))
    assert next(b for b in swap_dec.blocks if 1 in b.indices).period == 2
    three_cycle = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    assert period_of(three_cycle) == 3
    rng = np.random.default_rng(15)
    aperiodic = 0
    for _ in range(100):
        size = int(rng.integers(2, 7))
        m = rng.uniform(0.05, 1.0, size=(size, size))
        aperiodic += period_of(m) == 1
    assert aperiodic == 100
