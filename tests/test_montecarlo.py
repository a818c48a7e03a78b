"""Monte-Carlo estimator: Haar moments, calibration, exact cross-checks."""

from functools import reduce

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    haar,
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
    LayeredCircuitSpec,
    MixtureWithReplacement,
    SubsystemPartition,
    TensorProductChannel,
    Unitary,
    amplitude_damping,
    cnot_double_cascade,
    crx_cascade,
    depolarizing,
    estimate_variance,
    ghz_state,
    haar_unitaries,
    locality_vector,
    ltm_exact,
    mean_ltm_over_ensemble,
    pauli_string,
    phase_flip,
    qresnet_estimate,
    swap_circuit,
    variance_exact,
    zero_state,
)
from ltmlab import montecarlo
from ltmlab._rng import substream

Z = np.diag([1.0, -1.0])
ONE_QUBIT = SubsystemPartition.qubits(1)
TWO_QUBITS = SubsystemPartition.qubits(2)


def test_haar_unitaries_are_unitary():
    us = haar_unitaries(3, 200, np.random.default_rng(1))
    assert us.shape == (200, 3, 3)
    gram = us @ us.conj().transpose(0, 2, 1)
    assert np.abs(gram - np.eye(3)).max() < 1e-12


def test_haar_first_moment():
    us = haar_unitaries(2, 20_000, np.random.default_rng(2))
    amp = np.abs(us[:, 0, 0]) ** 2
    se = amp.std(ddof=1) / np.sqrt(amp.size)
    assert abs(amp.mean() - 0.5) <= 4 * se


def test_haar_second_moment_weingarten():
    # E[ Tr[P U-dag P U]^2 ] = 1/3 for a normalized traceless qubit operator
    us = haar_unitaries(2, 20_000, np.random.default_rng(3))
    p = Z / np.sqrt(2.0)
    t = np.einsum("bii->b", (us.conj().transpose(0, 2, 1) @ p @ us) @ p).real
    sq = t**2
    se = sq.std(ddof=1) / np.sqrt(sq.size)
    assert abs(sq.mean() - 1.0 / 3.0) <= 4 * se
    # and the first moment vanishes
    se1 = t.std(ddof=1) / np.sqrt(t.size)
    assert abs(t.mean()) <= 4 * se1


def test_depth_zero_baseline_single_qubit():
    spec = LayeredCircuitSpec(ONE_QUBIT, 0, None, np.diag([1.0, 0.0]), Z)
    est = estimate_variance(spec, 30_000, seed=2024)
    assert abs(est.variance - 1.0 / 3.0) <= 4 * est.standard_error_of_variance
    # the loss mean is Tr[rho] Tr[H] / d = 0 here
    se_mean = np.sqrt(est.variance / est.samples)
    assert abs(est.mean) <= 4 * se_mean
    assert est.samples == 30_000 and est.seed == 2024


def test_estimates_bit_identical_on_reseed():
    spec = LayeredCircuitSpec(ONE_QUBIT, 0, None, np.diag([1.0, 0.0]), Z)
    a = estimate_variance(spec, 2_000, seed=9)
    b = estimate_variance(spec, 2_000, seed=9)
    assert a.variance == b.variance and a.mean == b.mean
    assert a.standard_error_of_variance == b.standard_error_of_variance
    c = estimate_variance(spec, 2_000, seed=10)
    assert c.variance != a.variance


def test_swap_odd_depth_variance_vanishes():
    sigma = np.diag([0.8, 0.2])
    rho = np.kron(np.eye(2) / 2, sigma)
    h = np.kron(np.eye(2), Z)
    spec = LayeredCircuitSpec(TWO_QUBITS, 3, swap_circuit(), rho, h)
    est = estimate_variance(spec, 20_000, seed=5)
    assert est.variance <= 4 * est.standard_error_of_variance + 1e-20


def test_full_depolarizing_kills_variance():
    rho = np.kron(np.eye(2) / 2, np.diag([0.8, 0.2]))
    h = np.kron(np.eye(2), Z)
    spec = LayeredCircuitSpec(TWO_QUBITS, 1, depolarizing(1.0, 4), rho, h)
    est = estimate_variance(spec, 1_000, seed=6)
    assert est.variance <= 1e-28


def test_mixture_channel_matches_exact_transfer():
    cnot = CircuitUnitary(2, (Gate("cnot", (0, 1), CNOT),))
    mix = MixtureWithReplacement(0.3, ghz_state(2), cnot)
    t_mix = ltm_exact(mix, TWO_QUBITS)
    rho0 = zero_state(2)
    h_obs = pauli_string(2, "ZZ") + 0.5 * pauli_string(2, "XI")
    l_rho = locality_vector(TWO_QUBITS, rho0)
    l_h = locality_vector(TWO_QUBITS, h_obs)
    for depth in (1, 2):
        want = variance_exact(l_rho, [t_mix] * depth, l_h, 0.0).value
        spec = LayeredCircuitSpec(TWO_QUBITS, depth, mix, rho0, h_obs)
        est = estimate_variance(spec, 40_000, seed=100 + depth)
        pull = abs(est.variance - want) / est.standard_error_of_variance
        assert pull <= 4, (depth, want, est.variance, pull)


def test_per_layer_channel_list():
    # alternating swap / identity must reproduce the matching LTM product
    rho = np.kron(np.eye(2) / 2, np.diag([0.8, 0.2]))
    h = np.kron(np.eye(2), Z)
    l_rho = locality_vector(TWO_QUBITS, rho)
    l_h = locality_vector(TWO_QUBITS, h)
    t_swap = ltm_exact(swap_circuit(), TWO_QUBITS)
    ident = Unitary(np.eye(4))
    t_id = ltm_exact(ident, TWO_QUBITS)
    want = variance_exact(l_rho, [t_swap, t_id], l_h, 0.0).value
    spec = LayeredCircuitSpec(TWO_QUBITS, 2, [swap_circuit(), ident], rho, h)
    est = estimate_variance(spec, 20_000, seed=11)
    assert abs(est.variance - want) <= 4 * est.standard_error_of_variance + 1e-20


def test_loss_mean_matches_global_average():
    rho0 = zero_state(2)
    h_obs = pauli_string(2, "ZZ") + 0.25 * np.eye(4)  # trace 1
    spec = LayeredCircuitSpec(TWO_QUBITS, 1, swap_circuit(), rho0, h_obs)
    est = estimate_variance(spec, 30_000, seed=12)
    se_mean = np.sqrt(est.variance / est.samples)
    assert abs(est.mean - 0.25) <= 4 * se_mean


def test_qresnet_zero_angle_is_depth_zero():
    rho0 = zero_state(2)
    h_obs = pauli_string(2, "ZZ") + 0.5 * pauli_string(2, "XI")
    l_rho = locality_vector(TWO_QUBITS, rho0)
    l_h = locality_vector(TWO_QUBITS, h_obs)
    want = variance_exact(l_rho, [], l_h, 0.0).value
    est = qresnet_estimate(
        TWO_QUBITS, 1, pauli_string(2, "ZZ"), 0.0, rho0, h_obs, 30_000, seed=7
    )
    pull = abs(est.variance - want) / est.standard_error_of_variance
    assert pull <= 4


def test_qresnet_matches_angle_averaged_transfer():
    # over independent angles the exact variance is (l_rho, T-bar^L l_H)
    # with T-bar the Gaussian-averaged transfer matrix; Gauss-Hermite
    # quadrature makes that average essentially exact
    sigma = 0.5
    g = pauli_string(2, "ZZ")
    nodes, weights = np.polynomial.hermite_e.hermegauss(41)
    members = [
        (w / np.sqrt(2 * np.pi), Unitary(scipy.linalg.expm(1j * sigma * x * g)))
        for x, w in zip(nodes, weights)
    ]
    total = sum(w for w, _ in members)
    members = [(w / total, ch) for w, ch in members]
    t_bar = mean_ltm_over_ensemble(members, TWO_QUBITS)
    rho0 = zero_state(2)
    h_obs = pauli_string(2, "ZZ") + 0.5 * pauli_string(2, "XI")
    l_rho = locality_vector(TWO_QUBITS, rho0)
    l_h = locality_vector(TWO_QUBITS, h_obs)
    for depth in (1, 2):
        want = variance_exact(l_rho, [t_bar] * depth, l_h, 0.0).value
        est = qresnet_estimate(
            TWO_QUBITS, depth, g, sigma, rho0, h_obs, 40_000, seed=30 + depth
        )
        pull = abs(est.variance - want) / est.standard_error_of_variance
        assert pull <= 4, (depth, want, est.variance, pull)


def test_spec_validation():
    rho = np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match="non-negative"):
        LayeredCircuitSpec(ONE_QUBIT, -1, None, rho, Z)
    with pytest.raises(ValueError, match="match the partition"):
        LayeredCircuitSpec(ONE_QUBIT, 0, None, np.eye(4) / 4, Z)
    with pytest.raises(ValueError, match="unit trace"):
        LayeredCircuitSpec(ONE_QUBIT, 0, None, np.diag([1.0, 0.5]), Z)
    with pytest.raises(ValueError, match="positive semidefinite"):
        LayeredCircuitSpec(ONE_QUBIT, 0, None, np.diag([1.5, -0.5]), Z)
    with pytest.raises(ValueError, match="Hermitian"):
        LayeredCircuitSpec(ONE_QUBIT, 0, None, rho, np.array([[0, 1], [0, 0]]))


def test_estimator_validation():
    spec = LayeredCircuitSpec(ONE_QUBIT, 0, None, np.diag([1.0, 0.0]), Z)
    with pytest.raises(ValueError, match="at least 100"):
        estimate_variance(spec, 50, seed=0)
    # skip __post_init__ so the size guard is reached without an O(d^3)
    # eigendecomposition of an 8192-dimensional state
    big = LayeredCircuitSpec.__new__(LayeredCircuitSpec)
    big.partition = SubsystemPartition.qubits(13)
    big.layers = 0
    big.intermediate = None
    with pytest.raises(ValueError, match="refused beyond"):
        estimate_variance(big, 100, seed=0)
    with pytest.raises(ValueError, match="refused beyond"):
        qresnet_estimate(
            SubsystemPartition.qubits(13), 1, np.eye(2), 0.1,
            np.eye(2), np.eye(2), 100, 0,
        )


def test_qresnet_validation():
    rho0 = zero_state(2)
    with pytest.raises(ValueError, match="non-negative"):
        qresnet_estimate(TWO_QUBITS, 1, pauli_string(2, "ZZ"), -0.1, rho0, rho0, 100, 0)
    with pytest.raises(ValueError, match="Hermitian"):
        qresnet_estimate(
            TWO_QUBITS, 1, 1j * pauli_string(2, "ZZ"), 0.1, rho0, rho0, 100, 0
        )


def test_mc_estimate_as_dict():
    spec = LayeredCircuitSpec(ONE_QUBIT, 0, None, np.diag([1.0, 0.0]), Z)
    est = estimate_variance(spec, 500, seed=3)
    d = est.as_dict()
    assert set(d) == {"mean", "variance", "standard_error_of_variance", "samples", "seed"}
    assert d["samples"] == 500


def _factor_case(name, rng):
    """(qubit count, channel) of one case of the dense-reference comparison."""
    if name == "unitary":
        return 2, Unitary(haar(4, rng))
    if name == "circuit":
        return 3, crx_cascade(3, 0.7)
    if name == "kraus":
        return 2, random_kraus_channel(4, 3, rng)
    if name == "conjugation":
        return 2, Conjugation(random_kraus_channel(4, 2, rng).operators[0])
    if name == "mixture-rank1":
        return 3, MixtureWithReplacement(0.3, ghz_state(3), cnot_double_cascade(3))
    if name == "mixture-full":
        return 2, MixtureWithReplacement(0.4, random_density(4, rng), Unitary(haar(4, rng)))
    if name == "tensor":
        locals_ = (amplitude_damping(0.2), depolarizing(0.3), phase_flip(0.15))
        return 3, TensorProductChannel(SubsystemPartition.qubits(3), locals_)
    noise = TensorProductChannel(TWO_QUBITS, (depolarizing(0.25), amplitude_damping(0.4)))
    return 2, Composition((cnot_double_cascade(2), noise))


def _dense_losses(spec, n_samples, seed):
    """Loss samples of the layered model simulated on dense rho.

    Each layer's unitary is the Kronecker product of the per-qubit Haar
    draws under the estimator's own substream keys (one chunk).
    """
    rhos = [spec.initial_state] * n_samples
    for layer in range(spec.layers + 1):
        draws = [
            haar_unitaries(dm, n_samples, substream(seed, montecarlo._LOCAL_STREAM, 0, layer, m))
            for m, dm in enumerate(spec.partition.dims)
        ]
        us = [reduce(np.kron, [d[i] for d in draws]) for i in range(n_samples)]
        rhos = [u @ rho @ u.conj().T for u, rho in zip(us, rhos)]
        if layer < spec.layers:
            rhos = [spec.intermediate.apply(rho) for rho in rhos]
    return np.array([np.trace(spec.observable @ rho).real for rho in rhos])


FACTOR_CASES = (
    "unitary", "circuit", "kraus", "conjugation",
    "mixture-rank1", "mixture-full", "tensor", "composition",
)


@pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
@pytest.mark.parametrize("name", FACTOR_CASES)
def test_factor_estimator_matches_dense_reference(name, pure, monkeypatch):
    rng = np.random.default_rng([FACTOR_CASES.index(name), pure])
    n, channel = _factor_case(name, rng)
    partition = SubsystemPartition.qubits(n)
    d = partition.total_dim
    rho = random_pure_state(d, rng) if pure else random_density(d, rng)
    h = random_traceless_hermitian(d, rng) + 0.3 * np.eye(d)
    depth, n_samples, seed = d + 1, 120, 77  # depth > d: widths reach the cap
    assert n_samples <= montecarlo._chunk_size(d)
    widths = []
    local_layer = montecarlo._apply_local_layer

    def recording(a, *args):
        widths.append(a.shape[-1])
        return local_layer(a, *args)

    monkeypatch.setattr(montecarlo, "_apply_local_layer", recording)
    spec = LayeredCircuitSpec(partition, depth, channel, rho, h)
    est = estimate_variance(spec, n_samples, seed)
    losses = _dense_losses(spec, n_samples, seed)
    np.testing.assert_allclose(est.mean, losses.mean(), rtol=1e-12)
    np.testing.assert_allclose(est.variance, losses.var(ddof=1), rtol=1e-12)
    assert widths[0] == (1 if pure else d) and max(widths) <= d
    if name in ("kraus", "mixture-rank1", "mixture-full", "tensor", "composition"):
        assert max(widths) == d  # the factor grew past d and was compressed
