"""Variance evaluators: finite depth, deep limits, bounds, noise model."""

import numpy as np
import pytest

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
    Gate,
    LocalityTransferMatrix,
    LocalityVector,
    MixtureWithReplacement,
    NumericalFailure,
    SubsystemPartition,
    Unitary,
    amplitude_damping,
    check_polynomial_scaling,
    cnot_double_cascade,
    crx_cascade,
    decompose,
    ghz_locality,
    ghz_state,
    locality_vector,
    lower_bound,
    ltm_exact,
    noise_model_deep,
    noise_series,
    noisy_layer_transfer,
    pauli_string,
    swap_circuit,
    variance_deep,
    variance_deep_unitary,
    variance_exact,
    weighted_dot,
    zero_state,
    zero_state_locality,
    zz_chain_locality,
)

QUBIT = SubsystemPartition.qubits(1)
TWO_QUBITS = SubsystemPartition.qubits(2)
CNOT_CIRCUIT = CircuitUnitary(2, (Gate("cnot", (0, 1), CNOT),))


@pytest.fixture(scope="module")
def swap_setup():
    """Bystander qubit 1 maximally mixed, qubit 2 carrying all structure."""
    sigma = np.diag([0.8, 0.2])
    rho = np.kron(np.eye(2) / 2, sigma)
    h = np.kron(np.eye(2), np.diag([1.0, -1.0]))
    l_rho = locality_vector(TWO_QUBITS, rho)
    l_h = locality_vector(TWO_QUBITS, h)
    t_swap = ltm_exact(swap_circuit(), TWO_QUBITS)
    purity = float(np.trace(sigma @ sigma))
    even = (purity - 0.5) * 2.0 / 3.0  # ||Z||_2^2 = 2
    return l_rho, l_h, t_swap, even


def test_swap_alternating_depths(swap_setup):
    l_rho, l_h, t_swap, even = swap_setup
    for depth in range(1, 9):
        rep = variance_exact(l_rho, [t_swap] * depth, l_h, 0.0)
        want = even if depth % 2 == 0 else 0.0
        assert abs(rep.value - want) <= 1e-12
        assert rep.method == "exact-finite-L"
        assert rep.diagnostics["layers"] == depth


def test_swap_deep_cesaro(swap_setup):
    l_rho, l_h, t_swap, even = swap_setup
    dec = decompose(t_swap)
    rep = variance_deep(dec, l_rho, l_h)
    assert abs(rep.value - even / 2) <= 1e-12
    assert rep.method == "deep-cesaro"
    assert not rep.converged
    assert rep.residue_values is not None
    assert abs(rep.residue_values[0] - even) <= 1e-12
    assert abs(rep.residue_values[1]) <= 1e-12
    assert rep.diagnostics["period"] == 2


def test_swap_deep_unitary_agrees(swap_setup):
    l_rho, l_h, t_swap, even = swap_setup
    dec = decompose(t_swap)
    rep = variance_deep_unitary(dec, l_rho, l_h)
    assert abs(rep.value - even / 2) <= 1e-12
    assert not rep.converged
    assert rep.diagnostics["absorption_norm"] == 0.0


def test_depth_zero_single_qubit_baseline():
    part = SubsystemPartition.qubits(1)
    l_rho = locality_vector(part, np.diag([1.0, 0.0]))
    l_z = locality_vector(part, np.diag([1.0, -1.0]))
    rep = variance_exact(l_rho, [], l_z, 0.0)
    assert abs(rep.value - 1.0 / 3.0) <= 1e-15


def test_offset_subtraction_uses_observable_trace():
    part = SubsystemPartition.qubits(1)
    l_rho = locality_vector(part, np.diag([1.0, 0.0]))
    # H = Z + I has trace 2; the constant part must not count as variance
    h = np.diag([2.0, 0.0])
    rep = variance_exact(l_rho, [], locality_vector(part, h), trace_h=2.0)
    assert abs(rep.value - 1.0 / 3.0) <= 1e-12


def test_misaligned_unitary_block_mass():
    part = SubsystemPartition.qubits(3)
    u = Unitary(haar(8, np.random.default_rng(7)))
    dec = decompose(ltm_exact(u, part), partition=part)
    sizes = sorted(b.size for b in dec.essential_blocks)
    assert sizes == [1, 7]  # identity class plus one merged traceless block
    l_rho = locality_vector(part, zero_state(3))
    l_h = locality_vector(part, pauli_string(3, "ZXY"))
    rep_u = variance_deep_unitary(dec, l_rho, l_h)
    rep_g = variance_deep(dec, l_rho, l_h)
    assert abs(rep_u.value - 1.0 / 9.0) <= 1e-9
    assert abs(rep_g.value - 1.0 / 9.0) <= 1e-9


def test_variance_exact_validation():
    part = SubsystemPartition.qubits(1)
    l_rho = locality_vector(part, np.diag([1.0, 0.0]))
    l_z = locality_vector(part, np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="share one partition"):
        variance_exact(l_rho, [ltm_exact(swap_circuit(), TWO_QUBITS)], l_z, 0.0)


def test_negative_clamp_and_failure():
    part = SubsystemPartition.qubits(1)
    l_rho = LocalityVector(part, np.array([0.5, 0.5]))
    l_h = LocalityVector(part, np.array([2.0, 0.0]))
    # raw = 1 - (trace/2)^2; tiny negative dust is clamped to zero
    trace = 2.0 * np.sqrt(1.0 + 2.5e-11)
    rep = variance_exact(l_rho, [], l_h, trace)
    assert rep.value == 0.0
    # a genuinely negative result is an error, not a silent clamp
    with pytest.raises(NumericalFailure, match="negative"):
        variance_exact(l_rho, [], l_h, 2.0 * np.sqrt(1.0 + 1e-9))


def test_deep_unitary_rejects_non_stochastic():
    t_mix = noisy_layer_transfer(0.3, ltm_exact(CNOT_CIRCUIT, TWO_QUBITS), ghz_locality(2))
    dec = decompose(t_mix)
    with pytest.raises(ValueError, match="use variance_deep"):
        variance_deep_unitary(dec, ghz_locality(2), ghz_locality(2))


def test_deep_unitary_rejects_transient_classes():
    part = SubsystemPartition.qubits(1)
    entries = np.array([[1.0, 0.5], [0.0, 0.5]])  # stochastic, but leaky
    dec = decompose(LocalityTransferMatrix(part, entries, exact=True),
                    partition=part)
    vec = LocalityVector(part, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="transient"):
        variance_deep_unitary(dec, vec, vec)


# ---------------------------------------------------------------------------
# Replacement-noise model


def _noisy_layer_case(name):
    """(partition, entangler, sigma, l_sigma, unital) of one noisy layer."""
    rng = np.random.default_rng(17)
    if name == "cnot":
        return TWO_QUBITS, CNOT_CIRCUIT, ghz_state(2), ghz_locality(2), True
    if name == "amplitude-damping":
        part, channel, sigma = QUBIT, amplitude_damping(0.3), random_density(2, rng)
    elif name == "kraus-2x2":
        part, channel, sigma = TWO_QUBITS, random_kraus_channel(4, 3, rng), ghz_state(2)
    else:
        part = SubsystemPartition((3, 2))
        channel, sigma = random_kraus_channel(6, 2, rng), random_density(6, rng)
    return part, channel, sigma, locality_vector(part, sigma), False


@pytest.mark.parametrize(
    "case, p",
    [("cnot", 0.3)]
    + [
        (case, p)
        for case in ("amplitude-damping", "kraus-2x2", "kraus-3x2")
        for p in (0.1, 0.5, 1.0)
    ],
)
def test_noisy_layer_transfer_matches_mixture_ltm(case, p):
    part, entangler, sigma, l_sigma, unital = _noisy_layer_case(case)
    t_mix = ltm_exact(MixtureWithReplacement(p, sigma, entangler), part)
    overlap = None
    if not unital:
        e_id = entangler.apply(np.eye(part.total_dim))
        assert np.abs(e_id - np.eye(part.total_dim)).max() > 1e-3
        overlap = (
            locality_vector(part, e_id + sigma).weights
            - locality_vector(part, e_id - sigma).weights
        ) / 4
    t_built = noisy_layer_transfer(p, ltm_exact(entangler, part), l_sigma, overlap)
    assert np.abs(t_built.entries - t_mix.entries).max() <= (1e-14 if unital else 1e-12)
    assert t_built.exact


def test_noisy_layer_transfer_validation():
    t_cnot = ltm_exact(CNOT_CIRCUIT, TWO_QUBITS)
    with pytest.raises(ValueError, match="noise strength"):
        noisy_layer_transfer(1.5, t_cnot, ghz_locality(2))
    with pytest.raises(ValueError, match="match the transfer partition"):
        noisy_layer_transfer(0.3, t_cnot, ghz_locality(3))
    t_mix = noisy_layer_transfer(0.3, t_cnot, ghz_locality(2))
    with pytest.raises(ValueError, match="unitary"):
        noisy_layer_transfer(0.3, t_mix, ghz_locality(2))


def test_noise_model_full_replacement():
    # p = 1 swaps the state every layer, leaving the fixed-point overlap
    t_cnot = ltm_exact(CNOT_CIRCUIT, TWO_QUBITS)
    l_sig = ghz_locality(2)
    l_h = locality_vector(TWO_QUBITS, pauli_string(2, "ZZ"))
    rep = noise_model_deep(1.0, t_cnot, l_sig, l_h)
    assert abs(rep.value - weighted_dot(l_sig, l_h)) <= 1e-12
    assert rep.method == "noise-model"


def test_noise_model_identity_transfer_geometric():
    t_id = LocalityTransferMatrix(TWO_QUBITS, np.eye(4), exact=True)
    l_sig = ghz_locality(2)
    l_h = locality_vector(TWO_QUBITS, pauli_string(2, "ZZ"))
    base = weighted_dot(l_sig, l_h)
    for p in (0.05, 0.3, 0.9):
        rep = noise_model_deep(p, t_id, l_sig, l_h)
        want = p * p / (1.0 - (1.0 - p) ** 2) * base
        assert abs(rep.value - want) <= 1e-12


def test_noise_model_projection_closed_form():
    # rank-one transfer on the traceless sector: T_sub is a projection, so the
    # resolvent collapses to a two-term closed form
    dims = TWO_QUBITS.block_dims()
    w = dims[1:] / (TWO_QUBITS.total_dim**2 - 1)
    entries = np.zeros((4, 4))
    entries[0, 0] = 1.0
    entries[1:, 1:] = np.outer(w, np.ones(3))
    t_proj = LocalityTransferMatrix(TWO_QUBITS, entries, exact=True)
    t_sub = entries[1:, 1:]
    assert np.abs(t_sub @ t_sub - t_sub).max() < 1e-14
    l_sig = ghz_locality(2)
    l_h = locality_vector(TWO_QUBITS, pauli_string(2, "ZZ"))
    sig, h = l_sig.weights[1:], l_h.weights[1:]
    dot = lambda a, b: float(np.sum(a * b / dims[1:]))
    for p in (0.1, 0.5, 0.77):
        rep = noise_model_deep(p, t_proj, l_sig, l_h)
        closed = (p / (2.0 - p) - p * p) * dot(sig, t_sub @ h) + p * p * dot(sig, h)
        assert abs(rep.value - closed) <= 1e-12


def test_noise_model_rejects_zero_noise():
    t_cnot = ltm_exact(CNOT_CIRCUIT, TWO_QUBITS)
    l_sig = ghz_locality(2)
    with pytest.raises(ValueError, match="never converges"):
        noise_model_deep(0.0, t_cnot, l_sig, l_sig)


def _series_case(family, n):
    circuit = cnot_double_cascade(n) if family == "cnot" else crx_cascade(n)
    partition = SubsystemPartition.qubits(n)
    return (
        ltm_exact(circuit, partition),
        ghz_locality(n),
        zero_state_locality(n),
        zz_chain_locality(n, 9.0 / n),
    )


SERIES_PS = (0.05, 0.3, 0.77, 1.0)


def _resolvent_value(transfer, l_sig, l_h, p):
    # p^2 (l_sigma, (1 - (1-p)^2 T)^{-1} l_H) over the traceless classes
    t_sub = transfer.entries[1:, 1:]
    dims = transfer.partition.block_dims()[1:]
    solved = np.linalg.solve(np.eye(len(dims)) - (1.0 - p) ** 2 * t_sub, l_h.weights[1:])
    return p * p * float(np.sum(l_sig.weights[1:] * solved / dims))


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("family", ["cnot", "crx"])
def test_noise_model_matches_resolvent_solve(family, n):
    transfer, l_sig, _, l_h = _series_case(family, n)
    for p in SERIES_PS:
        rep = noise_model_deep(p, transfer, l_sig, l_h)
        want = _resolvent_value(transfer, l_sig, l_h, p)
        assert rep.value == pytest.approx(want, rel=1e-12, abs=0.0)
        assert rep.diagnostics["tail_bound"] <= 1e-15 * rep.value


def test_noise_model_reads_only_the_traceless_block():
    # a column-stochastic T with flow into and out of the trivial class
    part = SubsystemPartition.qubits(3)
    entries = np.random.default_rng(3).random((8, 8))
    transfer = LocalityTransferMatrix(part, entries / entries.sum(axis=0), exact=False)
    l_sig = ghz_locality(3)
    l_h = zz_chain_locality(3, 1.0)
    for p in SERIES_PS:
        want = _resolvent_value(transfer, l_sig, l_h, p)
        got = noise_model_deep(p, transfer, l_sig, l_h).value
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("family", ["cnot", "crx"])
def test_noise_series_layered_matches_layer_products(family):
    transfer, l_sig, l_rho, l_h = _series_case(family, 6)
    series = noise_series(transfer, l_sig, l_rho, l_h, min(SERIES_PS), depth=20)
    for p in SERIES_PS:
        layer = noisy_layer_transfer(p, transfer, l_sig)
        for depth in (1, 8, 20):
            want = variance_exact(l_rho, [layer] * depth, l_h, 0.0).value
            assert series.layered(p, depth) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("family", ["cnot", "crx"])
def test_noise_series_tail_bound_covers_the_cut_terms(family):
    transfer, l_sig, l_rho, l_h = _series_case(family, 6)
    for p in SERIES_PS:
        series = noise_series(transfer, l_sig, l_rho, l_h, p)
        terms = series.terms
        longer = noise_series(transfer, l_sig, l_rho, l_h, p, depth=2 * terms - 1)
        assert longer.terms == 2 * terms
        assert np.array_equal(longer.s_sigma[:terms], series.s_sigma)
        # value(2J) - value(J), summed term by term so rounding cannot hide it
        damped = (1.0 - p) ** (2 * np.arange(terms, 2 * terms))
        cut = p * p * float(damped @ longer.s_sigma[terms:])
        assert abs(cut) <= series.tail_bound(p)
        # the same through deep(), up to the rounding of the two sums
        rounding = 1e-15 * series.deep(p)
        assert abs(longer.deep(p) - series.deep(p)) <= series.tail_bound(p) + rounding


# ---------------------------------------------------------------------------
# Lower bound


def test_lower_bound_tight_for_identity_layers(swap_setup):
    l_rho, l_h, _, _ = swap_setup
    t_id = LocalityTransferMatrix(TWO_QUBITS, np.eye(4), exact=True)
    exact = variance_exact(l_rho, [t_id] * 3, l_h, 0.0)
    bound, alpha = lower_bound(l_rho, [t_id] * 3, l_h, range(4))
    assert abs(bound - exact.value) <= 1e-12
    assert alpha == pytest.approx(1.0)


def test_lower_bound_vanishing_diagonal(swap_setup):
    l_rho, l_h, t_swap, _ = swap_setup
    # the swap moves class "01" entirely to "10": zero diagonal, zero bound
    bound, alpha = lower_bound(l_rho, [t_swap], l_h, ["01"])
    assert bound == 0.0 and alpha == 0.0


def test_lower_bound_sound_on_random_unitaries():
    rng = np.random.default_rng(19)
    for _ in range(50):
        ltms = [ltm_exact(Unitary(haar(4, rng)), TWO_QUBITS) for _ in range(2)]
        l_rho = locality_vector(TWO_QUBITS, random_pure_state(4, rng))
        l_h = locality_vector(TWO_QUBITS, random_traceless_hermitian(4, rng))
        bound, _ = lower_bound(l_rho, ltms, l_h, [1, 2, 3])
        exact = variance_exact(l_rho, ltms, l_h, 0.0).value
        assert bound <= exact + 1e-9


def test_lower_bound_accepts_string_masks_and_dedups(swap_setup):
    l_rho, l_h, t_swap, _ = swap_setup
    a = lower_bound(l_rho, [t_swap] * 2, l_h, ["01", "10", 1, 2])
    b = lower_bound(l_rho, [t_swap] * 2, l_h, [1, 2])
    assert a == b


def test_lower_bound_validation(swap_setup):
    l_rho, l_h, t_swap, _ = swap_setup
    with pytest.raises(ValueError, match="at least one layer"):
        lower_bound(l_rho, [], l_h, [1])
    with pytest.raises(ValueError, match="at least one retained"):
        lower_bound(l_rho, [t_swap], l_h, [])
    with pytest.raises(ValueError, match="outside the partition"):
        lower_bound(l_rho, [t_swap], l_h, [4])


# ---------------------------------------------------------------------------
# Scaling diagnostic


def test_scaling_flat_alpha_is_polynomial():
    diag = check_polynomial_scaling([(n, 5, 1.0) for n in (4, 8, 16, 32)])
    assert diag.polynomially_bounded
    assert abs(diag.exponent) < 1e-9
    assert diag.alpha_floor == 1.0


def test_scaling_log_depth_profile_is_polynomial():
    ns = (4.0, 8.0, 16.0, 32.0, 64.0)
    samples = [(n, np.log(n) ** 2, 1 - 1 / np.log(n)) for n in ns]
    diag = check_polynomial_scaling(samples)
    assert diag.polynomially_bounded
    assert abs(diag.exponent - 1.0) < 0.25


def test_scaling_linear_depth_fixed_alpha_is_exponential():
    samples = [(n, n, 0.5) for n in (4.0, 8.0, 16.0, 32.0, 64.0)]
    diag = check_polynomial_scaling(samples)
    assert not diag.polynomially_bounded
    assert diag.rss_exponential < diag.rss_power


def test_scaling_validation():
    with pytest.raises(ValueError, match="at least three"):
        check_polynomial_scaling([(4, 1, 0.5), (8, 1, 0.5)])
    with pytest.raises(ValueError, match="must satisfy"):
        check_polynomial_scaling([(4, 1, 0.5), (8, 1, 1.5), (16, 1, 0.5)])
    with pytest.raises(ValueError, match="must satisfy"):
        check_polynomial_scaling([(1, 1, 0.5), (8, 1, 0.5), (16, 1, 0.5)])
