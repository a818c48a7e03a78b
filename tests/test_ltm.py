"""Locality transfer matrices: exact paths and sampling."""

import numpy as np
import pytest

from conftest import Forward, haar, locally_rotated, random_kraus_channel

from ltmlab import (
    CNOT,
    CircuitUnitary,
    Conjugation,
    Gate,
    LocalityTransferMatrix,
    SubsystemPartition,
    Unitary,
    amplitude_damping,
    cnot_double_cascade,
    crx_cascade,
    cz_cascade,
    decompose,
    depolarizing,
    ltm_exact,
    ltm_sampled,
    mean_ltm_over_ensemble,
    pauli_string_locality,
    swap_circuit,
    variance_deep,
    zero_state_locality,
)

QUBIT = SubsystemPartition.qubits(1)
TWO_QUBITS = SubsystemPartition.qubits(2)


def test_swap_ltm_is_class_permutation():
    t = ltm_exact(swap_circuit(), TWO_QUBITS)
    want = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.abs(t.entries - want).max() < 1e-12
    assert t.exact


def test_cnot_ltm_entries():
    cnot = CircuitUnitary(2, (Gate("cnot", (0, 1), CNOT),))
    t = ltm_exact(cnot, TWO_QUBITS)
    want = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1 / 3, 0.0, 2 / 9],
            [0.0, 0.0, 1 / 3, 2 / 9],
            [0.0, 2 / 3, 2 / 3, 5 / 9],
        ]
    )
    assert np.abs(t.entries - want).max() < 1e-12
    assert np.abs(t.entries.sum(axis=0) - 1.0).max() < 1e-12


def test_amplitude_damping_ltm_closed_form():
    gamma = 0.37
    t = ltm_exact(amplitude_damping(gamma), QUBIT)
    want = np.array(
        [
            [1.0, gamma**2 / 3],
            [0.0, (2 * (1 - gamma) + (1 - gamma) ** 2) / 3],
        ]
    )
    assert np.abs(t.entries - want).max() < 1e-12


def test_unitary_columns_are_stochastic():
    rng = np.random.default_rng(40)
    for ch in (crx_cascade(3, 0.7), cz_cascade(3), Unitary(haar(8, rng))):
        t = ltm_exact(ch, SubsystemPartition.qubits(3))
        assert np.abs(t.entries.sum(axis=0) - 1.0).max() < 1e-10


def _upward(gate: Gate, n: int) -> CircuitUnitary:
    """A cascade of one gate on the pairs (k + 1, k), the reverse qubit order."""
    return CircuitUnitary(n, tuple(Gate(gate.name, (k + 1, k), gate.matrix) for k in range(n - 1)))


CIRCUITS = {
    "crx": crx_cascade,
    "crx-0.9-up": lambda n: _upward(crx_cascade(2, 0.9).gates[0], n),
    "cnot": cnot_double_cascade,
    "cz": cz_cascade,
    "swap-up": lambda n: _upward(swap_circuit().gates[0], n),
}


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in CIRCUITS for n in range(2, 7)] + [("cnot", 8), ("cnot", 10)],
)
def test_circuit_ltm_matches_dense(name, n):
    part = SubsystemPartition.qubits(n)
    circ = CIRCUITS[name](n)
    mpo = ltm_exact(circ, part)
    assert mpo.entries.min() >= 0
    assert np.abs(mpo.entries.sum(axis=0) - 1.0).max() < 1e-12
    if name == "cnot":
        # a Clifford circuit maps Pauli strings onto Pauli strings, so every
        # entry is a whole count over its column's block dimension
        dims = part.block_dims()[None, :]
        counts = np.round(mpo.entries * dims)
        assert np.abs(mpo.entries - counts / dims).max() < 1e-12
    if n > 6:
        return  # beyond the reach of the dense reference
    # a plain unitary takes the dense enumeration path
    dense = ltm_exact(Unitary(circ.matrix()), part)
    assert np.abs(mpo.entries - dense.entries).max() < 1e-12
    fast, slow = decompose(mpo), decompose(dense)
    for attr in ("indices", "period", "essential"):
        assert [getattr(b, attr) for b in fast.blocks] == [getattr(b, attr) for b in slow.blocks]
    l_rho, l_h = zero_state_locality(n), pauli_string_locality(n, "Z" * n)
    want = variance_deep(slow, l_rho, l_h).value
    assert abs(variance_deep(fast, l_rho, l_h).value - want) < 1e-12


def test_circuit_ltm_on_grouped_qubits_matches_unitary():
    part = SubsystemPartition((4, 2))
    circ = cnot_double_cascade(3)
    grouped = ltm_exact(circ, part)
    dense = ltm_exact(Unitary(circ.matrix()), part)
    assert np.abs(grouped.entries - dense.entries).max() < 1e-10


def test_adjoint_forward_duality():
    rng = np.random.default_rng(41)
    for ch in (random_kraus_channel(4, 3, rng), amplitude_damping(0.3)):
        part = TWO_QUBITS if ch.dim == 4 else QUBIT
        dv = part.block_dims()
        fwd = ltm_exact(Forward(ch), part).entries
        adj = ltm_exact(ch, part).entries
        # T(adjoint)[k, l] = (d_k / d_l) T(forward)[l, k]
        assert np.abs(adj - dv[:, None] * fwd.T / dv[None, :]).max() < 1e-8


def test_ltm_invariant_under_local_basis_rotation():
    rng = np.random.default_rng(42)
    ch = random_kraus_channel(4, 3, rng)
    plain = ltm_exact(ch, TWO_QUBITS)
    rotated = ltm_exact(
        locally_rotated(ch, [haar(2, rng), haar(2, rng)]), TWO_QUBITS
    )
    assert np.abs(plain.entries - rotated.entries).max() < 1e-9


def test_dense_path_refuses_large_dimension():
    part = SubsystemPartition.qubits(8)
    with pytest.raises(ValueError, match="refuses dimension"):
        ltm_exact(Unitary(crx_cascade(8).matrix()), part)
    # the same circuit given by its gates takes the MPO path
    t = ltm_exact(crx_cascade(8), part)
    assert np.abs(t.entries.sum(axis=0) - 1.0).max() < 1e-10


def test_sampled_ltm_exact_for_swap():
    # every basis element of a class lands in exactly one class, so the
    # stratified mean is exact with zero spread
    t = ltm_sampled(swap_circuit(), TWO_QUBITS, samples_per_block=16, seed=3)
    exact = ltm_exact(swap_circuit(), TWO_QUBITS)
    assert np.abs(t.entries - exact.entries).max() < 1e-12
    assert t.standard_errors.max() < 1e-12
    assert not t.exact
    assert t.samples_per_block == 16


def test_sampled_ltm_deterministic_and_calibrated():
    ch = random_kraus_channel(4, 2, np.random.default_rng(43))
    a = ltm_sampled(ch, TWO_QUBITS, samples_per_block=64, seed=9)
    b = ltm_sampled(ch, TWO_QUBITS, samples_per_block=64, seed=9)
    assert np.array_equal(a.entries, b.entries)
    assert np.array_equal(a.standard_errors, b.standard_errors)
    exact = ltm_exact(ch, TWO_QUBITS)
    gap = np.abs(a.entries - exact.entries)
    assert (gap <= 5 * a.standard_errors + 1e-12).all()


def test_sampled_ltm_needs_two_samples():
    with pytest.raises(ValueError, match="two samples"):
        ltm_sampled(swap_circuit(), TWO_QUBITS, samples_per_block=1, seed=0)


def test_entry_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        LocalityTransferMatrix(TWO_QUBITS, np.eye(3), exact=True)
    with pytest.raises(ValueError, match="standard errors"):
        LocalityTransferMatrix(
            TWO_QUBITS, np.eye(4), exact=True,
            standard_errors=np.zeros((2, 2)),
        )


def test_ensemble_weight_validation():
    u = Unitary(np.eye(4))
    with pytest.raises(ValueError, match="empty"):
        mean_ltm_over_ensemble([], TWO_QUBITS)
    with pytest.raises(ValueError, match="non-negative"):
        mean_ltm_over_ensemble([(-0.5, u), (1.5, u)], TWO_QUBITS)
    with pytest.raises(ValueError, match="sum to"):
        mean_ltm_over_ensemble([(0.4, u), (0.4, u)], TWO_QUBITS)


def test_singleton_ensemble_matches_exact():
    u = Unitary(haar(4, np.random.default_rng(44)))
    mean = mean_ltm_over_ensemble([(1.0, u)], TWO_QUBITS)
    assert np.abs(mean.entries - ltm_exact(u, TWO_QUBITS).entries).max() < 1e-10


def test_unravelling_mean_dominates_channel_ltm():
    rng = np.random.default_rng(45)
    for _ in range(3):
        ch = random_kraus_channel(4, 3, rng)
        norms = np.array([np.sum(np.abs(k) ** 2) for k in ch.operators])
        probs = norms / norms.sum()
        members = [
            (q, Conjugation(k / np.sqrt(q)))
            for q, k in zip(probs, ch.operators)
        ]
        mean = mean_ltm_over_ensemble(members, TWO_QUBITS)
        exact = ltm_exact(ch, TWO_QUBITS)
        assert (mean.entries - exact.entries).min() > -1e-9


def test_depolarizing_ltm_damps_uniformly():
    p = 0.25
    t = ltm_exact(depolarizing(p), QUBIT)
    want = np.array([[1.0, 0.0], [0.0, (1 - p) ** 2]])
    assert np.abs(t.entries - want).max() < 1e-12
