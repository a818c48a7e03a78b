"""Canonical decomposition, Perron data, deep limits, absorption."""

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from conftest import haar

from ltmlab import spectral
from ltmlab import (
    CNOT,
    CircuitUnitary,
    Composition,
    Gate,
    LocalityTransferMatrix,
    NumericalFailure,
    SubsystemPartition,
    TensorProductChannel,
    Unitary,
    absorption,
    cnot_double_cascade,
    decompose,
    deep_limit_matrix,
    depolarizing,
    ghz_locality,
    ltm_exact,
    ltm_sampled,
    noise_model_deep,
    noisy_layer_transfer,
    period_of,
    perron,
    swap_circuit,
    variance_deep,
    zero_state_locality,
    zz_chain_locality,
)

TWO_QUBITS = SubsystemPartition.qubits(2)
CNOT_CIRCUIT = CircuitUnitary(2, (Gate("cnot", (0, 1), CNOT),))


def test_swap_decomposition_structure():
    dec = decompose(ltm_exact(swap_circuit(), TWO_QUBITS))
    by_indices = {b.indices: b for b in dec.blocks}
    assert set(by_indices) == {(0,), (1, 2), (3,)}
    assert all(b.essential for b in dec.blocks)
    assert all(b.unit_radius for b in dec.blocks)
    cross = by_indices[(1, 2)]
    assert cross.period == 2
    assert np.abs(cross.left_vector - 1.0).max() < 1e-12
    assert np.abs(cross.right_vector - 0.5).max() < 1e-12
    assert cross.weighted_size == 6.0  # two size-3 traceless classes
    assert by_indices[(3,)].weighted_size == 9.0
    # no inessential part at all
    assert dec.contractive_part.shape == (0, 0)
    assert dec.coupling.shape == (4, 0)
    assert dec.contractive_radius == 0.0


def test_period_oracles():
    three_cycle = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    assert period_of(three_cycle) == 3
    assert period_of(np.array([[1.0]])) == 1
    assert period_of(np.array([[0.0, 1.0], [1.0, 0.0]])) == 2
    assert period_of(np.full((2, 2), 0.5)) == 1


def test_perron_matches_dense_eigensolve():
    rng = np.random.default_rng(50)
    m = rng.uniform(0.1, 1.0, size=(6, 6))
    radius, left, right = perron(m)
    vals = np.linalg.eigvals(m)
    assert radius == pytest.approx(np.abs(vals).max(), abs=1e-10)
    assert np.abs(left @ m - radius * left).max() < 1e-9
    assert np.abs(m @ right - radius * right).max() < 1e-9
    assert left.max() == pytest.approx(1.0)
    assert left @ right == pytest.approx(1.0)
    assert left.min() > 0 and right.min() > 0


def test_perron_power_iteration_path():
    # above the dense cutoff ARPACK takes over
    rng = np.random.default_rng(51)
    m = rng.uniform(0.01, 1.0, size=(80, 80))
    radius, left, right = perron(m)
    assert radius == pytest.approx(np.abs(np.linalg.eigvals(m)).max(), abs=1e-8)
    assert np.abs(m @ right - radius * right).max() < 1e-8


def _cyclic_block(rng, period, class_size):
    # flow only from cyclic class c to class c + 1 (mod period)
    n = period * class_size
    m = np.zeros((n, n))
    for c in range(period):
        rows = slice(((c + 1) % period) * class_size, ((c + 1) % period + 1) * class_size)
        cols = slice(c * class_size, (c + 1) * class_size)
        m[rows, cols] = rng.uniform(0.1, 1.0, size=(class_size, class_size))
    return m


@pytest.mark.parametrize("period", [2, 3, 5])
def test_perron_sparse_path_periodic_blocks(period):
    m = _cyclic_block(np.random.default_rng(60 + period), period, 40)
    assert m.shape[0] > spectral.DENSE_EIG_LIMIT
    assert period_of(m) == period
    radius, left, right = perron(m)
    assert radius == pytest.approx(np.abs(np.linalg.eigvals(m)).max(), abs=1e-10)
    scale = np.abs(m).sum(axis=1).max()
    tol = spectral.PERRON_RESIDUAL_TOL * scale
    assert np.abs(m @ right - radius * right).max() <= tol * np.abs(right).max()
    assert np.abs(left @ m - radius * left).max() <= tol * np.abs(left).max()
    assert left.min() > 0 and right.min() > 0


def test_perron_arpack_failure_is_numerical_failure(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((80, 0)))

    monkeypatch.setattr(spectral, "eigs", no_convergence)
    m = np.random.default_rng(61).uniform(0.01, 1.0, size=(80, 80))
    with pytest.raises(NumericalFailure, match="ARPACK did not converge"):
        perron(m)


def _irreducible(rng, size, radius):
    # sparse random support plus a cycle through every index
    m = rng.uniform(0.1, 1.0, size=(size, size)) * (rng.random((size, size)) < 0.1)
    m[np.roll(np.arange(size), 1), np.arange(size)] += rng.uniform(0.1, 1.0, size=size)
    return m * (radius / np.abs(np.linalg.eigvals(m)).max())


@pytest.mark.parametrize("radii", [(0.4, 0.8), (0.8, 0.4)])
def test_contractive_radius_is_largest_inessential_perron_root(radii):
    # essential 4-class block fed by a 100-class and a 20-class transient
    # block and by a lone transient class without a self-loop
    rng = np.random.default_rng(62)
    sizes = (4, 100, 20, 1)
    n = sum(sizes)
    starts = np.cumsum((0,) + sizes)
    blocks = [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]
    m = np.zeros((n, n))
    m[blocks[0], blocks[0]] = _irreducible(rng, 4, 1.0)
    m[blocks[1], blocks[1]] = _irreducible(rng, 100, radii[0])
    m[blocks[2], blocks[2]] = _irreducible(rng, 20, radii[1])
    # flow big block -> small block -> lone class -> essential block
    m[blocks[2], blocks[1]] = 0.05 * (rng.random((20, 100)) < 0.05)
    m[blocks[2].start, blocks[1].start] = 0.05
    m[blocks[3], blocks[2]] = 0.05
    m[blocks[0], blocks[3]] = 0.3
    perm = rng.permutation(n)
    m = m[np.ix_(perm, perm)]
    dec = decompose(m)
    inessential = [b for b in dec.blocks if not b.essential]
    assert sorted(b.size for b in inessential) == [1, 20, 100]
    assert max(b.size for b in inessential) > spectral.DENSE_EIG_LIMIT
    want = np.abs(np.linalg.eigvals(dec.contractive_part)).max()
    assert dec.contractive_radius == pytest.approx(want, abs=1e-12)
    assert dec.contractive_radius == pytest.approx(max(radii), abs=1e-12)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_large_register_deep_limit_matches_noise_model(p):
    # at n = 8 the transient block has 225 classes, above the dense cutoff
    n = 8
    t_unitary = ltm_exact(cnot_double_cascade(n), SubsystemPartition.qubits(n))
    l_sigma = ghz_locality(n)
    l_h = zz_chain_locality(n, 9.0 / n)
    dec = decompose(noisy_layer_transfer(p, t_unitary, l_sigma))
    assert max(b.size for b in dec.blocks) > spectral.DENSE_EIG_LIMIT
    got = variance_deep(dec, zero_state_locality(n), l_h).value
    want = noise_model_deep(p, t_unitary, l_sigma, l_h).value
    assert got == pytest.approx(want, rel=1e-9)


def test_unital_composition_keeps_everything_essential():
    noise = TensorProductChannel(TWO_QUBITS, (depolarizing(0.2), depolarizing(0.2)))
    dec = decompose(ltm_exact(Composition((CNOT_CIRCUIT, noise)), TWO_QUBITS))
    by_indices = {b.indices: b for b in dec.blocks}
    assert set(by_indices) == {(0,), (1, 2, 3)}
    assert all(b.essential for b in dec.blocks)
    assert by_indices[(0,)].radius == pytest.approx(1.0)
    assert by_indices[(1, 2, 3)].radius < 1 - 1e-6
    assert dec.contractive_radius == 0.0  # empty inessential part


def test_unitary_block_perron_vectors_are_dimension_weighted():
    # for unitary transfer the unit blocks carry flat left vectors and
    # right vectors proportional to the class dimensions
    rng = np.random.default_rng(52)
    part = SubsystemPartition.qubits(2)
    dims = part.block_dims()
    dec = decompose(ltm_exact(Unitary(haar(4, rng)), part), partition=part)
    for b in dec.blocks:
        assert b.essential and b.unit_radius
        assert np.abs(b.left_vector - 1.0).max() < 1e-8
        idx = list(b.indices)
        want = dims[idx] / dims[idx].sum()
        assert np.abs(b.right_vector - want).max() < 1e-8
        assert b.weighted_size == pytest.approx(dims[idx].sum())


def test_replacement_mixture_absorption_identities():
    p = 0.3
    t_unitary = ltm_exact(CNOT_CIRCUIT, TWO_QUBITS)
    t_c = noisy_layer_transfer(p, t_unitary, ghz_locality(2))
    dec = decompose(t_c)
    assert dec.essential_indices == (0,)
    assert dec.inessential_indices == (1, 2, 3)
    q = dec.contractive_part
    assert np.abs(q - (1 - p) ** 2 * t_unitary.entries[1:, 1:]).max() < 1e-14
    ab = absorption(dec)
    resolvent = dec.coupling @ np.linalg.inv(np.eye(3) - q)
    assert np.abs(ab - resolvent).max() < 1e-12
    deep_power = np.linalg.matrix_power(t_c.entries, 200)
    assert np.abs(ab - deep_power[:1, 1:]).max() < 1e-12


def test_deep_limit_periodic_with_transient_matches_powers():
    # 2-cycle on {0, 1} fed by a leaking transient state 2
    t = np.array(
        [
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.3],
            [0.0, 0.0, 0.5],
        ]
    )
    dec = decompose(t)
    limit = deep_limit_matrix(dec)
    assert limit.period == 2
    assert not limit.converged
    big = 400
    for m in range(2):
        power = np.linalg.matrix_power(t, big + m)
        assert np.abs(limit.residues[m] - power).max() < 1e-12
    avg = (np.linalg.matrix_power(t, big) + np.linalg.matrix_power(t, big + 1)) / 2
    assert np.abs(limit.cesaro - avg).max() < 1e-12


def test_swap_cesaro_matches_running_average():
    t = ltm_exact(swap_circuit(), TWO_QUBITS)
    dec = decompose(t)
    limit = deep_limit_matrix(dec)
    assert limit.period == 2 and not limit.converged
    acc = np.zeros((4, 4))
    power = np.eye(4)
    n_terms = 200
    for _ in range(n_terms):
        power = t.entries @ power
        acc += power
    assert np.abs(acc / n_terms - limit.cesaro).max() < 0.02


def test_deep_limit_rejects_non_contractive_transient():
    t = np.array([[1.0, 0.5], [0.0, 1.0]])
    dec = decompose(t)
    assert dec.inessential_indices == (1,)
    with pytest.raises(NumericalFailure, match="not strictly contractive"):
        deep_limit_matrix(dec)


def test_decompose_input_validation():
    with pytest.raises(ValueError, match="square"):
        decompose(np.ones((2, 3)))
    with pytest.raises(ValueError, match="negative"):
        decompose(np.array([[0.5, -0.2], [0.1, 0.4]]))


def test_sampled_radius_near_one_warns():
    part = SubsystemPartition.qubits(1)
    entries = np.array([[1.0, 0.0], [0.0, 0.995]])
    errors = np.full((2, 2), 0.01)
    t = LocalityTransferMatrix(
        part, entries, adjoint=True, exact=False,
        standard_errors=errors, samples_per_block=8,
    )
    with pytest.warns(UserWarning, match="within sampling error"):
        decompose(t)


def test_sampled_ltm_pipes_through_decompose_cleanly():
    t = ltm_sampled(swap_circuit(), TWO_QUBITS, samples_per_block=8, seed=2)
    dec = decompose(t)  # exact sampling, no warning expected
    assert {b.indices for b in dec.blocks} == {(0,), (1, 2), (3,)}


def test_absorption_empty_when_no_transient():
    dec = decompose(ltm_exact(swap_circuit(), TWO_QUBITS))
    assert absorption(dec).shape == (4, 0)
