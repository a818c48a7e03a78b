import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_traceless_hermitian
from ltmlab.partitions import (
    LocalityVector,
    SubsystemPartition,
    block_multi_indices,
    local_basis,
    locality_vector,
    locality_vectors,
    stack_basis,
    weighted_dot,
)

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_local_basis_is_orthonormal_and_hermitian(dim):
    basis = local_basis(dim)
    assert basis.shape == (dim * dim, dim, dim)
    gram = np.einsum("aij,bij->ab", basis.conj(), basis)
    assert np.abs(gram - np.eye(dim * dim)).max() < 1e-12
    assert np.abs(basis - basis.conj().transpose(0, 2, 1)).max() < 1e-12
    # first element is the normalized identity, the rest are traceless
    assert np.abs(basis[0] - np.eye(dim) / np.sqrt(dim)).max() < 1e-15
    traces = np.einsum("aii->a", basis[1:])
    assert np.abs(traces).max() < 1e-12


def test_qubit_basis_is_the_normalized_pauli_basis():
    basis = local_basis(2)
    for k, name in enumerate("XYZ"):
        assert np.abs(basis[k + 1] - PAULI[name] / np.sqrt(2)).max() < 1e-15


def test_partition_block_dimensions():
    part = SubsystemPartition((2, 3))
    assert part.total_dim == 6
    assert part.num_masks == 4
    dims = part.block_dims()
    assert dims.tolist() == [1, 3, 8, 24]
    assert dims.sum() == part.total_dim**2
    assert part.block_dim(0b11) == 24


def test_partition_rejects_trivial_subsystems():
    with pytest.raises(ValueError):
        SubsystemPartition((2, 1))


def test_mask_string_round_trip():
    part = SubsystemPartition.qubits(3)
    # character position m corresponds to subsystem m
    assert part.mask_from_string("100") == 1
    assert part.mask_from_string("001") == 4
    assert part.mask_to_string(5) == "101"
    for mask in range(part.num_masks):
        assert part.mask_from_string(part.mask_to_string(mask)) == mask
    assert part.mask_from_support([0, 2]) == 5
    with pytest.raises(ValueError):
        part.mask_from_string("10")


def test_single_qubit_locality_oracles():
    part = SubsystemPartition.qubits(1)
    l_zero = locality_vector(part, np.diag([1.0, 0.0]))
    assert np.allclose(l_zero.weights, [0.5, 0.5])
    l_z = locality_vector(part, PAULI["Z"])
    assert np.allclose(l_z.weights, [0.0, 2.0])


def test_two_qubit_locality_of_z_tensor_identity():
    part = SubsystemPartition.qubits(2)
    vec = locality_vector(part, np.kron(PAULI["Z"], np.eye(2)))
    # support on subsystem 0 only: bitmask 1, full squared HS mass 4
    assert np.allclose(vec.weights, [0.0, 4.0, 0.0, 0.0])
    assert vec["10"] == pytest.approx(4.0)
    assert vec[1] == pytest.approx(4.0)


def test_product_states_factorize():
    part = SubsystemPartition.qubits(2)
    rho_a = np.diag([0.9, 0.1])
    rho_b = np.diag([0.6, 0.4])
    vec = locality_vector(part, np.kron(rho_a, rho_b)).weights
    fa = np.array([0.5, np.trace(rho_a @ rho_a).real - 0.5])
    fb = np.array([0.5, np.trace(rho_b @ rho_b).real - 0.5])
    expected = np.array(
        [fa[0] * fb[0], fa[1] * fb[0], fa[0] * fb[1], fa[1] * fb[1]]
    )
    assert np.abs(vec - expected).max() < 1e-14


@settings(max_examples=30, deadline=None)
@given(
    dims=st.sampled_from([(2,), (3,), (2, 2), (2, 3), (2, 2, 2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_total_locality_mass_is_squared_hs_norm(dims, seed):
    part = SubsystemPartition(dims)
    rng = np.random.default_rng(seed)
    d = part.total_dim
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    vec = locality_vector(part, a)
    assert vec.total == pytest.approx(np.sum(np.abs(a) ** 2), rel=1e-12)
    assert vec.weights.min() >= 0


def test_locality_vectors_batch_matches_single():
    part = SubsystemPartition((2, 3))
    rng = np.random.default_rng(5)
    ops = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    batch = locality_vectors(part, ops)
    assert batch.shape == (4, 4)
    for k in range(4):
        single = locality_vector(part, ops[k])
        assert np.abs(batch[k] - single.weights).max() < 1e-12


def test_weighted_dot_divides_by_block_dimension():
    part = SubsystemPartition.qubits(2)
    a = np.array([1.0, 3.0, 6.0, 9.0])
    b = np.array([2.0, 1.0, 1.0, 1.0])
    # block dims are 1, 3, 3, 9
    want = 1 * 2 / 1 + 3 * 1 / 3 + 6 * 1 / 3 + 9 * 1 / 9
    assert weighted_dot(a, b, part) == pytest.approx(want)
    va = LocalityVector(part, a)
    vb = LocalityVector(part, b)
    assert weighted_dot(va, vb) == pytest.approx(want)


def test_weighted_dot_requires_a_partition_somewhere():
    with pytest.raises(ValueError):
        weighted_dot(np.ones(4), np.ones(4))


def test_weighted_dot_rejects_mismatched_partitions():
    a = LocalityVector(SubsystemPartition.qubits(2), np.ones(4))
    b = LocalityVector(SubsystemPartition((2, 3)), np.ones(4))
    with pytest.raises(ValueError):
        weighted_dot(a, b)


def test_restricted_keeps_only_requested_masks():
    part = SubsystemPartition.qubits(2)
    vec = LocalityVector(part, np.array([1.0, 2.0, 3.0, 4.0]))
    cut = vec.restricted([1, "01"])
    assert np.allclose(cut.weights, [0.0, 2.0, 3.0, 0.0])


def test_enumerate_basis_matches_stacked_blocks():
    part = SubsystemPartition((2, 3))
    mask = 0b11
    multi = block_multi_indices(part, mask)
    assert len(multi) == part.block_dim(mask)
    stacked = stack_basis(part, multi)
    for k, (i, j) in enumerate(multi):
        reference = np.kron(local_basis(2)[i], local_basis(3)[j])
        assert np.abs(stacked[k] - reference).max() < 1e-14
        assert (int(i != 0) | int(j != 0) << 1) == mask


def test_locality_vector_of_hermitian_input_is_real_and_complete():
    part = SubsystemPartition.qubits(2)
    rng = np.random.default_rng(11)
    h = random_traceless_hermitian(4, rng)
    vec = locality_vector(part, h)
    assert vec.weights[0] == pytest.approx(0.0, abs=1e-14)
    assert vec.total == pytest.approx(np.sum(np.abs(h) ** 2), rel=1e-12)
