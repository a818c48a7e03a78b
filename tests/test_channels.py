"""Channel algebra: adjoints, tensor products, builders."""

import numpy as np
import pytest
import scipy.linalg

from conftest import haar, random_density, random_kraus_channel

from ltmlab import (
    CNOT,
    CircuitUnitary,
    Composition,
    Conjugation,
    Gate,
    KrausChannel,
    MixtureWithReplacement,
    SubsystemPartition,
    TensorProductChannel,
    Unitary,
    amplitude_damping,
    cnot_double_cascade,
    crx_cascade,
    cz_cascade,
    depolarizing,
    ghz_locality,
    ghz_state,
    locality_vector,
    maximally_mixed,
    pauli_string,
    pauli_string_locality,
    phase_flip,
    swap_circuit,
    zero_state,
    zero_state_locality,
    zz_chain_locality,
    zz_chain_observable,
)
from ltmlab.channels import _conjugate

PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def hs_inner(a, b):
    return np.trace(a.conj().T @ b)


def _channel_zoo(rng):
    """One instance of every channel family, all on two qubits (d = 4)."""
    part = SubsystemPartition.qubits(2)
    u = haar(4, rng)
    return [
        Unitary(u),
        swap_circuit(),
        cnot_double_cascade(2),
        random_kraus_channel(4, 3, rng),
        Conjugation(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))),
        MixtureWithReplacement(0.3, random_density(4, rng), Unitary(u)),
        TensorProductChannel(part, (amplitude_damping(0.25), phase_flip(0.1))),
        Composition((cnot_double_cascade(2), random_kraus_channel(4, 2, rng))),
    ]


def test_adjoint_duality_all_families():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for ch in _channel_zoo(rng):
        lhs = hs_inner(a, ch.apply(b))
        rhs = hs_inner(ch.apply_batch(a[None], adjoint=True)[0], b)
        assert abs(lhs - rhs) < 1e-9, type(ch).__name__


def test_trace_preservation_all_families():
    rng = np.random.default_rng(12)
    rho = random_density(4, rng)
    for ch in _channel_zoo(rng):
        if isinstance(ch, Conjugation):
            continue  # not trace preserving by design
        assert np.trace(ch.apply(rho)) == pytest.approx(1.0, abs=1e-10)


def test_unitality_of_adjoint_all_families():
    # E-adjoint applied to the identity returns the identity for TP maps.
    rng = np.random.default_rng(13)
    eye = np.eye(4, dtype=complex)
    for ch in _channel_zoo(rng):
        if isinstance(ch, Conjugation):
            continue
        assert np.abs(ch.apply_batch(eye[None], adjoint=True)[0] - eye).max() < 1e-9


def test_unitary_validation():
    with pytest.raises(ValueError, match="not unitary"):
        Unitary(np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        Unitary(np.ones((2, 3)))


def test_kraus_validation():
    with pytest.raises(ValueError, match="at least one"):
        KrausChannel(())
    with pytest.raises(ValueError, match="trace preserving"):
        KrausChannel((np.eye(2) * 0.5,))


def test_mixture_validation():
    ident = Unitary(np.eye(2))
    sigma = maximally_mixed(2)
    with pytest.raises(ValueError, match="probability"):
        MixtureWithReplacement(1.5, sigma, ident)
    with pytest.raises(ValueError, match="unit trace"):
        MixtureWithReplacement(0.5, np.eye(2), ident)
    with pytest.raises(ValueError, match="Hermitian"):
        MixtureWithReplacement(0.5, np.array([[0.5, 1.0], [0.0, 0.5]]), ident)
    with pytest.raises(ValueError, match="positive semidefinite"):
        MixtureWithReplacement(0.5, np.diag([1.5, -0.5]), ident)


def test_gate_and_circuit_validation():
    with pytest.raises(ValueError, match="distinct"):
        Gate("cnot", (0, 0), np.eye(4))
    with pytest.raises(ValueError, match="shape"):
        Gate("h", (0,), np.eye(4))
    with pytest.raises(ValueError, match="not unitary"):
        Gate("cnot", (0, 1), 2 * CNOT)
    with pytest.raises(ValueError, match="outside"):
        CircuitUnitary(2, (Gate("cnot", (1, 2), np.eye(4)),))
    with pytest.raises(ValueError, match=r"cnot on qubits \(0, 2\) is not on two adjacent"):
        CircuitUnitary(3, (Gate("cnot", (0, 2), CNOT),))


def test_composition_validation():
    with pytest.raises(ValueError, match="at least one"):
        Composition(())
    with pytest.raises(ValueError, match="dimension"):
        Composition((Unitary(np.eye(2)), Unitary(np.eye(4))))


def test_tensor_product_validation():
    part = SubsystemPartition.qubits(2)
    with pytest.raises(ValueError, match="one factor"):
        TensorProductChannel(part, (amplitude_damping(0.1),))
    with pytest.raises(ValueError, match="dimension"):
        TensorProductChannel(part, (amplitude_damping(0.1), Unitary(np.eye(4))))


# ---------------------------------------------------------------------------
# Builders


def test_depolarizing_action():
    rng = np.random.default_rng(31)
    rho = random_density(2, rng)
    out = depolarizing(0.3).apply(rho)
    want = 0.7 * rho + 0.3 * np.eye(2) / 2
    assert np.abs(out - want).max() < 1e-12


def test_depolarizing_any_dimension():
    rng = np.random.default_rng(32)
    rho = random_density(4, rng)
    ch = depolarizing(1.0, dim=4)
    assert np.abs(ch.apply(rho) - np.eye(4) / 4).max() < 1e-12
    with pytest.raises(ValueError):
        depolarizing(-0.1)


def test_amplitude_damping_fixed_point():
    ch = amplitude_damping(0.4)
    ground = np.diag([1.0, 0.0]).astype(complex)
    assert np.abs(ch.apply(ground) - ground).max() < 1e-12
    excited = np.diag([0.0, 1.0]).astype(complex)
    out = ch.apply(excited)
    assert out[0, 0] == pytest.approx(0.4)
    assert out[1, 1] == pytest.approx(0.6)


def test_cnot_double_cascade_two_qubits_is_identity():
    # two CNOTs on the same pair cancel
    assert np.abs(cnot_double_cascade(2).matrix() - np.eye(4)).max() < 1e-12


def test_cnot_double_cascade_is_clifford():
    circ = cnot_double_cascade(4)
    assert len(circ.gates) == 6


def test_crx_gate_matches_exponential():
    theta = np.pi / 7
    block = scipy.linalg.expm(1j * theta * PAULIS["X"] / 2)
    want = np.eye(4, dtype=complex)
    want[2:, 2:] = block
    got = crx_cascade(2, theta).matrix()
    assert np.abs(got - want).max() < 1e-12


def test_cz_cascade_matrix():
    got = cz_cascade(2).matrix()
    assert np.abs(got - np.diag([1.0, 1.0, 1.0, -1.0])).max() < 1e-12


def test_swap_circuit_action():
    rng = np.random.default_rng(33)
    a = random_density(2, rng)
    b = random_density(2, rng, rank=1)
    swapped = swap_circuit().apply(np.kron(a, b))
    assert np.abs(swapped - np.kron(b, a)).max() < 1e-12


def test_circuit_adjoint_matches_matrix():
    circ = crx_cascade(3, 0.4)
    u = circ.matrix()
    rng = np.random.default_rng(34)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    out = circ.apply_batch(x[None], adjoint=True)[0]
    assert np.abs(out - u.conj().T @ x @ u).max() < 1e-11


def _embed(op, dims, positions):
    """Dense K on the full space: ``op`` on ``positions`` (in that order), identity elsewhere."""
    d = int(np.prod(dims))
    rest = [m for m in range(len(dims)) if m not in positions]
    order = [*positions, *rest]
    # perm[new, old] = 1 when ``new`` lists the digits of ``old`` in ``order``
    perm = np.eye(d).reshape(*dims, d).transpose(*order, len(dims)).reshape(d, d)
    return perm.T @ np.kron(op, np.eye(d // op.shape[-1])) @ perm


@pytest.mark.parametrize("positions", [(0,), (1,), (2, 0)])
@pytest.mark.parametrize("per_sample", [False, True])
def test_conjugate_matches_dense_reference(positions, per_sample):
    dims = (2, 3, 2)
    d, n = 12, 5
    sub = int(np.prod([dims[p] for p in positions]))
    rng = np.random.default_rng(40)
    shape = (n, sub, sub) if per_sample else (sub, sub)
    op = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    out = _conjugate(x, op, dims, positions)
    for i in range(n):
        k = _embed(op[i] if per_sample else op, dims, positions)
        assert np.abs(out[i] - k @ x[i] @ k.conj().T).max() < 1e-12


def _kraus_reference(ch):
    """Kraus operators of a factor from its fields: its .operators, or for
    (1 - p) U . U-dagger + p Tr[.] sigma with sigma = sum_i s_i |v_i><v_i|,
    sqrt(1 - p) U and every sqrt(p s_i) |v_i><j|."""
    if isinstance(ch, KrausChannel):
        return list(ch.operators)
    p, (vals, vecs), d = ch.probability, np.linalg.eigh(ch.fixed_point), ch.dim
    jumps = [np.sqrt(p * s) * np.outer(vecs[:, i], np.eye(d)[j])
             for i, s in enumerate(vals) for j in range(d)]
    return [np.sqrt(1 - p) * ch.inner.matrix, *jumps]


@pytest.mark.parametrize("adjoint", [False, True])
def test_tensor_product_matches_dense_reference(adjoint):
    dims = (2, 3, 2)
    factors = (amplitude_damping(0.3), depolarizing(0.2, 3), phase_flip(0.1))
    channel = TensorProductChannel(SubsystemPartition(dims), factors)
    rng = np.random.default_rng(41)
    x = rng.standard_normal((4, 12, 12)) + 1j * rng.standard_normal((4, 12, 12))
    expected = x
    for m, ch in enumerate(factors):
        ks = [_embed(k, dims, (m,)) for k in _kraus_reference(ch)]
        if adjoint:
            ks = [k.conj().T for k in ks]
        expected = sum(k @ expected @ k.conj().T for k in ks)
    out = channel.apply_batch(x, adjoint=adjoint)
    assert np.abs(out - expected).max() < 1e-12


def test_state_builders():
    z = zero_state(2)
    assert z[0, 0] == 1.0 and np.abs(z).sum() == 1.0
    g = ghz_state(3)
    assert np.trace(g) == pytest.approx(1.0)
    assert np.trace(g @ g).real == pytest.approx(1.0)  # pure
    assert np.abs(maximally_mixed(3) - np.eye(3) / 3).max() == 0.0


def test_pauli_string_builder():
    zz = pauli_string(2, "ZZ")
    assert np.abs(zz - np.diag([1.0, -1.0, -1.0, 1.0])).max() == 0.0
    with pytest.raises(ValueError):
        pauli_string(3, "ZZ")


def test_zz_chain_observable_norms():
    n, h = 4, 0.75
    obs = zz_chain_observable(n, h)
    assert abs(np.trace(obs)) < 1e-12
    # n ring terms, mutually orthogonal Pauli strings
    assert np.trace(obs @ obs).real == pytest.approx(n * h * h * 2 ** n)


def test_zz_chain_locality_matches_dense():
    n, h = 3, 1.5
    vec = zz_chain_locality(n, h)
    dense = locality_vector(vec.partition, zz_chain_observable(n, h))
    assert np.abs(vec.weights - dense.weights).max() < 1e-9
    with pytest.raises(ValueError, match="n >= 3"):
        zz_chain_locality(2, 1.0)


def test_ghz_locality_matches_dense():
    for n in (2, 3, 4):
        vec = ghz_locality(n)
        dense = locality_vector(vec.partition, ghz_state(n))
        assert np.abs(vec.weights - dense.weights).max() < 1e-12
        assert vec.weights.sum() == pytest.approx(1.0)  # purity of GHZ


def test_zero_state_locality_matches_dense():
    vec = zero_state_locality(3)
    dense = locality_vector(vec.partition, zero_state(3))
    assert np.abs(vec.weights - dense.weights).max() < 1e-12


def test_pauli_string_locality_matches_dense():
    vec = pauli_string_locality(3, "XIZ", coefficient=0.5)
    dense = locality_vector(
        vec.partition, 0.5 * pauli_string(3, "XIZ")
    )
    assert np.abs(vec.weights - dense.weights).max() < 1e-12
    with pytest.raises(ValueError, match="Pauli letter"):
        pauli_string_locality(2, "QZ")
