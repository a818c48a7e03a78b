"""Channel algebra: adjoints, Choi positivity, normal form, builders."""

import numpy as np
import pytest
import scipy.linalg

from conftest import haar, random_density, random_kraus_channel

from ltmlab import (
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
    choi_matrix,
    cnot_double_cascade,
    crx_cascade,
    cz_cascade,
    depolarizing,
    ghz_locality,
    ghz_state,
    locality_vector,
    maximally_mixed,
    normal_form,
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
        rhs = hs_inner(ch.apply_adjoint(a), b)
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
        assert np.abs(ch.apply_adjoint(eye) - eye).max() < 1e-9


def test_kraus_flatten_matches_action():
    rng = np.random.default_rng(14)
    rho = random_density(4, rng)
    for ch in _channel_zoo(rng):
        ops = ch.kraus_operators()
        rebuilt = sum(k @ rho @ k.conj().T for k in ops)
        assert np.abs(rebuilt - ch.apply(rho)).max() < 1e-9, type(ch).__name__


def test_kraus_flatten_limit():
    ch = random_kraus_channel(4, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="refusing to flatten"):
        Composition((ch, ch, ch)).kraus_operators(max_ops=16)


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
    with pytest.raises(ValueError, match="outside"):
        CircuitUnitary(2, (Gate("cnot", (1, 2), np.eye(4)),))


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


def test_choi_positive_for_cp_maps():
    rng = np.random.default_rng(21)
    ch = random_kraus_channel(3, 4, rng)
    choi = choi_matrix(ch)
    assert np.abs(choi - choi.conj().T).max() < 1e-10
    assert np.linalg.eigvalsh(choi).min() > -1e-10
    # trace of the Choi matrix equals the dimension for TP maps
    assert np.trace(choi).real == pytest.approx(3.0, abs=1e-10)


def test_choi_rank_one_for_unitaries():
    u = haar(4, np.random.default_rng(22))
    vals = np.linalg.eigvalsh(choi_matrix(Unitary(u)))
    assert vals[-1] == pytest.approx(4.0, abs=1e-9)
    assert np.abs(vals[:-1]).max() < 1e-9


# ---------------------------------------------------------------------------
# Single-qubit normal form


def _ptm(channel):
    paulis = [PAULIS[c] for c in "IXYZ"]
    out = np.zeros((4, 4))
    for j, pj in enumerate(paulis):
        img = channel.apply(pj)
        for i, pi in enumerate(paulis):
            out[i, j] = np.trace(pi @ img).real / 2.0
    return out


def _rotation_of(u):
    """Bloch rotation of X -> u X u-dagger."""
    r = np.zeros((3, 3))
    for j, pj in enumerate("XYZ"):
        img = u @ PAULIS[pj] @ u.conj().T
        for i, pi in enumerate("XYZ"):
            r[i, j] = np.trace(PAULIS[pi] @ img).real / 2.0
    return r


def _ptm_from_normal_form(nf):
    mid = np.eye(4)
    mid[1:, 0] = nf.displacement
    mid[1:, 1:] = np.diag(nf.scaling)
    pre = np.eye(4)
    pre[1:, 1:] = _rotation_of(nf.pre_unitary)
    post = np.eye(4)
    post[1:, 1:] = _rotation_of(nf.post_unitary)
    return pre @ mid @ post


def test_normal_form_depolarizing():
    nf = normal_form(depolarizing(0.5))
    assert np.abs(nf.scaling - 0.5).max() < 1e-12
    assert np.abs(nf.displacement).max() < 1e-12


def test_normal_form_amplitude_damping():
    gamma = 0.36
    nf = normal_form(amplitude_damping(gamma))
    assert np.abs(nf.displacement - np.array([0.0, 0.0, gamma])).max() < 1e-12
    want = np.array([np.sqrt(1 - gamma), np.sqrt(1 - gamma), 1 - gamma])
    assert np.abs(nf.scaling - want).max() < 1e-12


def test_normal_form_phase_flip():
    # the raw Bloch scaling (0.6, 0.6, 1.0) gets sorted into canonical
    # descending order by axis-permuting rotations
    ch = phase_flip(0.2)
    nf = normal_form(ch)
    assert np.abs(nf.displacement).max() < 1e-12
    assert np.abs(nf.scaling - np.array([1.0, 0.6, 0.6])).max() < 1e-12
    assert np.abs(_ptm_from_normal_form(nf) - _ptm(ch)).max() < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_normal_form_reconstructs_random_channels(seed):
    rng = np.random.default_rng(100 + seed)
    ch = random_kraus_channel(2, 3, rng)
    nf = normal_form(ch)
    # factor unitaries are honest single-qubit rotations
    for u in (nf.pre_unitary, nf.post_unitary):
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-9
    assert np.abs(_ptm_from_normal_form(nf) - _ptm(ch)).max() < 1e-8
    assert nf.scaling[0] >= nf.scaling[1] - 1e-12
    assert nf.scaling[1] >= abs(nf.scaling[2]) - 1e-12


def test_normal_form_rejects_non_tp():
    with pytest.raises(ValueError, match="trace preserving"):
        normal_form(Conjugation(np.diag([0.5, 0.3])))
    with pytest.raises(ValueError, match="single-qubit"):
        normal_form(Unitary(np.eye(4)))


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
    assert circ.is_clifford
    assert len(circ.gates) == 6
    assert not crx_cascade(4).is_clifford


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
    assert np.abs(circ.apply_adjoint(x) - u.conj().T @ x @ u).max() < 1e-11


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


@pytest.mark.parametrize("adjoint", [False, True])
def test_tensor_product_matches_dense_reference(adjoint):
    dims = (2, 3, 2)
    factors = (amplitude_damping(0.3), depolarizing(0.2, 3), phase_flip(0.1))
    channel = TensorProductChannel(SubsystemPartition(dims), factors)
    rng = np.random.default_rng(41)
    x = rng.standard_normal((4, 12, 12)) + 1j * rng.standard_normal((4, 12, 12))
    expected = x
    for m, ch in enumerate(factors):
        ks = [_embed(k, dims, (m,)) for k in ch.kraus_operators()]
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
        assert vec.total == pytest.approx(1.0)  # purity of GHZ


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
