"""Locality-transfer analysis of loss concentration in layered noisy circuits.

The package splits into five layers:

* :mod:`ltmlab.partitions` — subsystem partitions, local operator bases, and
  locality vectors (per-support-pattern operator mass).
* :mod:`ltmlab.channels` — channels (unitary circuits, Kraus sets, noise
  mixtures), their adjoints, and the catalog of built-in circuits, states,
  and observables.
* :mod:`ltmlab.ltm` — locality transfer matrices: exact (a matrix product
  operator for chain circuits, dense enumeration otherwise) and sampled.
* :mod:`ltmlab.spectral` + :mod:`ltmlab.variance` — canonical non-negative
  block decomposition, deep-circuit limits, and the variance formulas built
  on them.
* :mod:`ltmlab.montecarlo` + :mod:`ltmlab.cli` — Monte-Carlo ground truth
  and the experiment runner.
"""

__version__ = "0.1.0"

from .channels import (
    CNOT,
    CZ,
    SWAP,
    Channel,
    CircuitUnitary,
    Composition,
    Conjugation,
    Gate,
    KrausChannel,
    MixtureWithReplacement,
    TensorProductChannel,
    Unitary,
    amplitude_damping,
    cnot_double_cascade,
    crx_cascade,
    cz_cascade,
    depolarizing,
    ghz_locality,
    ghz_state,
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
from .ltm import (
    LocalityTransferMatrix,
    ltm_exact,
    ltm_sampled,
    mean_ltm_over_ensemble,
)
from .montecarlo import (
    LayeredCircuitSpec,
    MCEstimate,
    estimate_variance,
    haar_unitaries,
    qresnet_estimate,
)
from .partitions import (
    LocalityVector,
    SubsystemPartition,
    local_basis,
    locality_vector,
    locality_vectors,
    weighted_dot,
)
from .spectral import (
    CanonicalDecomposition,
    DeepLimit,
    IrreducibleBlock,
    NumericalFailure,
    absorption,
    decompose,
    deep_limit_matrix,
    period_of,
    perron,
)
from .variance import (
    ScalingDiagnostic,
    VarianceReport,
    check_polynomial_scaling,
    lower_bound,
    noise_model_deep,
    noise_series,
    noisy_layer_transfer,
    variance_deep,
    variance_deep_unitary,
    variance_exact,
)

__all__ = [
    "CNOT",
    "CZ",
    "SWAP",
    "__version__",
    # partitions
    "SubsystemPartition",
    "LocalityVector",
    "local_basis",
    "locality_vector",
    "locality_vectors",
    "weighted_dot",
    # channels
    "Channel",
    "Unitary",
    "CircuitUnitary",
    "Gate",
    "KrausChannel",
    "Conjugation",
    "MixtureWithReplacement",
    "TensorProductChannel",
    "Composition",
    "depolarizing",
    "amplitude_damping",
    "phase_flip",
    "cnot_double_cascade",
    "crx_cascade",
    "cz_cascade",
    "swap_circuit",
    "zero_state",
    "maximally_mixed",
    "ghz_state",
    "pauli_string",
    "zz_chain_observable",
    "zz_chain_locality",
    "ghz_locality",
    "zero_state_locality",
    "pauli_string_locality",
    # transfer matrices
    "LocalityTransferMatrix",
    "ltm_exact",
    "ltm_sampled",
    "mean_ltm_over_ensemble",
    # spectral
    "CanonicalDecomposition",
    "IrreducibleBlock",
    "DeepLimit",
    "NumericalFailure",
    "decompose",
    "period_of",
    "perron",
    "deep_limit_matrix",
    "absorption",
    # variance
    "VarianceReport",
    "ScalingDiagnostic",
    "variance_exact",
    "variance_deep",
    "variance_deep_unitary",
    "lower_bound",
    "check_polynomial_scaling",
    "noisy_layer_transfer",
    "noise_series",
    "noise_model_deep",
    # monte carlo
    "MCEstimate",
    "LayeredCircuitSpec",
    "haar_unitaries",
    "estimate_variance",
    "qresnet_estimate",
]
