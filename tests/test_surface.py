"""Every public name has a caller outside the test suite.

A name in ``ltmlab.__all__`` passes when it appears as an identifier (a
name, an attribute or an imported name, not a string or a comment) in the
package modules other than ``__init__.py``, in ``scripts/`` or in
``perfbench/``.  The names in ``KEPT_WITHOUT_CALLER`` are kept on purpose,
each for the reason given.
"""

import ast
from pathlib import Path

import ltmlab

ROOT = Path(__file__).resolve().parents[1]

KEPT_WITHOUT_CALLER = {
    # ROADMAP item 4 wires these into the small-angle study or deletes them.
    "ltm_sampled": "ROADMAP item 4",
    "qresnet_estimate": "ROADMAP item 4",
    "check_polynomial_scaling": "ROADMAP item 4",
    # The paper's absorption matrix of the transient classes.
    "absorption": "test_spectral::test_replacement_mixture_absorption_identities",
    # Local-noise and Clifford fixtures of the acceptance tests.
    "TensorProductChannel": "test_acceptance::test_unital_contractive_channel_kills_variance",
    "Composition": "test_acceptance::test_transfer_matrix_structural_invariants",
    "depolarizing": "test_acceptance::test_unital_contractive_channel_kills_variance",
    "amplitude_damping": "test_acceptance::test_transfer_matrix_structural_invariants",
    "phase_flip": "test_acceptance::test_transfer_matrix_structural_invariants",
    "cz_cascade": "test_acceptance::test_transfer_matrix_structural_invariants",
}


def _identifiers(path: Path) -> set[str]:
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add((node.asname or node.name).split(".")[-1])
            out.add(node.name.split(".")[-1])
    return out


def _caller_files() -> list[Path]:
    package = [p for p in (ROOT / "src" / "ltmlab").glob("*.py") if p.name != "__init__.py"]
    return [*package, *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def test_every_public_name_has_a_non_test_caller():
    assert set(KEPT_WITHOUT_CALLER) <= set(ltmlab.__all__)
    used = set().union(*(_identifiers(p) for p in _caller_files()))
    orphans = sorted(set(ltmlab.__all__) - used - set(KEPT_WITHOUT_CALLER))
    assert not orphans, f"public names used only by tests: {orphans}"
