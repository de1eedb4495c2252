"""Complete sets of mutually unbiased bases from graph states.

Exact finite-field matrix constructions produce the adjacency matrices;
a dense complex state-vector layer independently verifies unbiasedness,
stabilizer relations, entanglement structure and measurement circuits.
"""

from .fields import (
    PolyZp,
    is_prime,
    is_quadratic_residue,
    smallest_nonresidue,
    sqrt_mod,
)
from .linalg import MatZp, congruence, rank_mod_p
from .symrep import (
    ConstructionError,
    PrimitivePolynomialRequired,
    SymmetricRep,
    choose_form_multiplier,
    find_irreducible,
    reduce_to_identity_char2,
    reduce_to_identity_odd,
    symmetric_representation,
    symmetrize_companion,
    symmetrizing_form_char2,
    symmetrizing_form_odd,
    tridiag_char_poly,
    tridiag_search,
    tridiagonal_matrix,
    tridiagonal_rep,
)
from .mubs import (
    MubSet,
    adjacency_set,
    canonical_json,
    from_document,
    fundamental_graphs,
    mub_set,
    read_document,
    shift_set,
    stack_document,
    to_document,
    verify_mu_condition,
)
from .states import (
    Circuit,
    Gate,
    apply_circuit,
    basis_element,
    basis_matrix,
    circuit_from_text,
    circuit_to_text,
    emit_measurement_circuit,
    graph_state,
    overlap,
    plus_state,
    simulate_measurement,
    stabilizer_check,
    verify_mu_numeric,
)
from .entanglement import (
    Bipartition,
    all_bipartitions,
    analysis_report,
    census,
    classify_basis,
    connectivity_rank,
    design_purity_check,
    numeric_purity,
    reduced_purity,
)
from .tables import REFERENCE_DIAGONALS, derive_rows, reference_poly

__version__ = "0.1.0"
