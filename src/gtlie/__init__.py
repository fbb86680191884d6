"""Gel'fand-Tseitlin representations of sl(n,C), Z2-gradings from
order-2 automorphisms, simulation matrices, and graded contractions."""

from .algebra import (
    Grading,
    LieAlgebra,
    Report,
    TwoPartCase,
    adjoint_rep,
    bracket,
    burnside_span_dim,
    check_jacobi,
    classify_two_part,
    sl_algebra,
    trivial_grading,
    verify_grading,
)
from .autos import (
    Automorphism,
    SimulationMatrix,
    J_matrix,
    auto_inner,
    auto_outer,
    check_compatibility,
    contragredient_weight,
    decompose_rep_space,
    doubled_rep,
    find_simulation_matrix,
    grading_from_automorphism,
    is_self_contragredient,
    pattern_conjugate,
    rep_of_Xns,
    simulation_inner,
    verify_simulation,
)
from .contraction import (
    ContractedAlgebra,
    ContractedRep,
    EpsilonTable,
    PsiTable,
    contract_algebra,
    contract_rep,
    enumerate_binary_epsilon,
    enumerate_binary_psi,
    epsilon_from_rows,
    psi_from_rows,
    verify_epsilon,
    verify_psi,
    verify_rep_homomorphism,
)
from .errors import IncompatibleError, InputError, VerificationError
from .groups import AbelianGroup
from .gtrep import (
    GTPattern,
    GeneratorRep,
    HighestWeight,
    Representation,
    act_diagonal,
    build_representation,
    enumerate_patterns,
    row_sum,
    verify_commutation,
    verify_sl_trace,
    verify_transpose,
    weyl_dim,
)

__version__ = "0.1.0"
