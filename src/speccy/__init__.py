"""Exact arithmetic of quadratic lattices, Weil representations, theta
series, Eisenstein coefficients, and CM special-divisor degrees, with a
cross-verified ledger of the finite-part degree identities."""

from .cm import (
    CMDegree,
    QuaternionAlgebra,
    QuaternionOrder,
    degree_bruteforce,
    degree_formula,
)
from .eisenstein import EisensteinPackage, EisensteinTable, a_plus, eisenstein_qexp, s_mu
from .imq import (
    ImQField,
    L_chi,
    L_derivative_data,
    LogLinear,
    completed_lambda,
    diff_set,
    functional_equation_defects,
    hilbert_symbol,
    rho,
    rho_bruteforce,
)
from .lattice import (
    Coset,
    DiscriminantGroup,
    InvariantError,
    QuadLattice,
    SublatticeEmbedding,
    discriminant_group,
    enumerate_coset_vectors,
    even_clifford_binary,
    glue_cosets,
    is_maximal,
    orthogonal_complement,
)
from .pullback import (
    EmbeddingContext,
    LedgerReport,
    cotaut_degree,
    pullback_table,
    verify_ledger,
)
from .qseries import (
    PrincipalPart,
    VVFormQ,
    constant_term_pairing,
    hejhal_principal_part,
    theta_series,
)
from .weil import WeilRep

__version__ = "0.1.0"
