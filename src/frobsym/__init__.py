"""frobsym: residual verification for the geometry of statistical manifolds.

The library builds, from concrete finite inputs, the structures that a
dually-flat statistical manifold is supposed to carry -- split-number
arithmetic, cumulant metrics, tangent multiplications, Frobenius/Novikov
algebras, symplectic forms, Hamiltonians and Poisson brackets -- and
verifies their defining identities numerically, reporting residuals
against explicit tolerances.

Submodules
----------
paracomplex   rank-2 split algebra, idempotents, Hermitian pairing
statmanifold  finite exponential families and cumulant tensors
geometry      metric fields, curvature, Hessian-cone structures, pencils
frobenius     algebra construction and axiom residuals
symplectic    forms, Legendre transform, Hamiltonian flows
poisson       bracket variants and the lattice hydrodynamic operator
battery       declarative check specs, the runner, and reports
cli           the ``frobsym`` command line entry point
"""

from .errors import (
    DegenerateAlgebra,
    DegenerateForm,
    DegenerateMetric,
    DegeneratePencil,
    DimensionMismatch,
    DomainViolation,
    FrobsymError,
    InvalidFamily,
    InvalidStructure,
    NonConvergence,
    NonFiniteValue,
    NonPositivePotential,
    ParseError,
    SchemaError,
    ZeroDivisor,
)
from .paracomplex import (
    IdempotentCoords,
    ParaNumber,
    ParaStructure,
    ParaVector,
    idempotent_decompose,
    idempotent_recompose,
    para_conj,
    para_hermitian_product,
    para_inverse,
    para_mul,
    peirce_reflect,
)
from .statmanifold import (
    CumulantTensor,
    ExponentialFamily,
    cumulant_tensor,
    dual_coordinates,
    fisher_metric,
    gibbs_density,
    natural_from_dual,
    pairing,
    potential_eval,
)
from .geometry import (
    CurvatureReport,
    MetricField,
    PotentialField,
    automorphism_invariance_residual,
    christoffel,
    cone_multiply,
    curvature_flatness,
    dual_connections,
    flat_pencil_check,
    hessian_log_metric,
)
from .frobenius import (
    FrobeniusAlgebra,
    WDVVResidual,
    algebra_from_potential,
    find_idempotents_rank2,
    frobenius_axioms,
    novikov_residuals,
    wdvv_residual,
)
from .symplectic import (
    LorentzLagrangian,
    Observable,
    PhasePoint,
    SeparableHamiltonian,
    Trajectory,
    TwoForm,
    canonical_two_form,
    closedness_residual,
    dbar_split_residuals,
    dolbeault_form,
    exterior_derivative,
    hamiltonian_vector_field,
    integrate,
    integrate_many,
    legendre_hamiltonian,
    paracomplex_two_form,
    quadratic_energy,
    realified_dolbeault_two_form,
)
from .poisson import (
    BracketResiduals,
    LatticeBracket,
    StructureConstants,
    bracket_property_residuals,
    canonical_bracket,
    evolution_derivative,
    extended_bracket,
    lattice_hydro_bracket,
    lattice_jacobi_residual,
    local_lie_bracket,
    paracomplex_bracket,
    so3_constants,
)

__version__ = "0.1.0"
