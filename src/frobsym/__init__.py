"""frobsym: residual verification for the geometry of statistical manifolds.

The library builds, from concrete finite inputs, the structures that a
dually-flat statistical manifold is supposed to carry -- split-number
arithmetic, cumulant metrics, tangent multiplications, Frobenius/Novikov
algebras, symplectic forms, Hamiltonians and Poisson brackets -- and
verifies their defining identities numerically, reporting residuals
against explicit tolerances.

Submodules
----------
paracomplex   rank-2 split algebra, inversion, idempotent coordinates
statmanifold  finite exponential families and cumulant tensors
geometry      metric fields, curvature, Hessian cones, dual connections
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
    idempotent_decompose,
    idempotent_recompose,
    para_conj,
    para_inverse,
    para_mul,
)
from .statmanifold import (
    ExponentialFamily,
    cumulant_tensor,
    dual_coordinates,
    gibbs_density,
    natural_from_dual,
    potential_eval,
)
from .geometry import (
    HessianStructure,
    MetricField,
    PotentialField,
    automorphism_invariance_residual,
    christoffel,
    cone_multiply,
    curvature_flatness,
    dual_connections,
    hessian_log_metric,
    hessian_structure,
)
from .frobenius import (
    FrobeniusAlgebra,
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
    closedness_residual,
    exterior_derivative,
    integrate,
    integrate_many,
    legendre_hamiltonian,
    paracomplex_two_form,
)
from .poisson import (
    BracketResiduals,
    LatticeBracket,
    StructureConstants,
    bracket_property_residuals,
    canonical_bracket,
    extended_bracket,
    lattice_hydro_bracket,
    lattice_jacobi_residual,
    local_lie_bracket,
    so3_constants,
)

__version__ = "0.1.0"
