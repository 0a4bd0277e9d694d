"""Exact-arithmetic invariants of 3-sphere bundles over the 4-sphere,
their spherical T-dual pairs, Brieskorn-Pham singularity links, and
homotopy Hopf manifolds.

Every computation is exact (arbitrary-precision integers and rationals).
The bundle cohomology has a second, Smith-normal-form route
(gysin_cohomology) that the tests check it against; the Kunneth products
are checked against closed values and associativity.
"""

from .abelian import (
    TRIVIAL,
    Z,
    AbelianGroup,
    GradedGroups,
    cokernel_group,
    kernel_group,
    kunneth,
    sphere_cohomology,
    tensor_and_tor,
)
from .brieskorn import (
    BrieskornPham,
    CanonicalType,
    MilnorLattice,
    Spectrum,
    a_lattice,
    canonical_type,
    category_hom_dims,
    chain_euler_matrix,
    hom_dims_product,
    in_sphere_link_family,
    milnor_family,
    milnor_lattice,
    milnor_number,
    spectrum,
    weights_and_degree,
)
from .bundles import (
    MilnorBundle,
    bundle_cohomology,
    canonical_form,
    clutching_compose,
    gysin_cohomology,
    lambda_invariant,
    star_quotient,
)
from .errors import (
    ConfigMismatch,
    DegenerateInput,
    DomainError,
    InvalidArgument,
    InvalidRep,
    NotHomotopySphere,
    NotPrincipal,
    OutOfFamily,
    Unreachable,
)
from .groups import (
    DEFAULT_CONFIG,
    GroupConfig,
    LinkIsotropy,
    RepClass,
    Sigma8Element,
    Theta7Element,
    compose,
    de_sapio_steps,
    family_weights,
    fano_moduli_compose,
    is_orbifold_rep,
    link_isotropies,
    sigma33,
    sigma8,
    sigma_tilde8,
    theta7,
)
from .hodge import (
    NONUNIT,
    UNIT,
    HodgeDiamond,
    betti_vector,
    branch_of_euler,
    ddbar_constraints_check,
    enumerate_admissible_diamonds,
    hopf_hodge_numbers,
    hopf_manifold_cohomology,
    mall_diamond,
)
from .snf import IntMatrix, determinant, invariant_factors, rank, smith_normal_form
from .tduality import (
    FluxedBundle,
    correspondence_h7,
    euler_preserving_dual,
    lifted_flux,
    principal_dual,
)

__version__ = "0.1.0"
