"""csw: construction-scheme workbench.

Finite-depth construction schemes, recursively amalgamated norming families
(alternating and scaled-cut variants), exact rational polyhedral norms, LP
duality, and capture experiments.
"""

from .analysis import (
    BasisConstantResult,
    Claim,
    EpsExperimentConfig,
    ExperimentReport,
    KExperimentConfig,
    KSeparationConfig,
    SeparationConfig,
    basis_constant,
    check_biorthogonality,
    coherence_report,
    run_K_experiment,
    run_eps_experiment,
    verify_K_separation,
    verify_eps_separation,
    well_definedness_report,
)
from .hull import HullCertificate, dual_norm, in_symmetric_hull, polar_support
from .norming import (
    Functional,
    NormingFamily,
    Origin,
    build_K_family,
    build_eps_family,
    family_dumps,
    family_from_json,
    family_loads,
    family_to_json,
    global_dual,
    norm,
    spread,
)
from .schemes import (
    AxiomReport,
    Capture,
    DeltaSystem,
    Scheme,
    SchemeSet,
    TypeSpec,
    build_scheme,
    canonical_decomposition,
    check_axioms,
    find_capture,
    is_delta_system,
    make_captured_family,
    position_map,
    scheme_dumps,
    scheme_from_json,
    scheme_loads,
    scheme_to_json,
    type_violations,
    validate_type,
)
from .simplex import LinearConstraint, LpSolution, constraint, simplex_solve
from .vectors import (
    SparseVector,
    format_rational,
    format_vector,
    pair,
    parse_rational,
    parse_vector,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
