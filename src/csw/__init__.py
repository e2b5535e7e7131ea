"""csw: construction-scheme workbench.

Finite-depth construction schemes, recursively amalgamated norming families
(alternating and scaled-cut variants), exact rational polyhedral norms, LP
duality, and capture experiments.

`import csw` loads no submodule.  Each public name is looked up in its
defining module when it is read (PEP 562), and is not copied here, so
`csw.X` is always that module's binding and a command loads only the
modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "analysis": (
        "BasisConstantResult", "Claim", "EpsExperimentConfig", "ExperimentReport",
        "KExperimentConfig", "SeparationConfig", "basis_constant", "check_biorthogonality",
        "coherence_report", "run_K_experiment", "run_eps_experiment", "verify_eps_separation",
        "well_definedness_report",
    ),
    "errors": (),
    "hull": ("HullCertificate", "dual_norm", "in_symmetric_hull", "polar_support"),
    "norming": (
        "Functional", "NormingFamily", "Origin", "build_K_family", "build_eps_family",
        "family_dumps", "family_from_json", "family_loads", "family_to_json", "global_dual",
        "norm", "spread",
    ),
    "schemes": (
        "AxiomReport", "Capture", "DeltaSystem", "Scheme", "SchemeSet", "TypeSpec",
        "build_scheme", "check_axioms", "find_capture", "is_delta_system", "position_map",
        "scheme_dumps", "scheme_from_json", "scheme_loads", "scheme_to_json",
        "type_violations", "validate_type",
    ),
    "simplex": ("LinearConstraint", "LpSolution", "constraint", "simplex_solve"),
    "vectors": (
        "SparseVector", "format_rational", "format_vector", "pair", "parse_rational",
        "parse_vector",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
